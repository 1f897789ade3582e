"""Brute-force reference implementations used to pin the fast code paths.

Everything here trades speed for obviousness: explicit loops, explicit
formulas, no shared code with the package beyond plain dataclass fields.
The one exception is ``per_point_rows``, which composes the package's own
seeding steps one grid point at a time.
"""

import itertools
import math
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, namedtuple

import numpy as np


def normal_pdf(x, mean, sd):
    z = (x - mean) / sd
    return math.exp(-0.5 * z * z) / (sd * math.sqrt(2.0 * math.pi))


def normal_logpdf_matrix(means, loc, sd):
    """(events, states) Gaussian log densities as one plain numpy expression.

    A z whose square overflows gives -inf.
    """
    with np.errstate(over="ignore"):
        z = (np.asarray(means, dtype=np.float64)[:, None] - loc) / sd
        return -0.5 * z * z - np.log(sd * np.sqrt(2.0 * np.pi))


def aggregate_prob(prev, cur, k, order_probs):
    """Total state-to-state probability summed over every shift order."""
    p = 0.0
    for j, pj in enumerate(order_probs):
        size = 4**j
        if cur // size == prev % (4 ** (k - j)):
            p += pj / size
    return p


def table_prob(prev, cur, k, tables):
    """Total state-to-state probability from per-order tables, orders summed in order.

    ``tables[0][x]`` is the split probability of x and ``tables[j][x][b]`` the
    order-j edge from x that appends bases b.
    """
    p = 0.0
    for j, table in enumerate(tables):
        size = 4**j
        if cur // size == prev % (4 ** (k - j)):
            p += table[prev] if j == 0 else table[prev][cur % size]
    return p


def dense_viterbi(log_emissions, agg):
    """Viterbi over a dense (m, m) transition matrix from a uniform start.

    Every state is a candidate predecessor of every state; ties go to the
    lowest predecessor id and the lowest final state. Returns (path, log joint).
    """
    n, m = log_emissions.shape
    with np.errstate(divide="ignore"):
        log_a = np.log(agg)
    scores = log_emissions[0] - np.log(m)
    back = []
    for i in range(1, n):
        vals = scores[:, None] + log_a
        arg = vals.argmax(axis=0)
        back.append(arg)
        scores = log_emissions[i] + vals[arg, np.arange(m)]
    path = [int(np.argmax(scores))]
    log_joint = float(scores[path[0]])
    for arg in reversed(back):
        path.append(int(arg[path[-1]]))
    return path[::-1], log_joint


def gather_viterbi(log_emissions, tables, k):
    """Viterbi that scores every state by a max over its whole predecessor pool.

    Row y of the pool lists every predecessor of y, of every order, in
    ascending id order (a pair linked by several orders repeats), beside the
    log of the pair's total probability, orders summed in order. Each event
    takes, for every state, the max of the previous scores plus those logs;
    the traceback takes the first maximum of each row, so ties go to the
    lowest predecessor and the lowest final state. Returns (path, log joint).
    """
    n, m = log_emissions.shape
    edges = [(j, a) for j in range(len(tables)) for a in range(4**j)]
    pool = np.array([sorted(a * 4 ** (k - j) + (y >> (2 * j)) for j, a in edges) for y in range(m)])
    with np.errstate(divide="ignore"):
        log_t = np.log([[table_prob(int(x), y, k, tables) for x in pool[y]] for y in range(m)])
    scores = np.empty((n, m))
    scores[0] = log_emissions[0] - np.log(m)
    for i in range(1, n):
        scores[i] = log_emissions[i] + (scores[i - 1][pool] + log_t).max(axis=1)
    path = [int(np.argmax(scores[-1]))]
    for i in range(n - 1, 0, -1):
        row = pool[path[-1]]
        path.append(int(row[np.argmax(scores[i - 1][row] + log_t[path[-1]])]))
    return path[::-1], float(scores[-1, path[0]])


def order_by_order_traceback(columns, tables, k, count, seed):
    """Stochastic traceback that gathers each event's candidates order by order.

    At every event, going backwards, the candidates of each draw's current
    state y are y itself (a split) and then, for j = 1, 2, ..., its 4**j
    order-j predecessors a*4**(k-j) + (y >> 2j) in code order. Each weighs its
    forward value times the edge probability into y; the draw picks the first
    candidate whose running weight exceeds u times the total. Returns the
    (count, n) array of paths.
    """
    n, m = columns.shape
    rng = np.random.default_rng(seed)
    draws = np.arange(count)
    cum = np.cumsum(columns[-1])
    u = rng.random(count) * cum[-1]
    cur = np.minimum(np.searchsorted(cum, u, side="right"), m - 1).astype(np.int64)
    paths = np.empty((count, n), dtype=np.int64)
    paths[:, -1] = cur
    for i in range(n - 2, -1, -1):
        col = columns[i]
        cands = [cur[:, None]]
        weights = [(col[cur] * tables[0][cur])[:, None]]
        for j in range(1, len(tables)):
            pool = (cur >> (2 * j))[:, None] + np.arange(4**j) * 4 ** (k - j)
            weights.append(col[pool] * tables[j][pool, (cur % 4**j)[:, None]])
            cands.append(pool)
        pool = np.concatenate(cands, axis=1)
        cw = np.cumsum(np.concatenate(weights, axis=1), axis=1)
        u = rng.random(count) * cw[:, -1]
        pick = np.minimum((cw <= u[:, None]).sum(axis=1), pool.shape[1] - 1)
        cur = pool[draws, pick]
        paths[:, i] = cur
    return paths


def smallest_order(x, y, k, max_shift):
    """The smallest order j <= max_shift whose shift links x to y, or None."""
    for j in range(max_shift + 1):
        if y // 4**j == x % 4 ** (k - j):
            return j
    return None


def kmer_name(code, k):
    return "".join("ACGT"[(code >> 2 * (k - 1 - i)) & 3] for i in range(k))


def translate_path(states, k, max_shift):
    """(sequence, per-event lengths) of one legal path, one event at a time.

    The first event reads its whole k-mer; each later one the last j bases of
    its k-mer, j being the smallest order linking it to its predecessor.
    """
    states = [int(s) for s in states]
    sequence, lengths = kmer_name(states[0], k), [k]
    for x, y in zip(states, states[1:]):
        j = smallest_order(x, y, k, max_shift)
        sequence += kmer_name(y, k)[k - j :]
        lengths.append(j)
    return sequence, lengths


def dict_count_transitions(paths, k, max_shift, mode):
    """The first counting: per-order totals in a dict, or a Counter of (source, target) pairs."""
    counts = {j: 0 for j in range(max_shift + 1)} if mode == "per-order" else Counter()
    for pi, states in enumerate(paths):
        states = [int(s) for s in states]
        if len(states) < 2:
            continue
        if min(states) < 0 or max(states) >= 4**k:
            raise ValueError(f"path {pi}: state codes out of range for k={k}")
        for pos, (x, y) in enumerate(zip(states, states[1:])):
            j = smallest_order(x, y, k, max_shift)
            if j is None:
                raise ValueError(
                    f"path {pi}, events {pos}..{pos + 1}: "
                    f"{kmer_name(x, k)} -> {kmer_name(y, k)} needs a shift beyond {max_shift}"
                )
            counts[j if mode == "per-order" else (x, y)] += 1
    return counts


def dict_estimate(counts, k, max_shift, mode, pseudocount):
    """(tables, order_probs) from ``dict_count_transitions``' counts, one edge at a time.

    Each out-edge of x gets (count + pseudocount) / (x's count + pseudocount *
    edges); per-order counts pool every state, and order j's pool splits evenly
    over its 4**j edges. order_probs is None for a per-transition model.
    """
    m = 4**k
    edges = sum(4**j for j in range(max_shift + 1))
    if mode == "per-order":
        total = sum(counts.values())
        if pseudocount == 0 and total == 0:
            raise ValueError("no observations and pseudocount 0 would leave zero rows")
        probs = [
            (counts[j] + pseudocount * 4**j) / (total + pseudocount * edges)
            for j in range(max_shift + 1)
        ]
        tables = [np.full(m, probs[0])]
        tables += [np.full((m, 4**j), probs[j] / 4**j) for j in range(1, max_shift + 1)]
        return tables, probs
    totals = [0] * m
    for (x, _), n in counts.items():
        totals[x] += n
    if pseudocount == 0 and 0 in totals:
        raise ValueError(
            f"state {kmer_name(totals.index(0), k)} has no observed transitions; "
            "pseudocount 0 would give it a zero row"
        )
    tables = [np.empty(m)] + [np.empty((m, 4**j)) for j in range(1, max_shift + 1)]
    for x in range(m):
        for table in tables:
            table[x] = pseudocount / (totals[x] + pseudocount * edges)
    for (x, y), n in counts.items():
        j = smallest_order(x, y, k, max_shift)
        cell = x if j == 0 else (x, y % 4**j)
        tables[j][cell] = (n + pseudocount) / (totals[x] + pseudocount * edges)
    return tables, None


def order_counts(k, per_order):
    """Count tables holding per_order[j] order-j transitions, all out of state A...A.

    Order j's count sits on the edge to A...AT...T (j Ts), which no smaller
    order links.
    """
    tables = [np.zeros(4**k)] + [np.zeros((4**k, 4**j)) for j in range(1, len(per_order))]
    for j, n in enumerate(per_order):
        tables[j].flat[4**j - 1] = n
    return tables


def pair_counts(k, max_shift, pairs):
    """Count tables holding n transitions x -> y for each (x, y): n, on their smallest order."""
    tables = [np.zeros(4**k)] + [np.zeros((4**k, 4**j)) for j in range(1, max_shift + 1)]
    for (x, y), n in pairs.items():
        j = smallest_order(x, y, k, max_shift)
        tables[j][x if j == 0 else (x, y % 4**j)] += n
    return tables


def paths_log_joints(log_emissions, paths, k, tables):
    """Log P(path, events) of each row of ``paths`` from a uniform start."""
    count, n = paths.shape
    emit = log_emissions[np.arange(n)[None, :], paths].sum(axis=1)
    step = np.array(
        [[table_prob(int(x), int(y), k, tables) for x, y in zip(p[:-1], p[1:])] for p in paths]
    ).reshape(count, n - 1)
    return -np.log(4**k) + emit + np.log(step).sum(axis=1)


def path_joint(states, means, level_mean, level_stdv, k, order_probs, scaling=(1.0, 0.0, 1.0)):
    scale, shift, var = scaling
    m = 4**k
    p = 1.0 / m
    for i, s in enumerate(states):
        if i > 0:
            p *= aggregate_prob(states[i - 1], s, k, order_probs)
        mu = scale * level_mean[s] + shift
        sd = level_stdv[s] * var
        p *= normal_pdf(means[i], mu, sd)
    return p


def enumerate_joints(means, level_mean, level_stdv, k, order_probs, scaling=(1.0, 0.0, 1.0)):
    """Joint probability of every state path, indexed base-m big-endian.

    Path (s_0, ..., s_{n-1}) lands at index sum(s_i * m**(n-1-i)), matching
    itertools.product iteration order.
    """
    m = 4**k
    n = len(means)
    out = np.empty(m**n, dtype=np.float64)
    for idx, states in enumerate(itertools.product(range(m), repeat=n)):
        out[idx] = path_joint(states, means, level_mean, level_stdv, k, order_probs, scaling)
    return out


def path_index(states, m):
    idx = 0
    for s in states:
        idx = idx * m + int(s)
    return idx


def best_path(means, level_mean, level_stdv, k, order_probs, scaling=(1.0, 0.0, 1.0)):
    """Argmax path by exhaustive search; ties broken by iteration order."""
    m = 4**k
    best = None
    best_p = -1.0
    for states in itertools.product(range(m), repeat=len(means)):
        p = path_joint(states, means, level_mean, level_stdv, k, order_probs, scaling)
        if p > best_p:
            best_p = p
            best = states
    return list(best), best_p


def scan_kmer_positions(reference, kmer):
    """Every occurrence of ``kmer`` on either strand, forward left endpoints."""
    comp = {"A": "T", "C": "G", "G": "C", "T": "A"}
    rc = "".join(comp[b] for b in reversed(kmer))
    k = len(kmer)
    out = []
    for i in range(len(reference) - k + 1):
        window = reference[i : i + k]
        if window == kmer:
            out.append((i, "+"))
        if window == rc:
            out.append((i, "-"))
    return out


def index_entries(index):
    """``{code: [(offset, strand), ...]}`` decoded from a ``KmerIndex``'s key arrays.

    Each code's entries are sorted by (offset, strand), as a naive scan lists them.
    """
    entries = defaultdict(list)
    for strand, keys in index.positions.items():
        for key in keys.tolist():
            entries[key >> 32].append((key & 0xFFFFFFFF, strand))
    return {code: sorted(found) for code, found in entries.items()}


def anchor_kmers(row, event_offsets, k, gap="-"):
    """Event column -> the gap-free k-mer starting at the row's base for that event.

    A column anchors a k-mer when its slice of the row holds a base and at
    least k bases remain from there on.
    """
    base_prefix = [len(row[:off].replace(gap, "")) for off in event_offsets]
    bases = row.replace(gap, "")
    out = {}
    for c in range(len(event_offsets) - 1):
        start = base_prefix[c]
        if base_prefix[c + 1] > start and start + k <= len(bases):
            out[c] = bases[start : start + k]
    return out


Hit = namedtuple("Hit", "query_col ref_pos strand")


def as_hits(rows):
    """``Hit`` tuples of ``(query_col, ref_pos, strand)`` rows, strand 0 read as "+", 1 as "-"."""
    return [Hit(q, r, "+-"[s]) for q, r, s in np.asarray(rows).reshape(-1, 3).tolist()]


def hit_rows(hits):
    """The int64 rows of ``(query_col, ref_pos, strand)`` tuples, "+" stored as 0, "-" as 1."""
    return np.array([(q, r, "+-".index(s)) for q, r, s in hits], dtype=np.int64).reshape(-1, 3)


def loop_dedup(points, radius):
    """Greedy dedup by scanning every kept point: the first version.

    Points are scanned in (query_col, ref_pos) order, ties in input order; a
    point is kept unless an already-kept point is within ``radius`` in both
    coordinates. Returns the kept points.
    """
    kept = []
    kept_pos = []
    for point in sorted(points, key=lambda p: tuple(p[:2])):
        q, r = point[:2]
        clash = False
        for sq, sr in reversed(kept_pos):
            if sq < q - radius:
                break
            if abs(sq - q) <= radius and abs(sr - r) <= radius:
                clash = True
                break
        if not clash:
            kept.append(point)
            kept_pos.append((q, r))
    return kept


def chain_triples(hits, min_gap, max_gap):
    """All 3-hit chains by brute force over every ordered triple.

    Hits chain when they share a strand, query columns strictly increase with
    adjacent distances in [min_gap, max_gap], and reference positions advance
    the same way in the match's own direction: ascending for "+", descending
    for "-".
    """
    chains = []
    for a, b, c in itertools.permutations(hits, 3):
        if not (a.strand == b.strand == c.strand):
            continue
        sign = 1 if a.strand == "+" else -1
        ok = True
        for u, v in ((a, b), (b, c)):
            dq = v.query_col - u.query_col
            dr = sign * (v.ref_pos - u.ref_pos)
            if not (min_gap <= dq <= max_gap and min_gap <= dr <= max_gap and dq > 0 and dr > 0):
                ok = False
                break
        if ok:
            chains.append((a, b, c))
    return chains


def reach_chains(hits, length, min_gap, max_gap):
    """Chains by longest reach, then a traceback per head: the first fast version.

    Per strand, hits are sorted by (query column, walk coordinate). Going right
    to left, ``reach[i]`` is the longest chain that can start at hit i. Each hit
    with reach >= ``length`` heads one chain, traced by taking, at every step,
    the first linked successor in that order whose reach covers the hits still
    needed. Returns the chains as tuples of hits, sorted by their first hit's
    (query column, reference position, strand).
    """
    by_strand = defaultdict(list)
    for hit in set(hits):
        by_strand[hit.strand].append(hit)
    chains = []
    for strand in sorted(by_strand):
        sign = 1 if strand == "+" else -1
        pool = sorted(by_strand[strand], key=lambda h: (h.query_col, sign * h.ref_pos))
        cols = [h.query_col for h in pool]
        walk = [sign * h.ref_pos for h in pool]

        def successors(i):
            lo = bisect_left(cols, cols[i] + min_gap, lo=i + 1)
            hi = bisect_right(cols, cols[i] + max_gap, lo=lo)
            return range(lo, hi)

        def links(i, j):
            gap_r = walk[j] - walk[i]
            return min_gap <= gap_r <= max_gap and cols[j] > cols[i] and gap_r > 0

        reach = [1] * len(pool)
        for i in range(len(pool) - 1, -1, -1):
            reach[i] = 1 + max((reach[j] for j in successors(i) if links(i, j)), default=0)
        for i in range(len(pool)):
            if reach[i] < length:
                continue
            chain = [pool[i]]
            cur = i
            for depth in range(length - 1, 0, -1):
                for j in successors(cur):
                    if reach[j] >= depth and links(cur, j):
                        chain.append(pool[j])
                        cur = j
                        break
            chains.append(tuple(chain))
    chains.sort(key=lambda c: (c[0].query_col, c[0].ref_pos, c[0].strand))
    return chains


def edit_distance(a, b):
    """Textbook O(len(a)*len(b)) dynamic program."""
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


def per_point_rows(window, index, config, t, n):
    """One grid point's candidate rows scored on their own: hit rows or chain heads.

    Collects the point's k-mers, looks them up and chains them with one call
    each, the path that ``evaluate.window_points`` serves for a whole grid in
    one pass.
    """
    from ensembleseed.seeding import chain_hits, collect_ensemble_kmers, find_hits

    rows = [window.viterbi] if config.use_viterbi else None
    hits = find_hits(index, collect_ensemble_kmers(window, config.seed_k, n, t, rows=rows))
    if config.kind == "single":
        return hits
    return chain_hits(hits, config.chain_len, config.min_gap, config.max_gap)[:, 0]
