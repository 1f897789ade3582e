"""Decoding kernels: scaled forward pass, Viterbi, posterior path sampling.

The forward pass keeps each column rescaled to sum 1 (log-space would lose the
within-column ratios that traceback sampling needs); Viterbi runs in log space.
Both take one step per event over the shift structure of the state graph (see
``shifts``): forward sums products, Viterbi maxes sums. The cost per event is
O(m * out_degree) rather than O(m^2), and about O(m) per order under a
per-order model, whose order-j edges all share one weight.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .io import atomic_write, fasta_record, fasta_records, jsonl_records
from .kmers import BASES, decode_kmer
from .pore_model import Hmm, EventSequence
from .shifts import by_dropped_bases, incoming_edges, pair_probs, smallest_orders


class IllegalPathError(ValueError):
    """A state path contains a pair not connected by any allowed shift."""


@dataclass
class StatePath:
    """One k-mer state per event, with the log joint probability of (path, events)."""

    states: np.ndarray
    log_joint: float

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)


@dataclass
class ForwardMatrix:
    """Per-event forward columns, rescaled so each column sums to 1.

    The true forward probability is ``columns[i][s] * exp(sum(log_scale_factors[:i+1]))``;
    the factors are kept as logs so the total likelihood never over- or
    underflows.
    """

    columns: np.ndarray
    log_scale_factors: np.ndarray

    @property
    def log_likelihood(self) -> float:
        return float(self.log_scale_factors.sum())


@dataclass(eq=False)
class BaseCall:
    """A decoded DNA sequence plus the number of bases each event emitted.

    Event i emitted ``sequence[offset : offset + lengths[i]]``, its offset
    being the sum of the lengths before it. Calls compare and hash by
    identity.
    """

    sequence: str
    lengths: np.ndarray

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def event_spans(self) -> np.ndarray:
        """(n_events, 2) array of each event's [offset, length] in the sequence."""
        lengths = self.lengths.astype(np.int64)
        return np.column_stack([np.cumsum(lengths) - lengths, lengths])


@dataclass
class ReadEnsemble:
    """Viterbi call plus posterior sample calls for one read."""

    read_id: str
    viterbi: BaseCall
    samples: list[BaseCall]


def _normal_logpdf(x, loc, sd):
    """``-0.5 * z * z - log(sd * sqrt(2 pi))``, z = (x - loc) / sd, built in the one output array.

    Only ``-0.5 * z`` needs a temporary, made 16 rows at a time. Overflow quietly gives -inf.
    """
    with np.errstate(over="ignore"):
        z = np.subtract(x, loc)
        z /= sd
        for rows in np.split(z, range(16, len(z), 16)):
            rows *= -0.5 * rows
        z -= np.log(sd * np.sqrt(2.0 * np.pi))
    return z


def emission_log_matrix(hmm: Hmm, events: EventSequence) -> np.ndarray:
    """(n_events, n_states) log densities of each event under each state."""
    return _normal_logpdf(events.means[:, None], *hmm.levels(events.scaling))


def _emission(hmm: Hmm, events: EventSequence, logpdf) -> np.ndarray:
    """``logpdf`` checked against the read and model, or computed when None."""
    if logpdf is None:
        return emission_log_matrix(hmm, events)
    if logpdf.shape != (len(events), hmm.num_states):
        raise ValueError(
            f"read {events.read_id!r}: emission matrix has shape {logpdf.shape}, "
            f"need ({len(events)}, {hmm.num_states})"
        )
    return logpdf


def _incoming(prev: np.ndarray, trans, tables, combine, reduce) -> np.ndarray:
    """Reduce ``combine(prev[x], w)`` over the edges x -> y into every target y.

    ``tables`` holds one weight w per edge, laid out as ``trans.tables``:
    forward passes the probabilities with (multiply, add), Viterbi their logs
    with (add, maximum). Orders fold in one at a time, so a pair linked by
    several orders reduces its edges one by one.
    """
    k = trans.k
    out = combine(prev, tables[0])
    for j in range(1, trans.max_shift + 1):
        if trans.mode == "per-order" and j < k:
            # Every order-j edge weighs w_j, so each x = a*4**(k-j) + s sends
            # the same value to all targets s*4**j + b. Combining before
            # reducing over a keeps the per-edge values and their order; at
            # j = k the (4**k, 1) view would be summed pairwise, so order k
            # takes the other branch.
            shared = reduce.reduce(combine(prev, tables[j].flat[0]).reshape(4**j, 4 ** (k - j)))
            view = out.reshape(4 ** (k - j), 4**j)
            reduce(view, shared[:, None], out=view)
        else:
            # Reducing out x's dropped bases lands each edge's value on its target.
            edges = by_dropped_bases(combine(prev[:, None], tables[j]), k, j)
            reduce(out, reduce.reduce(edges).ravel(), out=out)
    return out


def forward(hmm: Hmm, events: EventSequence, logpdf=None) -> ForwardMatrix:
    """Scaled forward pass from a uniform start over all states.

    ``logpdf`` is the read's ``emission_log_matrix``, computed here when not
    given. Raises ValueError naming the read and event when a column has no
    finite, positive mass, as when no state reachable from the previous
    column can emit the event.
    """
    logpdf = _emission(hmm, events, logpdf)
    n, m = logpdf.shape
    col_max = logpdf.max(axis=1)
    trans = hmm.transitions
    log_sf = np.empty(n)

    with np.errstate(divide="ignore", invalid="ignore"):
        # Row i holds event i's emission probabilities until step i, their
        # only reader, overwrites it with column i.
        columns = np.subtract(logpdf, col_max[:, None])
        np.exp(columns, out=columns)
        raw = columns[0] / m
        for i in range(n):
            if i:
                raw = _incoming(columns[i - 1], trans, trans.tables, np.multiply, np.add)
                raw *= columns[i]
            total = raw.sum()
            np.divide(raw, total, out=columns[i])
            log_sf[i] = np.log(total) + col_max[i]
    bad = np.flatnonzero(~np.isfinite(log_sf))
    if bad.size:
        raise ValueError(
            f"read {events.read_id!r}: forward mass is zero or not finite at event {bad[0]}"
        )
    return ForwardMatrix(columns=columns, log_scale_factors=log_sf)


def viterbi(hmm: Hmm, events: EventSequence, logpdf=None) -> StatePath:
    """Most probable state path; ties break toward the lowest state id.

    ``logpdf`` is the read's ``emission_log_matrix``, computed here when not
    given. Raises ValueError naming the read and event when no path has a
    finite score, as when no state can emit an event.
    """
    logpdf = _emission(hmm, events, logpdf)
    n, m = logpdf.shape
    trans = hmm.transitions

    # Row y lists every predecessor of y in ascending id order, with the
    # pair's total probability, so argmax's first maximum is the lowest id
    # (a pair linked by several orders repeats with the same total).
    pool = np.sort(incoming_edges(trans.tables, hmm.k)[0], axis=1)
    with np.errstate(divide="ignore"):
        log_t = np.log(pair_probs(trans, pool, np.arange(m)[:, None]))
        log_tables = [np.log(t) for t in trans.tables]
    # A parallel pair (a repeat in its target's pool row) carries the sum of
    # its edges' weights, which the step's edge-by-edge max misses, so those
    # few targets (28 of 1,024 at k=5, max shift 2) take the max over their
    # pool row, held transposed: numpy takes a max across rows far faster
    # than along many short rows.
    parallel = np.flatnonzero((np.diff(pool, axis=1) == 0).any(axis=1))
    parallel_pool, parallel_log_t = (np.ascontiguousarray(a[parallel].T) for a in (pool, log_t))

    # scores[i] is the best log joint of events 0..i over paths ending in each
    # state. Only the scores are kept; the traceback finds each predecessor
    # from the previous row, so the step needs no argmax.
    scores = np.empty((n, m))
    scores[0] = logpdf[0] - np.log(m)
    for i in range(1, n):
        prev = scores[i - 1]
        top = _incoming(prev, trans, log_tables, np.add, np.maximum)
        top[parallel] = (prev[parallel_pool] + parallel_log_t).max(axis=0)
        np.add(logpdf[i], top, out=scores[i])
    # A row with no finite score leaves every later row without one too.
    if not np.isfinite(scores[-1]).any():
        bad = np.flatnonzero(~np.isfinite(scores).any(axis=1))[0]
        raise ValueError(f"read {events.read_id!r}: no finite Viterbi score at event {bad}")

    states = np.empty(n, dtype=np.int64)
    states[-1] = int(np.argmax(scores[-1]))
    for i in range(n - 1, 0, -1):
        row = pool[states[i]]
        states[i - 1] = row[np.argmax(scores[i - 1][row] + log_t[states[i]])]
    return StatePath(states=states, log_joint=float(scores[-1, states[-1]]))


def path_log_joint(hmm: Hmm, events: EventSequence, states: np.ndarray):
    """Log P(path, events) for an explicit state path, or for each row of a path array."""
    states = np.asarray(states, dtype=np.int64)
    emit = _normal_logpdf(events.means, *hmm.levels(events.scaling, states)).sum(axis=-1)
    trans = pair_probs(hmm.transitions, states[..., :-1], states[..., 1:])
    if np.any(trans <= 0):
        raise IllegalPathError("path contains a zero-probability transition")
    joints = -np.log(hmm.num_states) + emit + np.log(trans).sum(axis=-1)
    return float(joints) if states.ndim == 1 else joints


def sample_paths(
    hmm: Hmm,
    events: EventSequence,
    fwd: ForwardMatrix,
    count: int,
    seed,
) -> np.ndarray:
    """Draw independent exact posterior path samples by stochastic traceback.

    The forward matrix is computed once and shared across draws: the final
    state is drawn proportionally to the last column, then each earlier state
    proportionally to its forward value times the transition probability into
    the already-fixed successor. Returns an int64 (count, n_events) array, one
    path per row; ``path_log_joint`` scores its rows. ``seed`` may be an int
    or a numpy Generator; a given seed yields reproducible paths.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    F = fwd.columns
    n, m = F.shape
    if n != len(events) or m != hmm.num_states:
        raise ValueError("forward matrix does not match this model and read")
    if count == 0:
        return np.empty((0, n), dtype=np.int64)

    rng = np.random.default_rng(seed)
    trans = hmm.transitions
    # Candidates per state: itself (a split), then its order-1, order-2, ...
    # predecessors in code order; the draw picks the first candidate whose
    # cumulative weight exceeds u.
    pred, pred_w = incoming_edges(trans.tables, trans.k)
    last = pred.shape[1] - 1
    draws = np.arange(count)

    cum = np.cumsum(F[-1])
    u = rng.random(count) * cum[-1]
    cur = np.minimum(np.searchsorted(cum, u, side="right"), m - 1).astype(np.int64)

    paths = np.empty((count, n), dtype=np.int64)
    paths[:, -1] = cur
    for i in range(n - 2, -1, -1):
        pool = pred[cur]
        cw = np.cumsum(F[i][pool] * pred_w[cur], axis=1)
        u = rng.random(count) * cw[:, -1]
        pick = np.minimum((cw <= u[:, None]).sum(axis=1), last)
        cur = pool[draws, pick]
        paths[:, i] = cur
    return paths


def path_to_sequence(states: np.ndarray, k: int, max_shift: int | None = None):
    """Translate state paths to DNA using the shortest consistent interpretation.

    ``states`` is one path, giving a BaseCall, or a (rows, events) array whose
    rows are translated together, giving a list of BaseCalls. Each event
    contributes the last j bases of its k-mer: j is k for the first event, so
    it contributes its whole k-mer, and for every later event the smallest
    shift linking it to its predecessor (0 for splits). The call's lengths are
    those orders.
    """
    states = np.asarray(states, dtype=np.int64)
    paths = states.reshape(-1, states.shape[-1])
    limit = k if max_shift is None else max_shift
    orders = np.empty(paths.shape, dtype=np.int64)
    orders[:, 0] = k
    orders[:, 1:] = smallest_orders(paths[:, :-1], paths[:, 1:], k, limit)
    bad = np.argwhere(orders < 0)
    if bad.size:
        row, i = (int(v) for v in bad[0])
        where = f"row {row}, " if states.ndim == 2 else ""
        raise IllegalPathError(
            f"{where}events {i - 1}..{i}: {decode_kmer(int(paths[row, i - 1]), k)} -> "
            f"{decode_kmer(int(paths[row, i]), k)} needs a shift beyond {limit}"
        )
    # Row e of letters spells event e's k-mer, and the event contributes the
    # last orders[e] of them; the rows' bases come out one after another.
    lookup = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)
    flat = paths.ravel()
    letters = np.empty((flat.size, k), dtype=np.uint8)
    for d in range(k):
        letters[:, d] = lookup[(flat >> (2 * (k - 1 - d))) & 3]
    text = letters[np.arange(k) >= k - orders.reshape(-1, 1)].tobytes().decode("ascii")
    bounds = [0, *np.cumsum(orders.sum(axis=1)).tolist()]
    calls = [
        BaseCall(sequence=text[start:stop], lengths=lengths)
        for start, stop, lengths in zip(bounds, bounds[1:], orders.astype(np.uint8))
    ]
    return calls[0] if states.ndim == 1 else calls


def call_read(hmm: Hmm, events: EventSequence, n: int, seed) -> ReadEnsemble:
    """Viterbi call plus ``n`` posterior sample calls for one read.

    The emission matrix is built once for both kernels and dropped before the
    traceback; the samples are translated after the forward matrix is dropped,
    so the translation's temporaries never add to the kernels' peak memory.
    ``seed`` seeds the traceback, as in ``sample_paths``.
    """
    k, max_shift = hmm.k, hmm.transitions.max_shift
    logpdf = emission_log_matrix(hmm, events)
    best = viterbi(hmm, events, logpdf)
    samples = []
    if n > 0:
        fwd = forward(hmm, events, logpdf)
        del logpdf
        paths = sample_paths(hmm, events, fwd, n, seed)
        del fwd
        samples = path_to_sequence(paths, k, max_shift)
    return ReadEnsemble(events.read_id, path_to_sequence(best.states, k, max_shift), samples)


# ---------------------------------------------------------------------------
# Base-call files: FASTA plus a JSON-lines sidecar with one record per call.
# A record's "spans" string holds one character per event, chr(48 + length):
# lengths 0..16 (k <= 16) map to "0".."@", none of which JSON escapes.

_LENGTH_ZERO = ord("0")
_MAX_LENGTH = 16
SPANS_FIELDS = {"read_id": str, "call": object, "index": object, "spans": object}


def _call_label(kind: str, index: int | None) -> str:
    return "viterbi" if kind == "viterbi" else f"sample{index}"


def write_basecalls(fasta_path, spans_path, ensembles: list[ReadEnsemble]) -> None:
    with atomic_write(fasta_path) as fa, atomic_write(spans_path) as sp:
        for ens in ensembles:
            calls = [("viterbi", None, ens.viterbi)]
            calls += [("sample", i, call) for i, call in enumerate(ens.samples)]
            for kind, index, call in calls:
                fa.write(fasta_record(f"{ens.read_id} {_call_label(kind, index)}", call.sequence))
                spans = (call.lengths + _LENGTH_ZERO).tobytes().decode("ascii")
                record = {"read_id": ens.read_id, "call": kind, "index": index, "spans": spans}
                sp.write(json.dumps(record) + "\n")


def load_basecalls(fasta_path, spans_path) -> list[ReadEnsemble]:
    spans: dict[tuple[str, str], tuple[str, np.ndarray]] = {}
    for where, rec in jsonl_records(spans_path, SPANS_FIELDS):
        kind, index, text = rec["call"], rec["index"], rec["spans"]
        if not (kind == "viterbi" or (kind == "sample" and type(index) is int)):
            raise ValueError(f"{where}: unknown call {kind!r} with index {index!r}")
        if not isinstance(text, str):
            raise ValueError(
                f"{where}: spans must be a string of one length character per event, "
                f"got a JSON {type(text).__name__}"
            )
        lengths = np.frombuffer(text.encode("utf-8"), dtype=np.uint8) - np.uint8(_LENGTH_ZERO)
        if np.any(lengths > _MAX_LENGTH):
            bad = next(c for c in text if not 0 <= ord(c) - _LENGTH_ZERO <= _MAX_LENGTH)
            raise ValueError(f"{where}: span character {bad!r} encodes no length 0..{_MAX_LENGTH}")
        key = (rec["read_id"], _call_label(kind, index))
        if key in spans:
            raise ValueError(f"{where}: repeated {key[1]} call for read {key[0]!r}")
        spans[key] = (where, lengths)

    ensembles: list[ReadEnsemble] = []
    by_read: dict[str, ReadEnsemble] = {}
    seen: set[tuple[str, str]] = set()
    for lineno, header, seq in fasta_records(fasta_path):
        read_id, _, label = header.partition(" ")
        key = (read_id, label)
        if key not in spans:
            raise ValueError(f"{fasta_path}:{lineno}: no spans recorded for {header!r}")
        if key in seen:
            raise ValueError(f"{fasta_path}:{lineno}: repeated {label} call for read {read_id!r}")
        seen.add(key)
        spans_where, lengths = spans[key]
        covered = int(lengths.sum(dtype=np.int64))
        if covered != len(seq):
            raise ValueError(
                f"{spans_where}: spans cover {covered} bases, "
                f"the FASTA record {header!r} has {len(seq)}"
            )
        call = BaseCall(sequence=seq, lengths=lengths)
        if read_id not in by_read:
            by_read[read_id] = ReadEnsemble(read_id=read_id, viterbi=None, samples=[])
            ensembles.append(by_read[read_id])
        samples = by_read[read_id].samples
        due = _call_label("sample", len(samples))
        if label == "viterbi":
            by_read[read_id].viterbi = call
        elif label != due:
            raise ValueError(
                f"{fasta_path}:{lineno}: {label} call of read {read_id!r} where {due} is due: "
                f"sample indexes must run 0, 1, 2, ... in file order"
            )
        else:
            samples.append(call)
    for ens in ensembles:
        if ens.viterbi is None:
            raise ValueError(f"{fasta_path}: read {ens.read_id} has no viterbi call")
    for (read_id, label), (spans_where, _) in spans.items():
        if (read_id, label) not in seen:
            raise ValueError(f"{spans_where}: no FASTA record for the {label} call of {read_id!r}")
    return ensembles
