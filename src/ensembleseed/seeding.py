"""Reference k-mer indexing, ensemble k-mer collection, hit finding, chaining.

Ensemble k-mers are anchored at event columns: column c is the c-th event of
the window, and a sample contributes the k-mer starting at its first base for
that event, when the event emitted at least one base. Anchoring at event
columns makes positions comparable across samples, which is what lets a
support threshold t and a dedup radius make sense at all. Each k-mer keeps
the rows (sample calls) it occurs in, so one collection over the first n calls
answers every smaller grid point: a k-mer is kept at (t, n) iff its t-th
occurrence lies in a row below n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kmers import kmer_codes, reverse_complement_codes

_LOW = np.uint64(0xFFFFFFFF)  # the offset half of an index key
_CHUNK = 1 << 16  # keys an index build makes at a time: bounds its temporaries
_PAIRS = 1 << 13  # (hit, candidate) pairs a chaining batch tests, on either axis: bounds memory
_PAST = np.iinfo(np.int64).max  # above every chaining key, row and n


@dataclass
class KmerIndex:
    """All k-mer occurrences of the forward reference strand, as sorted integer keys.

    ``positions`` maps "+" to sorted ``uint64`` keys ``code << 32 | offset``, codes
    being those of ``kmers.kmer_codes``. A reverse-strand match at forward offset p
    is a forward occurrence of the query's reverse complement at p.
    """

    k: int
    positions: dict[str, np.ndarray]


def build_index(reference: str, k: int) -> KmerIndex:
    """Index every k-mer of the forward reference strand.

    k-mers overlapping a non-ACGT character are skipped.
    """
    if not 1 <= k <= 16:
        raise ValueError(f"seed length must be in [1, 16], got {k}")
    if len(reference) >= 2**32:
        raise ValueError(f"reference of {len(reference)} bases exceeds 32-bit offsets")
    codes = kmer_codes(reference, k)
    ambiguous = codes < 0  # before the shift: k=16 keys reach the int64 sign bit
    keys = codes.view(np.uint64)  # in place: skipped k-mers' keys sort past the part kept
    keys <<= np.uint64(32)
    for start in range(0, keys.size, _CHUNK):
        chunk = keys[start : start + _CHUNK]
        chunk |= np.arange(start, start + chunk.size, dtype=np.uint64)
    keys[ambiguous] = np.uint64(2**64 - 1)  # above every key: offsets stay below _LOW
    keys.sort()
    return KmerIndex(k=k, positions={"+": keys[: keys.size - np.count_nonzero(ambiguous)]})


@dataclass
class EnsembleKmers:
    """Ensemble k-mers as sorted ``col * 4**k + code`` keys, with their support.

    ``occurrences`` holds the rows (sample calls) each key occurs in,
    ascending, key after key: key i occurs in rows ``occurrences[s : s +
    support[i]]``, s being the support of the keys before it.
    """

    k: int
    keys: np.ndarray
    support: np.ndarray
    occurrences: np.ndarray

    @property
    def per_column(self) -> dict[int, dict[int, int]]:
        """``{event column: {code: support}}``, for reading the k-mers one column at a time."""
        columns: dict[int, dict[int, int]] = {}
        for key, count in zip(self.keys.tolist(), self.support.tolist()):
            columns.setdefault(key // 4**self.k, {})[key % 4**self.k] = count
        return columns

    def tth_row(self, t: int) -> np.ndarray:
        """Each key's t-th occurrence row; past every row and n when its support is below t."""
        if t < 1:
            raise ValueError(f"need t >= 1, got t={t}")
        row = np.full(self.keys.size, _PAST)
        some = self.support >= t
        row[some] = self.occurrences[(np.cumsum(self.support) - self.support + t - 1)[some]]
        return row

    def kept(self, t: int, n: int) -> np.ndarray:
        """Mask over keys: the key occurs in at least t of the rows below n.

        That holds iff its t-th occurrence lies in a row below n, so the kept
        sets nest: they shrink as t grows and grow with n.
        """
        return self.tth_row(t) < n


def _starts(values: np.ndarray) -> np.ndarray:
    """Mask of the elements of a sorted array that differ from the one before."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def collect_ensemble_kmers(calls, k: int) -> EnsembleKmers:
    """Every k-mer the calls anchor, per event column, with the rows it occurs in.

    Row i is ``calls[i]``. Column c of a call anchors the k-mer starting at
    its first base for event c, when that event emitted a base; so two calls
    with the same bases but other event lengths anchor apart. One
    ``kmer_codes`` pass reads the calls joined by a non-ACGT separator: a
    k-mer running past its call's end reads -1 and is dropped.
    """
    codes = kmer_codes("N".join(call.sequence for call in calls), k)
    sizes = [call.lengths.size for call in calls]
    row = np.repeat(np.arange(len(calls)), sizes)
    col = np.arange(row.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    length = np.concatenate([call.lengths for call in calls]).astype(np.int64)
    start = np.cumsum(length) - length + row  # one separator before each later call
    anchored = np.flatnonzero((length > 0) & (start < codes.size))
    picked = codes[start[anchored]]
    anchored, picked = anchored[picked >= 0], picked[picked >= 0]
    keys = col[anchored] * 4**k + picked
    order = np.argsort(keys, kind="stable")  # rows ascend within each key
    keys = keys[order]
    first = _starts(keys)
    support = np.diff(np.append(np.flatnonzero(first), keys.size))
    return EnsembleKmers(k=k, keys=keys[first], support=support, occurrences=row[anchored[order]])


def _ranges(lo: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``[lo[i], lo[i] + count[i])`` laid end to end, and each element's i."""
    owner = np.repeat(np.arange(count.size), count)
    return owner, np.arange(owner.size) + (lo - np.cumsum(count) + count)[owner]


def hit_order(hits: np.ndarray) -> np.ndarray:
    """The order that sorts hit rows by column, then offset, then strand; equal rows in any.

    It argsorts one int64 key ``col << 33 | offset << 1 | strand``, built in
    place, so columns must stay below 2**30 and offsets below 2**32.
    """
    key = hits[:, 0] << 32
    key |= hits[:, 1]
    key <<= 1
    key |= hits[:, 2]
    return key.argsort()


def find_hits(index: KmerIndex, kmers: EnsembleKmers) -> np.ndarray:
    """One sorted int64 row ``(query_col, ref_pos, strand index in STRANDS)`` per hit.

    A query column of 2**30 or more is a ``ValueError``: rows are sorted by
    ``hit_order``'s key.
    """
    if index.k != kmers.k:
        raise ValueError(f"index k={index.k} does not match ensemble k={kmers.k}")
    k = kmers.k
    cols, codes = np.divmod(kmers.keys, 4**k)
    if cols.max(initial=0) >= 2**30:
        raise ValueError(f"query column {cols.max()} is 2**30 or more: hit keys would pass int64")
    keys = index.positions["+"]
    if not keys.size:
        return np.empty((0, 3), dtype=np.int64)
    # query i is on strand i // cols.size: a "-" hit is a forward hit of the reverse complement
    queries = np.concatenate([codes, reverse_complement_codes(codes, k)])
    packed = queries.view(np.uint64)  # in place: code << 32 | i, i being the query's index
    packed <<= np.uint64(32)
    packed |= np.arange(packed.size, dtype=np.uint64)
    packed.sort()  # sorted queries probe the index in order
    # A code's keys lie in [code << 32, code << 32 | _LOW]. Only a query whose first key at
    # or past code << 32 carries its code searches for its range's end; a probe past the
    # last key reads the last key, of a lower code.
    lo = np.searchsorted(keys, packed & ~_LOW)
    found = np.flatnonzero((keys.take(lo, mode="clip") ^ packed) <= _LOW)
    lo, packed = lo[found], packed[found]
    owner, at = _ranges(lo, np.searchsorted(keys, packed | _LOW, side="right") - lo)
    strand, query = np.divmod((packed[owner] & _LOW).astype(np.int64), cols.size)
    hits = np.stack([cols[query], (keys[at] & _LOW).astype(np.int64), strand], axis=1)
    return hits[hit_order(hits)]


def _batches(open_: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """``(hit, candidate)`` pairs of the open hits, hit i's candidates running from lo[i] to hi[i].

    Each pass gives every open hit an equal share of ``_PAIRS`` (at least
    one) of its next candidates, in order, so a hit that the caller closes
    early tests few. A batch holds consecutive hits' pairs, at most
    ``_PAIRS``. A hit leaves once its candidates run out or the caller clears
    ``open_[i]`` between batches. ``lo`` is advanced in place.
    """
    todo = np.flatnonzero(open_ & (lo < hi))
    while todo.size:
        share = max(_PAIRS // todo.size, 1)  # share * len(part) <= _PAIRS
        for first in range(0, todo.size, _PAIRS):
            part = todo[first : first + _PAIRS]
            count = np.minimum(hi[part] - lo[part], share)
            owner, at = _ranges(lo[part], count)
            yield part[owner], at
            lo[part] += count
        todo = todo[open_[todo] & (lo[todo] < hi[todo])]


def _linked(col, walk, key, span: int, least: int, max_gap: int) -> np.ndarray:
    """Mask of the hits that have a linked successor among these hits.

    Hits come sorted by ``key = col * span + walk``, walk being nonnegative and
    below ``span - max_gap``. Hit j succeeds hit i when both its column and
    its walk exceed i's by ``least`` to ``max_gap``. It is searched along
    whichever axis holds fewer candidates for i: the occupied columns in
    range, each probed for its first hit at or past the start of the walk
    range, or the hits whose walk is in range, each tested for its column.
    Either search stops at i's first link.
    """
    by_walk = np.argsort(walk)  # the order of equal walks does not matter: any link will do
    ordered = walk[by_walk]
    walk_lo, walk_hi = np.empty_like(by_walk), np.empty_like(by_walk)
    walk_lo[by_walk] = np.searchsorted(ordered, ordered + least)  # sorted probes search fastest
    walk_hi[by_walk] = np.searchsorted(ordered, ordered + max_gap, side="right")
    del ordered
    occupied = col[_starts(col)]
    lo = np.searchsorted(occupied, col + least)
    hi = np.searchsorted(occupied, col + max_gap, side="right")
    columns = hi - lo <= walk_hi - walk_lo
    walked = ~columns
    lo[walked], hi[walked] = walk_lo[walked], walk_hi[walked]  # each hit keeps its own axis
    del walk_lo, walk_hi
    key = np.append(key, _PAST)  # a probe past every key finds _PAST
    for a, at in _batches(columns, lo, hi):
        probe = occupied[at] * span + (walk[a] + least)
        j = np.searchsorted(key, probe)
        columns[a[key[j] - probe <= max_gap - least]] = False  # j in that column, walk in range
    for a, at in _batches(walked, lo, hi):
        gap = col[by_walk[at]] - col[a]
        walked[a[(gap >= least) & (gap <= max_gap)]] = False
    return ~(columns | walked)  # a hit leaves its axis' open set only at a link


def chain_hits(
    hits: np.ndarray, length: int = 3, min_gap: int = 10, max_gap: int = 50
) -> np.ndarray:
    """The distinct ``find_hits`` rows that start a chain, sorted as ``find_hits`` sorts.

    A chain is ``length`` same-strand hits with strictly increasing coordinates
    in the match's own frame, adjacent start distances in [min_gap, max_gap] on
    both axes; the two distances may differ. Hit positions are forward-strand
    left endpoints, so colinear reverse-strand matches run right to left on the
    reference: for a "-" pool the reference distance is taken in walk
    direction, earlier minus later. Returns a ``(heads, 3)`` array of hit
    rows, one per distinct row that starts a chain.

    Round d keeps the hits that start a chain of d hits: those with a linked
    successor among round d-1's survivors, searched along the axis that offers
    each fewer candidates (see ``_linked``), at most ``_PAIRS`` pairs at a time.
    A gap so wide that a chaining key would pass int64 is a ``ValueError``.
    """
    if length < 1:
        raise ValueError(f"chain length must be >= 1, got {length}")
    if not 0 <= min_gap <= max_gap:
        raise ValueError(f"need 0 <= min_gap <= max_gap, got [{min_gap}, {max_gap}]")

    least = max(min_gap, 1)  # coordinates strictly increase along a chain
    parts = []
    cols, refs, strands = hits.T
    for s, sign in enumerate((1, -1)):  # STRANDS order: "+" walks right, "-" left
        pool = np.flatnonzero(strands == s)
        col, walk = cols[pool], sign * refs[pool]  # walk: reference in the match's direction
        walk -= walk.min(initial=0)
        # One key per distinct hit, sorted as (column, walk) is, so a search for
        # a column and a walk coordinate finds that column's first hit at or past it.
        span = int(walk.max(initial=0)) + max_gap + 1
        if (int(col.max(initial=0)) + 1) * span > _PAST:  # every key and probe stays below it
            raise ValueError(f"max_gap={max_gap} is too wide: chaining keys would pass int64")
        key, first = np.unique(col * span + walk, return_index=True)
        pool, col, walk = pool[first], col[first], walk[first]
        alive = np.arange(pool.size)
        for _ in range(length - 1):  # a chain of d hits starts a chain of d-1
            alive = alive[_linked(col[alive], walk[alive], key[alive], span, least, max_gap)]
        parts.append(pool[alive])
    heads = hits[np.concatenate(parts)]
    return heads[np.lexsort(heads.T[::-1])]
