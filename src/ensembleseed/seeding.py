"""Reference k-mer indexing, ensemble k-mer collection, hit finding, chaining.

Ensemble k-mers are anchored at event columns: column c is the c-th event of
the window, and a sample contributes the k-mer starting at its first base for
that event, when the event emitted at least one base. Anchoring at event
columns makes positions comparable across samples, which is what lets a
support threshold t and a dedup radius make sense at all.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decode import BaseCall
from .kmers import kmer_codes, reverse_complement


class SeedHit(NamedTuple):
    """Left endpoints of a seed match: event column in the query, offset in the reference."""

    query_col: int
    ref_pos: int
    strand: str


@dataclass
class KmerIndex:
    """All k-mer occurrences of both reference strands, keyed by k-mer code.

    Codes are those of ``kmers.kmer_codes``. Reverse-strand entries store the
    forward coordinate of the match's left endpoint, so hit positions from
    either strand live on one axis.
    """

    k: int
    positions: dict[int, list[tuple[int, str]]]


def build_index(reference: str, k: int) -> KmerIndex:
    """Index every k-mer of the reference and of its reverse complement.

    k-mers overlapping a non-ACGT character are skipped. Each k-mer's entries
    are sorted by (offset, strand).
    """
    if not 1 <= k <= 16:
        raise ValueError(f"seed length must be in [1, 16], got {k}")
    L = len(reference)
    codes = np.concatenate(
        [kmer_codes(reference, k), kmer_codes(reverse_complement(reference), k)]
    )
    count = codes.size // 2
    # revcomp offset j covers forward bases [L-j-k, L-j)
    offsets = np.concatenate([np.arange(count), L - k - np.arange(count)])
    strand = np.repeat([0, 1], count)
    order = np.lexsort((strand, offsets, codes))
    order = order[codes[order] >= 0]
    codes = codes[order]
    strands = np.array(["+", "-"], dtype=object)[strand[order]]
    entries = list(zip(offsets[order].tolist(), strands.tolist()))
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    ends = np.append(starts[1:], codes.size)
    positions = {
        code: entries[a:b]
        for code, a, b in zip(codes[starts].tolist(), starts.tolist(), ends.tolist())
    }
    return KmerIndex(k=k, positions=positions)


@dataclass
class EnsembleKmers:
    """Thresholded k-mer codes per event column, with their sample support counts."""

    k: int
    per_column: dict[int, dict[int, int]]


def _row_anchor_kmers(call: BaseCall, k: int) -> np.ndarray:
    """``col * 4**k + code`` for each event column that anchors a k-mer in the call.

    The code is that of the k-mer starting at the call's first base for the
    column's event.
    """
    codes = kmer_codes(call.sequence, k)
    start, length = call.event_spans.T
    cols = np.flatnonzero((length > 0) & (start < codes.size))
    picked = codes[start[cols]]
    keep = picked >= 0
    return cols[keep] * 4**k + picked[keep]


def collect_ensemble_kmers(window, k: int, n: int, t: int, rows=None) -> EnsembleKmers:
    """k-mers supported by at least t of the first n sample calls, per event column.

    ``rows`` overrides the sample calls, letting a lone Viterbi call stand in
    as a single sample. Anchors are cached per call object: two calls with the
    same bases but different event lengths anchor differently.
    """
    if rows is None:
        rows = window.samples
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    if n > len(rows):
        raise ValueError(f"window has {len(rows)} sample rows, need n={n}")
    anchors = []
    for call in rows[:n]:
        keys = window.cache.get((k, call))
        if keys is None:
            keys = window.cache[(k, call)] = _row_anchor_kmers(call, k)
        anchors.append(keys)
    keys, support = np.unique(np.concatenate(anchors), return_counts=True)
    kept = support >= t
    per_column: dict[int, dict[int, int]] = {}
    for key, count in zip(keys[kept].tolist(), support[kept].tolist()):
        col, code = divmod(key, 4**k)
        per_column.setdefault(col, {})[code] = count
    return EnsembleKmers(k=k, per_column=per_column)


def find_hits(index: KmerIndex, kmers: EnsembleKmers) -> list[SeedHit]:
    """One hit per (event column, reference position, strand), sorted."""
    if index.k != kmers.k:
        raise ValueError(f"index k={index.k} does not match ensemble k={kmers.k}")
    hits = [
        SeedHit(col, off, strand)
        for col, kept in kmers.per_column.items()
        for code in kept
        for off, strand in index.positions.get(code, ())
    ]
    hits.sort()
    return hits


def chain_hits(
    hits: list[SeedHit], length: int = 3, min_gap: int = 10, max_gap: int = 50
) -> list[tuple[SeedHit, ...]]:
    """All maximal-credit chains, one per distinct leftmost hit.

    A chain is ``length`` same-strand hits with strictly increasing coordinates
    in the match's own frame, adjacent start distances in [min_gap, max_gap] on
    both axes; the two distances may differ. Hit positions are forward-strand
    left endpoints, so colinear reverse-strand matches run right to left on the
    reference: for a "-" pool the reference distance is taken in walk
    direction, earlier minus later. When several chains share a leftmost hit
    only one (the lexicographically first) is kept. Each chain is the tuple of
    its hits, and chains come sorted by leftmost hit.
    """
    if length < 1:
        raise ValueError(f"chain length must be >= 1, got {length}")
    if not 0 <= min_gap <= max_gap:
        raise ValueError(f"need 0 <= min_gap <= max_gap, got [{min_gap}, {max_gap}]")

    least = max(min_gap, 1)  # coordinates strictly increase along a chain
    chains: list[tuple[SeedHit, ...]] = []
    for strand, sign in (("+", 1), ("-", -1)):
        pool = {h for h in hits if h.strand == strand}
        alive = sorted(pool, key=lambda h: (h.query_col, sign * h.ref_pos))
        # Round d keeps the hits that start a chain of d hits, each with its
        # first linked successor, in this order, among round d-1's survivors;
        # a chain of d hits starts a chain of d-1, so only those are scanned.
        steps: list[dict[SeedHit, SeedHit]] = []
        for _ in range(length - 1):
            cols = [h.query_col for h in alive]
            walk = [sign * h.ref_pos for h in alive]  # reference coordinate in walk direction
            step = {}
            for a, hit in enumerate(alive):
                lo = bisect_left(cols, cols[a] + least, lo=a + 1)
                hi = bisect_right(cols, cols[a] + max_gap, lo=lo)
                for b in range(lo, hi):
                    if least <= walk[b] - walk[a] <= max_gap:
                        step[hit] = alive[b]
                        break
            steps.append(step)
            alive = list(step)
        for hit in alive:
            chain = [hit]
            for step in reversed(steps):
                chain.append(step[chain[-1]])
            chains.append(tuple(chain))
    chains.sort(key=lambda c: c[0])
    return chains
