"""Reference k-mer indexing, ensemble k-mer collection, hit finding, chaining.

Ensemble k-mers are anchored at event columns of a padded window: a sample
contributes a k-mer at column c when it emitted at least one base for that
event, and the k-mer is read gap-free rightward from that base. Anchoring at
event columns makes positions comparable across samples, which is what lets a
support threshold t and a dedup radius make sense at all.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .kmers import BASES, kmer_codes, reverse_complement

# Pads each event's slice of a window row to the widest call's slice there.
GAP = "-"


@dataclass(frozen=True)
class SeedHit:
    """Left endpoints of a seed match: event column in the query, offset in the reference."""

    query_col: int
    ref_pos: int
    strand: str

    def point(self) -> tuple[int, int]:
        return (self.query_col, self.ref_pos)


@dataclass
class KmerIndex:
    """All k-mer occurrences of both reference strands, keyed by k-mer string.

    Reverse-strand entries store the forward coordinate of the match's left
    endpoint, so hit positions from either strand live on one axis.
    """

    k: int
    positions: dict[str, list[tuple[int, str]]]
    reference_length: int

    def lookup(self, kmer: str) -> list[tuple[int, str]]:
        return self.positions.get(kmer, [])


def _decode_block(codes: np.ndarray, k: int) -> list[str]:
    """Decode an array of k-mer codes to strings in one shot."""
    lookup = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)
    digits = np.empty((codes.size, k), dtype=np.int64)
    for pos in range(k):
        digits[:, pos] = (codes >> (2 * (k - 1 - pos))) & 3
    flat = lookup[digits].tobytes().decode("ascii")
    return [flat[i * k : (i + 1) * k] for i in range(codes.size)]


def build_index(reference: str, k: int, on_ambiguous: str = "skip") -> KmerIndex:
    """Index every k-mer of the reference and of its reverse complement.

    ``on_ambiguous`` controls k-mers overlapping non-ACGT characters: "skip"
    drops them, "error" raises.
    """
    if not 1 <= k <= 16:
        raise ValueError(f"seed length must be in [1, 16], got {k}")
    if on_ambiguous not in ("skip", "error"):
        raise ValueError(f"on_ambiguous must be 'skip' or 'error', got {on_ambiguous!r}")
    L = len(reference)
    positions: dict[str, list[tuple[int, str]]] = defaultdict(list)
    for strand, seq in (("+", reference), ("-", reverse_complement(reference))):
        codes = kmer_codes(seq, k)
        good = codes >= 0
        if not good.all() and on_ambiguous == "error":
            first = int(np.flatnonzero(~good)[0])
            raise ValueError(f"ambiguous base in k-mer at offset {first} on strand {strand}")
        offsets = np.flatnonzero(good)
        if strand == "-":
            # revcomp offset j covers forward bases [L-j-k, L-j)
            fwd = L - offsets - k
        else:
            fwd = offsets
        for kmer, off in zip(_decode_block(codes[offsets], k), fwd.tolist()):
            positions[kmer].append((off, strand))
    for entries in positions.values():
        entries.sort()
    return KmerIndex(k=k, positions=dict(positions), reference_length=L)


@dataclass
class EnsembleKmers:
    """Thresholded k-mers per event column, with their sample support counts."""

    k: int
    n: int
    t: int
    per_column: dict[int, dict[str, int]]

    def columns(self) -> list[int]:
        return sorted(self.per_column)


def _row_anchor_kmers(row: str, event_offsets: np.ndarray, k: int) -> dict[int, str]:
    """Event column -> the gap-free k-mer starting at the row's base for that event."""
    arr = np.frombuffer(row.encode("ascii"), dtype=np.uint8)
    nongap = np.concatenate([[0], np.cumsum(arr != ord(GAP))])
    base_prefix = nongap[event_offsets]
    bases = row.replace(GAP, "")
    out: dict[int, str] = {}
    for c in range(event_offsets.size - 1):
        start = int(base_prefix[c])
        if base_prefix[c + 1] > start and start + k <= len(bases):
            out[c] = bases[start : start + k]
    return out


def collect_ensemble_kmers(window, k: int, n: int, t: int, rows=None) -> EnsembleKmers:
    """k-mers supported by at least t of the first n sample rows, per event column.

    ``rows`` overrides the sample rows, letting a lone Viterbi row stand in as
    a single sample.
    """
    if rows is None:
        rows = window.sample_rows
    if not 1 <= t <= n:
        raise ValueError(f"need 1 <= t <= n, got t={t}, n={n}")
    if n > len(rows):
        raise ValueError(f"window has {len(rows)} sample rows, need n={n}")
    offsets = np.asarray(window.event_offsets)
    cache = getattr(window, "cache", None)
    support: dict[int, Counter] = defaultdict(Counter)
    for row in rows[:n]:
        anchors = None if cache is None else cache.get((k, row))
        if anchors is None:
            anchors = _row_anchor_kmers(row, offsets, k)
            if cache is not None:
                cache[(k, row)] = anchors
        for col, kmer in anchors.items():
            support[col][kmer] += 1
    per_column = {
        col: kept
        for col, counts in support.items()
        if (kept := {kmer: c for kmer, c in counts.items() if c >= t})
    }
    return EnsembleKmers(k=k, n=n, t=t, per_column=per_column)


def find_hits(index: KmerIndex, kmers: EnsembleKmers) -> list[SeedHit]:
    """One hit per (event column, reference position, strand), sorted."""
    if index.k != kmers.k:
        raise ValueError(f"index k={index.k} does not match ensemble k={kmers.k}")
    hits: list[SeedHit] = []
    for col in kmers.columns():
        for kmer in sorted(kmers.per_column[col]):
            for off, strand in index.lookup(kmer):
                hits.append(SeedHit(query_col=col, ref_pos=off, strand=strand))
    hits.sort(key=lambda h: (h.query_col, h.ref_pos, h.strand))
    return hits


@dataclass
class Chain:
    """A fixed-length run of same-strand hits with bounded start gaps."""

    hits: tuple[SeedHit, ...]

    @property
    def leftmost(self) -> SeedHit:
        return self.hits[0]

    @property
    def strand(self) -> str:
        return self.hits[0].strand


def chain_hits(
    hits: list[SeedHit], length: int = 3, min_gap: int = 10, max_gap: int = 50
) -> list[Chain]:
    """All maximal-credit chains, one per distinct leftmost hit.

    A chain is ``length`` same-strand hits with strictly increasing coordinates
    in the match's own frame, adjacent start distances in [min_gap, max_gap] on
    both axes; the two distances may differ. Hit positions are forward-strand
    left endpoints, so colinear reverse-strand matches run right to left on the
    reference: for a "-" pool the reference distance is taken in walk
    direction, earlier minus later. When several chains share a leftmost hit
    only one (the lexicographically first) is kept.
    """
    if length < 1:
        raise ValueError(f"chain length must be >= 1, got {length}")
    if not 0 <= min_gap <= max_gap:
        raise ValueError(f"need 0 <= min_gap <= max_gap, got [{min_gap}, {max_gap}]")

    by_strand: dict[str, list[SeedHit]] = defaultdict(list)
    for hit in set(hits):
        by_strand[hit.strand].append(hit)

    chains: list[Chain] = []
    for strand in sorted(by_strand):
        sign = 1 if strand == "+" else -1
        pool = sorted(by_strand[strand], key=lambda h: (h.query_col, sign * h.ref_pos))
        cols = [h.query_col for h in pool]
        count = len(pool)

        def successors(i: int) -> range:
            lo = bisect_left(cols, pool[i].query_col + min_gap, lo=i + 1)
            hi = bisect_right(cols, pool[i].query_col + max_gap, lo=lo)
            return range(lo, hi)

        def ref_gap(i: int, j: int) -> int:
            return sign * (pool[j].ref_pos - pool[i].ref_pos)

        # reach[i] = longest chain (in hits) that can start at pool[i]
        reach = np.ones(count, dtype=np.int64)
        for i in range(count - 1, -1, -1):
            best = 0
            for j in successors(i):
                gap_q = pool[j].query_col - pool[i].query_col
                gap_r = ref_gap(i, j)
                if min_gap <= gap_r <= max_gap and gap_q > 0 and gap_r > 0:
                    best = max(best, int(reach[j]))
            reach[i] = 1 + best

        for i in range(count):
            if reach[i] < length:
                continue
            chain = [pool[i]]
            cur = i
            for depth in range(length - 1, 0, -1):
                for j in successors(cur):
                    gap_q = pool[j].query_col - pool[cur].query_col
                    gap_r = ref_gap(cur, j)
                    if min_gap <= gap_r <= max_gap and gap_q > 0 and gap_r > 0 and reach[j] >= depth:
                        chain.append(pool[j])
                        cur = j
                        break
            chains.append(Chain(hits=tuple(chain)))
    chains.sort(key=lambda c: (c.leftmost.query_col, c.leftmost.ref_pos, c.strand))
    return chains
