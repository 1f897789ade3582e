import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import (
    Hit,
    anchor_kmers,
    as_hits,
    chain_triples,
    column_chain_hits,
    hit_rows,
    index_entries,
    index_keys,
    reach_chains,
    scan_kmer_positions,
)
from ensembleseed import seeding
from ensembleseed.decode import BaseCall
from ensembleseed.kmers import decode_kmer, encode_kmer, reverse_complement
from ensembleseed.seeding import (
    EnsembleKmers,
    KmerIndex,
    build_index,
    chain_hits,
    collect_ensemble_kmers,
    find_hits,
)
from ensembleseed.simulate import generate_reference


def ensemble(k, per_column):
    """``EnsembleKmers`` holding ``{col: [code, ...]}``, each code with support 1, in row 0."""
    keys = sorted(col * 4**k + code for col, codes in per_column.items() for code in codes)
    keys = np.array(keys, dtype=np.int64)
    ones = np.ones(keys.size, dtype=np.int64)
    return EnsembleKmers(k=k, keys=keys, support=ones, occurrences=np.zeros_like(ones))


def call(*pieces):
    """A base call whose events emitted ``pieces`` in order."""
    return BaseCall("".join(pieces), [len(p) for p in pieces])


def heads_of(hits, *args, **kwargs):
    """``chain_hits`` on the rows of ``Hit`` tuples, its head rows read back as ``Hit`` tuples."""
    heads = chain_hits(hit_rows(hits), *args, **kwargs)
    assert heads.dtype == np.int64 and heads.ndim == 2 and heads.shape[1] == 3
    return as_hits(heads)


class TestBuildIndex:
    def test_matches_naive_scan(self):
        """Exhaustive cross-check of every indexed k-mer on a small reference."""
        ref = generate_reference(800, seed=17)
        for k in (3, 7):
            idx = build_index(ref, k)
            seen = set()
            for code, entries in index_entries(idx).items():
                kmer = decode_kmer(code, k)
                assert sorted(scan_kmer_positions(ref, kmer)) == entries
                seen.add(kmer)
            # nothing missing either: any k-mer occurring in ref must be a key
            for i in range(len(ref) - k + 1):
                assert ref[i : i + k] in seen

    def test_reverse_strand_coordinates(self):
        #        0123456789
        ref = "AACGTTACGG"
        idx = build_index(ref, 4)
        # CGTT at offset 2 forward; its revcomp AACG starts the forward strand
        assert (2, "+") in index_entries(idx)[encode_kmer("CGTT")]
        assert (2, "-") in index_entries(idx)[encode_kmer("AACG")]
        # the palindrome ACGT at offset 1 matches on both strands there
        assert index_entries(idx)[encode_kmer("ACGT")] == [(1, "+"), (1, "-")]
        hits = find_hits(idx, ensemble(4, {0: [encode_kmer("ACGT")]}))
        assert as_hits(hits) == [(0, 1, "+"), (0, 1, "-")]

    def test_ambiguous_handling(self):
        ref = "ACGTNACGT"
        idx = build_index(ref, 3)
        for entries in index_entries(idx).values():
            for off, _ in entries:
                assert "N" not in ref[off : off + 3]

    @pytest.mark.parametrize("k", [1, 2, 5, 13, 16])
    def test_keys_equal_a_scan_bit_for_bit(self, k):
        """Forward keys built in place from the codes, ambiguous k-mers sorted past the part
        kept; at k=16 a leading G or T code reaches the top bit of its key."""
        rng = np.random.default_rng(k)
        for length in (0, k - 1, k, 40, 300):
            reference = "".join(rng.choice(list("ACGTNa"), length, p=[0.23] * 4 + [0.05, 0.03]))
            index = build_index(reference, k)
            want, got = index_keys(reference, k), index.positions["+"]
            assert got.dtype == np.uint64 and got.tobytes() == want.tobytes(), length

    def test_build_peaks_within_twice_the_held_index(self):
        """A 4.6 Mb reference (about E. coli) with a few N bases: the keys overwrite the
        codes, and the ambiguous k-mers' keys sort past the part kept, so none is copied."""
        rng = np.random.default_rng(5)
        bases = rng.choice(np.frombuffer(b"ACGT", dtype=np.uint8), 4_600_000)
        bases[rng.choice(bases.size, 5, replace=False)] = ord("N")
        reference = bases.tobytes().decode("ascii")
        del bases
        build_index(reference[:1000], 13)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            index = build_index(reference, 13)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        held = sum(keys.nbytes for keys in index.positions.values())
        assert held == 8 * (len(reference) - 12 - 5 * 13)
        assert peak <= 2 * held, f"peak is {peak / held:.2f} times the index"

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            build_index("ACGT", 0)
        with pytest.raises(ValueError):
            build_index("ACGT", 17)


def kept_columns(kmers, t, n):
    """``per_column`` of the keys kept at (t, n)."""
    mask = kmers.kept(t, n)
    return replace(kmers, keys=kmers.keys[mask], support=kmers.support[mask]).per_column


class TestCollectEnsembleKmers:
    def test_anchoring_skips_gap_only_events(self):
        # three events; the middle one emits nothing in the second call
        got = collect_ensemble_kmers([call("AC", "GT", "AC"), call("AC", "", "TA")], 3)
        assert got.per_column[0] == {encode_kmer("ACG"): 1, encode_kmer("ACT"): 1}
        # column 1 anchored only by the first call ("GTA")
        assert got.per_column[1] == {encode_kmer("GTA"): 1}
        # column 2: call 1 starts at base 4 ("AC" too short), call 2 at base 2 ("TA" too short)
        assert 2 not in got.per_column

    def test_support_threshold(self):
        kmers = collect_ensemble_kmers([call("ACGT"), call("ACGT"), call("TCGT")], 4)
        assert kmers.per_column[0] == {encode_kmer("ACGT"): 2, encode_kmer("TCGT"): 1}
        assert kept_columns(kmers, 2, 3)[0] == {encode_kmer("ACGT"): 2}

    def test_threshold_nesting(self):
        rng = np.random.default_rng(2)
        samples = []
        for _ in range(6):
            lengths = rng.integers(0, 11, 4)
            samples.append(BaseCall("".join(rng.choice(list("ACGT"), lengths.sum())), lengths))
        kmers = collect_ensemble_kmers(samples, 5)
        prev = None
        for t in (1, 2, 3):
            cur = kept_columns(kmers, t, 6)
            if prev is not None:
                for col, kept in cur.items():
                    assert set(kept) <= set(prev.get(col, {}))
            prev = cur

    def test_threshold_above_n_keeps_nothing(self):
        kmers = collect_ensemble_kmers([call("ACGT")], 3)
        assert kmers.kept(1, 1).all()
        assert not kmers.kept(2, 1).any()

    def test_kept_rejects_a_threshold_below_one(self):
        """t=0 would read each key's occurrences at the key before's last row, and the
        first key's at the last row of all."""
        kmers = EnsembleKmers(
            k=1, keys=np.array([0, 1]), support=np.array([1, 1]), occurrences=np.array([3, 0])
        )
        assert kmers.kept(1, 2).tolist() == [False, True]
        for t in (0, -1):
            with pytest.raises(ValueError, match="t >= 1"):
                kmers.kept(t, 2)

    def test_rows_are_the_given_calls(self):
        got = collect_ensemble_kmers([call("CCCC"), call("AAAA")], 4)
        assert got.per_column[0] == {encode_kmer("CCCC"): 1, encode_kmer("AAAA"): 1}
        assert kept_columns(got, 1, 1)[0] == {encode_kmer("CCCC"): 1}

    def test_same_bases_with_other_lengths_anchor_apart(self):
        """Anchors follow each call's event lengths, not only its sequence text."""
        even, skewed = call("AC", "GT", "AC"), call("A", "C", "GTAC")
        assert collect_ensemble_kmers([even], 3).per_column == {
            0: {encode_kmer("ACG"): 1},
            1: {encode_kmer("GTA"): 1},
        }
        assert collect_ensemble_kmers([skewed], 3).per_column == {
            0: {encode_kmer("ACG"): 1},
            1: {encode_kmer("CGT"): 1},
            2: {encode_kmer("GTA"): 1},
        }
        both = kept_columns(collect_ensemble_kmers([even, skewed], 3), 2, 2)
        assert both == {0: {encode_kmer("ACG"): 2}}

    def test_kmers_over_non_acgt_bases_are_dropped(self):
        got = collect_ensemble_kmers([call("A", "C", "N", "G", "T")], 2).per_column
        assert got == {0: {encode_kmer("AC"): 1}, 3: {encode_kmer("GT"): 1}}


@settings(max_examples=400, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.text(st.sampled_from("ACGT"), max_size=5), st.integers(0, 3)), max_size=12
    ),
    k=st.integers(1, 12),
)
def test_row_anchor_codes_match_string_slicing(events, k):
    """Empty events, trailing empty events and k past the last base included.

    The oracle reads the row padded per event with gaps, as a window would
    be when other calls emit more bases for the same events.
    """
    padded = [piece + "-" * pad for piece, pad in events]
    offsets = np.cumsum([0, *map(len, padded)])
    got = collect_ensemble_kmers([call(*(p for p, _ in events))], k)
    assert all(list(kept.values()) == [1] for kept in got.per_column.values())
    decoded = {col: decode_kmer(code, k) for col, kept in got.per_column.items() for code in kept}
    assert decoded == anchor_kmers("".join(padded), offsets, k)


class TestFindHits:
    def test_matches_reference_scan(self):
        ref = generate_reference(600, seed=23)
        idx = build_index(ref, 5)
        kmers = ensemble(5, {0: [encode_kmer(ref[10:15])], 7: [encode_kmer(ref[100:105])]})
        hits = find_hits(idx, kmers)
        for col, kmer in ((0, ref[10:15]), (7, ref[100:105])):
            want = {(col, pos, strand) for pos, strand in scan_kmer_positions(ref, kmer)}
            got = {(h.query_col, h.ref_pos, h.strand) for h in as_hits(hits) if h.query_col == col}
            assert got == want

    def test_k_mismatch(self):
        idx = build_index("ACGTACGT", 4)
        with pytest.raises(ValueError, match="does not match"):
            find_hits(idx, ensemble(3, {}))

    def test_sorted_and_unique(self):
        ref = "ACACACACAC"
        idx = build_index(ref, 4)
        acac = encode_kmer("ACAC")
        kmers = ensemble(4, {0: [acac], 3: [acac]})
        hits = find_hits(idx, kmers)
        assert hits.dtype == np.int64 and hits.shape == (len(hits), 3)
        keys = [(h.query_col, h.ref_pos, h.strand) for h in as_hits(hits)]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_offsets_up_to_2_32_sort_as_lexsort(self):
        """A hand-built index whose offsets fill all 32 bits, queried at columns up to
        2**30 - 1: each code is queried at every column, so every key gives each column one
        "+" and one "-" row, in ``np.lexsort`` order."""
        k = 2
        rng = np.random.default_rng(5)
        offsets = np.unique(np.r_[rng.integers(0, 2**32, 60), 0, 2**31 - 1, 2**31, 2**32 - 1])
        codes = rng.integers(0, 4**k, offsets.size)
        keys = np.sort(codes.astype(np.uint64) << np.uint64(32) | offsets.astype(np.uint64))
        cols = [0, 1, 2**29, 2**30 - 1]
        hits = find_hits(
            KmerIndex(k=k, positions={"+": keys}), ensemble(k, {c: range(4**k) for c in cols})
        )
        assert np.array_equal(hits, hits[np.lexsort(hits.T[::-1])])
        assert hits.tolist() == [[c, p, s] for c in cols for p in offsets.tolist() for s in (0, 1)]

    def test_a_query_column_of_2_30_is_rejected(self):
        """Above it, the packed sort key ``col << 33 | offset << 1 | strand`` would pass int64."""
        kmers = ensemble(4, {5: [1], 2**30: [0]})
        with pytest.raises(ValueError, match=rf"query column {2**30} is 2\*\*30 or more"):
            find_hits(build_index("ACGTACGT", 4), kmers)


@pytest.mark.parametrize("k", range(1, 17))
def test_reverse_strand_hits_are_the_reverse_complements_forward_hits(k):
    """Through ``find_hits``, each code's "-" hits are the "+" hits of its reverse
    complement, spelled out as a string. Every code up to k=5; above, the reference's own
    k-mers and random codes, with their reverse complements. At k=16 a code with a leading
    G or T fills the top bit of its key."""

    def complement(code):
        return encode_kmer(reverse_complement(decode_kmer(code, k)))

    rng = np.random.default_rng(k)
    reference = "".join(rng.choice(list("ACGTN"), 3000, p=[0.24] * 4 + [0.04]))
    if k <= 5:
        codes = set(range(4**k))
    else:
        present = (reference[i : i + k] for i in rng.integers(0, len(reference) - k, 40))
        codes = {encode_kmer(kmer) for kmer in present if "N" not in kmer}
        codes |= set(rng.integers(0, 4**k, 40).tolist())
    codes = sorted(codes | {complement(code) for code in codes})
    hits = find_hits(build_index(reference, k), ensemble(k, dict(enumerate([c] for c in codes))))
    found = {(code, strand): [] for code in codes for strand in "+-"}
    for col, pos, strand in as_hits(hits):
        found[codes[col], strand].append(pos)
    for code in codes:
        assert found[code, "-"] == found[complement(code), "+"], decode_kmer(code, k)
    assert any(found[code, "-"] and code >= 4**k // 2 for code in codes)


@st.composite
def index_cases(draw):
    """A reference of ACGT runs split by other characters, k, and k-mers to look up.

    The queries mix k-mers of the reference with arbitrary codes, most of
    which the reference lacks, and end with the codes beside the least and the
    greatest indexed code and their reverse complements, so that "+" and "-"
    probes land before the first key, on both end keys and past the last key.
    """
    k = draw(st.integers(1, 16))
    runs = draw(st.lists(st.text(st.sampled_from("ACGT"), max_size=40), min_size=1, max_size=4))
    reference = runs[0] + "".join(draw(st.sampled_from("NnRY-")) + run for run in runs[1:])
    present = [reference[i : i + k] for i in range(len(reference) - k + 1)]
    present = sorted({kmer for kmer in present if set(kmer) <= set("ACGT")})
    anywhere = st.integers(0, 4**k - 1).map(lambda code: decode_kmer(code, k))
    kmer = st.sampled_from(present) | anywhere if present else anywhere
    queries = draw(st.lists(kmer, max_size=8))
    codes = [encode_kmer(kmer) for kmer in present]
    edges = {0, 4**k - 1}
    if codes:
        edges |= {min(codes) - 1, min(codes), max(codes), max(codes) + 1}
    edges = [decode_kmer(code, k) for code in sorted(edges) if 0 <= code < 4**k]
    return reference, k, queries + edges + [reverse_complement(kmer) for kmer in edges]


@settings(max_examples=300, deadline=None)
@given(index_cases())
@example(("GATTACA" * 3 + "N" + "T" * 18 + "ACGT", 16, ["T" * 16, "GATTACAGATTACAGA", "G" * 16]))
@example(("", 3, ["AAA", "TTT"]))
@example(("NNNN", 1, ["A", "T"]))
def test_index_lookup_matches_reference_scan(case):
    """Index and hits of both strands against a naive scan, for k from 1 to 16.

    A k=16 code with a leading G or T fills the top bit of a ``uint64`` key.
    Each query probes the index once for its code's first key, and only a
    probe that lands on that code searches for the range's end. An empty
    index finds nothing.
    """
    reference, k, queries = case
    index = build_index(reference, k)
    forward = [reference[i : i + k] for i in range(len(reference) - k + 1)]
    forward = {kmer for kmer in forward if set(kmer) <= set("ACGT")}
    indexed = forward | {reverse_complement(kmer) for kmer in forward}
    assert index_entries(index) == {
        encode_kmer(kmer): scan_kmer_positions(reference, kmer) for kmer in indexed
    }
    hits = find_hits(index, ensemble(k, {col: [encode_kmer(q)] for col, q in enumerate(queries)}))
    assert as_hits(hits) == [
        (col, pos, strand)
        for col, kmer in enumerate(queries)
        for pos, strand in scan_kmer_positions(reference, kmer)
    ]


class TestChainHits:
    def test_forward_example(self):
        hits = [Hit(0, 100, "+"), Hit(15, 118, "+"), Hit(32, 140, "+")]
        heads = heads_of(hits)
        assert len(heads) == 1
        assert heads[0] == Hit(0, 100, "+")
        assert chain_hits(hit_rows(hits)).shape == (1, 3)
        assert chain_hits(hit_rows([]), length=4).shape == (0, 3)

    def test_gap_bounds_enforced(self):
        base = [Hit(0, 100, "+"), Hit(15, 118, "+")]
        assert heads_of(base + [Hit(70, 140, "+")]) == []  # query gap 55 > 50
        assert heads_of(base + [Hit(32, 170, "+")]) == []  # ref gap 52 > 50
        assert heads_of(base + [Hit(24, 125, "+")]) == []  # ref gap 7 < 10

    def test_reverse_strand_chains_run_backwards_on_reference(self):
        """A minus-strand walk advances leftwards in forward coordinates."""
        dec = [Hit(0, 200, "-"), Hit(15, 182, "-"), Hit(32, 160, "-")]
        heads = heads_of(dec)
        assert len(heads) == 1
        assert heads[0] == Hit(0, 200, "-")
        # the same shape with ascending reference positions cannot chain on "-"
        inc = [Hit(0, 100, "-"), Hit(15, 118, "-"), Hit(32, 140, "-")]
        assert heads_of(inc) == []

    def test_strands_do_not_mix(self):
        hits = [Hit(0, 100, "+"), Hit(15, 118, "-"), Hit(32, 140, "+")]
        assert heads_of(hits) == []

    def test_one_chain_per_leftmost(self):
        hits = [
            Hit(0, 100, "+"),
            Hit(15, 118, "+"),
            Hit(15, 120, "+"),
            Hit(32, 140, "+"),
        ]
        assert len(heads_of(hits)) == 1

    def test_duplicate_hits_collapse(self):
        hits = [Hit(0, 100, "+"), Hit(0, 100, "+"), Hit(15, 118, "+"),
                Hit(32, 140, "+")]
        assert len(heads_of(hits)) == 1

    def test_length_one_and_validation(self):
        hits = [Hit(4, 9, "+")]
        assert heads_of(hits, length=1) == [Hit(4, 9, "+")]
        with pytest.raises(ValueError):
            heads_of(hits, length=0)
        with pytest.raises(ValueError):
            heads_of(hits, min_gap=20, max_gap=10)

    def test_a_gap_too_wide_for_int64_keys_is_rejected(self):
        """33 columns of keys ``col * span + walk`` with span above 10**18 would pass
        int64 and wrap, and the chain below would be lost."""
        hits = [Hit(0, 100, "+"), Hit(15, 118, "+"), Hit(32, 140, "+")]
        assert heads_of(hits, max_gap=10**17) == [Hit(0, 100, "+")]
        with pytest.raises(ValueError, match="max_gap=1000000000000000000 is too wide"):
            heads_of(hits, max_gap=10**18)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_triples(self, seed):
        """Exhaustive oracle: every chain's leftmost hit, nothing more or less."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(40, 120))
        hits = list(
            {
                Hit(
                    int(rng.integers(0, 120)),
                    int(rng.integers(0, 300)),
                    "+" if rng.random() < 0.5 else "-",
                )
                for _ in range(count)
            }
        )
        got = heads_of(hits, length=3, min_gap=10, max_gap=50)
        triples = chain_triples(hits, 10, 50)
        want_leftmost = {(t[0].query_col, t[0].ref_pos, t[0].strand) for t in triples}
        got_leftmost = {(h.query_col, h.ref_pos, h.strand) for h in got}
        assert got_leftmost == want_leftmost
        assert len(got) == len(got_leftmost)


def axis_candidates(rows, min_gap, max_gap):
    """Each distinct hit's candidates in a first chaining round, strand by strand.

    Returns two arrays: the occupied columns of its strand in its column range
    [c + least, c + max_gap], and the hits of its strand whose walk coordinate
    (reference position, negated on "-") lies in [w + least, w + max_gap].
    """
    least = max(min_gap, 1)
    by_col, by_walk = [], []
    for s, sign in enumerate((1, -1)):
        col, walk = np.unique(rows[rows[:, 2] == s, :2] * [1, sign], axis=0).T
        occupied, walks = np.unique(col), np.sort(walk)
        for counts, ends, at in ((by_col, occupied, col), (by_walk, walks, walk)):
            counts.append(
                np.searchsorted(ends, at + max_gap, "right") - np.searchsorted(ends, at + least)
            )
    return np.concatenate(by_col), np.concatenate(by_walk)


def assert_both_axes(rows, min_gap, max_gap):
    """Some hit has candidate columns and as many walk candidates or more; some has fewer."""
    by_col, by_walk = axis_candidates(rows, min_gap, max_gap)
    assert ((by_col > 0) & (by_col <= by_walk)).any(), "no hit searches its columns"
    assert ((by_walk > 0) & (by_walk < by_col)).any(), "no hit searches its walk range"


def test_chaining_in_one_pair_batches_on_both_axes_matches_reach_traceback(monkeypatch):
    """A budget of one (hit, candidate) pair per batch tests each candidate on its own.

    Hits scattered over 20 kb find every column in range occupied but few hits
    in their walk range, so they search the walk axis; sparse colinear runs
    among them give that search links to find. A dense colinear run, three hits
    a column, has more walk candidates than columns and searches its columns.
    """
    rng = np.random.default_rng(5)
    cols, refs = rng.integers(0, 200, 400).tolist(), rng.integers(0, 20_000, 400).tolist()
    hits = list(map(Hit, cols, refs, rng.choice(["+", "-"], 400).tolist()))
    for strand in rng.choice(["+", "-"], 12).tolist():
        sign = 1 if strand == "+" else -1
        q, r = int(rng.integers(0, 100)), int(rng.integers(1_000, 19_000))
        for dq, dr in rng.integers(10, 30, (5, 2)).tolist():
            hits.append(Hit(q, r, strand))
            q, r = q + dq, r + sign * dr
    for q in range(200, 320):
        for strand, sign in (("+", 1), ("-", -1)):
            jitter = rng.integers(0, 12, 3).tolist()
            hits += [Hit(q, 30_000 + sign * (q + j), strand) for j in jitter]
    assert_both_axes(hit_rows(hits), 10, 50)
    monkeypatch.setattr(seeding, "_PAIRS", 1)
    for length in (2, 3, 4):
        assert heads_of(hits, length) == [c[0] for c in reach_chains(hits, length, 10, 50)]


def test_the_walk_axis_stops_at_the_first_link(monkeypatch):
    """A hit whose first walk candidate links tests that one pair and no more.

    Per group and strand, hit A has four candidates in its walk range: B at
    the least walk, which links, and three hits a column or two past A, which
    do not. Far-off hits fill every column in A's range, so A searches its walk
    range. No other hit has a walk candidate, so in one pair batches each A
    is the only hit that tests a pair.
    """
    hits, heads = [], []
    for group in range(6):
        for strand, sign in (("+", 1), ("-", -1)):
            def add(q, w):
                hits.append(Hit(200 * group + q, 50_000 + sign * (1_000 * group + w), strand))

            add(0, 0)
            heads.append(hits[-1])
            add(10, 10)  # B
            for q, w in ((1, 11), (1, 12), (2, 13)):
                add(q, w)
            for q in range(11, 51):
                add(q, 500)
    by_col, by_walk = axis_candidates(hit_rows(hits), 10, 50)
    assert sorted(by_walk[by_walk > 0].tolist()) == [4] * 12
    assert (by_col[by_walk > 0] > 4).all(), "every A searches its walk range"
    monkeypatch.setattr(seeding, "_PAIRS", 1)
    pairs = []
    ranges = seeding._ranges
    monkeypatch.setattr(
        seeding, "_ranges", lambda lo, count: pairs.append(int(count.sum())) or ranges(lo, count)
    )
    assert heads_of(hits, 2) == sorted(heads, key=lambda h: (h.query_col, h.ref_pos, h.strand))
    assert sum(pairs) == 12


@st.composite
def chain_instances(draw):
    """Hit sets made of overlapping colinear runs, so that chains branch often."""
    length = draw(st.integers(1, 5))
    max_gap = draw(st.integers(0, 15))
    min_gap = draw(st.integers(0, max_gap))
    gap = st.integers(0, max_gap + 2)
    run = st.tuples(
        st.sampled_from("+-"), st.integers(0, 30), st.integers(0, 30),
        st.lists(st.tuples(gap, gap), max_size=6),
    )
    hits = []
    for strand, q, r, steps in draw(st.lists(run, max_size=12)):
        sign = 1 if strand == "+" else -1
        hits.append(Hit(q, r, strand))
        for dq, dr in steps:
            q, r = q + dq, r + sign * dr
            hits.append(Hit(q, r, strand))
    return hits, length, min_gap, max_gap


@settings(max_examples=300, deadline=None)
@given(chain_instances())
def test_chain_hits_match_reach_traceback(case):
    """Same heads, in the same order, as longest reach plus traceback."""
    hits, length, min_gap, max_gap = case
    got = heads_of(hits, length, min_gap, max_gap)
    assert got == [c[0] for c in reach_chains(hits, length, min_gap, max_gap)]


@st.composite
def two_axis_instances(draw):
    """Random, dense and clustered hits on both strands, which need both search axes.

    Per strand, a dense block fills every column and walk coordinate of a
    (max_gap + 1)-square, so its corner hit has at least as many walk
    candidates as columns. A fence puts one hit 2,000 walk units past the rest,
    with one linked successor, while every column in its range is occupied
    far off in walk, so that hit has fewer walk candidates than columns.
    Uniform random hits and colinear runs fall over the block.
    """
    length = draw(st.integers(1, 5))
    max_gap = draw(st.integers(2, 12))
    min_gap = draw(st.integers(0, max_gap - 1))
    least = max(min_gap, 1)
    gap = st.integers(0, max_gap + 2)
    hits = []
    for strand, sign in (("+", 1), ("-", -1)):
        def add(q, w):
            hits.append(Hit(q, w if sign > 0 else 10_000 - w, strand))

        q0, w0 = draw(st.integers(0, 30)), draw(st.integers(0, 300))
        for q in range(q0, q0 + max_gap + 1):
            for w in range(w0, w0 + max_gap + 1):
                add(q, w)
        qf = draw(st.integers(0, 60))
        add(qf, 2_000)
        add(qf + draw(st.integers(least, max_gap)), 2_000 + draw(st.integers(least, max_gap)))
        for q in range(qf + least, qf + max_gap + 1):
            add(q, 5_000)
        anywhere = st.tuples(st.integers(0, 60), st.integers(0, 400))
        for q, w in draw(st.lists(anywhere, max_size=40)):
            add(q, w)
        runs = st.tuples(anywhere, st.lists(st.tuples(gap, gap), max_size=6))
        for (q, w), steps in draw(st.lists(runs, max_size=6)):
            add(q, w)
            for dq, dw in steps:
                q, w = q + dq, w + dw
                add(q, w)
    return draw(st.permutations(hits)), length, min_gap, max_gap


@settings(max_examples=200, deadline=None)
@given(two_axis_instances())
def test_chain_hits_match_the_column_search_bitwise(case):
    """The per-hit axis choice finds the same heads as the column-only search it replaced."""
    hits, length, min_gap, max_gap = case
    rows = hit_rows(hits)
    assert_both_axes(rows, min_gap, max_gap)
    got = chain_hits(rows, length, min_gap, max_gap)
    want = column_chain_hits(rows, length, min_gap, max_gap)[:, 0]
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_dense_chaining_peaks_no_higher_than_the_column_search(monkeypatch):
    """200,000 hits in 500 columns over 100 kb: a hit has about 41 occupied columns and
    as many walk candidates on average, so both axes search at length, and every
    round holds about 100,000 survivors per strand. No batch expands more than
    ``_PAIRS`` (hit, candidate) pairs."""
    rng = np.random.default_rng(7)
    size = 200_000
    hits = np.stack([rng.integers(0, top, size) for top in (500, 100_000, 2)], axis=1)
    assert_both_axes(hits, 10, 50)
    batches = []
    ranges = seeding._ranges
    monkeypatch.setattr(
        seeding, "_ranges", lambda lo, count: batches.append(int(count.sum())) or ranges(lo, count)
    )
    peaks = []
    for chain in (column_chain_hits, chain_hits):
        chain(hits[:1000])
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            chains = chain(hits)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
        finally:
            tracemalloc.stop()
        assert len(chains) > size // 2
    assert 0 < max(batches) <= seeding._PAIRS
    column, chosen = (peak / 2**20 for peak in peaks)
    assert chosen <= column, f"peak {chosen:.1f} MiB, column search {column:.1f} MiB"
