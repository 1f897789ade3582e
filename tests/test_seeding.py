from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import anchor_kmers, chain_triples, reach_chains, scan_kmer_positions
from ensembleseed.decode import BaseCall
from ensembleseed.kmers import decode_kmer, encode_kmer
from ensembleseed.seeding import (
    EnsembleKmers,
    SeedHit,
    build_index,
    chain_hits,
    collect_ensemble_kmers,
    find_hits,
)
from ensembleseed.simulate import generate_reference


def window_stub(samples, viterbi=None):
    return SimpleNamespace(samples=samples, viterbi=viterbi, cache={})


def call(*pieces):
    """A base call whose events emitted ``pieces`` in order."""
    return BaseCall("".join(pieces), [len(p) for p in pieces])


class TestBuildIndex:
    def test_matches_naive_scan(self):
        """Exhaustive cross-check of every indexed k-mer on a small reference."""
        ref = generate_reference(800, seed=17)
        for k in (3, 7):
            idx = build_index(ref, k)
            seen = set()
            for code, entries in idx.positions.items():
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
        assert (2, "+") in idx.positions[encode_kmer("CGTT")]
        assert (2, "-") in idx.positions[encode_kmer("AACG")]

    def test_ambiguous_handling(self):
        ref = "ACGTNACGT"
        idx = build_index(ref, 3)
        for entries in idx.positions.values():
            for off, _ in entries:
                assert "N" not in ref[off : off + 3]

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            build_index("ACGT", 0)
        with pytest.raises(ValueError):
            build_index("ACGT", 17)


class TestCollectEnsembleKmers:
    def test_anchoring_skips_gap_only_events(self):
        # three events; the middle one emits nothing in the second call
        win = window_stub([call("AC", "GT", "AC"), call("AC", "", "TA")])
        got = collect_ensemble_kmers(win, 3, n=2, t=1)
        assert got.per_column[0] == {encode_kmer("ACG"): 1, encode_kmer("ACT"): 1}
        # column 1 anchored only by the first call ("GTA")
        assert got.per_column[1] == {encode_kmer("GTA"): 1}
        # column 2: call 1 starts at base 4 ("AC" too short), call 2 at base 2 ("TA" too short)
        assert 2 not in got.per_column

    def test_support_threshold(self):
        win = window_stub([call("ACGT"), call("ACGT"), call("TCGT")])
        loose = collect_ensemble_kmers(win, 4, n=3, t=1)
        tight = collect_ensemble_kmers(win, 4, n=3, t=2)
        assert loose.per_column[0] == {encode_kmer("ACGT"): 2, encode_kmer("TCGT"): 1}
        assert tight.per_column[0] == {encode_kmer("ACGT"): 2}

    def test_threshold_nesting(self):
        rng = np.random.default_rng(2)
        samples = []
        for _ in range(6):
            lengths = rng.integers(0, 11, 4)
            samples.append(BaseCall("".join(rng.choice(list("ACGT"), lengths.sum())), lengths))
        win = window_stub(samples)
        prev = None
        for t in (1, 2, 3):
            cur = collect_ensemble_kmers(win, 5, n=6, t=t)
            if prev is not None:
                for col, kept in cur.per_column.items():
                    assert set(kept) <= set(prev.per_column.get(col, {}))
            prev = cur

    def test_parameter_validation(self):
        win = window_stub([call("ACGT")])
        with pytest.raises(ValueError, match="1 <= t <= n"):
            collect_ensemble_kmers(win, 3, n=1, t=2)
        with pytest.raises(ValueError, match="sample rows"):
            collect_ensemble_kmers(win, 3, n=2, t=1)

    def test_explicit_rows_override(self):
        win = window_stub([call("AAAA")], viterbi=call("CCCC"))
        got = collect_ensemble_kmers(win, 4, n=1, t=1, rows=[win.viterbi])
        assert got.per_column[0] == {encode_kmer("CCCC"): 1}

    def test_same_bases_with_other_lengths_anchor_apart(self):
        """Anchors are cached per call, not per sequence text."""
        even, skewed = call("AC", "GT", "AC"), call("A", "C", "GTAC")
        win = window_stub([even, skewed])
        assert collect_ensemble_kmers(win, 3, n=1, t=1).per_column == {
            0: {encode_kmer("ACG"): 1},
            1: {encode_kmer("GTA"): 1},
        }
        assert collect_ensemble_kmers(win, 3, n=1, t=1, rows=[skewed]).per_column == {
            0: {encode_kmer("ACG"): 1},
            1: {encode_kmer("CGT"): 1},
            2: {encode_kmer("GTA"): 1},
        }
        both = collect_ensemble_kmers(win, 3, n=2, t=2).per_column
        assert both == {0: {encode_kmer("ACG"): 2}}

    def test_kmers_over_non_acgt_bases_are_dropped(self):
        win = window_stub([call("A", "C", "N", "G", "T")])
        got = collect_ensemble_kmers(win, 2, n=1, t=1).per_column
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
    got = collect_ensemble_kmers(window_stub([call(*(p for p, _ in events))]), k, n=1, t=1)
    assert all(list(kept.values()) == [1] for kept in got.per_column.values())
    decoded = {col: decode_kmer(code, k) for col, kept in got.per_column.items() for code in kept}
    assert decoded == anchor_kmers("".join(padded), offsets, k)


class TestFindHits:
    def test_matches_reference_scan(self):
        ref = generate_reference(600, seed=23)
        idx = build_index(ref, 5)
        kmers = EnsembleKmers(
            k=5,
            per_column={0: {encode_kmer(ref[10:15]): 1}, 7: {encode_kmer(ref[100:105]): 1}},
        )
        hits = find_hits(idx, kmers)
        for col, kmer in ((0, ref[10:15]), (7, ref[100:105])):
            want = {(col, pos, strand) for pos, strand in scan_kmer_positions(ref, kmer)}
            got = {(h.query_col, h.ref_pos, h.strand) for h in hits if h.query_col == col}
            assert got == want

    def test_k_mismatch(self):
        idx = build_index("ACGTACGT", 4)
        with pytest.raises(ValueError, match="does not match"):
            find_hits(idx, EnsembleKmers(k=3, per_column={}))

    def test_sorted_and_unique(self):
        ref = "ACACACACAC"
        idx = build_index(ref, 4)
        acac = encode_kmer("ACAC")
        kmers = EnsembleKmers(k=4, per_column={0: {acac: 1}, 3: {acac: 1}})
        hits = find_hits(idx, kmers)
        keys = [(h.query_col, h.ref_pos, h.strand) for h in hits]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))


class TestChainHits:
    def test_forward_example(self):
        hits = [SeedHit(0, 100, "+"), SeedHit(15, 118, "+"), SeedHit(32, 140, "+")]
        chains = chain_hits(hits)
        assert len(chains) == 1
        assert chains[0][0] == SeedHit(0, 100, "+")

    def test_gap_bounds_enforced(self):
        base = [SeedHit(0, 100, "+"), SeedHit(15, 118, "+")]
        assert chain_hits(base + [SeedHit(70, 140, "+")]) == []  # query gap 55 > 50
        assert chain_hits(base + [SeedHit(32, 170, "+")]) == []  # ref gap 52 > 50
        assert chain_hits(base + [SeedHit(24, 125, "+")]) == []  # ref gap 7 < 10

    def test_reverse_strand_chains_run_backwards_on_reference(self):
        """A minus-strand walk advances leftwards in forward coordinates."""
        dec = [SeedHit(0, 200, "-"), SeedHit(15, 182, "-"), SeedHit(32, 160, "-")]
        chains = chain_hits(dec)
        assert len(chains) == 1
        assert chains[0][0] == SeedHit(0, 200, "-")
        # the same shape with ascending reference positions cannot chain on "-"
        inc = [SeedHit(0, 100, "-"), SeedHit(15, 118, "-"), SeedHit(32, 140, "-")]
        assert chain_hits(inc) == []

    def test_strands_do_not_mix(self):
        hits = [SeedHit(0, 100, "+"), SeedHit(15, 118, "-"), SeedHit(32, 140, "+")]
        assert chain_hits(hits) == []

    def test_one_chain_per_leftmost(self):
        hits = [
            SeedHit(0, 100, "+"),
            SeedHit(15, 118, "+"),
            SeedHit(15, 120, "+"),
            SeedHit(32, 140, "+"),
        ]
        chains = chain_hits(hits)
        assert len(chains) == 1
        # lexicographically first witness: the (15, 118) middle hit
        assert chains[0][1] == SeedHit(15, 118, "+")

    def test_duplicate_hits_collapse(self):
        hits = [SeedHit(0, 100, "+"), SeedHit(0, 100, "+"), SeedHit(15, 118, "+"),
                SeedHit(32, 140, "+")]
        assert len(chain_hits(hits)) == 1

    def test_length_one_and_validation(self):
        hits = [SeedHit(4, 9, "+")]
        chains = chain_hits(hits, length=1)
        assert chains == [(SeedHit(4, 9, "+"),)]
        with pytest.raises(ValueError):
            chain_hits(hits, length=0)
        with pytest.raises(ValueError):
            chain_hits(hits, min_gap=20, max_gap=10)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_triples(self, seed):
        """Exhaustive oracle: every chain's leftmost hit, nothing more or less."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(40, 120))
        hits = list(
            {
                SeedHit(
                    int(rng.integers(0, 120)),
                    int(rng.integers(0, 300)),
                    "+" if rng.random() < 0.5 else "-",
                )
                for _ in range(count)
            }
        )
        got = chain_hits(hits, length=3, min_gap=10, max_gap=50)
        triples = chain_triples(hits, 10, 50)
        want_leftmost = {(t[0].query_col, t[0].ref_pos, t[0].strand) for t in triples}
        got_leftmost = {(c[0].query_col, c[0].ref_pos, c[0].strand) for c in got}
        assert got_leftmost == want_leftmost
        assert len(got) == len(got_leftmost)
        # every reported chain must itself be a witnessed triple
        valid = {tuple((h.query_col, h.ref_pos, h.strand) for h in t) for t in triples}
        for c in got:
            assert tuple((h.query_col, h.ref_pos, h.strand) for h in c) in valid


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
        hits.append(SeedHit(q, r, strand))
        for dq, dr in steps:
            q, r = q + dq, r + sign * dr
            hits.append(SeedHit(q, r, strand))
    return hits, length, min_gap, max_gap


@settings(max_examples=300, deadline=None)
@given(chain_instances())
def test_chain_hits_match_reach_traceback(case):
    """Same chains, same hits in each and same order as longest reach plus traceback."""
    hits, length, min_gap, max_gap = case
    got = chain_hits(hits, length, min_gap, max_gap)
    assert got == reach_chains(hits, length, min_gap, max_gap)
