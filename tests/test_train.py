import re

import numpy as np
import pytest
from _oracles import dict_count_transitions, dict_estimate, order_counts, pair_counts
from hypothesis import given, settings, strategies as st

from ensembleseed.decode import IllegalPathError, StatePath
from ensembleseed.kmers import encode_kmer
from ensembleseed.shifts import pair_probs, smallest_orders
from ensembleseed.train import (
    TransitionCounts,
    count_transitions,
    estimate_transitions,
    load_transition_model,
    save_transition_model,
)


def kpath(*kmers):
    return np.array([encode_kmer(s) for s in kmers], dtype=np.int64)


def path_orders(states, k, max_shift):
    return smallest_orders(states[:-1], states[1:], k, max_shift)


def test_infer_orders():
    states = kpath("ACG", "ACG", "CGT", "GTA", "ACC")
    np.testing.assert_array_equal(path_orders(states, 3, 2), [0, 1, 1, 2])


def test_infer_orders_flags_unreachable():
    states = kpath("AAA", "TTT")
    np.testing.assert_array_equal(path_orders(states, 3, 2), [-1])


class TestCountTransitions:
    def test_per_order(self):
        paths = [
            kpath("ACG", "ACG", "CGT", "TAC"),
            StatePath(kpath("AAA", "AAC"), 0.0),
        ]
        counts = count_transitions(paths, 3, max_shift=2)
        assert [t.sum() for t in counts.tables] == [1, 2, 1]
        assert counts.total == 4

    def test_per_transition(self):
        paths = [kpath("AC", "CT", "CT", "AC", "CT")]
        counts = count_transitions(paths, 2, max_shift=2)
        ac, ct = encode_kmer("AC"), encode_kmer("CT")
        want = pair_counts(2, 2, {(ac, ct): 2, (ct, ct): 1, (ct, ac): 1})
        for got, table in zip(counts.tables, want, strict=True):
            np.testing.assert_array_equal(got, table)

    def test_illegal_pair_is_reported_with_position(self):
        paths = [kpath("AAA", "AAA", "TTT")]
        with pytest.raises(IllegalPathError, match=r"path 0, events 1\.\.2"):
            count_transitions(paths, 3, max_shift=2)

    def test_out_of_range_codes(self):
        with pytest.raises(IllegalPathError, match="path 0, event 1: state code 99 out of range"):
            count_transitions([np.array([0, 99])], 2)

    def test_single_event_paths_contribute_nothing(self):
        counts = count_transitions([np.array([5])], 2, max_shift=1)
        assert counts.total == 0


def test_counts_validation():
    with pytest.raises(ValueError, match="non-negative"):
        TransitionCounts(2, order_counts(2, [-1, 0]))
    with pytest.raises(ValueError, match="unknown mode"):
        estimate_transitions(TransitionCounts(2, order_counts(2, [0, 0])), "sideways")
    with pytest.raises(ValueError, match="max_shift"):
        TransitionCounts(2, order_counts(2, [0, 0, 0, 0]))
    with pytest.raises(ValueError, match=re.escape("order-1 counts must have shape (16, 4)")):
        TransitionCounts(2, [np.zeros(16), np.zeros((16, 16))])


class TestEstimate:
    def test_per_order_formula(self):
        counts = TransitionCounts(3, order_counts(3, [2, 6, 0]))
        model = estimate_transitions(counts, "per-order", pseudocount=1)
        # 21 out-edges per state: 1 split + 4 moves + 16 skips
        np.testing.assert_allclose(model.order_probs, [3 / 29, 10 / 29, 16 / 29])

    def test_zero_data_gives_uniform_edges(self):
        empty = count_transitions([], 2, max_shift=2)
        model = estimate_transitions(empty, "per-order", pseudocount=1)
        np.testing.assert_allclose(model.order_probs, [1 / 21, 4 / 21, 16 / 21])
        flat = estimate_transitions(empty, "per-transition", pseudocount=1)
        np.testing.assert_allclose(flat.tables[0], 1 / 21)
        np.testing.assert_allclose(flat.tables[1], 1 / 21)
        np.testing.assert_allclose(flat.tables[2], 1 / 21)

    def test_per_transition_rows(self):
        ac, ct = encode_kmer("AC"), encode_kmer("CT")
        counts = TransitionCounts(2, pair_counts(2, 1, {(ac, ct): 3, (ac, ac): 1}))
        model = estimate_transitions(counts, "per-transition", pseudocount=1)
        # AC row: 5 edges (1 split + 4 moves), 4 observations, denominator 9
        assert model.tables[0][ac] == pytest.approx(2 / 9)
        assert model.tables[1][ac, ct & 3] == pytest.approx(4 / 9)
        np.testing.assert_allclose(model.row_sums(), 1.0)

    def test_zero_pseudocount_requires_support_everywhere(self):
        ac, ct = encode_kmer("AC"), encode_kmer("CT")
        counts = TransitionCounts(2, pair_counts(2, 1, {(ac, ct): 3}))
        with pytest.raises(ValueError, match="zero row"):
            estimate_transitions(counts, "per-transition", pseudocount=0)

    def test_zero_pseudocount_zero_data_per_order(self):
        with pytest.raises(ValueError, match="pseudocount 0"):
            estimate_transitions(TransitionCounts(2, order_counts(2, [0, 0])), "per-order", 0)

    def test_negative_pseudocount(self):
        with pytest.raises(ValueError, match=">= 0"):
            estimate_transitions(TransitionCounts(2, order_counts(2, [0, 0])), "per-order", -1)


@st.composite
def counting_case(draw):
    """k, max shift and up to four paths of legal shifts, in some cases with jumps to any state."""
    k = draw(st.integers(1, 4))
    max_shift = draw(st.integers(1, min(k, 3)))
    jumps = draw(st.booleans())
    paths = []
    for _ in range(draw(st.integers(0, 4))):
        states = [draw(st.integers(0, 4**k - 1))]
        for _ in range(draw(st.integers(0, 30))):
            if jumps and draw(st.integers(0, 19)) == 0:
                states.append(draw(st.integers(0, 4**k - 1)))
                continue
            j = draw(st.integers(0, max_shift))
            b = draw(st.integers(0, 4**j - 1))
            states.append(states[-1] % 4 ** (k - j) * 4**j + b)
        paths.append(states)
    return k, max_shift, paths


@settings(max_examples=200, deadline=None)
@given(
    case=counting_case(),
    mode=st.sampled_from(["per-order", "per-transition"]),
    pseudocount=st.integers(0, 1),
)
def test_count_tables_match_the_dict_counting(case, mode, pseudocount):
    """One set of count tables serves both modes, bitwise as the per-mode dict counts did."""
    k, max_shift, paths = case
    try:
        want = dict_estimate(
            dict_count_transitions(paths, k, max_shift, mode), k, max_shift, mode, pseudocount
        )
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            estimate_transitions(count_transitions(paths, k, max_shift), mode, pseudocount)
        assert str(info.value) == str(exc)
        return
    model = estimate_transitions(count_transitions(paths, k, max_shift), mode, pseudocount)
    want_tables, want_probs = want
    for got, table in zip(model.tables, want_tables, strict=True):
        assert got.shape == table.shape and got.tobytes() == table.tobytes()
    if want_probs is None:
        assert model.order_probs is None
    else:
        assert model.order_probs.tobytes() == np.array(want_probs).tobytes()


class TestModelFiles:
    def test_per_order_round_trip(self, tmp_path):
        counts = TransitionCounts(3, order_counts(3, [17, 160, 23]))
        model = estimate_transitions(counts, "per-order", pseudocount=1)
        path = tmp_path / "trans.tsv"
        save_transition_model(path, model, pseudocount=1)
        first = path.read_text().splitlines()[0]
        assert first == "# k=3 max_shift=2 mode=per-order pseudocount=1"
        back = load_transition_model(path)
        assert back.mode == "per-order"
        np.testing.assert_array_equal(back.order_probs, model.order_probs)

    def test_per_transition_round_trip_preserves_aggregates(self, tmp_path):
        rng = np.random.default_rng(4)
        pairs = {}
        for _ in range(50):
            src = int(rng.integers(0, 16))
            j = int(rng.integers(0, 3))
            tgt = (src % 4 ** (2 - j)) * 4**j + int(rng.integers(0, 4**j))
            pairs[(src, tgt)] = pairs.get((src, tgt), 0) + int(rng.integers(1, 9))
        model = estimate_transitions(
            TransitionCounts(2, pair_counts(2, 2, pairs)), "per-transition", pseudocount=1
        )
        path = tmp_path / "trans.tsv"
        save_transition_model(path, model, pseudocount=1)
        back = load_transition_model(path)
        assert back.mode == "per-transition"
        # state-to-state totals survive even though order bookkeeping may not
        states = np.arange(16)
        np.testing.assert_allclose(
            pair_probs(back, states[:, None], states[None, :]),
            pair_probs(model, states[:, None], states[None, :]),
            rtol=0,
            atol=1e-17,
        )

    def test_load_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("order\tprob\n0\t0.5\n1\t0.5\n")
        with pytest.raises(ValueError, match="metadata"):
            load_transition_model(path)

    def test_load_rejects_missing_order(self, tmp_path):
        path = tmp_path / "gap.tsv"
        path.write_text(
            "# k=2 max_shift=1 mode=per-order pseudocount=1\norder\tprob\n0\t1.0\n"
        )
        with pytest.raises(ValueError):
            load_transition_model(path)

    @pytest.mark.parametrize(
        "rows,message",
        [
            ("0\t0.5\nx\t0.5\n", r"gap\.tsv:4: cannot parse order 'x'"),
            ("0\t0.5\n1\tabc\n", r"gap\.tsv:4: cannot parse probability 'abc'"),
        ],
    )
    def test_load_names_unparsable_per_order_field(self, tmp_path, rows, message):
        path = tmp_path / "gap.tsv"
        path.write_text("# k=2 max_shift=1 mode=per-order pseudocount=1\norder\tprob\n" + rows)
        with pytest.raises(ValueError, match=message):
            load_transition_model(path)

    @pytest.mark.parametrize(
        "mode,rows,message",
        [
            ("per-order", "order\tprob\n0\tnan\n1\t1.0\n", "must be >= 0 and sum to 1"),
            ("per-order", "order\tprob\n0\t-0.5\n1\t1.5\n", "must be >= 0 and sum to 1"),
            (
                "per-transition",
                "source_kmer\ttarget_kmer\tprob\nA\tA\tnan\n",
                "state 0 sums to nan",
            ),
            (
                "per-transition",
                "source_kmer\ttarget_kmer\tprob\nA\tA\t1.5\nA\tC\t-0.5\n",
                "transition probabilities must be >= 0",
            ),
        ],
    )
    def test_load_rejects_nan_or_negative_probabilities(self, tmp_path, mode, rows, message):
        path = tmp_path / "bad.tsv"
        path.write_text(f"# k=1 max_shift=1 mode={mode} pseudocount=1\n" + rows)
        with pytest.raises(ValueError, match=r"bad\.tsv: .*" + re.escape(message)):
            load_transition_model(path)

    def test_load_names_unparsable_per_transition_probability(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text(
            "# k=1 max_shift=1 mode=per-transition pseudocount=1\n"
            "source_kmer\ttarget_kmer\tprob\nA\tA\t0.5\nA\tC\tabc\n"
        )
        with pytest.raises(ValueError, match=r"pairs\.tsv:4: cannot parse probability 'abc'"):
            load_transition_model(path)

    def test_load_names_unparsable_metadata(self, tmp_path):
        path = tmp_path / "meta.tsv"
        path.write_text("# k=two max_shift=1 mode=per-order pseudocount=1\norder\tprob\n")
        with pytest.raises(ValueError, match=r"meta\.tsv:1: cannot parse k 'two'"):
            load_transition_model(path)


ORDER_FILE = "# k=2 max_shift=1 mode=per-order pseudocount=1\norder\tprob\n"
PAIR_FILE = (
    "# k=2 max_shift=1 mode=per-transition pseudocount=1\nsource_kmer\ttarget_kmer\tprob\n"
)


@pytest.mark.parametrize(
    "text,message",
    [
        (ORDER_FILE.replace("prob", "p"), r":2: expected header 'order\\tprob', got 'order\\tp'"),
        (ORDER_FILE.replace("max_shift=1", "max_shift=3"), r":1: need 1 <= max_shift <= k"),
        (ORDER_FILE + "0\t0.5\n2\t0.5\n", r":4: order 2 outside \[0, 1\]"),
        (ORDER_FILE + "0\t0.5\n0\t0.5\n", ":4: duplicate order 0"),
        (ORDER_FILE + "0\t0.5\n1\n", ":4: expected 2 columns, got 1"),
        (ORDER_FILE + "0\t0.5\n1\t0.6\n", ": order probabilities must be >= 0 and sum to 1"),
        (PAIR_FILE + "AA\tAC\t1.0\nAA\tACG\t0.5\n", ":4: cannot parse target_kmer 'ACG'"),
        (PAIR_FILE + "AA\tAC\t1.0\nAN\tAC\t0.5\n", ":4: cannot parse source_kmer 'AN'"),
        (PAIR_FILE + "AA\tAC\t1.0\nAA\tAC\t0.5\n", ":4: duplicate pair AA -> AC"),
        (PAIR_FILE + "AA\tAC\t1.0\nAA\tGG\t0.5\n", ":4: AA -> GG is not reachable with max shift 1"),
        (PAIR_FILE + "AA\tAC\t1.0\n", ": transition rows must sum to 1"),
    ],
)
def test_load_names_malformed_line(tmp_path, text, message):
    path = tmp_path / "model.tsv"
    path.write_text(text)
    with pytest.raises(ValueError, match=r"model\.tsv" + message):
        load_transition_model(path)
