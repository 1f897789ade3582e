import json
import math

import numpy as np
import pytest

from _oracles import aggregate_prob, normal_pdf
from ensembleseed.decode import emission_log_matrix, forward
from ensembleseed.kmers import encode_kmer
from ensembleseed.pore_model import (
    DEFAULT_ORDER_PROBS,
    EventSequence,
    Hmm,
    PoreModel,
    ReadScaling,
    TransitionModel,
    load_events,
    load_pore_model,
    make_hmm,
    write_events,
    write_pore_model,
)
from ensembleseed.shifts import pair_probs, smallest_orders


def toy_pore(k, seed=0):
    rng = np.random.default_rng(seed)
    m = 4**k
    return PoreModel(k=k, level_mean=rng.normal(100, 15, m), level_stdv=rng.uniform(1, 3, m))


def smallest_shift(prev, cur, k, max_shift):
    """Scalar view of ``smallest_orders``: None where no order fits."""
    j = int(smallest_orders(prev, cur, k, max_shift))
    return None if j < 0 else j


def dense_aggregate(transitions):
    """(m, m) total state-to-state probabilities, from pair_probs over every pair."""
    states = np.arange(4**transitions.k)
    return pair_probs(transitions, states[:, None], states[None, :])


class TestSmallestShift:
    def test_stay(self):
        assert smallest_shift(encode_kmer("ACG"), encode_kmer("ACG"), 3, 2) == 0

    def test_single_move(self):
        assert smallest_shift(encode_kmer("ACG"), encode_kmer("CGT"), 3, 2) == 1
        assert smallest_shift(encode_kmer("ACG"), encode_kmer("CGA"), 3, 2) == 1

    def test_double_skip(self):
        assert smallest_shift(encode_kmer("ACG"), encode_kmer("GAA"), 3, 2) == 2
        assert smallest_shift(encode_kmer("ACG"), encode_kmer("GTC"), 3, 2) == 2

    def test_unreachable(self):
        assert smallest_shift(encode_kmer("ACG"), encode_kmer("TAA"), 3, 2) is None

    def test_periodic_kmer_prefers_smallest_order(self):
        # AAA -> AAA is reachable at every order; report the split
        assert smallest_shift(encode_kmer("AAA"), encode_kmer("AAA"), 3, 2) == 0
        assert smallest_shift(encode_kmer("AAA"), encode_kmer("AAC"), 3, 2) == 1

    def test_k1(self):
        assert smallest_shift(0, 0, 1, 1) == 0
        assert smallest_shift(0, 1, 1, 1) == 1
        assert smallest_shift(0, 1, 1, 0) is None


class TestTransitionModel:
    def test_per_order_tables(self):
        tm = TransitionModel.per_order(2, (0.2, 0.7, 0.1))
        assert tm.max_shift == 2
        assert tm.mode == "per-order"
        np.testing.assert_allclose(tm.tables[0], 0.2)
        np.testing.assert_allclose(tm.tables[1], 0.7 / 4)
        np.testing.assert_allclose(tm.tables[2], 0.1 / 16)
        np.testing.assert_allclose(tm.row_sums(), 1.0)

    def test_per_order_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionModel.per_order(2, (0.5, 0.6))
        with pytest.raises(ValueError, match="exceeds k"):
            TransitionModel.per_order(1, (0.1, 0.8, 0.1))

    def test_row_sum_enforced(self):
        m = 4
        tables = [np.full(m, 0.5), np.full((m, 4), 0.2)]  # rows sum to 1.3
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionModel(1, tables, mode="per-order")

    def test_per_order_rejects_tables_that_vary_by_state(self):
        tables = [np.full(4, 0.5), np.full((4, 4), 0.125)]
        tables[0][1], tables[1][1] = 0.3, 0.175
        with pytest.raises(ValueError, match="order 0 varies"):
            TransitionModel(1, tables, mode="per-order")
        assert TransitionModel(1, tables, mode="per-transition").order_probs is None

    @pytest.mark.parametrize(
        "probs", [(0.2, 0.7, 0.1), (0.1, 0.3, 0.6), (1 / 3, 1 / 3, 1 / 3), (0.25, 0.75, 0.0)]
    )
    def test_per_order_order_probs_are_bitwise_its_input(self, probs):
        tm = TransitionModel.per_order(3, probs)
        assert tm.order_probs.tolist() == list(probs)

    def test_aggregate_matrix_matches_direct_formula(self):
        tm = TransitionModel.per_order(2, (0.15, 0.75, 0.1))
        agg = dense_aggregate(tm)
        m = 16
        for x in range(m):
            for y in range(m):
                assert agg[x, y] == pytest.approx(
                    aggregate_prob(x, y, 2, (0.15, 0.75, 0.1)), abs=1e-15
                )

    def test_aggregate_sums_parallel_orders_for_periodic_kmers(self):
        tm = TransitionModel.per_order(2, (0.2, 0.7, 0.1))
        agg = dense_aggregate(tm)
        aa = encode_kmer("AA")
        # AA -> AA: split 0.2, move via base A 0.7/4, skip via AA 0.1/16
        assert agg[aa, aa] == pytest.approx(0.2 + 0.7 / 4 + 0.1 / 16)

    def test_out_edges_complete(self):
        tm = TransitionModel.per_order(3)
        agg = dense_aggregate(tm)
        for state in (0, 17, 63):
            assert agg[state].sum() == pytest.approx(1.0)
            # 1 split + 4 moves + 16 skips, fewer where orders link the same pair
            reached = np.flatnonzero(agg[state])
            assert 16 <= reached.size <= 21
            assert all(smallest_shift(state, t, 3, 2) is not None for t in reached)


def test_hmm_requires_consistent_k():
    with pytest.raises(ValueError, match="inconsistent k"):
        Hmm(toy_pore(2), TransitionModel.per_order(3))


def test_make_hmm_defaults():
    hmm = make_hmm(toy_pore(3))
    assert (hmm.k, hmm.num_states) == (3, 64)
    assert hmm.transitions.mode == "per-order"
    np.testing.assert_allclose(hmm.transitions.order_probs, DEFAULT_ORDER_PROBS)


def test_transitions_from_start_state():
    # A read starts in each of the 16 states with probability 1/16.
    hmm = make_hmm(toy_pore(2))
    events = EventSequence("r", [101.0])
    fwd = forward(hmm, events)
    emit = np.exp(emission_log_matrix(hmm, events)[0])
    np.testing.assert_allclose(fwd.columns[0], emit / emit.sum(), rtol=1e-12)
    assert fwd.log_likelihood == pytest.approx(np.log(emit.sum() / 16), rel=1e-12)


def test_transitions_from_regular_state_matches_oracle():
    hmm = make_hmm(toy_pore(2))
    row = dense_aggregate(hmm.transitions)[encode_kmer("CT")]
    for target in range(16):
        want = aggregate_prob(encode_kmer("CT"), target, 2, DEFAULT_ORDER_PROBS)
        assert row[target] == pytest.approx(want, abs=1e-15)


def test_emission_log_density():
    pore = toy_pore(2, seed=5)
    scaling = ReadScaling(scale=1.02, shift=-1.5, var=1.1)
    code = encode_kmer("GT")
    mu, sigma = pore.level_mean[code], pore.level_stdv[code]
    want = math.log(normal_pdf(97.0, 1.02 * mu - 1.5, sigma * 1.1))
    got = emission_log_matrix(make_hmm(pore), EventSequence("r", [97.0], scaling))
    assert got[0, code] == pytest.approx(want, rel=1e-12)


def test_read_scaling_validation():
    with pytest.raises(ValueError):
        ReadScaling(scale=0.0)
    with pytest.raises(ValueError):
        ReadScaling(var=-1.0)
    with pytest.raises(ValueError):
        ReadScaling(shift=float("nan"))


def test_event_sequence_validation():
    with pytest.raises(ValueError, match="at least one event"):
        EventSequence("r", [])
    with pytest.raises(ValueError, match="non-finite"):
        EventSequence("r", [1.0, float("inf")])


def test_pore_model_validation():
    with pytest.raises(ValueError, match="rows"):
        PoreModel(2, np.zeros(5), np.ones(5))
    with pytest.raises(ValueError, match="positive"):
        PoreModel(1, np.zeros(4), np.array([1.0, 1.0, 0.0, 1.0]))


def test_pore_model_round_trip(tmp_path):
    pore = toy_pore(3, seed=11)
    path = tmp_path / "pore.tsv"
    write_pore_model(path, pore)
    reversed_rows = tmp_path / "reversed.tsv"
    header, *rows = path.read_text().splitlines()
    reversed_rows.write_text("\n".join([header, *rows[::-1]]) + "\n")
    for back in (load_pore_model(path), load_pore_model(reversed_rows)):
        assert back.k == 3
        np.testing.assert_array_equal(back.level_mean, pore.level_mean)
        np.testing.assert_array_equal(back.level_stdv, pore.level_stdv)


def test_events_round_trip(tmp_path):
    reads = [
        EventSequence("r1", [100.0, 101.5, 99.25], ReadScaling(1.01, -0.5, 1.05)),
        EventSequence("r2", [88.0]),
    ]
    path = tmp_path / "events.jsonl"
    write_events(path, reads)
    back = load_events(path)
    assert [r.read_id for r in back] == ["r1", "r2"]
    np.testing.assert_array_equal(back[0].means, reads[0].means)
    assert back[0].scaling == reads[0].scaling
    assert back[1].scaling == ReadScaling()


@pytest.mark.parametrize(
    "lineno,line,message",
    [
        (1, "kmer\tmu", r"expected header 'kmer\\tmu\\tsigma'"),
        (3, "C\tx\t2.0", "cannot parse mu 'x'"),
        (3, "C\t100.0\tnan", "sigma must be positive"),
        (3, "C\t100.0", "expected 3 columns, got 2"),
        (3, "CA\t100.0\t2.0", "expected a 1-mer over ACGT, got 'CA'"),
        (3, "N\t100.0\t2.0", "expected a 1-mer over ACGT, got 'N'"),
        (6, "A\t100.0\t2.0", "duplicate k-mer A"),
    ],
)
def test_load_pore_model_names_malformed_line(tmp_path, lineno, line, message):
    path = tmp_path / "pore.tsv"
    write_pore_model(path, toy_pore(1))
    lines = path.read_text().splitlines() + [""]
    lines[lineno - 1] = line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"pore\.tsv:{lineno}: {message}"):
        load_pore_model(path)


def test_load_pore_model_rejects_incomplete_table(tmp_path):
    path = tmp_path / "pore.tsv"
    write_pore_model(path, toy_pore(2))
    path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")
    with pytest.raises(ValueError, match=r"pore\.tsv: 15 k-mers, a 2-mer pore model needs 16"):
        load_pore_model(path)


def event_line(**fields):
    record = {"read_id": "r2", "scale": 1.0, "shift": 0.0, "var": 1.0, "events": [100.0]}
    record.update(fields)
    return json.dumps({key: value for key, value in record.items() if value is not None})


@pytest.mark.parametrize(
    "line,message",
    [
        (event_line(events=[100.0, "a"]), "events must be a non-empty flat array of numbers"),
        (event_line(events=[[100.0, 101.0]]), "events must be a non-empty flat array"),
        (event_line(events=[True]), "events must be a non-empty flat array"),
        (event_line(events=[]), "events must be a non-empty flat array"),
        (event_line(events=[float("inf")]), "bad event record: read 'r2': non-finite"),
        (event_line(scale=0), "bad event record: scale must be positive"),
        (event_line(read_id=7), "read_id must be a JSON str, got a JSON int"),
        (event_line(shift="0"), "shift must be a JSON float, got a JSON str"),
        (event_line(var=10**400), "var must be a JSON float, got a JSON int"),
        (event_line(events=None), "record lacks events"),
        ('["r2", 1.0, 0.0, 1.0, [100.0]]', "not a JSON object"),
        (event_line()[:-1], "not a JSON record"),
        (event_line(read_id="r1"), "duplicate read id 'r1'"),
        (event_line(read_id="read 2"), "bad event record: read id 'read 2' holds whitespace"),
    ],
)
def test_load_events_names_malformed_line(tmp_path, line, message):
    path = tmp_path / "events.jsonl"
    write_events(path, [EventSequence("r1", [100.0])])
    path.write_text(path.read_text() + "\n" + line + "\n")
    with pytest.raises(ValueError, match=rf"events\.jsonl:3: {message}"):
        load_events(path)
