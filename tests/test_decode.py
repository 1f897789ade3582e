import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import (
    aggregate_prob,
    best_path,
    dense_viterbi,
    enumerate_joints,
    gather_viterbi,
    normal_logpdf_matrix,
    order_by_order_traceback,
    path_index,
    path_joint,
    paths_log_joints,
    table_prob,
    translate_path,
)
from ensembleseed.decode import (
    BaseCall,
    IllegalPathError,
    ReadEnsemble,
    call_read,
    emission_log_matrix,
    forward,
    load_basecalls,
    path_log_joint,
    path_to_sequence,
    sample_paths,
    viterbi,
    write_basecalls,
)
from ensembleseed.kmers import encode_kmer
from ensembleseed.pore_model import (
    EventSequence,
    PoreModel,
    ReadScaling,
    TransitionModel,
    make_hmm,
)
from ensembleseed.shifts import pair_probs
from ensembleseed.simulate import synthetic_pore_model


def random_instance(seed, k=1, n_events=3, scaled=False, with_joints=True):
    """A small random HMM plus one event stream, sized for path enumeration.

    ``with_joints=False`` skips the m**n oracle enumeration for tests that
    only need the instance itself.
    """
    rng = np.random.default_rng(seed)
    m = 4**k
    pore = PoreModel(
        k=k,
        level_mean=rng.normal(100.0, 12.0, m),
        level_stdv=rng.uniform(1.5, 3.0, m),
    )
    raw = rng.uniform(0.2, 1.0, k + 1)
    order_probs = tuple(raw / raw.sum())
    hmm = make_hmm(pore, TransitionModel.per_order(k, order_probs))
    scaling = ReadScaling()
    if scaled:
        scaling = ReadScaling(
            scale=rng.uniform(0.9, 1.1),
            shift=rng.uniform(-2, 2),
            var=rng.uniform(0.9, 1.2),
        )
    means = rng.normal(100.0, 14.0, n_events)
    events = EventSequence(f"inst{seed}", means, scaling)
    joints = None
    if with_joints:
        joints = enumerate_joints(
            means,
            pore.level_mean,
            pore.level_stdv,
            k,
            order_probs,
            (scaling.scale, scaling.shift, scaling.var),
        )
    return hmm, events, order_probs, joints


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k,n", [(1, 3), (1, 5), (2, 3)])
def test_forward_matches_path_enumeration(seed, k, n):
    hmm, events, _, joints = random_instance(seed, k=k, n_events=n, scaled=seed % 2 == 0)
    fwd = forward(hmm, events)
    want = math.log(joints.sum())
    assert fwd.log_likelihood == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_forward_columns_are_normalized(seed):
    hmm, events, _, _ = random_instance(seed, k=2, n_events=6, with_joints=False)
    fwd = forward(hmm, events)
    sums = fwd.columns.sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("k,n", [(1, 4), (2, 3)])
def test_viterbi_matches_exhaustive_argmax(seed, k, n):
    hmm, events, order_probs, _ = random_instance(seed, k=k, n_events=n, scaled=seed % 2 == 1)
    got = viterbi(hmm, events)
    s = events.scaling
    want_states, want_p = best_path(
        events.means,
        hmm.pore.level_mean,
        hmm.pore.level_stdv,
        k,
        order_probs,
        (s.scale, s.shift, s.var),
    )
    assert list(got.states) == want_states
    assert got.log_joint == pytest.approx(math.log(want_p), rel=1e-9, abs=1e-9)


def quantised_instance(seed, mode, max_k=3):
    """A random k <= max_k model and read whose levels, events and transition
    weights come from small grids, so Viterbi meets exact ties and parallel
    pairs (homopolymers, period-2 k-mers) carry summed mass."""
    rng = np.random.default_rng(seed)
    k = 1 + seed % max_k
    m = 4**k
    pore = PoreModel(k, rng.choice([90.0, 100.0, 110.0], m), rng.choice([2.0, 4.0], m))
    max_shift = int(rng.integers(1, k + 1))
    if mode == "per-order":
        weights = rng.integers(1, 4, max_shift + 1).astype(float)
        trans = TransitionModel.per_order(k, weights / weights.sum())
    else:
        raw = [rng.integers(1, 4, m).astype(float)]
        raw += [rng.integers(1, 4, (m, 4**j)).astype(float) for j in range(1, max_shift + 1)]
        rows = raw[0] + sum(t.sum(axis=1) for t in raw[1:])
        tables = [raw[0] / rows] + [t / rows[:, None] for t in raw[1:]]
        trans = TransitionModel(k, tables, mode="per-transition")
    events = EventSequence(f"q{seed}", rng.choice([90.0, 95.0, 100.0, 110.0], 6))
    return make_hmm(pore, trans), events


@pytest.mark.parametrize("mode", ["per-order", "per-transition"])
def test_viterbi_matches_dense_reference(mode):
    for seed in range(150):
        hmm, events = quantised_instance(seed, mode)
        trans, k, m = hmm.transitions, hmm.k, hmm.num_states
        agg = np.array(
            [[table_prob(x, y, k, trans.tables) for y in range(m)] for x in range(m)]
        )
        want_states, want_joint = dense_viterbi(emission_log_matrix(hmm, events), agg)
        got = viterbi(hmm, events)
        assert got.states.tolist() == want_states, f"seed {seed}"
        assert got.log_joint == want_joint, f"seed {seed}"


@pytest.mark.parametrize("mode", ["per-order", "per-transition"])
@pytest.mark.parametrize("count", [1, 7, 64])
def test_sample_paths_matches_order_by_order_traceback(mode, count):
    for seed in range(24):
        hmm, events = quantised_instance(seed, mode, max_k=4)
        fwd = forward(hmm, events)
        tables = hmm.transitions.tables
        want = order_by_order_traceback(fwd.columns, tables, hmm.k, count, seed)
        want_joints = paths_log_joints(emission_log_matrix(hmm, events), want, hmm.k, tables)
        got = sample_paths(hmm, events, fwd, count, seed=seed)
        np.testing.assert_array_equal(got, want, f"seed {seed}")
        assert path_log_joint(hmm, events, got).tolist() == want_joints.tolist(), f"seed {seed}"


MODES = ["per-order", "per-transition"]


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_forward_columns_sum_to_one(mode, seed):
    hmm, events = quantised_instance(seed, mode, max_k=4)
    np.testing.assert_allclose(forward(hmm, events).columns.sum(axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sampled_paths_take_only_linked_pairs(mode, seed):
    hmm, events = quantised_instance(seed, mode, max_k=4)
    states = sample_paths(hmm, events, forward(hmm, events), 16, seed=seed)
    assert np.all(pair_probs(hmm.transitions, states[:, :-1], states[:, 1:]) > 0)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_viterbi_log_joint_is_its_path_log_joint(mode, seed):
    hmm, events = quantised_instance(seed, mode, max_k=4)
    best = viterbi(hmm, events)
    assert best.log_joint == pytest.approx(path_log_joint(hmm, events, best.states), rel=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 5),
    shift=st.integers(1, 3),
    quantised=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_order_kernels_match_the_gather_on_the_same_tables(k, shift, quantised, seed):
    """A per-order model's factored steps agree bitwise with the by-dropped-bases
    steps that the same tables take when wrapped as a per-transition model (the
    name is older: the per-transition step was once a gather over every target's
    predecessors). Quantised levels, events and weights make exact ties; zero
    split or skip weights make -inf scores."""
    rng = np.random.default_rng(seed)
    m, max_shift = 4**k, min(shift, k)
    if quantised:
        pore = PoreModel(k, rng.choice([90.0, 100.0, 110.0], m), rng.choice([2.0, 4.0], m))
        weights = rng.integers(0, 3, max_shift + 1).astype(float)
        weights[1] += 1.0
        means = rng.choice([90.0, 95.0, 100.0, 110.0], 8)
    else:
        pore = PoreModel(k, rng.normal(100.0, 12.0, m), rng.uniform(1.5, 3.0, m))
        weights = rng.uniform(0.05, 1.0, max_shift + 1)
        means = rng.normal(100.0, 14.0, 8)
    per_order = TransitionModel.per_order(k, weights / weights.sum())
    gathered = TransitionModel(k, per_order.tables, mode="per-transition")
    events = EventSequence("twins", means)
    logpdf = emission_log_matrix(make_hmm(pore, per_order), events)
    (vit, fwd), (want_vit, want_fwd) = [
        (viterbi(hmm, events, logpdf), forward(hmm, events, logpdf))
        for hmm in (make_hmm(pore, per_order), make_hmm(pore, gathered))
    ]
    assert vit.states.tolist() == want_vit.states.tolist()
    assert vit.log_joint == want_vit.log_joint
    np.testing.assert_array_equal(fwd.columns, want_fwd.columns)
    np.testing.assert_array_equal(fwd.log_scale_factors, want_fwd.log_scale_factors)


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 4),
    shift=st.integers(1, 4),
    quantised=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_transition_viterbi_matches_the_full_pool_gather(k, shift, quantised, seed):
    """Viterbi under random per-transition tables agrees bitwise with the gather over
    every state's whole predecessor pool. About a third of the edges weigh zero,
    so some scores are -inf; quantised levels, events and weights make exact ties."""
    rng = np.random.default_rng(seed)
    m, max_shift = 4**k, min(shift, k)
    if quantised:
        pore = PoreModel(k, rng.choice([90.0, 100.0, 110.0], m), rng.choice([2.0, 4.0], m))
        means = rng.choice([90.0, 95.0, 100.0, 110.0], 8)
    else:
        pore = PoreModel(k, rng.normal(100.0, 12.0, m), rng.uniform(1.5, 3.0, m))
        means = rng.normal(100.0, 14.0, 8)

    def draw(shape):
        if quantised:
            return rng.integers(0, 3, shape).astype(float)
        return rng.uniform(0.0, 1.0, shape) * (rng.random(shape) > 0.3)

    raw = [draw(m)] + [draw((m, 4**j)) for j in range(1, max_shift + 1)]
    raw[1][:, 0] += 1.0  # every state keeps an out-edge
    rows = raw[0] + sum(t.sum(axis=1) for t in raw[1:])
    tables = [raw[0] / rows] + [t / rows[:, None] for t in raw[1:]]
    hmm = make_hmm(pore, TransitionModel(k, tables, mode="per-transition"))
    events = EventSequence("zeros", means)
    want_states, want_joint = gather_viterbi(emission_log_matrix(hmm, events), tables, k)
    got = viterbi(hmm, events)
    assert got.states.tolist() == want_states
    assert got.log_joint == want_joint


def test_kernels_take_the_emission_matrix_of_their_read_only():
    hmm, events, _, _ = random_instance(5, k=2, n_events=4, with_joints=False)
    logpdf = emission_log_matrix(hmm, events)
    given, computed = viterbi(hmm, events, logpdf), viterbi(hmm, events)
    assert given.states.tolist() == computed.states.tolist()
    assert given.log_joint == computed.log_joint
    given, computed = forward(hmm, events, logpdf), forward(hmm, events)
    np.testing.assert_array_equal(given.columns, computed.columns)
    for kernel in (viterbi, forward):
        for bad in (logpdf[:-1], logpdf[:, :-1]):
            with pytest.raises(ValueError, match=r"read 'inst5': emission matrix has shape"):
                kernel(hmm, events, bad)


def test_forward_rejects_zero_mass_column():
    # A only splits back to itself and is the only state event 0 leaves alive
    # (the others are 100 sd away); event 1 sits 100 sd away from A.
    pore = PoreModel(1, [0.0, 100.0, 200.0, 300.0], [1.0, 1.0, 1.0, 1.0])
    tables = [np.array([1.0, 0.5, 0.5, 0.5]), np.full((4, 4), 0.125)]
    tables[1][0] = 0.0
    hmm = make_hmm(pore, TransitionModel(1, tables, mode="per-transition"))
    with pytest.raises(ValueError, match=r"read 'dead': .* at event 1"):
        forward(hmm, EventSequence("dead", [0.0, 100.0]))


def test_viterbi_rejects_a_read_no_path_can_emit():
    """Event 1 is so far out that every state's log density is -inf."""
    hmm = make_hmm(synthetic_pore_model(3, seed=1))
    events = EventSequence("far", [100.0, 1e200, 100.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"read 'far': no finite Viterbi score at event 1$"):
            viterbi(hmm, events)


@pytest.mark.parametrize("mode", ["per-order", "per-transition"])
def test_kernels_leave_the_given_emission_matrix_unchanged(mode):
    hmm, events = quantised_instance(5, mode)
    logpdf = emission_log_matrix(hmm, events)
    before = logpdf.copy()
    viterbi(hmm, events, logpdf)
    forward(hmm, events, logpdf)
    assert logpdf.tobytes() == before.tobytes()


def test_call_read_peaks_at_about_two_emission_matrices():
    """Viterbi and forward each hold the emission matrix and one array of its size."""
    pore = synthetic_pore_model(5, seed=1)
    hmm = make_hmm(pore)
    rng = np.random.default_rng(0)
    means = rng.choice(pore.level_mean, 300) + rng.normal(0.0, 1.0, 300)
    events = EventSequence("r", means)
    call_read(hmm, events, 1, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call_read(hmm, events, 16, 0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    matrix = len(events) * hmm.num_states * 8
    assert peak <= 2.25 * matrix, f"peak is {peak / matrix:.3f} emission matrices"


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(2, 4),
    scale=st.floats(0.5, 2.0),
    shift=st.floats(-20.0, 20.0),
    var=st.floats(0.5, 2.0),
    kind=st.sampled_from(["random", "at a level", "far out"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_emission_matches_the_numpy_expression_oracle(k, scale, shift, var, kind, seed):
    """Bitwise, with z = 0 at a state's own scaled level and z * z overflowing far out."""
    hmm = make_hmm(synthetic_pore_model(k, seed))
    scaling = ReadScaling(scale=scale, shift=shift, var=var)
    loc, sd = hmm.levels(scaling)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 50))
    states = rng.integers(0, hmm.num_states, n)
    if kind == "random":
        means = rng.normal(100.0, 20.0, n)
    elif kind == "at a level":
        means = loc[states]
    else:
        # z * z overflows past |z| = 1.3e154, and -0.5 * z * z past 1.9e154.
        means = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(153.5, 155.5, n)
    want = normal_logpdf_matrix(means, loc, sd)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = emission_log_matrix(hmm, EventSequence("r", means, scaling))
    assert got.tobytes() == want.tobytes()
    if kind == "at a level":
        peaks = -np.log(sd * np.sqrt(2.0 * np.pi))
        np.testing.assert_array_equal(got[np.arange(n), states], peaks[states])
    if kind == "far out":
        assert np.isneginf(got).any()


def test_path_log_joint_matches_oracle():
    hmm, events, order_probs, _ = random_instance(3, k=2, n_events=5, scaled=True, with_joints=False)
    rng = np.random.default_rng(99)
    s = events.scaling
    for _ in range(10):
        states = rng.integers(0, 16, size=5)
        want = path_joint(
            states,
            events.means,
            hmm.pore.level_mean,
            hmm.pore.level_stdv,
            2,
            order_probs,
            (s.scale, s.shift, s.var),
        )
        got = path_log_joint(hmm, events, states)
        if want == 0.0:
            assert got == -math.inf
        else:
            assert got == pytest.approx(math.log(want), rel=1e-9)


def test_aggregate_transition_probs_matches_oracle():
    hmm, _, order_probs, _ = random_instance(7, k=2, n_events=3)
    rng = np.random.default_rng(1)
    src = rng.integers(0, 16, 200)
    tgt = rng.integers(0, 16, 200)
    got = pair_probs(hmm.transitions, src, tgt)
    want = [aggregate_prob(int(x), int(y), 2, order_probs) for x, y in zip(src, tgt)]
    np.testing.assert_allclose(got, want, atol=1e-15)


class TestSamplePaths:
    def test_deterministic_for_fixed_seed(self):
        hmm, events, _, _ = random_instance(11, k=2, n_events=5, with_joints=False)
        fwd = forward(hmm, events)
        a = sample_paths(hmm, events, fwd, 8, seed=42)
        b = sample_paths(hmm, events, fwd, 8, seed=42)
        assert a.dtype == np.int64 and a.shape == b.shape == (8, 5)
        np.testing.assert_array_equal(a, b)

    def test_zero_draws(self):
        hmm, events, _, _ = random_instance(12)
        fwd = forward(hmm, events)
        paths = sample_paths(hmm, events, fwd, 0, seed=1)
        assert paths.dtype == np.int64 and paths.shape == (0, 3)
        assert path_to_sequence(paths, 1) == []

    def test_rejects_negative_count(self):
        hmm, events, _, _ = random_instance(13)
        fwd = forward(hmm, events)
        with pytest.raises(ValueError):
            sample_paths(hmm, events, fwd, -1, seed=1)

    def test_rejects_mismatched_forward(self):
        hmm, events, _, _ = random_instance(14, n_events=4)
        _, other_events, _, _ = random_instance(15, n_events=5)
        fwd = forward(hmm, other_events)
        with pytest.raises(ValueError):
            sample_paths(hmm, events, fwd, 1, seed=1)

    def test_empirical_distribution_tracks_posterior(self):
        """Coarse screen; the tight tolerance lives in the acceptance suite."""
        hmm, events, _, joints = random_instance(17, k=1, n_events=3)
        fwd = forward(hmm, events)
        posterior = joints / joints.sum()
        draws = sample_paths(hmm, events, fwd, 20_000, seed=5)
        counts = np.zeros_like(posterior)
        for p in draws:
            counts[path_index(p, 4)] += 1
        tv = 0.5 * np.abs(counts / len(draws) - posterior).sum()
        assert tv < 0.05


class TestPathToSequence:
    def test_shortest_interpretation(self):
        states = np.array(
            [encode_kmer("ACG"), encode_kmer("CGT"), encode_kmer("CGT"), encode_kmer("TAC")]
        )
        call = path_to_sequence(states, 3)
        assert call.sequence == "ACGTAC"
        assert call.lengths.dtype == np.uint8
        assert call.lengths.tolist() == [3, 1, 0, 2]
        assert call.event_spans.tolist() == [[0, 3], [3, 1], [4, 0], [4, 2]]
        assert len(call) == 6

    def test_single_event(self):
        call = path_to_sequence(np.array([encode_kmer("GT")]), 2)
        assert call.sequence == "GT"
        assert call.event_spans.tolist() == [[0, 2]]

    def test_illegal_pair_reports_position(self):
        states = np.array([encode_kmer("A"), encode_kmer("C")])
        with pytest.raises(IllegalPathError, match="events 0..1"):
            path_to_sequence(states, 1, max_shift=0)

    def test_illegal_pair_in_a_later_row_reports_row_and_events(self):
        ok = [encode_kmer("AC"), encode_kmer("CG"), encode_kmer("GT")]
        bad = [encode_kmer("AC"), encode_kmer("CG"), encode_kmer("AA")]
        message = r"row 1, events 1\.\.2: CG -> AA needs a shift beyond 1"
        with pytest.raises(IllegalPathError, match=message):
            path_to_sequence(np.array([ok, bad, bad]), 2, max_shift=1)


def legal_paths(draw, k, max_shift):
    """A (rows, events) array of linked paths, with splits and homopolymer runs."""
    rows, events = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    paths = np.empty((rows, events), dtype=np.int64)
    for r in range(rows):
        state = draw(st.integers(0, 4**k - 1))
        paths[r, 0] = state
        for i in range(1, events):
            j = draw(st.integers(0, max_shift))
            # Gaining copies of the last base runs into homopolymers, where a
            # move can read as a split.
            repeat = sum((state & 3) << (2 * d) for d in range(j))
            b = repeat if draw(st.booleans()) else draw(st.integers(0, 4**j - 1))
            state = state % 4 ** (k - j) * 4**j + b
            paths[r, i] = state
    return paths


@settings(max_examples=200, deadline=None)
@given(data=st.data(), k=st.integers(1, 5), shift=st.integers(1, 3))
def test_translating_rows_together_matches_each_path(data, k, shift):
    max_shift = min(k, shift)
    paths = legal_paths(data.draw, k, max_shift)
    calls = path_to_sequence(paths, k, max_shift)
    assert len(calls) == len(paths)
    for row, call in zip(paths, calls):
        sequence, lengths = translate_path(row, k, max_shift)
        alone = path_to_sequence(row, k, max_shift)
        for got in (call, alone):
            assert got.sequence == sequence
            assert got.lengths.dtype == np.uint8
            assert got.lengths.tobytes() == np.array(lengths, dtype=np.uint8).tobytes()


def write_call_files(tmp_path, records):
    """FASTA and spans files for (read id, call kind, index, sequence) records.

    Each call is one event that emitted its whole sequence.
    """
    fasta = tmp_path / "calls.fasta"
    spans = tmp_path / "spans.jsonl"
    with open(fasta, "w") as fa, open(spans, "w") as sp:
        for read_id, kind, index, seq in records:
            label = "viterbi" if kind == "viterbi" else f"sample{index}"
            fa.write(f">{read_id} {label}\n{seq}\n")
            record = {"read_id": read_id, "call": kind, "index": index, "spans": chr(48 + len(seq))}
            sp.write(json.dumps(record) + "\n")
    return fasta, spans


def test_load_basecalls_rejects_repeated_spans_record(tmp_path):
    fasta, spans = write_call_files(
        tmp_path, [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    )
    with open(spans, "a") as sp:
        sp.write(json.dumps({"read_id": "r1", "call": "viterbi", "index": None, "spans": "3"}))
    with pytest.raises(ValueError, match=r"spans\.jsonl:3: repeated viterbi call for read 'r1'"):
        load_basecalls(fasta, spans)


def test_load_basecalls_rejects_repeated_fasta_record(tmp_path):
    fasta, spans = write_call_files(
        tmp_path, [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    )
    with open(fasta, "a") as fa:
        fa.write(">r1 sample0\nACG\n")
    with pytest.raises(ValueError, match=r"calls\.fasta:5: repeated sample0 call for read 'r1'"):
        load_basecalls(fasta, spans)


@pytest.mark.parametrize(
    "order,line,label,due",
    [
        ((2, 0), 3, "sample2", "sample0"),
        ((0, 2), 5, "sample2", "sample1"),
        ((1, 0), 3, "sample1", "sample0"),
    ],
)
def test_load_basecalls_rejects_samples_out_of_file_order(tmp_path, order, line, label, due):
    """Samples are rows of the ensemble, so a gap or a swap would silently renumber them."""
    records = [("r1", "viterbi", None, "ACG")] + [("r1", "sample", i, "ACG") for i in order]
    fasta, spans = write_call_files(tmp_path, records)
    message = rf"calls\.fasta:{line}: {label} call of read 'r1' where {due} is due"
    with pytest.raises(ValueError, match=message):
        load_basecalls(fasta, spans)


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"read_id": "r1", "call": "sample", "index": 0, "spans": "3"', "not a JSON record"),
        ('["r1", "sample", 0, "3"]', "not a JSON object"),
        ('{"read_id": "r1", "call": "sample", "index": 0}', "record lacks spans"),
        ('{"read_id": "r1", "index": 0, "spans": "3"}', "record lacks call"),
        ('{"read_id": "r1", "call": "best", "index": 0, "spans": "3"}', "unknown call 'best'"),
        ('{"read_id": "r1", "call": "sample", "index": 0, "spans": "12A"}', r"character 'A'"),
        ('{"read_id": "r1", "call": "sample", "index": 0, "spans": "2/"}', r"character '/'"),
        ('{"read_id": "r1", "call": "sample", "index": 0, "spans": "2\u00e9"}', "character"),
        (
            '{"read_id": "r1", "call": "sample", "index": 0, "spans": [[0, 3]]}',
            "spans must be a string of one length character per event, got a JSON list",
        ),
    ],
)
def test_load_basecalls_names_malformed_spans_line(tmp_path, line, message):
    fasta, spans = write_call_files(
        tmp_path, [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    )
    lines = spans.read_text().splitlines()
    lines[1] = line
    spans.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"spans\.jsonl:2: .*" + message):
        load_basecalls(fasta, spans)


def test_load_basecalls_rejects_spans_not_covering_sequence(tmp_path):
    fasta, spans = write_call_files(
        tmp_path, [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    )
    spans.write_text(spans.read_text().replace('"3"', '"31"', 1))
    with pytest.raises(ValueError, match=r"spans\.jsonl:1: spans cover 4 bases"):
        load_basecalls(fasta, spans)


def test_load_basecalls_rejects_spans_record_without_fasta_record(tmp_path):
    fasta, spans = write_call_files(
        tmp_path, [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    )
    with open(spans, "a") as sp:
        sp.write(json.dumps({"read_id": "ghost", "call": "viterbi", "index": None, "spans": "3"}))
    with pytest.raises(ValueError, match=r"spans\.jsonl:3: no FASTA record for the viterbi call"):
        load_basecalls(fasta, spans)


def test_basecall_files_round_trip(tmp_path):
    ens = [
        ReadEnsemble(
            "readA",
            BaseCall("ACGTAC", [3, 1, 0, 2]),
            [BaseCall("ACGT", [3, 1]), BaseCall("ACG", [3, 0])],
        ),
        ReadEnsemble("readB", BaseCall("GGT", [3]), []),
    ]
    fasta = tmp_path / "calls.fasta"
    spans = tmp_path / "spans.jsonl"
    write_basecalls(fasta, spans, ens)
    assert json.loads(spans.read_text().splitlines()[0])["spans"] == "3102"
    back = load_basecalls(fasta, spans)
    assert [e.read_id for e in back] == ["readA", "readB"]
    assert back[0].viterbi.sequence == "ACGTAC"
    assert back[0].viterbi.event_spans.tolist() == [[0, 3], [3, 1], [4, 0], [4, 2]]
    assert [s.sequence for s in back[0].samples] == ["ACGT", "ACG"]
    assert back[1].samples == []


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(0, 16), min_size=1, max_size=40), min_size=1, max_size=5))
def test_basecall_files_round_trip_any_lengths(tmp_path_factory, calls):
    rng = np.random.default_rng(len(calls))
    made = [BaseCall("".join(rng.choice(list("ACGT"), sum(ls))), ls) for ls in calls]
    root = tmp_path_factory.mktemp("calls")
    fasta, spans = root / "calls.fasta", root / "spans.jsonl"
    write_basecalls(fasta, spans, [ReadEnsemble("r", made[0], made[1:])])
    (back,) = load_basecalls(fasta, spans)
    for want, got in zip(made, [back.viterbi, *back.samples]):
        assert got.sequence == want.sequence
        np.testing.assert_array_equal(got.lengths, want.lengths)
        offsets, lengths = got.event_spans.T
        assert offsets[0] == 0
        np.testing.assert_array_equal(offsets[1:], offsets[:-1] + lengths[:-1])
        assert offsets[-1] + lengths[-1] == len(got.sequence)
