import json
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    two_matrix_call_read,
    two_matrix_forward,
    two_matrix_viterbi,
)
from ensembleseed import decode
from ensembleseed.decode import (
    BaseCall,
    ForwardMatrix,
    IllegalPathError,
    ReadEnsemble,
    call_read,
    emission_log_matrix,
    forward,
    iter_basecalls,
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


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(1, 3),
    shift=st.integers(1, 3),
    mode=st.sampled_from(MODES),
    n_events=st.integers(1, 200),
    count=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=3, shift=2, mode="per-transition", n_events=200, count=300, seed=0)
@example(k=2, shift=2, mode="per-order", n_events=101, count=163, seed=1)
def test_sample_paths_matches_order_by_order_traceback_at_scale(
    k, shift, mode, n_events, count, seed
):
    """Hundreds of draws over at most 64 states share their states at almost every
    event, and a read longer than 4,096 // count events crosses a block of uniforms,
    mostly part-way (the examples: 13 rows a block at 300 draws, 25 at 163). Levels,
    events and sds keep every event within 10 sd of every level, so no forward
    column is zero even where about a third of the per-transition edges weigh zero."""
    rng = np.random.default_rng(seed)
    m, max_shift = 4**k, min(shift, k)
    pore = PoreModel(k, rng.uniform(90.0, 110.0, m), rng.uniform(2.0, 4.0, m))
    if mode == "per-order":
        weights = rng.uniform(0.05, 1.0, max_shift + 1)
        trans = TransitionModel.per_order(k, weights / weights.sum())
    else:
        trans = TransitionModel(k, zero_edge_tables(rng, k, max_shift), mode="per-transition")
    hmm = make_hmm(pore, trans)
    events = EventSequence("long", rng.uniform(90.0, 110.0, n_events))
    fwd = forward(hmm, events)
    want = order_by_order_traceback(fwd.columns, trans.tables, k, count, seed)
    got = sample_paths(hmm, events, fwd, count, seed=seed)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got, want)


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
    (vit, fwd), (want_vit, want_fwd) = [
        (viterbi(hmm, events), forward(hmm, events))
        for hmm in (make_hmm(pore, per_order), make_hmm(pore, gathered))
    ]
    assert vit.states.tolist() == want_vit.states.tolist()
    assert vit.log_joint == want_vit.log_joint
    np.testing.assert_array_equal(fwd.columns, want_fwd.columns)
    np.testing.assert_array_equal(fwd.log_scale_factors, want_fwd.log_scale_factors)


def zero_edge_tables(rng, k, max_shift, quantised=False):
    """Per-transition tables in which about a third of the edges weigh zero
    (quantised: integer weights 0..2 before normalising, a third of them 0).
    Every state keeps an order-1 out-edge."""

    def draw(shape):
        if quantised:
            return rng.integers(0, 3, shape).astype(float)
        return rng.uniform(0.0, 1.0, shape) * (rng.random(shape) > 0.3)

    m = 4**k
    raw = [draw(m)] + [draw((m, 4**j)) for j in range(1, max_shift + 1)]
    raw[1][:, 0] += 1.0
    rows = raw[0] + sum(t.sum(axis=1) for t in raw[1:])
    return [raw[0] / rows] + [t / rows[:, None] for t in raw[1:]]


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
    tables = zero_edge_tables(rng, k, max_shift, quantised)
    hmm = make_hmm(pore, TransitionModel(k, tables, mode="per-transition"))
    events = EventSequence("zeros", means)
    want_states, want_joint = gather_viterbi(emission_log_matrix(hmm, events), tables, k)
    got = viterbi(hmm, events)
    assert got.states.tolist() == want_states
    assert got.log_joint == want_joint


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


def decode_outcome(decode):
    """What ``decode()`` returns, or the message of the ValueError it raises."""
    try:
        return decode()
    except ValueError as exc:
        return f"ValueError: {exc}"


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 4),
    shift=st.integers(1, 4),
    mode=st.sampled_from(["per-order", "per-transition"]),
    quantised=st.booleans(),
    far=st.sampled_from([None, 4e154, 1e155]),
    seed=st.integers(0, 2**32 - 1),
)
def test_in_place_decodes_match_the_two_matrix_kernels(k, shift, mode, quantised, far, seed):
    """Viterbi, forward and call_read, each overwriting its own emission matrix in
    place, agree bitwise with kernels that keep the emission matrix beside a matrix
    of their own. Quantised levels, events and weights make exact ties, and zero
    weights -inf scores. A far-out event's emission row is -inf under every state
    of sd below about 2.1 (at 4e154) or under every state (at 1e155), where the
    kernels must raise the same error."""
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

    if mode == "per-order":
        weights = draw(max_shift + 1)
        weights[1] += 1.0
        trans = TransitionModel.per_order(k, weights / weights.sum())
    else:
        raw = [draw(m)] + [draw((m, 4**j)) for j in range(1, max_shift + 1)]
        raw[1][:, 0] += 1.0  # every state keeps an out-edge
        rows = raw[0] + sum(t.sum(axis=1) for t in raw[1:])
        trans = TransitionModel(k, [raw[0] / rows] + [t / rows[:, None] for t in raw[1:]], mode)
    hmm = make_hmm(pore, trans)
    if far is not None:
        means[rng.integers(len(means))] = far
    scaling = ReadScaling(scale=rng.uniform(0.9, 1.1), shift=rng.uniform(-2, 2))
    events = EventSequence("short", means, scaling)
    count = int(rng.integers(0, 5))
    logpdf = normal_logpdf_matrix(means, *hmm.levels(scaling))

    got = decode_outcome(lambda: viterbi(hmm, events))
    want = decode_outcome(lambda: two_matrix_viterbi(hmm, events, logpdf))
    if not isinstance(want, str):
        got = (got.states.tolist(), got.log_joint)
    assert got == want

    got = decode_outcome(lambda: forward(hmm, events))
    want = decode_outcome(lambda: two_matrix_forward(hmm, events, logpdf))
    if not isinstance(want, str):
        got = (got.columns.tobytes(), got.log_scale_factors.tobytes())
        want = tuple(array.tobytes() for array in want)
    assert got == want

    got = decode_outcome(lambda: call_read(hmm, events, count, seed))
    want = decode_outcome(lambda: two_matrix_call_read(hmm, events, count, seed))
    if not isinstance(want, str):
        got = [(call.sequence, call.lengths.tolist()) for call in [got.viterbi, *got.samples]]
    assert got == want


def test_model_tables_are_built_once_per_model(monkeypatch):
    """A second read under the same model builds none of Viterbi's or the traceback's tables."""
    hmm, events = quantised_instance(7, "per-transition")
    first = call_read(hmm, events, 4, 0)
    built = []
    for name in ("incoming_edges", "pair_probs"):
        monkeypatch.setattr(decode, name, lambda *args, name=name: built.append(name))
    second = call_read(hmm, events, 4, 0)
    assert built == []
    for a, b in zip([first.viterbi, *first.samples], [second.viterbi, *second.samples]):
        assert (a.sequence, a.lengths.tobytes()) == (b.sequence, b.lengths.tobytes())


@pytest.fixture
def one_matrix_at_a_time(monkeypatch):
    """Fails a decode that builds an emission matrix while an earlier one is alive.

    Each matrix lives in a memory map of its own, which tracemalloc does not
    trace, so the traced peaks below count only what a decode holds beside it.
    Returns a weak reference to every matrix built.
    """
    made = []
    build = decode.emission_log_matrix

    def tracked(hmm, events):
        assert all(ref() is None for ref in made), "an earlier emission matrix is still alive"
        matrix = build(hmm, events)
        made.append(weakref.ref(matrix))
        return matrix

    monkeypatch.setattr(decode, "emission_log_matrix", tracked)
    return made


@pytest.mark.parametrize("n_events,n,bound", [(300, 16, 0.35), (1500, 250, 0.5)])
def test_call_read_peaks_at_about_one_emission_matrix(n_events, n, bound, one_matrix_at_a_time):
    """Viterbi frees its matrix before forward builds one, and neither the traceback
    nor the translation adds a sizeable array beside it."""
    pore = synthetic_pore_model(5, seed=1)
    hmm = make_hmm(pore)
    rng = np.random.default_rng(0)
    means = rng.choice(pore.level_mean, n_events) + rng.normal(0.0, 1.0, n_events)
    events = EventSequence("r", means)
    call_read(hmm, events, 1, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call_read(hmm, events, n, 0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    matrix = len(events) * hmm.num_states * 8
    assert len(one_matrix_at_a_time) == 4
    assert peak <= bound * matrix, f"peak beside the matrix is {peak / matrix:.3f} matrices"


def test_reads_decoded_in_a_row_peak_at_one_decode_plus_the_kept_calls(one_matrix_at_a_time):
    """Equal-length reads decoded one after another, their calls kept, peak no higher
    than the largest single read's decode plus the calls kept: no read's matrix
    outlives its decode."""
    pore = synthetic_pore_model(5, seed=1)
    hmm = make_hmm(pore)
    rng = np.random.default_rng(2)
    reads = [
        EventSequence(f"r{i}", rng.choice(pore.level_mean, 300) + rng.normal(0.0, 1.0, 300))
        for i in range(4)
    ]
    call_read(hmm, reads[0], 1, 0)
    tracemalloc.start()
    try:
        one = 0
        for i, events in enumerate(reads):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            call_read(hmm, events, 16, i)
            one = max(one, tracemalloc.get_traced_memory()[1] - start)
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        ensembles = [call_read(hmm, events, 16, i) for i, events in enumerate(reads)]
        kept, peak = (value - start for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    matrix = len(reads[0]) * hmm.num_states * 8
    assert len(ensembles) == len(reads)
    assert kept < 0.1 * matrix, f"the kept calls hold {kept / matrix:.3f} emission matrices"
    assert peak <= one + kept, f"peak is {(peak - one - kept) / matrix:.3f} matrices over"


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
        # With sd <= 7 here, an event at +-10**155.5 overflows under every state,
        # so one is placed where a short read might draw none.
        means = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(153.5, 155.5, n)
        means[rng.integers(n)] = rng.choice([-1.0, 1.0]) * 10.0**155.5
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


@pytest.mark.parametrize("code", [-1, 16])
@pytest.mark.parametrize(
    "paths,where",
    [([-9], "event 0"), ([0, 1, -9], "event 2"), ([[0, 1, 5], [0, -9, 5]], "row 1, event 1")],
)
def test_codes_outside_the_kmers_are_rejected(code, paths, where):
    """Neither translation nor scoring reads -1 as TT or 4**k as AA; -9 marks the bad code."""
    states = np.where(np.array(paths) == -9, code, paths)
    hmm = make_hmm(synthetic_pore_model(2, seed=3))
    events = EventSequence("r", np.full(states.shape[-1], 100.0))
    message = rf"^{where}: state code {code} out of range for k=2$"
    with pytest.raises(IllegalPathError, match=message):
        path_to_sequence(states, 2)
    with pytest.raises(IllegalPathError, match=message):
        path_log_joint(hmm, events, states)


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
        assert a.dtype == np.uint8 and a.shape == b.shape == (8, 5)
        np.testing.assert_array_equal(a, b)

    def test_zero_draws(self):
        hmm, events, _, _ = random_instance(12)
        fwd = forward(hmm, events)
        paths = sample_paths(hmm, events, fwd, 0, seed=1)
        assert paths.dtype == np.uint8 and paths.shape == (0, 3)
        assert path_to_sequence(paths, 1) == []

    @pytest.mark.parametrize("k,dtype", [(4, np.uint8), (5, np.uint16)])
    def test_paths_come_in_the_narrowest_code_type(self, k, dtype):
        """Translation and scoring read the narrow rows as they read the same rows in int64."""
        hmm, events, _, _ = random_instance(16, k=k, n_events=40, with_joints=False)
        paths = sample_paths(hmm, events, forward(hmm, events), 20, seed=3)
        assert paths.dtype == dtype and paths.shape == (20, 40)
        wide = paths.astype(np.int64)
        for got, want in zip(path_to_sequence(paths, k), path_to_sequence(wide, k)):
            assert (got.sequence, got.lengths.tobytes()) == (want.sequence, want.lengths.tobytes())
        joints = path_log_joint(hmm, events, paths)
        np.testing.assert_array_equal(joints, path_log_joint(hmm, events, wide))
        assert path_log_joint(hmm, events, paths[0]) == joints[0]

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

    @pytest.mark.parametrize("k,n_events,count", [(5, 1_500, 250), (2, 40, 20_000)])
    def test_working_memory_is_the_paths_plus_a_fixed_allowance(self, k, n_events, count):
        """Beside the returned paths (0.75 MB at k=5, 1,500 events, 250 draws) the
        traceback holds 0.25 MB (its state table, one 32 KB block of uniforms, numpy's
        buffers) and, per draw, its gathered row of 21 cumulative weights, their
        comparison with u and eight vectors. Drawing the short read's uniforms at
        once, not in blocks, would add 6.4 MB."""
        pore = synthetic_pore_model(k, seed=1)
        hmm = make_hmm(pore)
        rng = np.random.default_rng(0)
        means = rng.choice(pore.level_mean, n_events) + rng.normal(0.0, 1.0, n_events)
        events = EventSequence("r", means)
        fwd = forward(hmm, events)
        sample_paths(hmm, events, fwd, 2, seed=0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            paths = sample_paths(hmm, events, fwd, count, seed=0)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        width = 1 + 4 + 16
        allowance = 0.25e6 + count * (9 * width + 8 * 8)
        beside = peak - paths.nbytes
        assert beside <= allowance, f"{beside / 1e6:.2f} MB beside the paths"

    def test_a_draw_whose_u_rounds_up_to_its_total_takes_the_last_candidate(self):
        """Into A, C and G the only weighted candidate is the last, T, at the smallest
        subnormal weight, so u = U * total rounds up to the total for about half the
        draws there: no candidate's cumulative weight exceeds u, and the draw takes T."""
        tables = [np.full(4, 0.5), np.full((4, 4), 0.125)]
        tables[1][3] = [5e-324, 5e-324, 5e-324, 0.5]
        pore = PoreModel(1, [90.0, 100.0, 110.0, 120.0], [2.0] * 4)
        hmm = make_hmm(pore, TransitionModel(1, tables, mode="per-transition"))
        columns = np.array([[0.0, 0.0, 0.0, 1.0], [0.25] * 4])
        fwd = ForwardMatrix(columns=columns, log_scale_factors=np.zeros(2))
        paths = sample_paths(hmm, EventSequence("tiny", [100.0, 100.0]), fwd, 64, seed=0)
        assert paths[:, 0].tolist() == [3] * 64
        np.testing.assert_array_equal(paths, order_by_order_traceback(columns, tables, 1, 64, 0))
        u = np.random.default_rng(0).random((2, 64))[1] * 5e-324
        assert np.count_nonzero((paths[:, 1] != 3) & (u == 5e-324)) > 10

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


    def test_illegal_pair_past_the_first_block_names_its_row(self):
        paths = np.tile([encode_kmer("AC"), encode_kmer("CG"), encode_kmer("GT")], (40, 1))
        paths[33, 2] = encode_kmer("AA")
        message = r"row 33, events 1\.\.2: CG -> AA needs a shift beyond 1"
        with pytest.raises(IllegalPathError, match=message):
            path_to_sequence(paths, 2, max_shift=1)

    @pytest.mark.parametrize("max_shift", [-1, 3])
    def test_max_shift_outside_zero_to_k_is_rejected(self, max_shift):
        states = np.array([encode_kmer("AC"), encode_kmer("CG")])
        message = rf"^max_shift must be in \[0, k=2\], got {max_shift}$"
        with pytest.raises(ValueError, match=message) as raised:
            path_to_sequence(states, 2, max_shift=max_shift)
        assert not isinstance(raised.value, IllegalPathError)

    def test_translating_many_rows_peaks_well_under_the_path_array(self):
        """250 x 1,500 k=5 paths (3 MB of int64) translate with under 3 MB of traced
        peak memory, the calls included, and each row as it translates alone."""
        k, n = 5, 1500
        rng = np.random.default_rng(4)
        bases = rng.integers(0, 4, (250, n + k - 1))
        paths = sum(bases[:, d : d + n] << (2 * (k - 1 - d)) for d in range(k))
        path_to_sequence(paths[:2], k, 2)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            calls = path_to_sequence(paths, k, 2)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < 3e6, f"peak is {peak / 1e6:.2f} MB"
        for row in (0, 15, 16, 17, 249):
            alone = path_to_sequence(paths[row], k, 2)
            assert calls[row].sequence == alone.sequence
            assert calls[row].lengths.tobytes() == alone.lengths.tobytes()


@pytest.mark.parametrize("shape", [(0,), (3, 0)])
def test_an_empty_path_is_an_illegal_path(shape):
    with pytest.raises(IllegalPathError, match="empty state path"):
        path_to_sequence(np.zeros(shape, dtype=np.int64), 3)


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
    message = r"spans\.jsonl:3: no FASTA record for the viterbi call of 'r1'"
    with pytest.raises(ValueError, match=message):
        load_basecalls(fasta, spans)


def test_load_basecalls_rejects_repeated_fasta_record(tmp_path):
    fasta, spans = write_call_files(
        tmp_path, [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    )
    with open(fasta, "a") as fa:
        fa.write(">r1 sample0\nACG\n")
    with pytest.raises(ValueError, match=r"calls\.fasta:5: no spans recorded for 'r1 sample0'"):
        load_basecalls(fasta, spans)


@pytest.mark.parametrize(
    "kind,index,message",
    [
        ("viterbi", None, "viterbi call of read 'r1' where sample1 is due"),
        ("sample", 0, "sample0 call of read 'r1' where sample1 is due"),
    ],
)
def test_load_basecalls_rejects_a_call_repeated_in_both_files(tmp_path, kind, index, message):
    records = [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    fasta, spans = write_call_files(tmp_path, records + [("r1", kind, index, "AC")])
    with pytest.raises(ValueError, match=rf"spans\.jsonl:3, \S*calls\.fasta:5: {message}"):
        load_basecalls(fasta, spans)


def test_load_basecalls_rejects_spans_in_another_order(tmp_path):
    """Record i of each file holds the same call; a key-matching reorder is no excuse."""
    records = [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "AC"), ("r1", "sample", 1, "A")]
    fasta, spans = write_call_files(tmp_path, records)
    lines = spans.read_text().splitlines()
    spans.write_text("\n".join([lines[0], lines[2], lines[1]]) + "\n")
    message = (
        r"spans\.jsonl:2, \S*calls\.fasta:3: spans of the sample1 call of 'r1' "
        r"beside the FASTA record 'r1 sample0'"
    )
    with pytest.raises(ValueError, match=message):
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
    "records,line,message",
    [
        # r1's calls interleaved with r2's; a None index is the viterbi call
        ([("r1", None), ("r2", None), ("r1", 0)], 3, "sample0 call of read 'r1' after its block"),
        # a viterbi call after its read's samples
        ([("r1", 0), ("r1", None)], 1, "sample0 call of read 'r1' where viterbi is due"),
        ([("r1", None), ("r1", 0), ("r1", None)], 3, "viterbi call of read 'r1' where sample1"),
        # a read id back after its block has ended
        ([("r1", None), ("r2", None), ("r1", None)], 3, "viterbi call of read 'r1' after its block"),
    ],
)
def test_load_basecalls_requires_each_read_to_be_one_block(tmp_path, records, line, message):
    """A read's calls run viterbi, sample0, sample1, ... with no other read's call between."""
    calls = [(r, "viterbi" if i is None else "sample", i, "ACG") for r, i in records]
    fasta, spans = write_call_files(tmp_path, calls)
    where = rf"spans\.jsonl:{line}, \S*calls\.fasta:{2 * line - 1}: "
    with pytest.raises(ValueError, match=where + message):
        load_basecalls(fasta, spans)


def test_iter_basecalls_yields_a_read_before_reading_past_the_next_block(tmp_path):
    """Reads stream: a fault in a later read's block surfaces only once the reader gets there."""
    records = [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "AC"), ("r2", "viterbi", None, "A")]
    fasta, spans = write_call_files(tmp_path, records + [("r2", "sample", 1, "A")])
    reads = iter_basecalls(fasta, spans)
    first = next(reads)
    assert (first.read_id, first.viterbi.sequence, [c.sequence for c in first.samples]) == (
        "r1", "ACG", ["AC"]
    )
    with pytest.raises(ValueError, match=r"spans\.jsonl:4, .*sample1 call of read 'r2' where sample0"):
        next(reads)


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


def test_load_basecalls_rejects_fasta_record_without_spans_record(tmp_path):
    fasta, spans = write_call_files(
        tmp_path, [("r1", "viterbi", None, "ACG"), ("r1", "sample", 0, "ACG")]
    )
    with open(fasta, "a") as fa:
        fa.write(">ghost viterbi\nACG\n")
    with pytest.raises(ValueError, match=r"calls\.fasta:5: no spans recorded for 'ghost viterbi'"):
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
