import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _corpus import alignment_identity, levenshtein
from _oracles import (
    Hit,
    edit_distance,
    hit_rows,
    loop_dedup,
    per_point_rows,
    thresholded_ensemble_kmers,
)
import ensembleseed.evaluate as evaluate_module
from ensembleseed.decode import BaseCall, ReadEnsemble, StatePath, path_to_sequence
from ensembleseed.evaluate import (
    CHAIN_10,
    SINGLE_13,
    SINGLE_13_VITERBI,
    EvalRow,
    StrategyConfig,
    Window,
    build_windows,
    evaluate,
    greedy_dedup,
    is_valid_hit,
    load_report,
    sweep,
    window_points,
    write_points,
    write_report,
)
from ensembleseed.kmers import reverse_complement
from ensembleseed.pore_model import make_hmm
from ensembleseed.seeding import build_index, collect_ensemble_kmers
from ensembleseed.simulate import simulate_corpus, synthetic_pore_model


def tiny_ensemble():
    """Three k=1 events with a two-base second event in the sample call."""
    viterbi = BaseCall("ACG", [1, 1, 1])
    sample = BaseCall("ATTG", [1, 2, 1])
    ensemble = ReadEnsemble("r0", viterbi, [sample])
    true_path = StatePath(np.array([0, 1, 2]), 0.0)
    return ensemble, true_path


class TestBuildWindows:
    def test_window_holds_each_call_slice(self):
        ensemble, true_path = tiny_ensemble()
        (win,) = build_windows(ensemble, ("ref", 50, 53, "+"), true_path, 1, window_size=2)
        assert win.viterbi.sequence == "AC"
        np.testing.assert_array_equal(win.viterbi.lengths, [1, 1])
        (sample,) = win.samples
        assert sample.sequence == "ATT"
        np.testing.assert_array_equal(sample.lengths, [1, 2])
        assert win.truth == (50, 52, "+")
        assert win.window_id == "r0:0"
        assert win.event_range == (0, 2)

    def test_partial_trailing_window_is_dropped(self):
        ensemble, true_path = tiny_ensemble()
        wins = build_windows(ensemble, ("ref", 50, 53, "+"), true_path, 1, window_size=2)
        assert len(wins) == 1
        assert wins[0].event_range == (0, 2)

    def test_span_count_mismatch_rejected(self):
        ensemble, true_path = tiny_ensemble()
        ensemble.samples[0] = BaseCall("AT", [1, 1])
        with pytest.raises(ValueError, match="event spans"):
            build_windows(ensemble, ("ref", 50, 53, "+"), true_path, 1, window_size=3)

    def test_spans_not_tiling_the_call_rejected(self):
        ensemble, true_path = tiny_ensemble()
        ensemble.samples[0] = BaseCall("ATTG", [1, 1, 1])
        with pytest.raises(ValueError, match="do not tile"):
            build_windows(ensemble, ("ref", 50, 53, "+"), true_path, 1, window_size=3)

    @pytest.mark.parametrize("seed", range(5))
    def test_calls_are_event_range_slices(self, seed):
        rng = np.random.default_rng(seed)
        n_events, size = 40, 15
        calls = []
        for _ in range(int(rng.integers(1, 6))):
            lengths = rng.integers(0, 4, n_events)
            calls.append(BaseCall("".join(rng.choice(list("ACGT"), lengths.sum())), lengths))
        ensemble = ReadEnsemble("r", calls[0], calls[1:])
        true_path = StatePath(np.zeros(n_events, dtype=np.int64), 0.0)
        # the all-A path emits one base: its first event's, every later event a split
        wins = build_windows(ensemble, ("ref", 0, 1, "+"), true_path, 1, window_size=size)
        assert len(wins) == n_events // size
        for win in wins:
            a, b = win.event_range
            got = [win.viterbi, *win.samples]
            assert len(got) == len(calls)
            for piece, c in zip(got, calls):
                want = "".join(c.sequence[o : o + n] for o, n in c.event_spans[a:b])
                assert piece.sequence == want
                np.testing.assert_array_equal(piece.lengths, c.lengths[a:b])

    @pytest.mark.parametrize(
        "k,message",
        [
            (2, r"true path, event \d+: state code \d+ out of range for k=2"),
            (4, r"true path spans \d+ bases, truth"),
        ],
    )
    def test_true_path_of_another_k_rejected(self, k, message):
        hmm = make_hmm(synthetic_pore_model(3, seed=19))
        _, (read,) = simulate_corpus(
            hmm, reference_length=5000, read_count=1, events_per_read=90, seed=61
        )
        ens = ReadEnsemble(read.read_id, path_to_sequence(read.true_path.states, 3), [])
        assert len(build_windows(ens, read.truth, read.true_path, 3, window_size=30)) == 3
        with pytest.raises(ValueError, match=rf"read {read.read_id}: {message}"):
            build_windows(ens, read.truth, read.true_path, k, window_size=30)

    @pytest.mark.parametrize("wider", [(0, 1), (1, 0), (-1, 0), (0, -1)])
    def test_true_path_and_truth_must_span_alike(self, wider):
        """A truth interval a base longer or shorter than the true path is refused either way:
        a shorter path would cut every window's truth interval off the read's."""
        hmm = make_hmm(synthetic_pore_model(3, seed=19))
        _, (read,) = simulate_corpus(
            hmm, reference_length=5000, read_count=1, events_per_read=90, seed=61
        )
        ens = ReadEnsemble(read.read_id, path_to_sequence(read.true_path.states, 3), [])
        contig, fs, fe, strand = read.truth
        truth = (contig, fs - wider[0], fe + wider[1], strand)
        spans = fe - fs
        with pytest.raises(
            ValueError, match=rf"true path spans {spans} bases, truth {spans + sum(wider)}$"
        ):
            build_windows(ens, truth, read.true_path, 3, window_size=30)

    @pytest.mark.parametrize("strand", ["+", "-"])
    def test_truth_intervals_cover_window_kmers(self, strand):
        """Window truth must quote exactly the reference bases of its events."""
        hmm = make_hmm(synthetic_pore_model(3, seed=19))
        ref, reads = simulate_corpus(
            hmm, reference_length=5000, read_count=6, events_per_read=90, seed=61
        )
        reads = [r for r in reads if r.truth[3] == strand]
        assert reads, "corpus should carry both strands"
        for read in reads:
            call = path_to_sequence(read.true_path.states, 3)
            # An event's 3-mer ends where its contribution ends (splits
            # contribute nothing and re-read the 3-mer already in place).
            ends = call.event_spans.sum(axis=1)
            ens = ReadEnsemble(read.read_id, call, [])
            for win in build_windows(ens, read.truth, read.true_path, 3, window_size=30):
                a, b = win.event_range
                ws, we, s = win.truth
                assert s == strand
                piece = read.true_sequence[ends[a] - 3 : ends[b - 1]]
                if strand == "+":
                    assert ref[ws:we] == piece
                else:
                    assert reverse_complement(ref[ws:we]) == piece


def test_is_valid_hit():
    truth = (100, 110, "+")
    hits = [Hit(0, 100, "+"), Hit(0, 109, "+"), Hit(0, 110, "+"), Hit(0, 99, "+")]
    valid = is_valid_hit(hit_rows(hits + [Hit(0, 105, "-")]), truth)
    assert valid[0]
    assert valid[1]
    assert not valid[2]  # half-open end
    assert not valid[3]
    assert not valid[4]  # wrong strand


def dedup(points, radius):
    """``greedy_dedup`` on the int64 rows of ``points``, the kept rows read back as tuples."""
    return list(map(tuple, greedy_dedup(np.array(points, dtype=np.int64), radius).tolist()))


class TestGreedyDedup:
    def test_collinear_cluster(self):
        kept = dedup([(0, 0), (5, 5), (20, 20)], radius=10)
        assert kept == [(0, 0), (20, 20)]

    def test_both_coordinates_must_be_close(self):
        # second coordinate far apart: no suppression
        assert len(dedup([(0, 0), (5, 500)], radius=10)) == 2

    def test_input_order_does_not_matter(self):
        pts = [(20, 20), (0, 0), (5, 5)]
        assert dedup(pts, radius=10) == [(0, 0), (20, 20)]

    def test_accepts_seed_hits(self):
        pts = hit_rows([Hit(0, 0, "+"), Hit(5, 5, "-"), Hit(20, 20, "+")])
        kept = greedy_dedup(pts, radius=10)
        assert len(kept) == 2  # strand plays no role in clustering

    def test_zero_radius(self):
        pts = [(1, 1), (1, 1), (2, 1)]
        assert len(dedup(pts, radius=0)) == 2

    def test_negative_radius(self):
        with pytest.raises(ValueError):
            greedy_dedup(np.empty((0, 3), dtype=np.int64), radius=-1)


@settings(max_examples=300, deadline=None)
@given(
    points=st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40) | st.integers(0, 10**6), st.integers(0, 1)),
        max_size=300,
    ),
    radius=st.integers(0, 12),
)
@example(points=[(3, 3, 1), (3, 3, 0), (3, 4, 0), (4, 3, 1)], radius=0)
def test_grid_dedup_matches_the_loop(points, radius):
    """Same kept rows as scanning every kept point; duplicates and dense clusters included.

    Points that share (query_col, ref_pos) differ in strand, so the kept row
    shows that ties are scanned in input order.
    """
    kept = greedy_dedup(np.array(points, dtype=np.int64).reshape(-1, 3), radius)
    assert kept.dtype == np.int64
    assert kept.tolist() == [list(p) for p in loop_dedup(points, radius)]


def test_eval_row_validation():
    with pytest.raises(ValueError):
        EvalRow("s", 13, 1, 1, 0, 10, 1.5, 0)
    with pytest.raises(ValueError):
        EvalRow("s", 13, 1, 1, 0, 10, 0.0, -2)


def test_strategy_labels():
    assert SINGLE_13.label == "single-kmer"
    assert CHAIN_10.label == "chain"
    assert SINGLE_13_VITERBI.label == "single-kmer-viterbi"
    assert StrategyConfig(kind="chain", seed_k=10, use_viterbi=True).label == "chain-viterbi"
    with pytest.raises(ValueError):
        StrategyConfig(kind="top", seed_k=5)
    for k in (0, 17):
        with pytest.raises(ValueError, match=rf"seed length must be in \[1, 16\], got {k}"):
            StrategyConfig(kind="single", seed_k=k)


@pytest.fixture(scope="module")
def scored_corpus():
    """A small end-to-end corpus where the true path itself is the only call."""
    hmm = make_hmm(synthetic_pore_model(3, seed=29))
    ref, reads = simulate_corpus(
        hmm, reference_length=6000, read_count=8, events_per_read=80, seed=77
    )
    windows = []
    for read in reads:
        call = path_to_sequence(read.true_path.states, 3)
        ens = ReadEnsemble(read.read_id, call, [call, call])
        windows += build_windows(ens, read.truth, read.true_path, 3, window_size=40)
    return ref, windows


def test_perfect_calls_score_full_sensitivity(scored_corpus):
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    config = StrategyConfig(kind="single", seed_k=13)
    row = evaluate(windows, index, config, t=2, n=2)
    assert row.tp == row.windows == len(windows)
    assert row.sn == 1.0


def test_window_points_viterbi_mode_ignores_samples(scored_corpus):
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    win = windows[0]
    pts = window_points(win, index, SINGLE_13_VITERBI, [(1, 1)])
    assert len(pts), "true-path viterbi row must hit its own reference"
    assert pts.dtype == np.int64 and pts.shape == (len(pts), 4)
    assert not pts[:, 3].any(), "every row belongs to the one point"


def test_window_points_needs_n_sample_rows():
    """An ensemble point reads the first n samples; Viterbi mode reads the Viterbi call alone."""
    aacc = BaseCall("AACC", [4])
    index = build_index("TTAACCGA", 4)
    win = Window("w", (0, 1), aacc, [aacc], (2, 6, "+"))
    with pytest.raises(ValueError, match="window has 1 sample rows, need n=2"):
        window_points(win, index, StrategyConfig(kind="single", seed_k=4), [(1, 1), (1, 2)])
    lone = Window("w", (0, 1), aacc, [], (2, 6, "+"))
    viterbi = StrategyConfig(kind="single", seed_k=4, use_viterbi=True)
    assert window_points(lone, index, viterbi, [(1, 1)]).tolist() == [[0, 2, 0, 0]]


def test_window_points_rejects_a_gap_whose_column_shift_would_wrap():
    """Point p's columns are shifted by p * (window + max_gap + 1): with max_gap = 2**62
    one point chains, and three would shift past int64."""
    aacc = BaseCall("AACC", [4])
    index = build_index("TTAACCGA", 4)
    win = Window("w", (0, 1), aacc, [aacc, aacc], (2, 6, "+"))
    config = StrategyConfig(kind="chain", seed_k=4, chain_len=1, max_gap=2**62)
    assert window_points(win, index, config, [(1, 1)]).tolist() == [[0, 2, 0, 0]]
    with pytest.raises(ValueError, match=f"max_gap={2**62} is too wide: shifted columns"):
        window_points(win, index, config, [(1, 1), (1, 2), (2, 2)])


def mutated_call(rng, reference, events, error):
    """A call of ``events`` events, 0-3 bases each, copied from the reference with errors."""
    lengths = rng.integers(0, 4, events)
    start = rng.integers(0, len(reference) - lengths.sum() + 1)
    bases = np.array(list(reference[start : start + lengths.sum()]))
    wrong = rng.random(bases.size) < error
    bases[wrong] = rng.choice(list("ACGT"), wrong.sum())
    return BaseCall("".join(bases), lengths)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(2, 6),
    events=st.integers(1, 60),
    samples=st.integers(1, 6),
    error=st.sampled_from([0.0, 0.1, 0.4]),
    chain=st.sampled_from([None, (1, 0, 0), (2, 1, 6), (3, 2, 9), (3, 0, 30)]),
    use_viterbi=st.booleans(),
    data=st.data(),
)
def test_one_pass_matches_scoring_each_point_alone(
    seed, k, events, samples, error, chain, use_viterbi, data
):
    """Masked hits and split chain heads equal a collection, lookup and chaining per point."""
    rng = np.random.default_rng(seed)
    reference = "".join(rng.choice(list("ACGT"), 400))
    calls = [mutated_call(rng, reference, events, error) for _ in range(samples + 1)]
    window = Window("w", (0, events), calls[0], calls[1:], (0, 0, "+"))
    if chain is None:
        config = StrategyConfig(kind="single", seed_k=k, use_viterbi=use_viterbi)
    else:
        length, least, most = chain
        config = StrategyConfig(
            kind="chain", seed_k=k, chain_len=length, min_gap=least, max_gap=most,
            use_viterbi=use_viterbi,
        )
    if use_viterbi:
        points = [(1, 1)]
    else:
        pair = st.tuples(st.integers(1, samples), st.integers(1, samples)).filter(
            lambda tn: tn[0] <= tn[1]
        )
        points = data.draw(st.lists(pair, min_size=1, max_size=8, unique=True))
    index = build_index(reference, k)
    found = window_points(window, index, config, points)
    assert found.dtype == np.int64 and found.shape[1] == 4
    assert np.all(np.diff(found[:, 3]) >= 0)
    widest = collect_ensemble_kmers(window.samples, k)
    for p, (t, n) in enumerate(points):
        expected = per_point_rows(window, index, config, t, n)
        assert np.array_equal(found[found[:, 3] == p, :3], expected), (t, n)
        alone = thresholded_ensemble_kmers(window, k, n, t)
        assert np.array_equal(widest.keys[widest.kept(t, n)], alone.keys)


def test_sweep_grid_shape_and_degenerate_rows(scored_corpus):
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    config = StrategyConfig(kind="single", seed_k=13)
    rows = sweep(windows, index, [config], [1, 2, 3], [0, 1, 2])
    assert len(rows) == 9
    by_key = {(r.t, r.n): r for r in rows}
    for t in (1, 2, 3):
        z = by_key[(t, 0)]
        assert (z.tp, z.sn, z.fp) == (0, 0.0, 0)
    unreachable = by_key[(3, 2)]
    assert (unreachable.tp, unreachable.sn, unreachable.fp) == (0, 0.0, 0)
    assert by_key[(2, 2)].tp > 0


def test_sweep_viterbi_strategy_is_constant_across_grid(scored_corpus):
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    rows = sweep(windows, index, [SINGLE_13_VITERBI], [1, 2], [1, 4])
    assert len(rows) == 4
    assert len({(r.tp, r.fp) for r in rows}) == 1
    assert {(r.t, r.n) for r in rows} == {(1, 1), (1, 4), (2, 1), (2, 4)}


def test_sweep_scores_each_distinct_point_once(scored_corpus, monkeypatch):
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    calls = []

    def counting_window_points(window, index, config, points):
        calls.append((window.window_id, list(points)))
        return window_points(window, index, config, points)

    monkeypatch.setattr(evaluate_module, "window_points", counting_window_points)
    rows = sweep(windows, index, [SINGLE_13_VITERBI], [1, 2], [1, 4])
    assert len(rows) == 4
    assert calls == [(w.window_id, [(1, 1)]) for w in windows]
    calls.clear()
    rows = sweep(windows, index, [SINGLE_13], [1, 2, 3], [0, 2])
    assert len(rows) == 6
    # one call per window carries (1, 2) and (2, 2); n = 0 and t > n score zero without running
    assert calls == [(w.window_id, [(1, 2), (2, 2)]) for w in windows]
    calls.clear()
    with pytest.raises(ValueError, match=r"may not repeat a value, got t=\[1, 2, 3\], n=\[0, 2, 2"):
        sweep(windows, index, [SINGLE_13], [1, 2, 3], [0, 2, 2])
    assert calls == []


def test_sweep_rejects_threshold_below_one(scored_corpus):
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    with pytest.raises(ValueError, match="1 <= t <= n"):
        sweep(windows, index, [SINGLE_13], [0], [1])
    with pytest.raises(ValueError, match="1 <= t <= n"):
        evaluate(windows, index, SINGLE_13, 0, 1)


def test_evaluate_is_one_sweep_point(scored_corpus):
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    row = evaluate(windows, index, SINGLE_13, 2, 2)
    assert row == sweep(windows, index, [SINGLE_13], [2], [2])[0]
    zero = evaluate(windows, index, SINGLE_13, 3, 2)
    assert (zero.t, zero.n, zero.tp, zero.windows, zero.fp) == (3, 2, 0, len(windows), 0)


def test_sweep_reads_a_window_stream_once_for_every_strategy(scored_corpus):
    """Strategies sharing an index are scored in one pass over an iterator, their rows
    strategy-major, exactly as one sweep each over the list."""
    ref, windows = scored_corpus
    index = build_index(ref, 13)
    grid = ([1, 2, 3], [0, 1, 2])
    stream = iter(windows)
    rows = sweep(stream, index, [SINGLE_13, SINGLE_13_VITERBI], *grid)
    assert rows == sweep(windows, index, [SINGLE_13], *grid) + sweep(
        windows, index, [SINGLE_13_VITERBI], *grid
    )
    assert next(stream, None) is None
    assert {row.windows for row in rows} == {len(windows)}


def test_report_round_trip(tmp_path):
    rows = [
        EvalRow("single-kmer", 13, 1, 4, 57, 60, 57 / 60, 123),
        EvalRow("chain", 10, 2, 8, 48, 60, 48 / 60, 7),
    ]
    path = tmp_path / "report.tsv"
    write_report(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "strategy\tk\tt\tn\tTP\twindows\tSn\tFP"
    assert text[1].split("\t")[6] == "0.950"
    back = load_report(path)
    assert back[0].tp == 57 and back[0].sn == 0.950
    assert back[1].strategy == "chain"


def test_write_points(tmp_path):
    rows = [
        EvalRow("single-kmer", 13, 1, 8, 59, 60, 59 / 60, 40),
        EvalRow("single-kmer", 13, 1, 2, 50, 60, 50 / 60, 11),
    ]
    path = tmp_path / "points.tsv"
    write_points(path, rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "FP\tTP"
    assert lines[1] == "11\t50"  # sorted by n
    assert lines[2] == "40\t59"


@pytest.mark.parametrize("seed", range(4))
def test_levenshtein_matches_classic_dp(seed):
    rng = np.random.default_rng(seed)
    a = "".join(rng.choice(list("ACGT"), rng.integers(0, 60)))
    b = "".join(rng.choice(list("ACGT"), rng.integers(0, 60)))
    assert levenshtein(a, b) == edit_distance(a, b)


def test_levenshtein_examples():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("same", "same") == 0


def test_alignment_identity():
    assert alignment_identity("", "") == 1.0
    assert alignment_identity("ACGT", "ACGT") == 1.0
    assert alignment_identity("AAAA", "AAAT") == 0.75
    assert alignment_identity("", "ACGT") == 0.0


@pytest.mark.parametrize(
    "row,message",
    [
        ("chain\t10\t1\tx\t1\t2\t0.500\t0", "cannot parse n 'x'"),
        ("chain\t10\t1\t1\t1\t2\t1.500\t0", r"Sn must be in \[0, 1\]"),
        ("chain\t10\t1\t1\t1\t2\t0.500\t-1", "FP must be >= 0"),
        ("chain\t10\t1\t1\t1\t2\t0.500", "expected 8 columns, got 7"),
        ("chain\t10\t1\t2\t-3\t2\t0.000\t0", "need 0 <= TP <= windows, got TP -3 of 2"),
        ("chain\t10\t1\t2\t7\t2\t1.000\t0", "need 0 <= TP <= windows, got TP 7 of 2"),
        ("chain\t10\t1\t1\t1\t2\t0.500\t0", "repeated row for chain t=1 n=1"),
        ("x/../../escaped\t10\t1\t1\t1\t2\t0.500\t0", r"unknown strategy 'x/\.\./\.\./escaped'"),
    ],
)
def test_load_report_names_malformed_line(tmp_path, row, message):
    path = tmp_path / "report.tsv"
    write_report(path, [EvalRow("chain", 10, 1, 1, 1, 2, 0.5, 0)])
    path.write_text(path.read_text() + row + "\n")
    with pytest.raises(ValueError, match=rf"report\.tsv:3: {message}"):
        load_report(path)
