import gc
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

import ensembleseed
from ensembleseed import cli
from ensembleseed.cli import main
from ensembleseed.decode import call_read, iter_basecalls, load_basecalls
from ensembleseed.evaluate import (
    CHAIN_10,
    EvalRow,
    StrategyConfig,
    build_windows,
    load_report,
    sweep,
    write_report,
)
from ensembleseed.io import read_fasta
from ensembleseed.pore_model import TransitionModel
from ensembleseed.seeding import build_index
from ensembleseed.simulate import load_true_paths, load_truth
from ensembleseed.train import save_transition_model


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """simulate -> train -> basecall on a corpus small enough for one test run."""
    root = tmp_path_factory.mktemp("pipeline")
    sim = root / "sim"
    assert run_cli(
        "simulate", "--model-k", 3, "--ref-length", 5000, "--reads", 6,
        "--events-per-read", 120, "--seed", 99, "--out-dir", sim,
    ) == 0
    train = root / "train"
    assert run_cli(
        "train", "--model-k", 3, "--source", "truth",
        "--true-paths", sim / "true_paths.jsonl", "--out-dir", train,
    ) == 0
    calls = root / "calls"
    assert run_cli(
        "basecall", "--events", sim / "events.jsonl",
        "--pore-model", sim / "pore_model.tsv", "--n", 3, "--seed", 7,
        "--out-dir", calls,
    ) == 0
    return root, sim, train, calls


def test_simulate_outputs(pipeline):
    _, sim, _, _ = pipeline
    for name in (
        "reference.fasta", "pore_model.tsv", "events.jsonl",
        "truth.tsv", "true_paths.jsonl", "simulate_config.json",
    ):
        assert (sim / name).exists(), name
    truth = load_truth(sim / "truth.tsv")
    assert len(truth) == 6
    config = json.loads((sim / "simulate_config.json").read_text())
    assert config["seed"] == 99
    assert config["model_k"] == 3


def test_train_outputs(pipeline):
    _, _, train, _ = pipeline
    text = (train / "transitions.tsv").read_text().splitlines()
    assert text[0].startswith("# k=3 max_shift=2 mode=per-order")
    assert text[1] == "order\tprob"


def test_basecall_outputs(pipeline):
    _, _, _, calls = pipeline
    fasta = (calls / "basecalls.fasta").read_text()
    assert fasta.count(">") == 6 * 4  # viterbi + 3 samples per read
    assert "viterbi" in fasta
    assert (calls / "spans.jsonl").exists()


def test_eval_and_report(pipeline, tmp_path):
    root, sim, _, calls = pipeline
    out = tmp_path / "eval"
    assert run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--seed-k", 6, "--t", "1,2", "--n", "1,3",
        "--out-dir", out,
    ) == 0
    rows = load_report(out / "report.tsv")
    # 4 strategies x 2 thresholds x 2 sample counts
    assert len(rows) == 16
    labels = {r.strategy for r in rows}
    assert labels == {"single-kmer", "chain", "single-kmer-viterbi", "chain-viterbi"}

    points = tmp_path / "points"
    assert run_cli("report", "--report", out / "report.tsv", "--out-dir", points) == 0
    produced = sorted(p.name for p in points.glob("points_*.tsv"))
    assert len(produced) == 8  # one file per (strategy, t)
    assert any("single-kmer_t1" in name for name in produced)


def test_report_rejects_a_strategy_it_would_write_outside_out_dir(tmp_path, capsys):
    """Points files are named after the strategy, so only the labels eval writes pass."""
    report = tmp_path / "report.tsv"
    write_report(report, [EvalRow("chain", 10, 1, 1, 1, 2, 0.5, 0)])
    report.write_text(report.read_text() + "x/../../escaped\t10\t1\t1\t1\t2\t0.500\t0\n")
    rc = run_cli("report", "--report", report, "--out-dir", tmp_path / "a" / "b")
    assert rc == 2
    assert "report.tsv:3: unknown strategy 'x/../../escaped'" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["report.tsv"]


@pytest.fixture
def index_builds(monkeypatch):
    """The seed lengths ``cli.build_index`` is called with, in call order. A build fails
    while an index it built before is still alive."""
    built, indexes = [], []

    def checked_build_index(reference, k):
        gc.collect()
        alive = [length for length, index in zip(built, indexes) if index() is not None]
        assert not alive, f"the k={alive} index is still alive while k={k} is built"
        index = build_index(reference, k)
        built.append(k)
        indexes.append(weakref.ref(index))
        return index

    monkeypatch.setattr(cli, "build_index", checked_build_index)
    return built


@pytest.mark.parametrize("seed_k,lengths", [([], [13, 10]), (["--seed-k", 11], [11])])
def test_eval_builds_one_index_per_seed_length(
    pipeline, tmp_path, monkeypatch, index_builds, seed_k, lengths
):
    """Lengths are indexed in strategy order, an index is freed before the next is built,
    and the base calls are read once per length."""
    _, sim, _, calls = pipeline
    passes = []

    def counted_iter_basecalls(*args):
        passes.append(args)
        return iter_basecalls(*args)

    monkeypatch.setattr(cli, "iter_basecalls", counted_iter_basecalls)
    assert run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--n", "1,2", *seed_k, "--out-dir", tmp_path / "out",
    ) == 0
    assert index_builds == lengths
    assert len(passes) == len(lengths)


def test_eval_reruns_are_byte_identical(pipeline, tmp_path):
    _, sim, _, calls = pipeline
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(
            "eval", "--reference", sim / "reference.fasta",
            "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
            "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
            "--window", 60, "--seed-k", 5, "--n", "1,2", "--out-dir", out,
        ) == 0
        outs.append((out / "report.tsv").read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("t,n", [("0", "0"), ("1", "-1")])
def test_eval_rejects_t_below_one_or_negative_n(pipeline, tmp_path, capsys, t, n):
    _, sim, _, calls = pipeline
    out = tmp_path / "out"
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--t", t, "--n", n, "--out-dir", out,
    )
    assert rc == 2
    assert "ensembleseed eval: need every t >= 1 and n >= 0" in capsys.readouterr().err
    assert not (out / "report.tsv").exists()


@pytest.mark.parametrize("flag", ["--t", "--n"])
def test_eval_rejects_an_empty_grid_list(pipeline, tmp_path, capsys, flag):
    _, sim, _, calls = pipeline
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(
            "eval", "--reference", sim / "reference.fasta",
            "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
            "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
            flag, ",", "--out-dir", out,
        )
    assert exit_info.value.code == 2
    assert f"argument {flag}: expected at least one integer, got ','" in capsys.readouterr().err
    assert not (out / "report.tsv").exists()


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--chain-len", 0], "chain length must be >= 1, got 0"),
        (["--min-gap", 20, "--max-gap", 10], "need 0 <= min_gap <= max_gap, got [20, 10]"),
        (["--min-gap", -1], "need 0 <= min_gap <= max_gap, got [-1, 50]"),
        (["--t", 0], "need every t >= 1 and n >= 0 (scored where 1 <= t <= n), got t=[0], n=[1]"),
        (["--n", -1], "need every t >= 1 and n >= 0 (scored where 1 <= t <= n), got t=[1], n=[-1]"),
        (["--t", "1,1"], "--t and --n may not repeat a value, got t=[1, 1], n=[1]"),
        (["--n", "1,4,4"], "--t and --n may not repeat a value, got t=[1], n=[1, 4, 4]"),
        (["--dedup-radius", -1], "dedup radius must be >= 0, got -1"),
        (["--window", "0"], "window size must be >= 1, got 0"),
        (["--seed-k", 0], "seed length must be in [1, 16], got 0"),
        (["--seed-k", 17], "seed length must be in [1, 16], got 17"),
    ],
)
def test_eval_checks_strategy_flags_before_loading_calls(
    pipeline, tmp_path, capsys, monkeypatch, flags, message
):
    """Strategy flags, the (t, n) grid, the dedup radius and the window size are all
    checked up front, even when the window is longer than every read, so no window
    is scored."""
    _, sim, _, calls = pipeline

    def unreachable(*args, **kwargs):
        raise AssertionError("eval loaded base calls before checking its flags")

    monkeypatch.setattr(cli, "iter_basecalls", unreachable)
    out = tmp_path / "out"
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 5000, *flags, "--out-dir", out,
    )
    assert rc == 2
    assert f"ensembleseed eval: {message}" in capsys.readouterr().err
    assert not (out / "report.tsv").exists()


def test_eval_rejects_a_negative_dedup_radius_with_no_window_scored(pipeline, tmp_path, capsys):
    _, sim, _, calls = pipeline
    out = tmp_path / "out"
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 5000, "--dedup-radius", -1, "--out-dir", out,
    )
    assert rc == 2
    assert "ensembleseed eval: dedup radius must be >= 0, got -1" in capsys.readouterr().err
    assert not (out / "report.tsv").exists()


def test_eval_rejects_a_gap_too_wide_for_the_grid_chaining_keys(pipeline, tmp_path, capsys):
    """One point chains at --max-gap 10**12; five points' shifted columns would give
    chaining keys past int64, and eval exits 2 instead of scoring wrapped keys."""
    _, sim, _, calls = pipeline
    args = [
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--max-gap", 10**12,
    ]
    assert run_cli(*args, "--out-dir", tmp_path / "one") == 0
    out = tmp_path / "grid"
    assert run_cli(*args, "--t", "1,2", "--n", "1,2,3", "--out-dir", out) == 2
    err = capsys.readouterr().err
    assert "ensembleseed eval: max_gap=1000000000000 is too wide: chaining keys" in err
    assert not (out / "report.tsv").exists()


def test_simulate_rejects_an_empty_order_probs_list(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run_cli("simulate", "--model-k", 3, "--order-probs", ",", "--out-dir", out)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "argument --order-probs: expected at least one number, got ','" in err
    assert not out.exists()


def test_eval_checks_n_against_the_calls_before_any_index(pipeline, tmp_path, capsys, monkeypatch):
    """The pipeline's calls hold 3 samples per read; n=4 fails before windows or indexes."""
    _, sim, _, calls = pipeline

    def unreachable(*args, **kwargs):
        raise AssertionError("eval built windows or an index before checking n")

    monkeypatch.setattr(cli, "build_index", unreachable)
    monkeypatch.setattr(cli, "build_windows", unreachable)
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--t", "1,5", "--n", "2,4,5", "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "ensembleseed eval: --n 5 needs 5 sample calls per read" in err
    assert "basecalls.fasta has 3" in err


@pytest.mark.parametrize("window", [50, 5000])
def test_eval_report_equals_one_sweep_per_strategy_over_every_window(pipeline, tmp_path, window):
    """eval streams the reads' windows into one sweep per seed length; that gives the
    report of one sweep per strategy over the whole corpus's windows, t > n points and the
    Viterbi strategies included. No read of the corpus has 5000 events, so no window is
    full."""
    _, sim, _, calls = pipeline
    t_values, n_values = [1, 2, 4], [0, 1, 3]
    out = tmp_path / "out"
    assert run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", window, "--seed-k", 6, "--t", "1,2,4", "--n", "0,1,3", "--out-dir", out,
    ) == 0
    truth, true_paths = load_truth(sim / "truth.tsv"), load_true_paths(sim / "true_paths.jsonl")
    windows = [
        w
        for ens in load_basecalls(calls / "basecalls.fasta", calls / "spans.jsonl")
        for w in build_windows(ens, truth[ens.read_id], true_paths[ens.read_id], 3, window)
    ]
    assert len(windows) == (12 if window == 50 else 0)
    index = build_index(read_fasta(sim / "reference.fasta")[0][1], 6)
    gaps = dict(chain_len=CHAIN_10.chain_len, min_gap=CHAIN_10.min_gap, max_gap=CHAIN_10.max_gap)
    strategies = [
        StrategyConfig("single", 6),
        StrategyConfig("chain", 6, **gaps),
        StrategyConfig("single", 6, use_viterbi=True),
        StrategyConfig("chain", 6, use_viterbi=True, **gaps),
    ]
    rows = [row for c in strategies for row in sweep(windows, index, [c], t_values, n_values)]
    assert window == 5000 or any(row.tp and row.fp for row in rows)
    write_report(tmp_path / "want.tsv", rows)
    assert (out / "report.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


def test_eval_names_a_later_read_with_too_few_samples(pipeline, tmp_path, capsys, index_builds):
    """The first read's block is checked before any index; a later short read fails at its
    own, in the first seed length's pass, before the second index is built."""
    _, sim, _, calls = pipeline
    fasta = (calls / "basecalls.fasta").read_text().splitlines(keepends=True)
    spans = (calls / "spans.jsonl").read_text().splitlines(keepends=True)
    drop = next(i for i, line in enumerate(spans) if '"read0001", "call": "sample", "index": 2' in line)
    (tmp_path / "spans.jsonl").write_text("".join(spans[:drop] + spans[drop + 1 :]))
    at = fasta.index(">read0001 sample2\n")
    end = next(i for i in range(at + 1, len(fasta)) if fasta[i].startswith(">"))
    (tmp_path / "calls.fasta").write_text("".join(fasta[:at] + fasta[end:]))
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", tmp_path / "calls.fasta", "--spans", tmp_path / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--n", "3", "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "--n 3 needs 3 sample calls per read, but read read0001 in " in err
    assert "calls.fasta has 2" in err
    assert index_builds == [13]
    assert not (tmp_path / "out").exists()


def test_eval_names_a_later_read_missing_from_truth_before_a_second_index(
    pipeline, tmp_path, capsys, index_builds
):
    _, sim, _, calls = pipeline
    lines = (sim / "truth.tsv").read_text().splitlines(keepends=True)
    kept = [line for line in lines if not line.endswith("\tread0002\n")]
    (tmp_path / "truth.tsv").write_text("".join(kept))
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", tmp_path / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    assert f"read read0002 missing from {tmp_path / 'truth.tsv'}" in capsys.readouterr().err
    assert index_builds == [13]
    assert not (tmp_path / "out").exists()


def test_eval_peaks_at_about_one_index(tmp_path):
    """On a 2 Mb reference the k=13 index is 16 MB, and eval frees it before building the
    k=10 index: its traced peak stays well below the two indexes that kept both alive."""
    sim, calls = tmp_path / "sim", tmp_path / "calls"
    assert run_cli(
        "simulate", "--model-k", 3, "--ref-length", 2_000_000, "--reads", 2,
        "--events-per-read", 120, "--seed", 3, "--out-dir", sim,
    ) == 0
    assert run_cli(
        "basecall", "--events", sim / "events.jsonl",
        "--pore-model", sim / "pore_model.tsv", "--n", 2, "--out-dir", calls,
    ) == 0
    index = build_index(read_fasta(sim / "reference.fasta")[0][1], 13)
    one_index = sum(keys.nbytes for keys in index.positions.values())
    del index
    peak = _traced_peak([
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--n", "1,2", "--out-dir", tmp_path / "eval",
    ])
    assert one_index > 15_000_000
    assert peak <= 1.6 * one_index, f"eval peaks at {peak / one_index:.2f} indexes"


@pytest.fixture
def tracer(monkeypatch):
    """``perfbench/tracer.py``, imported by path: the benchmark's outside-in spans
    and counters. Every function it wraps is restored after the test."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = {id(getattr(sys.modules[mod], attr)) for mod, attr, _, _ in module.LAYERS}
    for name, loaded in list(sys.modules.items()):
        if name.split(".")[0] == "ensembleseed":
            for key, value in list(vars(loaded).items()):
                if id(value) in originals:
                    monkeypatch.setattr(loaded, key, value)
    return module


def assert_layers_traced(tracer, traced, layers):
    """Every layer has a span, and every counter taken at it is positive."""
    _, calls_per_layer, _ = tracer.summarize({"spans": traced.spans})
    for _, _, span, counter in layers:
        assert calls_per_layer.get(span, 0) > 0, span
        if counter is not None:
            counts = {k: v for k, v in traced.counts.items() if k.startswith(span + ".")}
            assert counts and all(v > 0 for v in counts.values()), (span, counts)


def test_traced_eval_records_every_seeding_and_evaluate_layer(pipeline, tmp_path, tracer):
    """The benchmark tracer still reads the seeding types: every counter it takes is positive."""
    _, sim, _, calls = pipeline
    layers = [layer for layer in tracer.LAYERS if layer[2].split(".")[0] in ("seeding", "evaluate")]

    def run_eval(out):
        return run_cli(
            "eval", "--reference", sim / "reference.fasta",
            "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
            "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
            "--window", 60, "--seed-k", 6, "--t", "1,2", "--n", "1,3", "--out-dir", out,
        )

    assert run_eval(tmp_path / "plain") == 0
    traced = tracer.Tracer()
    traced.install()
    assert run_eval(tmp_path / "traced") == 0
    assert_layers_traced(tracer, traced, layers)
    report = "report.tsv"
    assert (tmp_path / "traced" / report).read_bytes() == (tmp_path / "plain" / report).read_bytes()


def test_traced_basecall_records_every_decode_layer(pipeline, tmp_path, tracer):
    """Viterbi and forward each build their read's emission matrix, in place."""
    _, sim, train, _ = pipeline
    layers = [
        layer for layer in tracer.LAYERS
        if layer[2] == "pore_model.load_events"
        or (layer[2].startswith("decode.") and layer[2] != "decode.load")
    ]

    def run_basecall(out):
        return run_cli(
            "basecall", "--events", sim / "events.jsonl",
            "--pore-model", sim / "pore_model.tsv", "--transitions", train / "transitions.tsv",
            "--n", 3, "--seed", 7, "--out-dir", out,
        )

    assert run_basecall(tmp_path / "plain") == 0
    traced = tracer.Tracer()
    traced.install()
    assert run_basecall(tmp_path / "traced") == 0
    assert_layers_traced(tracer, traced, layers)
    emission = [span for span in traced.spans if span[0] == "decode.emission"]
    parents = sorted(traced.spans[parent][0] for *_, parent in emission)
    assert parents == ["decode.forward"] * 6 + ["decode.viterbi"] * 6
    translate = [span for span in traced.spans if span[0] == "decode.translate"]
    assert len(translate) == 2 * 6  # the Viterbi path, then every sample at once
    for name in ("basecalls.fasta", "spans.jsonl"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_simulate_reruns_give_identical_outputs(tmp_path):
    names = ("reference.fasta", "pore_model.tsv", "events.jsonl", "truth.tsv", "true_paths.jsonl")
    digests = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        assert run_cli(
            "simulate", "--model-k", 3, "--ref-length", 3000, "--reads", 4,
            "--events-per-read", 60, "--seed", 5, "--out-dir", out,
        ) == 0
        digests.append([(out / name).read_bytes() for name in names])
    assert digests[0] == digests[1]


def test_missing_input_fails_with_diagnostic(tmp_path, capsys):
    rc = run_cli(
        "train", "--source", "truth",
        "--true-paths", tmp_path / "nope.jsonl", "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "ensembleseed train" in err


def test_malformed_truth_fails_cleanly(pipeline, tmp_path, capsys):
    _, sim, _, calls = pipeline
    bad = tmp_path / "truth.tsv"
    bad.write_text("not\ta\theader\n")
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", bad, "--true-paths", sim / "true_paths.jsonl",
        "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    assert "ensembleseed eval" in capsys.readouterr().err


def test_basecall_rejects_repeated_read_id(pipeline, tmp_path, capsys):
    _, sim, _, _ = pipeline
    events = tmp_path / "events.jsonl"
    first = (sim / "events.jsonl").read_text().splitlines()[0]
    events.write_text(f"{first}\n{first}\n")
    rc = run_cli(
        "basecall", "--events", events,
        "--pore-model", sim / "pore_model.tsv", "--n", 1, "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    assert "events.jsonl:2: duplicate read id 'read0000'" in capsys.readouterr().err


def test_basecall_rejects_a_negative_n_before_loading_events(
    pipeline, tmp_path, capsys, monkeypatch
):
    _, sim, _, _ = pipeline

    def unreachable(*args, **kwargs):
        raise AssertionError("basecall loaded events before checking --n")

    monkeypatch.setattr(cli, "load_events", unreachable)
    out = tmp_path / "out"
    rc = run_cli(
        "basecall", "--events", sim / "events.jsonl",
        "--pore-model", sim / "pore_model.tsv", "--n", -1, "--out-dir", out,
    )
    assert rc == 2
    assert "ensembleseed basecall: --n must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_a_negative_read_count(tmp_path, capsys):
    out = tmp_path / "out"
    rc = run_cli("simulate", "--model-k", 3, "--ref-length", 3000, "--reads", -1, "--out-dir", out)
    assert rc == 2
    assert "ensembleseed simulate: read count must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_basecall_rejects_a_read_id_with_whitespace(pipeline, tmp_path, capsys):
    """FASTA headers split at the first space, so such an id could not be read back."""
    _, sim, _, _ = pipeline
    events = tmp_path / "events.jsonl"
    first = (sim / "events.jsonl").read_text().splitlines()[0]
    events.write_text(first.replace('"read0000"', '"read 0000"') + "\n")
    out = tmp_path / "out"
    rc = run_cli(
        "basecall", "--events", events,
        "--pore-model", sim / "pore_model.tsv", "--n", 1, "--out-dir", out,
    )
    assert rc == 2
    assert "events.jsonl:1: bad event record: read id 'read 0000' holds whitespace" in (
        capsys.readouterr().err
    )
    assert not (out / "basecalls.fasta").exists()


def _events_with_a_far_event(sim, path):
    """The corpus's first read with its event 5 so far out that no state can emit it."""
    record = json.loads((sim / "events.jsonl").read_text().splitlines()[0])
    record["events"][5] = 1e200
    path.write_text(json.dumps(record) + "\n")
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["basecall", "train"])
def test_a_read_no_path_can_emit_fails_with_one_line(pipeline, tmp_path, capsys, command):
    """Viterbi raises instead of returning a -inf path that train would count."""
    _, sim, _, _ = pipeline
    events = _events_with_a_far_event(sim, tmp_path / "events.jsonl")
    out = tmp_path / "out"
    extra = ["--n", 0] if command == "basecall" else ["--model-k", 3, "--source", "viterbi"]
    rc = run_cli(
        command, "--events", events,
        "--pore-model", sim / "pore_model.tsv", *extra, "--out-dir", out,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"ensembleseed {command}: read 'read0000': no finite Viterbi score at event 5\n"
    assert not out.exists()


@pytest.mark.parametrize("existing", [False, True])
def test_a_basecall_failing_at_its_third_read_leaves_nothing(pipeline, tmp_path, capsys, existing):
    """Reads are written as they decode, yet a failed run leaves no output file, no temporary
    file, and no output directory unless the directory was there before the run."""
    _, sim, _, _ = pipeline
    lines = (sim / "events.jsonl").read_text().splitlines()
    record = json.loads(lines[2])
    record["events"][5] = 1e200
    lines[2] = json.dumps(record)
    events = tmp_path / "events.jsonl"
    events.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    if existing:
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
    rc = run_cli(
        "basecall", "--events", events,
        "--pore-model", sim / "pore_model.tsv", "--n", 2, "--out-dir", out,
    )
    assert rc == 2
    read_id = record["read_id"]
    assert f"read {read_id!r}: no finite Viterbi score at event 5" in capsys.readouterr().err
    if existing:
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "kept\n"
    else:
        assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["events.jsonl"] + ["out"] * existing


def _traced_peak(argv) -> int:
    """Peak traced allocation of one CLI run, over what was held when it began."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert run_cli(*argv) == 0
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_basecall_holds_one_read_at_a_time(pipeline, tmp_path):
    """Decoding and writing 4N reads at the default n=250 peaks within a small fixed margin
    of N reads: each read's calls are written and dropped before the next read decodes.
    Kept until the end, the 3N more reads' calls would hold about 1.1 MB more."""
    _, sim, _, _ = pipeline
    records = [json.loads(line) for line in (sim / "events.jsonl").read_text().splitlines()]
    n_reads = 3
    for count in (n_reads, 4 * n_reads):
        with open(tmp_path / f"events{count}.jsonl", "w") as fh:
            for i in range(count):
                record = dict(records[i % n_reads], read_id=f"r{i}")
                fh.write(json.dumps(record) + "\n")

    def argv(count):
        return [
            "basecall", "--events", tmp_path / f"events{count}.jsonl",
            "--pore-model", sim / "pore_model.tsv", "--out-dir", tmp_path / f"calls{count}",
        ]

    run_cli(*argv(n_reads))
    few, many = _traced_peak(argv(n_reads)), _traced_peak(argv(4 * n_reads))
    assert many - few <= 64_000, f"{4 * n_reads} reads peak {many - few} bytes over {n_reads}"


def test_basecall_frees_a_reads_calls_before_the_next_decodes(pipeline, tmp_path, monkeypatch):
    _, sim, _, _ = pipeline
    made = []

    def checked_call_read(*args):
        gc.collect()
        alive = sum(call() is not None for call in made)
        assert not alive, f"{alive} calls of an earlier read are alive as the next read decodes"
        ens = call_read(*args)
        made.extend(weakref.ref(call) for call in [ens.viterbi, *ens.samples])
        return ens

    monkeypatch.setattr(cli, "call_read", checked_call_read)
    assert run_cli(
        "basecall", "--events", sim / "events.jsonl",
        "--pore-model", sim / "pore_model.tsv", "--n", 2, "--out-dir", tmp_path / "calls",
    ) == 0
    assert len(made) == 6 * 3


def test_train_names_non_object_true_paths_line(pipeline, tmp_path, capsys):
    _, sim, _, _ = pipeline
    bad = tmp_path / "true_paths.jsonl"
    bad.write_text((sim / "true_paths.jsonl").read_text() + "[1,2]\n")
    rc = run_cli("train", "--model-k", 3, "--true-paths", bad, "--out-dir", tmp_path / "out")
    assert rc == 2
    assert "true_paths.jsonl:7: not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("model_k", [2, 4])
def test_eval_rejects_true_paths_of_another_k(pipeline, tmp_path, capsys, model_k):
    """The calls are k=3, so a read0000 true path simulated at another k is refused.

    Few 120-event walks at k=2 read back unambiguously; seed 22 draws one.
    """
    _, sim, _, calls = pipeline
    other = tmp_path / "other"
    assert run_cli(
        "simulate", "--model-k", model_k, "--ref-length", 5000, "--reads", 1,
        "--events-per-read", 120, "--seed", {2: 22, 4: 99}[model_k], "--out-dir", other,
    ) == 0
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", other / "true_paths.jsonl",
        "--window", 60, "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    assert "ensembleseed eval: read read0000: true path" in capsys.readouterr().err


def test_eval_rejects_a_read_with_no_event(pipeline, tmp_path, capsys):
    """A read's k comes from its first event: a read with none is refused, not a crash."""
    _, sim, _, _ = pipeline
    (tmp_path / "b.fasta").write_text(">read0000 viterbi\n\n")
    (tmp_path / "s.jsonl").write_text(
        '{"read_id": "read0000", "call": "viterbi", "index": null, "spans": ""}\n'
    )
    (tmp_path / "p.jsonl").write_text('{"read_id": "read0000", "states": [5], "log_joint": 0.0}\n')
    rc = run_cli(
        "eval", "--reference", sim / "reference.fasta",
        "--basecalls", tmp_path / "b.fasta", "--spans", tmp_path / "s.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", tmp_path / "p.jsonl",
        "--n", 0, "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    assert "eval: read read0000: call has 0 event spans, true path has 1" in capsys.readouterr().err


def test_invalid_model_configuration_rejected(tmp_path, capsys):
    """The default stay/move/skip probabilities need k >= 2."""
    rc = run_cli(
        "simulate", "--model-k", 1,
        "--ref-length", 1000, "--reads", 1, "--events-per-read", 10,
        "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    assert "ensembleseed simulate: max shift 2 exceeds k=1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "train", "basecall"])
def test_order_probs_and_transitions_are_exclusive(pipeline, tmp_path, capsys, command):
    _, _, train, _ = pipeline
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        run_cli(
            command, "--order-probs", "0.5,0.5", "--transitions", train / "transitions.tsv",
            "--out-dir", out,
        )
    assert exit_info.value.code == 2
    assert "--transitions: not allowed with argument --order-probs" in capsys.readouterr().err
    assert not out.exists()


def test_train_viterbi_source(pipeline, tmp_path):
    _, sim, _, _ = pipeline
    out = tmp_path / "trained"
    assert run_cli(
        "train", "--model-k", 3, "--source", "viterbi",
        "--events", sim / "events.jsonl", "--pore-model", sim / "pore_model.tsv",
        "--mode", "per-transition", "--out-dir", out,
    ) == 0
    text = (out / "transitions.tsv").read_text().splitlines()
    assert text[0].startswith("# k=3 max_shift=2 mode=per-transition")
    assert text[1] == "source_kmer\ttarget_kmer\tprob"


def test_model_k_must_match_the_pore_model(pipeline, tmp_path, capsys):
    """A k=3 pore model decodes at k=3, so --model-k 4 is refused, not recorded."""
    _, sim, _, _ = pipeline
    out = tmp_path / "out"
    rc = run_cli(
        "train", "--model-k", 4, "--events", sim / "events.jsonl",
        "--pore-model", sim / "pore_model.tsv", "--source", "viterbi", "--out-dir", out,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "ensembleseed train: pore model has k=3, but --model-k is 4" in err
    assert not any(out.glob("*.json"))


def test_basecall_transitions_must_match_the_pore_model(pipeline, tmp_path, capsys):
    """basecall takes k from --pore-model, so a transition model made at k=4 is refused."""
    _, sim, _, _ = pipeline
    transitions = tmp_path / "transitions.tsv"
    save_transition_model(transitions, TransitionModel.per_order(4))
    out = tmp_path / "out"
    rc = run_cli(
        "basecall", "--events", sim / "events.jsonl", "--pore-model", sim / "pore_model.tsv",
        "--transitions", transitions, "--n", 1, "--out-dir", out,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "ensembleseed basecall: transition model has k=4, but the pore model has k=3" in err
    assert not out.exists()


def test_train_viterbi_source_requires_events(tmp_path, capsys):
    rc = run_cli("train", "--source", "viterbi", "--out-dir", tmp_path / "x")
    assert rc == 2
    err = capsys.readouterr().err
    assert "ensembleseed train: --source viterbi requires --events and --pore-model" in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "source,flags,message",
    [
        ("truth", ["--order-probs", "0.3,0.3"], "--source truth does not use --order-probs"),
        (
            "truth",
            ["--transitions", "/nonexistent.tsv", "--events", "/nonexistent"],
            "--source truth does not use --events, --transitions",
        ),
        ("viterbi", ["--true-paths", "/nonexistent"], "--source viterbi does not use --true-paths"),
    ],
)
def test_train_refuses_flags_its_source_ignores(pipeline, tmp_path, capsys, source, flags, message):
    _, sim, _, _ = pipeline
    needed = {
        "truth": ["--true-paths", sim / "true_paths.jsonl"],
        "viterbi": ["--events", sim / "events.jsonl", "--pore-model", sim / "pore_model.tsv"],
    }[source]
    out = tmp_path / "out"
    rc = run_cli("train", "--model-k", 3, "--source", source, *needed, *flags, "--out-dir", out)
    assert rc == 2
    assert f"ensembleseed train: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "basecall", "report"])
def test_a_failed_run_leaves_no_output_directory(pipeline, tmp_path, capsys, command):
    _, sim, _, _ = pipeline
    bad = tmp_path / "bad.txt"
    bad.write_text("not\ta\theader\n")
    out = tmp_path / "out"
    argv = {
        "simulate": ["--model-k", 3, "--ref-length", 5000, "--reads", 6,
                     "--events-per-read", 300, "--seed", 99],
        "basecall": ["--events", bad, "--pore-model", sim / "pore_model.tsv"],
        "report": ["--report", bad],
    }[command]
    assert run_cli(command, *argv, "--out-dir", out) == 2
    assert f"ensembleseed {command}: " in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(ensembleseed.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, ensembleseed.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
