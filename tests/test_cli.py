import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ensembleseed
from ensembleseed import cli
from ensembleseed.cli import main
from ensembleseed.evaluate import load_report
from ensembleseed.seeding import build_index
from ensembleseed.simulate import load_truth


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
        "basecall", "--model-k", 3, "--events", sim / "events.jsonl",
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
        "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
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


@pytest.mark.parametrize("seed_k,lengths", [([], [10, 13]), (["--seed-k", 11], [11])])
def test_eval_builds_one_index_per_seed_length(pipeline, tmp_path, monkeypatch, seed_k, lengths):
    _, sim, _, calls = pipeline
    built = []

    def counting_build_index(reference, k):
        built.append(k)
        return build_index(reference, k)

    monkeypatch.setattr(cli, "build_index", counting_build_index)
    assert run_cli(
        "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--n", "1,2", *seed_k, "--out-dir", tmp_path / "out",
    ) == 0
    assert sorted(built) == lengths


def test_eval_reruns_are_byte_identical(pipeline, tmp_path):
    _, sim, _, calls = pipeline
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run_cli(
            "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
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
        "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
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
            "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
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
        (["--dedup-radius", -1], "dedup radius must be >= 0, got -1"),
        (["--seed-k", 0], "seed length must be in [1, 16], got 0"),
        (["--seed-k", 17], "seed length must be in [1, 16], got 17"),
    ],
)
def test_eval_checks_strategy_flags_before_loading_calls(
    pipeline, tmp_path, capsys, monkeypatch, flags, message
):
    """Strategy flags, the (t, n) grid and the dedup radius are all checked up front,
    even when the window is longer than every read, so no window is scored."""
    _, sim, _, calls = pipeline

    def unreachable(*args, **kwargs):
        raise AssertionError("eval loaded base calls before checking its flags")

    monkeypatch.setattr(cli, "load_basecalls", unreachable)
    out = tmp_path / "out"
    rc = run_cli(
        "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
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
        "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 5000, "--dedup-radius", -1, "--out-dir", out,
    )
    assert rc == 2
    assert "ensembleseed eval: dedup radius must be >= 0, got -1" in capsys.readouterr().err
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
        "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--t", "1,5", "--n", "2,4,5", "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "ensembleseed eval: --n 5 needs 5 sample calls per read" in err
    assert "basecalls.fasta has 3" in err


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
            "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
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
    """Each read's emission matrix is built once, outside Viterbi and forward."""
    _, sim, train, _ = pipeline
    layers = [
        layer for layer in tracer.LAYERS
        if layer[2] == "pore_model.load_events"
        or (layer[2].startswith("decode.") and layer[2] != "decode.load")
    ]

    def run_basecall(out):
        return run_cli(
            "basecall", "--model-k", 3, "--events", sim / "events.jsonl",
            "--pore-model", sim / "pore_model.tsv", "--transitions", train / "transitions.tsv",
            "--n", 3, "--seed", 7, "--out-dir", out,
        )

    assert run_basecall(tmp_path / "plain") == 0
    traced = tracer.Tracer()
    traced.install()
    assert run_basecall(tmp_path / "traced") == 0
    assert_layers_traced(tracer, traced, layers)
    emission = [span for span in traced.spans if span[0] == "decode.emission"]
    assert len(emission) == 6 and all(parent == -1 for *_, parent in emission)
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
        "eval", "--model-k", 3, "--reference", sim / "reference.fasta",
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
        "basecall", "--model-k", 3, "--events", events,
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
        "basecall", "--model-k", 3, "--events", sim / "events.jsonl",
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
        "basecall", "--model-k", 3, "--events", events,
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
    extra = ["--n", 0] if command == "basecall" else ["--source", "viterbi"]
    rc = run_cli(
        command, "--model-k", 3, "--events", events,
        "--pore-model", sim / "pore_model.tsv", *extra, "--out-dir", out,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"ensembleseed {command}: read 'read0000': no finite Viterbi score at event 5\n"
    assert not out.exists()


def test_train_names_non_object_true_paths_line(pipeline, tmp_path, capsys):
    _, sim, _, _ = pipeline
    bad = tmp_path / "true_paths.jsonl"
    bad.write_text((sim / "true_paths.jsonl").read_text() + "[1,2]\n")
    rc = run_cli("train", "--model-k", 3, "--true-paths", bad, "--out-dir", tmp_path / "out")
    assert rc == 2
    assert "true_paths.jsonl:7: not a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("model_k", [2, 4])
def test_eval_rejects_true_paths_of_another_k(pipeline, tmp_path, capsys, model_k):
    _, sim, _, calls = pipeline
    rc = run_cli(
        "eval", "--model-k", model_k, "--reference", sim / "reference.fasta",
        "--basecalls", calls / "basecalls.fasta", "--spans", calls / "spans.jsonl",
        "--truth", sim / "truth.tsv", "--true-paths", sim / "true_paths.jsonl",
        "--window", 60, "--out-dir", tmp_path / "out",
    )
    assert rc == 2
    assert "ensembleseed eval: read read0000: true path" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["basecall", "train"])
def test_model_k_must_match_the_pore_model(pipeline, tmp_path, capsys, command):
    """A k=3 pore model decodes at k=3, so --model-k 4 is refused, not recorded."""
    _, sim, _, _ = pipeline
    out = tmp_path / "out"
    extra = ["--n", 1] if command == "basecall" else ["--source", "viterbi"]
    rc = run_cli(
        command, "--model-k", 4, "--events", sim / "events.jsonl",
        "--pore-model", sim / "pore_model.tsv", *extra, "--out-dir", out,
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert f"ensembleseed {command}: pore model has k=3, but --model-k is 4" in err
    assert not any(out.glob("*.json"))


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
        "basecall": ["--model-k", 3, "--events", bad, "--pore-model", sim / "pore_model.tsv"],
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
