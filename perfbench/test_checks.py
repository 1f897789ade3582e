"""The benchmark's output checks pass on real outputs and catch damaged ones.

Runs the pipeline in-process on a tiny corpus, so it needs ``src`` on the path:

    PYTHONPATH=src python3 -m pytest perfbench
"""

import os

import pytest

import checks
from ensembleseed.cli import main

EVENTS, WINDOW, N = 120, 40, 2
T_VALUES, N_VALUES = [1, 2], [1, 2]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    sim, train, calls, ev = (str(root / name) for name in ("sim", "train", "calls", "eval"))
    assert main(["simulate", "--model-k", "5", "--ref-length", "5000", "--reads", "2",
                 "--events-per-read", str(EVENTS), "--seed", "3", "--out-dir", sim]) == 0
    assert main(["train", "--model-k", "5", "--source", "truth",
                 "--true-paths", os.path.join(sim, "true_paths.jsonl"), "--out-dir", train]) == 0
    assert main(["basecall", "--events", os.path.join(sim, "events.jsonl"),
                 "--pore-model", os.path.join(sim, "pore_model.tsv"),
                 "--transitions", os.path.join(train, "transitions.tsv"),
                 "--n", str(N), "--seed", "5", "--out-dir", calls]) == 0
    assert main(["eval", "--reference", os.path.join(sim, "reference.fasta"),
                 "--basecalls", os.path.join(calls, "basecalls.fasta"),
                 "--spans", os.path.join(calls, "spans.jsonl"),
                 "--truth", os.path.join(sim, "truth.tsv"),
                 "--true-paths", os.path.join(sim, "true_paths.jsonl"),
                 "--window", str(WINDOW), "--t", "1,2", "--n", "1,2", "--out-dir", ev]) == 0
    return {
        "events": checks.event_counts(os.path.join(sim, "events.jsonl")),
        "fasta": os.path.join(calls, "basecalls.fasta"),
        "spans": os.path.join(calls, "spans.jsonl"),
        "report": os.path.join(ev, "report.tsv"),
        "tmp": root,
    }


def _basecall_failures(p, spans):
    return checks.check_basecalls(p["fasta"], spans, p["events"], N)[0]


def _report_failures(path, p):
    windows = sum(count // WINDOW for count in p["events"].values())
    return checks.check_report(path, T_VALUES, N_VALUES, windows)[0]


def test_real_outputs_pass(pipeline):
    assert _basecall_failures(pipeline, pipeline["spans"]) == 0
    assert _report_failures(pipeline["report"], pipeline) == 0


def test_truncated_spans_fail_reads(pipeline):
    with open(pipeline["spans"]) as fh:
        text = fh.read()
    truncated = pipeline["tmp"] / "truncated_spans.jsonl"
    truncated.write_text(text[: len(text) // 2])
    assert _basecall_failures(pipeline, str(truncated)) > 0


def test_corrupted_report_row_fails(pipeline):
    with open(pipeline["report"]) as fh:
        lines = fh.read().splitlines()
    fields = lines[1].split("\t")
    fields[4] = str(int(fields[4]) + 1)  # TP no longer matches Sn
    lines[1] = "\t".join(fields)
    corrupted = pipeline["tmp"] / "corrupted_report.tsv"
    corrupted.write_text("\n".join(lines) + "\n")
    failed = _report_failures(str(corrupted), pipeline)
    assert 0 < failed < len(lines) - 1
