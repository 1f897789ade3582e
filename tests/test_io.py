import json
import os
import stat

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ensembleseed.decode import BaseCall, ReadEnsemble, load_basecalls, write_basecalls
from ensembleseed.evaluate import EvalRow, load_report, write_report
from ensembleseed.io import atomic_write, jsonl_records, read_fasta, tsv_rows, write_fasta
from ensembleseed.pore_model import (
    EventSequence,
    PoreModel,
    TransitionModel,
    load_events,
    load_pore_model,
    write_events,
    write_pore_model,
)
from ensembleseed.simulate import load_true_paths, load_truth
from ensembleseed.train import (
    count_transitions,
    estimate_transitions,
    load_transition_model,
    save_transition_model,
)


def default_mode():
    umask = os.umask(0)
    os.umask(umask)
    return 0o666 & ~umask


def test_atomic_write_gives_umask_default_mode(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(path) as fh:
        fh.write("hello\n")
    assert path.read_text() == "hello\n"
    assert stat.S_IMODE(path.stat().st_mode) == default_mode()


def test_atomic_write_does_not_touch_the_umask(tmp_path, monkeypatch):
    """Setting the umask to read it races with threads creating files."""

    def umask(mask):
        raise AssertionError("atomic_write called os.umask")

    want = default_mode()
    monkeypatch.setattr(os, "umask", umask)
    with atomic_write(tmp_path / "out.txt") as fh:
        fh.write("hello\n")
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == want


def test_pipeline_writers_give_umask_default_mode(tmp_path):
    write_fasta(tmp_path / "ref.fasta", [("ref", "ACGT")])
    write_pore_model(tmp_path / "pore.tsv", PoreModel(1, [90.0, 100.0, 110.0, 120.0], [2.0] * 4))
    write_events(tmp_path / "events.jsonl", [EventSequence("r1", [100.0])])
    for name in ("ref.fasta", "pore.tsv", "events.jsonl"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == default_mode(), name
    assert read_fasta(tmp_path / "ref.fasta") == [("ref", "ACGT")]


def test_failed_write_leaves_no_target_and_no_temp_file(tmp_path):
    with pytest.raises(RuntimeError):
        with atomic_write(tmp_path / "out.txt") as fh:
            fh.write("partial")
            raise RuntimeError("disk on fire")
    assert list(tmp_path.iterdir()) == []


def test_failed_events_write_leaves_no_target_and_no_temp_file(tmp_path):
    reads = [EventSequence("r1", [100.0]), "not an event sequence"]
    with pytest.raises(AttributeError):
        write_events(tmp_path / "events.jsonl", reads)
    assert list(tmp_path.iterdir()) == []


def test_readers_skip_blank_lines_and_count_them(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("# meta\na\tb\n\n1\t2.5\n\n3\t4\n")
    rows = list(tsv_rows(table, ["a", "b"], (int, float), header_line=2))
    assert rows == [(f"{table}:4", [1, 2.5]), (f"{table}:6", [3, 4.0])]
    records = tmp_path / "r.jsonl"
    records.write_text('\n{"x": 1, "y": [2]}\n  \n{"x": 3.5, "y": [], "z": null}\n')
    got = list(jsonl_records(records, {"x": float, "y": list}))
    assert got == [(f"{records}:2", {"x": 1.0, "y": [2]}), (f"{records}:4", {"x": 3.5, "y": [], "z": None})]
    assert type(got[0][1]["x"]) is float


def test_tsv_rows_needs_the_header_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# meta\n")
    with pytest.raises(ValueError, match=r"t\.tsv:2: expected header 'a', got ''"):
        list(tsv_rows(path, ["a"], (int,), header_line=2))


# Every loader, each fed a valid file with one random line appended, must either
# load it or raise a ValueError naming the file; no other exception may leak.

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
TSV_TOKENS = st.sampled_from(
    ["", "A", "AC", "ACG", "AAAA", "N", "0", "1", "2", "-1", "0.5", "1e400", "nan", "x", "+", "-",
     "r1", "ref", "chain"]
) | st.text(max_size=4)


def jsonl_line(template: dict):
    """A JSON line: ``template`` with random keys dropped or given random values."""

    @st.composite
    def line(draw):
        record = dict(template)
        for key in draw(st.lists(st.sampled_from(sorted(template)), unique=True)):
            if draw(st.booleans()):
                del record[key]
            else:
                record[key] = draw(JSON_VALUES)
        return json.dumps(record)

    return line() | st.text(max_size=40)


def tsv_line(columns: int):
    """A TSV line, of the table's column count or any other, or any text."""
    fields = st.lists(TSV_TOKENS, min_size=columns, max_size=columns)
    fields |= st.lists(TSV_TOKENS, min_size=1, max_size=9)
    return fields.map("\t".join) | st.text(max_size=40)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """(path, loader, line strategy) for one valid file of every input format."""
    root = tmp_path_factory.mktemp("valid")
    pore = root / "pore.tsv"
    write_pore_model(pore, PoreModel(1, [90.0, 100.0, 110.0, 120.0], [2.0] * 4))
    events = root / "events.jsonl"
    write_events(events, [EventSequence("r1", [100.0, 101.0])])
    truth = root / "truth.tsv"
    truth.write_text("contig\tstart\tend\tstrand\tread_id\nref\t0\t10\t+\tr1\n")
    paths = root / "true_paths.jsonl"
    paths.write_text('{"read_id": "r1", "states": [0, 1], "log_joint": -1.0}\n')
    per_order, per_transition = root / "per_order.tsv", root / "per_transition.tsv"
    save_transition_model(per_order, TransitionModel.per_order(1, (0.2, 0.8)))
    counts = count_transitions([], 1, max_shift=1)
    save_transition_model(per_transition, estimate_transitions(counts, "per-transition"))
    report = root / "report.tsv"
    write_report(report, [EvalRow("chain", 10, 1, 1, 1, 2, 0.5, 0)])
    fasta, spans = root / "calls.fasta", root / "spans.jsonl"
    write_basecalls(fasta, spans, [ReadEnsemble("r1", BaseCall("ACG", [3]), [BaseCall("AC", [2])])])
    event = {"read_id": "r2", "scale": 1.0, "shift": 0.0, "var": 1.0, "events": [100.0]}
    path = {"read_id": "r2", "states": [0, 1], "log_joint": -1.0}
    call = {"read_id": "r1", "call": "sample", "index": 1, "spans": "3"}
    return {
        "pore": (pore, load_pore_model, tsv_line(3)),
        "events": (events, load_events, jsonl_line(event)),
        "truth": (truth, load_truth, tsv_line(5)),
        "true_paths": (paths, load_true_paths, jsonl_line(path)),
        "per_order": (per_order, load_transition_model, tsv_line(2)),
        "per_transition": (per_transition, load_transition_model, tsv_line(3)),
        "report": (report, load_report, tsv_line(8)),
        "spans": (spans, lambda p: load_basecalls(fasta, p), jsonl_line(call)),
    }


@st.composite
def fasta_records_case(draw):
    """Names with and without a description, sequences of lengths around the 80-column wrap."""
    name = st.text(
        st.characters(blacklist_characters="\r\n", blacklist_categories=("Cs",)), max_size=12
    )
    records = []
    for _ in range(draw(st.integers(0, 4))):
        header = draw(name)
        if draw(st.booleans()):
            header += " " + draw(name)
        length = draw(st.sampled_from([0, 1, 79, 80, 81, 159, 160, 161]) | st.integers(0, 250))
        seq = draw(st.text(st.sampled_from("ACGTNacgtn"), min_size=length, max_size=length))
        records.append((header, seq))
    return records


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(records=fasta_records_case())
def test_fasta_round_trip(tmp_path, records):
    path = tmp_path / "round_trip.fasta"
    write_fasta(path, records)
    assert read_fasta(path) == records


@pytest.mark.parametrize(
    "record",
    [
        ("a\nb", "ACGT"),
        ("a\rb", "ACGT"),
        ("r", "AC\nGT"),
        ("r", "AC\rGT"),
        ("r", "A>C"),
        ("\ud800", "ACGT"),
        ("r", "AC\udc80GT"),
    ],
)
def test_write_fasta_rejects_a_record_it_cannot_read_back(tmp_path, record):
    path = tmp_path / "bad.fasta"
    with pytest.raises(ValueError, match="cannot be written as FASTA"):
        write_fasta(path, [("ok", "ACGT"), record])
    assert not path.exists()


@pytest.mark.parametrize(
    "name",
    ["pore", "events", "truth", "true_paths", "per_order", "per_transition", "report", "spans"],
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_appended_line_loads_or_names_the_file(valid_files, tmp_path, name, data):
    source, loader, lines = valid_files[name]
    path = tmp_path / source.name
    path.write_text(source.read_text() + data.draw(lines) + "\n")
    try:
        loader(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{path}:"), exc
