import os
import stat

import pytest

from ensembleseed.io import atomic_write, read_fasta, write_fasta
from ensembleseed.pore_model import EventSequence, PoreModel, write_events, write_pore_model


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
