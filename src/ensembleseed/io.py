"""FASTA helpers and atomic file writes shared across the pipeline."""

from __future__ import annotations

import contextlib
import os
import tempfile


def write_fasta(path, records, width: int = 80) -> None:
    """Write (name, sequence) pairs; names may carry a description after a space."""
    with atomic_write(path) as fh:
        for name, seq in records:
            fh.write(f">{name}\n")
            for start in range(0, len(seq), width):
                fh.write(seq[start : start + width] + "\n")
            if not seq:
                fh.write("\n")


def fasta_records(path):
    """Yield (header line number, name, sequence) for each FASTA record."""
    name = None
    chunks: list[str] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if line.startswith(">"):
                if name is not None:
                    yield start, name, "".join(chunks)
                start, name = lineno, line[1:]
                chunks = []
            elif line:
                if name is None:
                    raise ValueError(f"{path}: sequence data before first header")
                chunks.append(line)
    if name is not None:
        yield start, name, "".join(chunks)


def read_fasta(path) -> list[tuple[str, str]]:
    return [(name, seq) for _, name, seq in fasta_records(path)]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Write to a temp file in the target directory, then rename into place.

    Guarantees readers never see a partially written file. The result gets
    the permissions a plain ``open`` would give it under the current umask.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
