"""Line readers for every input file, and atomic writes for every output.

Every TSV, JSON-lines and FASTA reader here skips blank lines and starts each
error with ``path:line:``. Loaders loop over a reader and add only the rules
of their own format, naming the line by the ``where`` string each row carries.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import sys
import tempfile

import numpy as np

# The umask can only be read by setting it, which races with threads that
# create files meanwhile, so it is read once, at import.
_UMASK = os.umask(0)
os.umask(_UMASK)


def parse_field(parse, text, name: str, where: str):
    """``parse(text)``; a ValueError or KeyError from it becomes one naming ``where``."""
    try:
        return parse(text)
    except (ValueError, KeyError):
        raise ValueError(f"{where}: cannot parse {name} {text!r}") from None


def tsv_rows(path, header: list[str], types, header_line: int = 1):
    """Yield (where, values) for each data row of a tab-separated table.

    Line ``header_line`` must be exactly ``header``; earlier lines are the
    caller's. Each later line has one field per column, parsed by ``types``.
    """
    want, prefix = "\t".join(header), f"{path}:"
    with open(path) as fh:
        lines = enumerate(fh, start=1)
        got = next(itertools.islice(lines, header_line - 1, None), (0, ""))[1].rstrip("\n")
        if got != want:
            raise ValueError(f"{path}:{header_line}: expected header {want!r}, got {got!r}")
        for lineno, line in lines:
            if not line.strip():
                continue
            where = f"{prefix}{lineno}"
            fields = line.rstrip("\n").split("\t")
            if len(fields) != len(header):
                raise ValueError(f"{where}: expected {len(header)} columns, got {len(fields)}")
            yield where, [parse_field(p, f, n, where) for p, f, n in zip(types, fields, header)]


def jsonl_records(path, fields: dict):
    """Yield (where, record) for each line of a JSON-lines file.

    Each line is a JSON object holding every key of ``fields``, whose value is
    the type the key's value must have: ``float`` takes any number and stores
    it as a float, ``object`` anything, left for the caller to check.
    """
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{where}: not a JSON record: {exc}") from None
            if not isinstance(record, dict):
                raise ValueError(f"{where}: not a JSON object")
            missing = [key for key in fields if key not in record]
            if missing:
                raise ValueError(f"{where}: record lacks {', '.join(missing)}")
            for key, kind in fields.items():
                value = record[key]
                if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
                    record[key] = float(value)
                elif not (kind is object or type(value) is kind):
                    want, got = kind.__name__, type(value).__name__
                    raise ValueError(f"{where}: {key} must be a JSON {want}, got a JSON {got}")
            yield where, record


def number_array(values: list, kinds: str, name: str, where: str) -> np.ndarray:
    """A JSON array as a non-empty flat array of dtype kind in ``kinds`` ("i" or "if")."""
    try:
        array = np.asarray(values)
    except ValueError:  # ragged nesting
        array = np.empty((0, 0))
    if array.ndim != 1 or array.size == 0 or array.dtype.kind not in kinds:
        what = "integers" if kinds == "i" else "numbers"
        raise ValueError(f"{where}: {name} must be a non-empty flat array of {what}")
    return array


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
                    raise ValueError(f"{path}:{lineno}: sequence data before first header")
                chunks.append(line)
    if name is not None:
        yield start, name, "".join(chunks)


def read_fasta(path) -> list[tuple[str, str]]:
    return [(name, seq) for _, name, seq in fasta_records(path)]


@contextlib.contextmanager
def atomic_write(path, mode: str = "w"):
    """Write to a temp file in the target directory, then rename into place.

    Guarantees readers never see a partially written file. The result gets
    the permissions a plain ``open`` would give it under the umask the
    process had when this module was imported.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
