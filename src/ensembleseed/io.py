"""Line readers for every input file, and atomic writes for every output.

Every TSV, JSON-lines and FASTA reader here skips blank lines and starts each
error with ``path:line:``. Loaders loop over a reader's rows, or take a
table's columns whole, and add only the rules of their own format, naming the
line by the ``where`` string or line number each row carries.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import tempfile

import numpy as np

# The umask can only be read by setting it, which races with threads that
# create files meanwhile, so it is read once, at import.
_UMASK = os.umask(0)
os.umask(_UMASK)

FASTA_WIDTH = 80


def parse_field(parse, text, name: str, where: str):
    """``parse(text)``; a ValueError or KeyError from it becomes one naming ``where``."""
    try:
        return parse(text)
    except (ValueError, KeyError):
        raise ValueError(f"{where}: cannot parse {name} {text!r}") from None


def tsv_fields(path, header: list[str], header_line: int = 1):
    """Line numbers and columns of the data rows of a tab-separated table.

    Line ``header_line`` must be exactly ``header``; earlier lines are the
    caller's. Each later non-blank line has one field per column. A column is
    the list of its rows' fields, unparsed.
    """
    with open(path) as fh:
        lines = fh.read().split("\n")
    want = "\t".join(header)
    got = lines[header_line - 1] if header_line <= len(lines) else ""
    if got != want:
        raise ValueError(f"{path}:{header_line}: expected header {want!r}, got {got!r}")
    rows = enumerate(lines[header_line:], header_line + 1)
    numbered = [(n, line) for n, line in rows if line.strip()]
    for lineno, line in numbered:
        if line.count("\t") != len(header) - 1:
            found = len(line.split("\t"))
            raise ValueError(f"{path}:{lineno}: expected {len(header)} columns, got {found}")
    fields = "\t".join(line for _, line in numbered).split("\t") if numbered else []
    return [n for n, _ in numbered], [fields[i :: len(header)] for i in range(len(header))]


def tsv_rows(path, header: list[str], types, header_line: int = 1):
    """Yield (where, values) for each row of ``tsv_fields``, each field parsed by ``types``."""
    linenos, columns = tsv_fields(path, header, header_line)
    for lineno, fields in zip(linenos, zip(*columns)):
        where = f"{path}:{lineno}"
        yield where, [parse_field(p, f, n, where) for p, f, n in zip(types, fields, header)]


def parse_column(parse, fields, name: str, path, linenos: list[int]) -> list:
    """``parse`` over a whole column, re-run field by field only on failure, to name the line."""
    try:
        return list(map(parse, fields))
    except (ValueError, KeyError):
        for lineno, text in zip(linenos, fields):
            parse_field(parse, text, name, f"{path}:{lineno}")
        raise


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


def fasta_record(name: str, seq: str) -> str:
    """One FASTA record: a ``>name`` line, then ``seq`` in lines of FASTA_WIDTH bases."""
    lines = [seq[start : start + FASTA_WIDTH] for start in range(0, len(seq), FASTA_WIDTH)]
    return f">{name}\n" + "\n".join(lines or [""]) + "\n"


def write_fasta(path, records) -> None:
    """Write (name, sequence) pairs; names may carry a description after a space.

    A line break in a name, one or a ">" in a sequence, or a character the
    file's encoding cannot hold (a lone surrogate, say) raises ValueError.
    """
    with atomic_write(path) as fh:
        for name, seq in records:
            unwritable = f"{path}: record {name!r} cannot be written as FASTA"
            if any(c in name for c in "\r\n") or any(c in seq for c in "\r\n>"):
                raise ValueError(unwritable)
            try:
                fh.write(fasta_record(name, seq))
            except UnicodeEncodeError as err:
                raise ValueError(unwritable) from err


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
def atomic_write(path):
    """Write to a temp file in the target directory, then rename into place.

    Guarantees readers never see a partially written file. The result gets
    the permissions a plain ``open`` would give it under the umask the
    process had when this module was imported.
    """
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.chmod(tmp, 0o666 & ~_UMASK)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
