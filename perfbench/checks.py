"""Output checks that decide which operations of a timed run failed.

An operation is a read for ``basecall`` and a report row for ``eval``. Each
check returns the number of failed operations and a list of reasons.
"""

from __future__ import annotations

import json
from collections import Counter

# (strategy label, seed length) in the order ``eval`` writes them.
EVAL_STRATEGIES = [("single-kmer", 13), ("chain", 10), ("single-kmer-viterbi", 13), ("chain-viterbi", 10)]
REPORT_HEADER = "strategy\tk\tt\tn\tTP\twindows\tSn\tFP"


def event_counts(events_path) -> dict[str, int]:
    """Read id -> number of events, in file order."""
    counts: dict[str, int] = {}
    with open(events_path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                counts[record["read_id"]] = len(record["events"])
    return counts


def _tiling_error(call, events: int) -> str | None:
    if len(call.event_spans) != events:
        return f"{len(call.event_spans)} spans for {events} events"
    pos = 0
    for offset, length in call.event_spans:
        if offset != pos or length < 0:
            return f"span ({offset}, {length}) does not start at {pos}"
        pos += length
    if pos != len(call.sequence):
        return f"spans cover {pos} of {len(call.sequence)} bases"
    return None


def check_basecalls(fasta_path, spans_path, events: dict[str, int], n: int) -> tuple[int, list[str]]:
    """Reads whose calls fail to round-trip through ``load_basecalls``.

    Each read needs one Viterbi call and ``n`` sample calls, and each call one
    span per input event, the spans tiling its sequence exactly.
    """
    from ensembleseed.decode import load_basecalls

    try:
        ensembles = load_basecalls(fasta_path, spans_path)
    except Exception as exc:  # any failure to load fails every read
        return len(events), [f"load_basecalls: {type(exc).__name__}: {exc}"]
    by_id = {ens.read_id: ens for ens in ensembles}
    unexpected = sorted(set(by_id) - set(events))
    if unexpected or len(by_id) != len(ensembles):
        return len(events), [f"unexpected or repeated reads: {unexpected[:3]}"]
    failed, reasons = 0, []
    for read_id, count in events.items():
        ens = by_id.get(read_id)
        if ens is None:
            error = "missing"
        elif len(ens.samples) != n:
            error = f"{len(ens.samples)} samples, expected {n}"
        else:
            error = next(
                (e for call in [ens.viterbi, *ens.samples] if (e := _tiling_error(call, count))),
                None,
            )
        if error:
            failed += 1
            reasons.append(f"{read_id}: {error}")
    return failed, reasons


def _row_error(key, row, windows: int, viterbi_value) -> str | None:
    strategy, _, t, n = key
    tp, total, sn, fp = row
    if total != windows:
        return f"{total} windows, expected {windows}"
    if not (0 <= tp <= total and fp >= 0):
        return f"TP {tp} or FP {fp} out of range"
    if sn != f"{tp / total:.3f}":
        return f"Sn {sn} is not TP/windows = {tp / total:.3f}"
    if strategy.endswith("-viterbi"):
        if (tp, fp) != viterbi_value:
            return f"Viterbi row {(tp, fp)} differs from {viterbi_value}"
    elif t > n and (tp, fp) != (0, 0):
        return f"t > n but TP {tp}, FP {fp}"
    return None


def check_report(report_path, t_values, n_values, windows: int) -> tuple[int, list[str]]:
    """Rows of ``report.tsv`` that are missing, malformed or inconsistent.

    The report needs one row per (strategy, t, n); Sn = TP / windows to three
    decimals; Viterbi rows constant across the grid; rows with t > n all zero.
    """
    expected = [(s, k, t, n) for s, k in EVAL_STRATEGIES for t in t_values for n in n_values]
    try:
        with open(report_path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return len(expected), [f"{report_path}: {exc}"]
    if not lines or lines[0] != REPORT_HEADER:
        return len(expected), ["unexpected report header"]
    rows: dict[tuple, tuple] = {}
    reasons: list[str] = []
    extra = 0
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        try:
            if len(fields) != 8:
                raise ValueError(f"{len(fields)} columns")
            key = (fields[0], int(fields[1]), int(fields[2]), int(fields[3]))
            row = (int(fields[4]), int(fields[5]), fields[6], int(fields[7]))
        except ValueError as exc:
            reasons.append(f"line {lineno}: malformed: {exc}")
            continue
        if key in rows or key not in expected:
            extra += 1
            reasons.append(f"line {lineno}: unexpected or repeated row {key}")
            continue
        rows[key] = row
    viterbi_values = {
        strategy: Counter(
            (row[0], row[3]) for key, row in rows.items() if key[0] == strategy
        ).most_common(1)[0][0]
        for strategy, _ in EVAL_STRATEGIES
        if strategy.endswith("-viterbi") and any(key[0] == strategy for key in rows)
    }
    failed = extra
    for key in expected:
        row = rows.get(key)
        error = "missing" if row is None else _row_error(key, row, windows, viterbi_values.get(key[0]))
        if error:
            failed += 1
            reasons.append(f"{key}: {error}")
    return min(failed, len(expected)), reasons
