"""Regenerate the pinned regression values under tests/data/.

Run from the repository root after any deliberate change to the simulator
defaults or the decoding kernels:

    python3 tools/freeze_pins.py

It rebuilds the fixed-seed evaluation corpus with the same code the test
suite uses and rewrites pinned_viterbi_row.json, identity_band.json,
pinned_calls_digest.json (one sha256 over every Viterbi and sample call),
pinned_per_transition_digest.json (the same over the first reads called under
a per-transition model trained from the true paths) and
pinned_report_digest.json (one sha256 over the report of every strategy's
sweep over the t x n grid in tests/_corpus.py).
Commit the result together with the change that moved the numbers.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from _corpus import (  # noqa: E402
    CORPUS_SAMPLES,
    PER_TRANSITION_READS,
    REPORT_GRID,
    build_pinned_corpus,
    calls_digest,
    per_transition_calls_digest,
    report_digest,
)

from ensembleseed.evaluate import SINGLE_13_VITERBI, evaluate  # noqa: E402

BAND_HALF_WIDTH = 0.03


def main() -> int:
    data_dir = ROOT / "tests" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)

    corpus = build_pinned_corpus()
    print(f"corpus built in {corpus.build_seconds:.0f}s, {len(corpus.windows)} windows")

    row = evaluate(corpus.windows, corpus.index13, SINGLE_13_VITERBI, 1, 1)
    pin = {
        "strategy": row.strategy,
        "k": row.k,
        "tp": row.tp,
        "windows": row.windows,
        "fp": row.fp,
    }
    (data_dir / "pinned_viterbi_row.json").write_text(json.dumps(pin, indent=2) + "\n")
    print(f"pinned viterbi row: {pin}")

    mean = float(corpus.identities.mean())
    band = {
        "lo": round(mean - BAND_HALF_WIDTH, 3),
        "hi": round(mean + BAND_HALF_WIDTH, 3),
        "mean_at_freeze": round(mean, 4),
    }
    (data_dir / "identity_band.json").write_text(json.dumps(band, indent=2) + "\n")
    print(f"identity band: {band}")

    calls = {
        "calls": sum(1 + len(ens.samples) for ens in corpus.ensembles),
        "sha256": calls_digest(corpus.ensembles),
    }
    (data_dir / "pinned_calls_digest.json").write_text(json.dumps(calls, indent=2) + "\n")
    print(f"calls digest: {calls}")

    per_transition = {
        "reads": PER_TRANSITION_READS,
        "n": CORPUS_SAMPLES,
        "sha256": per_transition_calls_digest(corpus),
    }
    (data_dir / "pinned_per_transition_digest.json").write_text(
        json.dumps(per_transition, indent=2) + "\n"
    )
    print(f"per-transition calls digest: {per_transition}")

    report = {"t": REPORT_GRID[0], "n": REPORT_GRID[1], "sha256": report_digest(corpus)}
    (data_dir / "pinned_report_digest.json").write_text(json.dumps(report, indent=2) + "\n")
    print(f"report digest: {report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
