"""Construction of the fixed-seed evaluation corpus.

Shared between the session fixture in conftest.py and tools/freeze_pins.py so
the pinned regression values are generated by exactly the code the tests run.
"""

import hashlib
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ensembleseed import call_read, make_hmm
from ensembleseed.evaluate import (
    CHAIN_10,
    LABELS,
    SINGLE_13,
    build_windows,
    sweep,
    write_report,
)
from ensembleseed.seeding import build_index
from ensembleseed.simulate import (
    DEFAULT_CORPUS_SEED,
    simulate_corpus,
    synthetic_pore_model,
)
from ensembleseed.train import count_transitions, estimate_transitions

CORPUS_K = 5
CORPUS_SAMPLES = 16
REPORT_STRATEGIES = (SINGLE_13, CHAIN_10)
REPORT_GRID = ([1, 2], [1, 2, 4, 8, 12, 16])
PER_TRANSITION_READS = 8


def levenshtein(a: str, b: str) -> int:
    if not a or not b:
        return max(len(a), len(b))
    ca = np.frombuffer(a.encode("ascii"), dtype=np.uint8)
    cb = np.frombuffer(b.encode("ascii"), dtype=np.uint8)
    idx = np.arange(cb.size + 1)
    cur = idx.copy()
    for i in range(ca.size):
        prev = cur
        cur = np.empty_like(prev)
        cur[0] = i + 1
        np.minimum(prev[:-1] + (cb != ca[i]), prev[1:] + 1, out=cur[1:])
        # close insertions: cur[j] = min over i <= j of cur[i] + (j - i)
        np.minimum(cur, idx + np.minimum.accumulate(cur - idx), out=cur)
    return int(cur[-1])


def alignment_identity(a: str, b: str) -> float:
    """1 - edit distance over the longer length; empty vs empty is 1.0."""
    longer = max(len(a), len(b))
    if longer == 0:
        return 1.0
    return 1.0 - levenshtein(a, b) / longer


def calls_digest(ensembles) -> str:
    """sha256 over every call's read id, sequence and per-event lengths, in file order."""
    digest = hashlib.sha256()
    for ens in ensembles:
        for call in [ens.viterbi, *ens.samples]:
            digest.update(f"{ens.read_id}\t{call.sequence}\t".encode("ascii"))
            digest.update(call.lengths.tobytes() + b"\n")
    return digest.hexdigest()


def report_digest(corpus) -> str:
    """sha256 of the ``write_report`` bytes of every strategy swept over REPORT_GRID.

    Like ``eval``, each index is swept once with the strategies that share it, and the
    rows, each strategy's and its Viterbi rows, are put back in ``LABELS`` order.
    """
    rows = []
    for index in (corpus.index13, corpus.index10):
        configs = [c for c in REPORT_STRATEGIES if c.seed_k == index.k]
        rows += sweep(corpus.windows, index, configs, *REPORT_GRID)
    rows.sort(key=lambda row: LABELS.index(row.strategy))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.tsv"
        write_report(path, rows)
        return hashlib.sha256(path.read_bytes()).hexdigest()


def viterbi_row(corpus):
    """The single-13 Viterbi baseline: the ``single-kmer-viterbi`` row of a ``[SINGLE_13]``
    sweep at n = 0, a grid that scores the Viterbi point alone."""
    row = sweep(corpus.windows, corpus.index13, [SINGLE_13], [1], [0])[1]
    assert row.strategy == "single-kmer-viterbi"
    return row


def per_transition_calls_digest(corpus) -> str:
    """``calls_digest`` of the first PER_TRANSITION_READS reads called at CORPUS_SAMPLES
    under a per-transition model trained from the corpus's true paths.

    The reads' samples come from per-read children of the corpus seed plus 2.
    """
    counts = count_transitions([read.true_path for read in corpus.reads], CORPUS_K)
    hmm = make_hmm(corpus.hmm.pore, estimate_transitions(counts, "per-transition"))
    reads = corpus.reads[:PER_TRANSITION_READS]
    seeds = np.random.SeedSequence(DEFAULT_CORPUS_SEED + 2).spawn(len(reads))
    ensembles = [
        call_read(hmm, read.events, CORPUS_SAMPLES, seed) for read, seed in zip(reads, seeds)
    ]
    return calls_digest(ensembles)


def build_pinned_corpus() -> SimpleNamespace:
    """Simulate the default corpus and base-call every read.

    Everything downstream is deterministic: the reference and reads come from
    the default corpus seed, and each read's posterior samples come from a
    per-read child of the corpus seed's successor. Consumers that need fewer
    than CORPUS_SAMPLES rows take a prefix, so sample sets nest across n.
    """
    t0 = time.perf_counter()
    pore = synthetic_pore_model(CORPUS_K, seed=DEFAULT_CORPUS_SEED)
    hmm = make_hmm(pore)
    reference, reads = simulate_corpus(hmm)

    seeds = np.random.SeedSequence(DEFAULT_CORPUS_SEED + 1).spawn(len(reads))
    ensembles = [
        call_read(hmm, read.events, CORPUS_SAMPLES, seed) for read, seed in zip(reads, seeds)
    ]

    identities = np.array(
        [
            alignment_identity(e.viterbi.sequence, r.true_sequence)
            for e, r in zip(ensembles, reads)
        ]
    )

    windows = []
    for read, ens in zip(reads, ensembles):
        windows += build_windows(ens, read.truth, read.true_path, CORPUS_K)

    return SimpleNamespace(
        hmm=hmm,
        reference=reference,
        reads=reads,
        ensembles=ensembles,
        identities=identities,
        windows=windows,
        index13=build_index(reference, 13),
        index10=build_index(reference, 10),
        build_seconds=time.perf_counter() - t0,
    )
