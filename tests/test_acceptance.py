"""End-to-end acceptance checks, one test per criterion.

Each test prints a single pass/fail line through record_criterion, so the
suite's terminal summary reads as a checklist. Pinned values live under
tests/data/ and must stay byte-for-byte stable across runs.
"""

import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from _corpus import (
    CORPUS_SAMPLES,
    PER_TRANSITION_READS,
    REPORT_GRID,
    calls_digest,
    per_transition_calls_digest,
    report_digest,
)
from _oracles import (
    Hit,
    aggregate_prob,
    as_hits,
    chain_triples,
    hit_rows,
    index_entries,
    normal_pdf,
    path_index,
)
from conftest import record_criterion
from ensembleseed import forward, make_hmm, path_to_sequence, sample_paths, viterbi
from ensembleseed.cli import main as cli_main
from ensembleseed.evaluate import (
    CHAIN_10,
    SINGLE_13,
    SINGLE_13_VITERBI,
    evaluate,
    greedy_dedup,
    is_valid_hit,
    sweep,
    window_points,
)
from ensembleseed.kmers import decode_kmer, encode_kmer, reverse_complement
from ensembleseed.pore_model import EventSequence, PoreModel, TransitionModel
from ensembleseed.seeding import build_index, collect_ensemble_kmers, find_hits
from ensembleseed.simulate import simulate_corpus, synthetic_pore_model
from ensembleseed.train import count_transitions, estimate_transitions

DATA_DIR = Path(__file__).parent / "data"

N_INSTANCES = 20
N_EVENTS = 5
N_DRAWS = 100_000


def k1_instances():
    """The fixed list of random k=1 instances shared by criteria 1-3."""
    instances = []
    for seed in range(N_INSTANCES):
        rng = np.random.default_rng(1000 + seed)
        pore = PoreModel(
            k=1,
            level_mean=rng.normal(100.0, 14.0, 4),
            level_stdv=rng.uniform(1.5, 2.5, 4),
        )
        raw = rng.uniform(0.2, 1.0, 2)
        order_probs = tuple(raw / raw.sum())
        hmm = make_hmm(pore, TransitionModel.per_order(1, order_probs))
        means = rng.normal(100.0, 14.0, N_EVENTS)
        events = EventSequence(f"acc{seed}", means)
        instances.append((hmm, events, order_probs))
    return instances


def enumerate_k1_joints(hmm, events, order_probs):
    """Joint probability of all 4**n_events paths, by explicit enumeration."""
    joints = np.empty(4**N_EVENTS)
    for idx, states in enumerate(itertools.product(range(4), repeat=N_EVENTS)):
        p = 0.25
        for i, s in enumerate(states):
            if i > 0:
                p *= aggregate_prob(states[i - 1], s, 1, order_probs)
            p *= normal_pdf(events.means[i], hmm.pore.level_mean[s], hmm.pore.level_stdv[s])
        joints[idx] = p
    return joints


@pytest.fixture(scope="module")
def oracle_instances():
    instances = k1_instances()
    return [(h, e, o, enumerate_k1_joints(h, e, o)) for h, e, o in instances]


def test_criterion_01_sampler_exactness(oracle_instances):
    t0 = time.perf_counter()
    powers = 4 ** np.arange(N_EVENTS - 1, -1, -1)
    worst = 0.0
    for idx, (hmm, events, _, joints) in enumerate(oracle_instances):
        fwd = forward(hmm, events)
        posterior = joints / joints.sum()
        samples = sample_paths(hmm, events, fwd, N_DRAWS, seed=2000 + idx)
        drawn = samples @ powers
        assert int(drawn[0]) == path_index(samples[0], 4)
        counts = np.bincount(drawn, minlength=posterior.size)
        tv = 0.5 * np.abs(counts / N_DRAWS - posterior).sum()
        worst = max(worst, tv)
    elapsed = time.perf_counter() - t0
    ok = worst < 0.02 and elapsed < 30.0
    record_criterion(
        "criterion 1",
        ok,
        f"sampler TV vs exact posterior: worst {worst:.4f} over {N_INSTANCES} "
        f"instances x {N_DRAWS} draws (limit 0.02) in {elapsed:.1f}s (limit 30s)",
    )
    assert worst < 0.02
    assert elapsed < 30.0


def test_criterion_02_viterbi_exactness(oracle_instances):
    worst_gap = 0.0
    all_match = True
    for hmm, events, _, joints in oracle_instances:
        got = viterbi(hmm, events)
        best_idx = int(np.argmax(joints))
        want = [(best_idx >> (2 * (N_EVENTS - 1 - i))) & 3 for i in range(N_EVENTS)]
        all_match &= list(got.states) == want
        worst_gap = max(worst_gap, abs(got.log_joint - np.log(joints[best_idx])))
    ok = all_match and worst_gap < 1e-9
    record_criterion(
        "criterion 2",
        ok,
        f"viterbi equals exhaustive argmax on {N_INSTANCES} instances; "
        f"worst log-prob gap {worst_gap:.2e} (limit 1e-9)",
    )
    assert all_match
    assert worst_gap < 1e-9


def test_criterion_03_forward_exactness(oracle_instances):
    worst_rel = 0.0
    worst_col = 0.0
    for hmm, events, _, joints in oracle_instances:
        fwd = forward(hmm, events)
        want = np.log(joints.sum())
        worst_rel = max(worst_rel, abs(fwd.log_likelihood - want) / abs(want))
        worst_col = max(worst_col, float(np.abs(fwd.columns.sum(axis=1) - 1.0).max()))
    ok = worst_rel < 1e-9 and worst_col < 1e-9
    record_criterion(
        "criterion 3",
        ok,
        f"forward log-likelihood rel err {worst_rel:.2e} (limit 1e-9); "
        f"worst column-sum deviation {worst_col:.2e} (limit 1e-9)",
    )
    assert worst_rel < 1e-9
    assert worst_col < 1e-9


def test_criterion_04_sequence_translation():
    path = np.array([encode_kmer("ACTCTC"), encode_kmer("CTCTCA")])
    got = path_to_sequence(path, 6).sequence
    ok = got == "ACTCTCA"
    record_criterion(
        "criterion 4",
        ok,
        f"two-state 6-mer path translates to {got!r} (want 'ACTCTCA')",
    )
    assert got == "ACTCTCA"


def test_criterion_05_training_round_trip():
    generating = (0.1, 0.8, 0.1)
    hmm = make_hmm(
        synthetic_pore_model(5, seed=314), TransitionModel.per_order(5, generating)
    )
    _, reads = simulate_corpus(
        hmm, reference_length=20_000, read_count=70, events_per_read=1500, seed=314
    )
    counts = count_transitions([r.true_path for r in reads], 5, max_shift=2)
    total = counts.total
    model = estimate_transitions(counts, "per-order", pseudocount=1)
    err = float(np.abs(np.asarray(model.order_probs) - generating).max())

    toy = estimate_transitions(
        count_transitions([[0, 1]] * 3, 1, max_shift=1), "per-transition", pseudocount=1
    )
    edge = float(toy.tables[1][0, 1])
    ok = total >= 100_000 and err <= 0.02 and edge == 4 / 8
    record_criterion(
        "criterion 5",
        ok,
        f"recovered order probabilities within {err:.4f} of (0.1, 0.8, 0.1) from "
        f"{total} transitions (limit 0.02); A->C smoothing example = {edge} (want 0.5)",
    )
    assert total >= 100_000
    assert err <= 0.02
    assert edge == 4 / 8


def test_criterion_06_seeding_oracles():
    from ensembleseed.simulate import generate_reference

    ref = generate_reference(4000, seed=2718)
    scan_ok = True
    for k in (10, 13):
        index = build_index(ref, k)
        naive: dict[str, list[tuple[int, str]]] = {}
        for i in range(len(ref) - k + 1):
            naive.setdefault(ref[i : i + k], []).append((i, "+"))
        rc = reverse_complement(ref)
        for j in range(len(rc) - k + 1):
            naive.setdefault(rc[j : j + k], []).append((len(ref) - j - k, "-"))
        for entries in naive.values():
            entries.sort()
        scan_ok &= naive == {decode_kmer(code, k): v for code, v in index_entries(index).items()}

    rng = np.random.default_rng(2718)
    from ensembleseed.seeding import chain_hits

    chain_ok = True
    hits = list(
        {
            Hit(
                int(rng.integers(0, 130)),
                int(rng.integers(0, 320)),
                "+" if rng.random() < 0.5 else "-",
            )
            for _ in range(200)
        }
    )
    got = {
        (c.query_col, c.ref_pos, c.strand)
        for c in as_hits(chain_hits(hit_rows(hits), length=3, min_gap=10, max_gap=50))
    }
    want = {
        (t[0].query_col, t[0].ref_pos, t[0].strand)
        for t in chain_triples(hits, 10, 50)
    }
    chain_ok &= got == want

    kept = greedy_dedup(np.array([(0, 0), (5, 5), (20, 20)]), radius=10)
    dedup_ok = kept.tolist() == [[0, 0], [20, 20]]
    dedup_ok &= len(greedy_dedup(np.array([(0, 0), (5, 500)]), radius=10)) == 2
    dedup_ok &= greedy_dedup(np.empty((0, 3), dtype=np.int64), radius=10).tolist() == []

    ok = scan_ok and chain_ok and dedup_ok
    record_criterion(
        "criterion 6",
        ok,
        f"index vs naive scan: {scan_ok}; chains vs triple enumeration on "
        f"{len(hits)} hits: {chain_ok}; dedup hand cases: {dedup_ok}",
    )
    assert scan_ok
    assert chain_ok
    assert dedup_ok


def test_criterion_07_sensitivity_grows_with_n(pinned_corpus):
    t0 = time.perf_counter()
    base = evaluate(pinned_corpus.windows, pinned_corpus.index13, SINGLE_13_VITERBI, 1, 1)
    rows = sweep(
        pinned_corpus.windows, pinned_corpus.index13, [SINGLE_13], [1], list(range(1, 17))
    )
    elapsed = time.perf_counter() - t0 + pinned_corpus.build_seconds
    mono = all(a.sn <= b.sn for a, b in zip(rows, rows[1:]))
    n8 = next(r for r in rows if r.n == 8)
    gap = n8.sn - base.sn
    ok = mono and gap >= 0.005 and elapsed < 300.0
    record_criterion(
        "criterion 7",
        ok,
        f"single-13 Sn non-decreasing in n: {mono}; Sn(t=1,n=8)={n8.sn:.4f} vs "
        f"viterbi {base.sn:.4f}, gap {gap:+.4f} (need >= +0.005); {elapsed:.0f}s "
        f"including corpus build (limit 300s)",
    )
    assert mono
    assert gap >= 0.005
    assert elapsed < 300.0


def test_criterion_08_chaining_cuts_fp(pinned_corpus):
    t0 = time.perf_counter()
    base = evaluate(pinned_corpus.windows, pinned_corpus.index13, SINGLE_13_VITERBI, 1, 1)
    grid = sweep(
        pinned_corpus.windows,
        pinned_corpus.index10,
        [CHAIN_10],
        [1, 2],
        [1, 2, 4, 8, 12, 16],
    )
    elapsed = time.perf_counter() - t0
    matching = [r for r in grid if r.sn >= base.sn - 0.01]
    best = min(matching, key=lambda r: r.fp) if matching else None
    limit = 0.10 * base.fp
    ok = best is not None and best.fp <= limit and elapsed < 300.0
    detail = (
        f"no chain point within 0.01 of single-13 viterbi Sn {base.sn:.4f}"
        if best is None
        else (
            f"chain t={best.t} n={best.n}: Sn {best.sn:.4f} matches viterbi "
            f"{base.sn:.4f}; FP {best.fp} <= 10% of single-seed FP {base.fp} "
            f"({limit:.0f}): {best.fp <= limit}"
        )
    )
    record_criterion("criterion 8", ok, f"{detail}; {elapsed:.0f}s (limit 300s)")
    assert best is not None
    assert best.fp <= limit
    assert elapsed < 300.0


def test_criterion_09_monotone_and_reproducible(pinned_corpus, tmp_path):
    nest_ok = True
    for window in pinned_corpus.windows[:60]:
        kmers = collect_ensemble_kmers(window.samples[:8], 10)
        previous = None
        for t in (1, 2, 3):
            kept = kmers.kept(t, 8)
            if previous is not None:
                nest_ok &= not (kept & ~previous).any()
            previous = kept

    dedup_ok = True
    for window in pinned_corpus.windows[:60]:
        points = window_points(window, pinned_corpus.index13, SINGLE_13, [(1, 8)])
        invalid = points[~is_valid_hit(points, window.truth)]
        dedup_ok &= len(greedy_dedup(invalid)) <= len(invalid)

    reports = []
    for run in ("one", "two"):
        out = tmp_path / run
        sim = out / "sim"
        calls = out / "calls"
        ev = out / "eval"
        rc = cli_main(
            ["simulate", "--model-k", "3", "--ref-length", "4000", "--reads", "4",
             "--events-per-read", "120", "--seed", "17", "--out-dir", str(sim)]
        )
        rc |= cli_main(
            ["basecall", "--events", str(sim / "events.jsonl"),
             "--pore-model", str(sim / "pore_model.tsv"), "--n", "4", "--seed", "23",
             "--out-dir", str(calls)]
        )
        rc |= cli_main(
            ["eval", "--reference", str(sim / "reference.fasta"),
             "--basecalls", str(calls / "basecalls.fasta"),
             "--spans", str(calls / "spans.jsonl"), "--truth", str(sim / "truth.tsv"),
             "--true-paths", str(sim / "true_paths.jsonl"), "--window", "60",
             "--seed-k", "8", "--t", "1,2", "--n", "1,4", "--out-dir", str(ev)]
        )
        assert rc == 0
        reports.append((ev / "report.tsv").read_bytes())
    repro_ok = reports[0] == reports[1]

    ok = nest_ok and dedup_ok and repro_ok
    record_criterion(
        "criterion 9",
        ok,
        f"ensemble k-mer nesting over t: {nest_ok}; deduped FP <= raw invalid: "
        f"{dedup_ok}; byte-identical reports across two runs: {repro_ok}",
    )
    assert nest_ok
    assert dedup_ok
    assert repro_ok


def test_identity_corridor(pinned_corpus):
    """Simulator defaults keep mean Viterbi identity inside the frozen band.

    The band is pinned well inside [0.65, 0.95]: hard enough that ensembles
    have windows to recover, easy enough that seeds still land.
    """
    band_path = DATA_DIR / "identity_band.json"
    assert band_path.exists(), (
        "identity_band.json is missing; regenerate it with tools/freeze_pins.py"
    )
    band = json.loads(band_path.read_text())
    assert 0.65 <= band["lo"] < band["hi"] <= 0.95
    mean = float(pinned_corpus.identities.mean())
    assert band["lo"] <= mean <= band["hi"]


def test_pinned_calls_digest(pinned_corpus):
    """Every Viterbi and sample call of the pinned corpus, bases and lengths, is frozen."""
    pin = json.loads((DATA_DIR / "pinned_calls_digest.json").read_text())
    got = {
        "calls": sum(1 + len(ens.samples) for ens in pinned_corpus.ensembles),
        "sha256": calls_digest(pinned_corpus.ensembles),
    }
    assert got == pin


def test_pinned_per_transition_calls_digest(pinned_corpus):
    """The first reads' calls under a per-transition model trained from the true
    paths, which takes the kernels' per-transition steps, are frozen."""
    pin = json.loads((DATA_DIR / "pinned_per_transition_digest.json").read_text())
    got = {
        "reads": PER_TRANSITION_READS,
        "n": CORPUS_SAMPLES,
        "sha256": per_transition_calls_digest(pinned_corpus),
    }
    assert got == pin


def test_pinned_report_digest(pinned_corpus):
    """Every strategy's report over the pinned grid is frozen byte for byte."""
    pin = json.loads((DATA_DIR / "pinned_report_digest.json").read_text())
    got = {"t": REPORT_GRID[0], "n": REPORT_GRID[1], "sha256": report_digest(pinned_corpus)}
    assert got == pin


def test_criterion_10_regression_pin(pinned_corpus):
    pin_path = DATA_DIR / "pinned_viterbi_row.json"
    assert pin_path.exists(), (
        "pinned_viterbi_row.json is missing; regenerate it with "
        "tools/freeze_pins.py before shipping"
    )
    pin = json.loads(pin_path.read_text())
    row = evaluate(pinned_corpus.windows, pinned_corpus.index13, SINGLE_13_VITERBI, 1, 1)
    got = {"strategy": row.strategy, "k": row.k, "tp": row.tp,
           "windows": row.windows, "fp": row.fp}
    ok = got == pin
    record_criterion(
        "criterion 10",
        ok,
        f"pinned viterbi row: got TP={row.tp}/{row.windows} FP={row.fp}, "
        f"pin TP={pin['tp']}/{pin['windows']} FP={pin['fp']}",
    )
    assert got == pin
