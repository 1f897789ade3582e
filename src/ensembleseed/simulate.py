"""Synthetic references, pore tables, and model-generated reads with ground truth.

A read is a walk along the reference: each step draws a shift order from the
transition model, advances that many bases (re-emitting in place on a split),
and emits one event mean from the state's scaled gaussian. Reverse-strand
reads walk the reverse complement and map their span back to forward
coordinates.

A walk is only accepted if translating its state path back through the
shortest-interpretation rule reproduces the consumed reference span exactly.
Rare walks through near-periodic sequence (for example a skip inside a
homopolymer) read back shorter than what they consumed; resampling the read
keeps the ground-truth invariant exact instead of approximately true.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .decode import StatePath, path_log_joint, path_to_sequence
from .io import atomic_write, jsonl_records, number_array, tsv_rows
from .kmers import BASES, STRANDS, kmer_codes, reverse_complement
from .pore_model import EventSequence, Hmm, PoreModel, ReadScaling
from .shifts import edge_table

DEFAULT_REFERENCE_LENGTH = 100_000
DEFAULT_READ_COUNT = 200
DEFAULT_EVENTS_PER_READ = 1500
# Per-read calibration jitter. Read quality is a two-component mixture: most
# reads draw their noise factor near 1, while a fixed fraction is degraded,
# giving the corpus the usual tail of low-quality reads.
SCALE_JITTER = (0.95, 1.05)
SHIFT_JITTER = (-3.0, 3.0)
VAR_JITTER = (0.9, 1.1)
DEGRADED_FRACTION = 0.15
DEGRADED_VAR = (1.6, 2.0)
DEFAULT_CORPUS_SEED = 20260817
# Synthetic pore tables: gaussian levels around LEVEL_CENTER, noise widths
# uniform in STDV_RANGE. They overlap enough that decoding is hard but not
# hopeless at desk scale.
LEVEL_CENTER = 100.0
LEVEL_SPREAD = 16.0
STDV_RANGE = (2.0, 3.5)
# The reference's FASTA name, and the contig of every truth row.
CONTIG = "ref"

_MAX_WALK_RETRIES = 200


@dataclass
class SimulatedRead:
    """One simulated read with its generating path and reference interval."""

    events: EventSequence
    true_path: StatePath
    truth: tuple[str, int, int, str]
    true_sequence: str

    @property
    def read_id(self) -> str:
        return self.events.read_id


def generate_reference(length: int, seed) -> str:
    """Uniform i.i.d. DNA string, deterministic per seed."""
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 4, size=length)
    lookup = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)
    return lookup[codes].tobytes().decode("ascii")


def synthetic_pore_model(k: int, seed) -> PoreModel:
    """Random pore table: i.i.d. gaussian levels, uniform per-state noise widths."""
    rng = np.random.default_rng(seed)
    m = 4**k
    level_mean = rng.normal(LEVEL_CENTER, LEVEL_SPREAD, size=m)
    level_stdv = rng.uniform(STDV_RANGE[0], STDV_RANGE[1], size=m)
    return PoreModel(k=k, level_mean=level_mean, level_stdv=level_stdv)


@lru_cache(maxsize=2)
def _walk_codes(reference: str, strand: str, k: int) -> tuple[str, np.ndarray]:
    """One strand's walk sequence and its read-only k-mer codes, built once per corpus."""
    walk_seq = reference if strand == "+" else reverse_complement(reference)
    codes = kmer_codes(walk_seq, k)
    if np.any(codes < 0):
        raise ValueError("reference must contain only ACGT for simulation")
    codes.flags.writeable = False
    return walk_seq, codes


def simulate_read(
    hmm: Hmm,
    reference: str,
    read_len_events: int,
    strand: str,
    seed,
    *,
    read_id: str = "read0",
) -> SimulatedRead:
    """Simulate one read of ``read_len_events`` events from a uniform start.

    ``seed`` may be an int or a numpy Generator. The read's scaling is a mild
    jitter drawn from the same stream.
    """
    if strand not in STRANDS:
        raise ValueError(f"strand must be one of {STRANDS}, got {strand!r}")
    if read_len_events < 1:
        raise ValueError(f"need at least one event, got {read_len_events}")
    k = hmm.k
    trans = hmm.transitions
    max_shift = trans.max_shift
    L = len(reference)
    if L < k:
        raise ValueError(f"reference of length {L} cannot hold a {k}-mer")

    walk_seq, codes = _walk_codes(reference, strand, k)

    rng = np.random.default_rng(seed)
    var_range = DEGRADED_VAR if rng.random() < DEGRADED_FRACTION else VAR_JITTER
    scaling = ReadScaling(
        scale=rng.uniform(*SCALE_JITTER),
        shift=rng.uniform(*SHIFT_JITTER),
        var=rng.uniform(*var_range),
    )

    per_order = trans.mode == "per-order"
    if per_order:
        order_probs = np.asarray(trans.order_probs)
    else:
        # (m, max_shift + 1) total outgoing probability of each state per order
        masses = np.stack(
            [edge_table(trans.tables, j).sum(axis=1) for j in range(max_shift + 1)], axis=1
        )

    overran = 0
    for _ in range(_MAX_WALK_RETRIES):
        start = int(rng.integers(0, L - k + 1))
        if per_order:
            orders = rng.choice(max_shift + 1, size=read_len_events - 1, p=order_probs)
            offsets = np.concatenate([[0], np.cumsum(orders)])
            if start + k + int(offsets[-1]) > L:
                overran += 1
                continue
            states = codes[start + offsets]
        else:
            states = np.empty(read_len_events, dtype=np.int64)
            states[0] = codes[start]
            pos, overrun = start, False
            for i in range(1, read_len_events):
                j = int(rng.choice(max_shift + 1, p=masses[states[i - 1]]))
                pos += j
                if pos + k > L:
                    overrun = True
                    break
                states[i] = codes[pos]
            if overrun:
                overran += 1
                continue

        call = path_to_sequence(states, k, max_shift)
        consumed = walk_seq[start : start + len(call.sequence)]
        if call.sequence != consumed:
            continue

        means = rng.normal(*hmm.levels(scaling, states))
        events = EventSequence(read_id=read_id, means=means, scaling=scaling)
        path = StatePath(states=states, log_joint=path_log_joint(hmm, events, states))

        span = len(call.sequence)
        if strand == "+":
            truth = (CONTIG, start, start + span, "+")
        else:
            truth = (CONTIG, L - start - span, L - start, "-")
        return SimulatedRead(
            events=events, true_path=path, truth=truth, true_sequence=call.sequence
        )
    raise RuntimeError(
        f"no accepted walk for {read_id} after {_MAX_WALK_RETRIES} tries: {overran} overran "
        f"the {L} bp reference, {_MAX_WALK_RETRIES - overran} read back shorter than they walked"
    )


def simulate_corpus(
    hmm: Hmm,
    *,
    reference_length: int = DEFAULT_REFERENCE_LENGTH,
    read_count: int = DEFAULT_READ_COUNT,
    events_per_read: int = DEFAULT_EVENTS_PER_READ,
    seed: int = DEFAULT_CORPUS_SEED,
) -> tuple[str, list[SimulatedRead]]:
    """Reference plus independently simulated reads, random strand each.

    Reads get dedicated RNG streams spawned from ``seed`` in read order, so the
    corpus is reproducible for a fixed seed.
    """
    if read_count < 0:
        raise ValueError(f"read count must be >= 0, got {read_count}")
    streams = np.random.SeedSequence(seed).spawn(read_count + 1)
    reference = generate_reference(reference_length, streams[0])
    reads = []
    for i in range(read_count):
        rng = np.random.default_rng(streams[i + 1])
        strand = STRANDS[int(rng.random() < 0.5)]
        reads.append(
            simulate_read(hmm, reference, events_per_read, strand, rng, read_id=f"read{i:04d}")
        )
    return reference, reads


# ---------------------------------------------------------------------------
# Truth files. Intervals go to a BED-like TSV; generating paths to JSON lines
# so training and evaluation can reuse them without re-deriving anything.

TRUTH_HEADER = ["contig", "start", "end", "strand", "read_id"]
TRUE_PATH_FIELDS = {"read_id": str, "states": list, "log_joint": float}


def write_truth(path, reads: list[SimulatedRead]) -> None:
    with atomic_write(path) as fh:
        fh.write("\t".join(TRUTH_HEADER) + "\n")
        for read in reads:
            contig, start, end, strand = read.truth
            fh.write(f"{contig}\t{start}\t{end}\t{strand}\t{read.read_id}\n")


def load_truth(path) -> dict[str, tuple[str, int, int, str]]:
    """Truth intervals keyed by read id."""
    out: dict[str, tuple[str, int, int, str]] = {}
    types = (str, int, int, str, str)
    for where, (contig, start, end, strand, read_id) in tsv_rows(path, TRUTH_HEADER, types):
        if strand not in STRANDS:
            raise ValueError(f"{where}: bad strand {strand!r}")
        if not 0 <= start < end:
            raise ValueError(f"{where}: interval [{start}, {end}) is empty or negative")
        if read_id in out:
            raise ValueError(f"{where}: duplicate read id {read_id!r}")
        out[read_id] = (contig, start, end, strand)
    return out


def write_true_paths(path, reads: list[SimulatedRead]) -> None:
    with atomic_write(path) as fh:
        for read in reads:
            fh.write(
                json.dumps(
                    {
                        "read_id": read.read_id,
                        "states": read.true_path.states.tolist(),
                        "log_joint": read.true_path.log_joint,
                    }
                )
                + "\n"
            )


def load_true_paths(path) -> dict[str, StatePath]:
    out: dict[str, StatePath] = {}
    for where, rec in jsonl_records(path, TRUE_PATH_FIELDS):
        if rec["read_id"] in out:
            raise ValueError(f"{where}: duplicate read id {rec['read_id']!r}")
        states = number_array(rec["states"], "i", "states", where)
        out[rec["read_id"]] = StatePath(states=states, log_joint=rec["log_joint"])
    return out
