"""K-mer HMM building blocks: Gaussian emissions, transitions, the assembled HMM.

The hidden states are the 4**k k-mers (one per pore context); a read starts
in each with equal probability. An event's mean current is emitted from
a normal distribution whose parameters come from the per-k-mer pore table,
adjusted by read-specific scaling. Transitions shift the k-mer context by
0 bases (split), 1 base (move) or up to ``max_shift`` bases (skips).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .io import atomic_write, jsonl_records, number_array, parse_column, tsv_fields
from .kmers import BASES, decode_kmer, encode_kmer

# Untrained defaults: stay, move, skip-2. Move-dominant to match the intended
# one-base-per-event semantics; training overrides these.
DEFAULT_ORDER_PROBS = (0.1, 0.8, 0.1)


@dataclass(frozen=True)
class ReadScaling:
    """Per-read calibration of the pore table: mean ``scale*mu + shift``, sd ``sigma*var``."""

    scale: float = 1.0
    shift: float = 0.0
    var: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError(f"scale must be positive, got {self.scale}")
        if not (math.isfinite(self.var) and self.var > 0):
            raise ValueError(f"var must be positive, got {self.var}")
        if not math.isfinite(self.shift):
            raise ValueError(f"shift must be finite, got {self.shift}")


class EventSequence:
    """One read's event stream: per-event mean currents plus read scaling."""

    def __init__(self, read_id: str, means, scaling: ReadScaling | None = None):
        if any(c.isspace() for c in read_id):
            raise ValueError(f"read id {read_id!r} holds whitespace")  # FASTA headers split there
        means = np.asarray(means, dtype=np.float64)
        if means.ndim != 1 or means.size < 1:
            raise ValueError(f"read {read_id!r}: need at least one event")
        if not np.all(np.isfinite(means)):
            raise ValueError(f"read {read_id!r}: non-finite event mean")
        self.read_id = read_id
        self.means = means
        self.means.flags.writeable = False
        self.scaling = scaling if scaling is not None else ReadScaling()

    def __len__(self) -> int:
        return self.means.size

    def __repr__(self) -> str:
        return f"EventSequence({self.read_id!r}, {len(self)} events)"


class PoreModel:
    """Per-k-mer Gaussian emission parameters (mean and sd in picoamps)."""

    def __init__(self, k: int, level_mean, level_stdv):
        level_mean = np.asarray(level_mean, dtype=np.float64)
        level_stdv = np.asarray(level_stdv, dtype=np.float64)
        m = 4**k
        if level_mean.shape != (m,) or level_stdv.shape != (m,):
            raise ValueError(f"pore model for k={k} needs exactly {m} rows")
        if not np.all(level_stdv > 0):
            raise ValueError("all level standard deviations must be positive")
        self.k = k
        self.level_mean = level_mean
        self.level_stdv = level_stdv
        for arr in (self.level_mean, self.level_stdv):
            arr.flags.writeable = False


class TransitionModel:
    """Outgoing transition probabilities over k-mer states, organised by shift order.

    ``tables[0]`` has shape (m,) and holds each state's self (split) probability.
    ``tables[j]`` for j >= 1 has shape (m, 4**j); entry [x, b] is the probability
    of leaving state x with a shift of j bases whose j new bases encode to b.
    A per-order model shares one probability per order across all states,
    divided uniformly among the 4**j shift-j targets: each of its tables holds
    a single value, and ``order_probs[j]`` is order j's total.
    """

    def __init__(self, k: int, tables, mode: str):
        if mode not in ("per-order", "per-transition"):
            raise ValueError(f"unknown mode {mode!r}")
        m = 4**k
        tables = [np.asarray(t, dtype=np.float64) for t in tables]
        if len(tables) < 2:
            raise ValueError("need at least split and move orders")
        max_shift = len(tables) - 1
        if max_shift > k:
            raise ValueError(f"max shift {max_shift} exceeds k={k}")
        if tables[0].shape != (m,):
            raise ValueError("split table must have one entry per state")
        for j in range(1, max_shift + 1):
            if tables[j].shape != (m, 4**j):
                raise ValueError(f"order-{j} table must have shape ({m}, {4 ** j})")
        self.k = k
        self.max_shift = max_shift
        self.mode = mode
        self.tables = tables
        for t in self.tables:
            t.flags.writeable = False
        if any(np.any(t < 0) for t in tables):
            raise ValueError("transition probabilities must be >= 0")
        rows = self.row_sums()
        if not np.max(np.abs(rows - 1.0)) <= 1e-9:  # NaN fails too
            worst = int(np.argmax(np.abs(rows - 1.0)))
            raise ValueError(
                f"transition rows must sum to 1; state {worst} sums to {float(rows[worst])!r}"
            )
        self.order_probs = None
        if mode == "per-order":
            for j, t in enumerate(tables):
                if np.any(t != t.flat[0]):
                    raise ValueError(f"per-order model needs one value per order; order {j} varies")
            # 4**j is a power of two, so this undoes per_order's division exactly.
            self.order_probs = np.array([t.flat[0] * 4**j for j, t in enumerate(tables)])

    @classmethod
    def per_order(cls, k: int, order_probs=DEFAULT_ORDER_PROBS) -> "TransitionModel":
        """Shared per-order model: order j's total probability split over 4**j targets."""
        probs = np.asarray(order_probs, dtype=np.float64)
        if probs.ndim != 1 or probs.size < 2:
            raise ValueError("order_probs must list stay, move, and any skip orders")
        if not (np.all(probs >= 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise ValueError(f"order probabilities must be >= 0 and sum to 1, got {probs}")
        m = 4**k
        tables = [np.full(m, probs[0])]
        for j in range(1, probs.size):
            tables.append(np.full((m, 4**j), probs[j] / 4**j))
        return cls(k, tables, mode="per-order")

    def row_sums(self) -> np.ndarray:
        total = self.tables[0].copy()
        for j in range(1, self.max_shift + 1):
            total += self.tables[j].sum(axis=1)
        return total


@dataclass(frozen=True)
class Hmm:
    """The assembled model over the 4**k k-mer states: emission table and transitions."""

    pore: PoreModel
    transitions: TransitionModel

    def __post_init__(self):
        if self.pore.k != self.transitions.k:
            raise ValueError(
                f"inconsistent k: pore={self.pore.k}, transitions={self.transitions.k}"
            )

    @property
    def k(self) -> int:
        return self.pore.k

    @property
    def num_states(self) -> int:
        return 4**self.k

    def levels(self, scaling: ReadScaling, states=slice(None)) -> tuple[np.ndarray, np.ndarray]:
        """Emission mean and sd of ``states`` (by default every state) under a read's scaling."""
        loc = scaling.scale * self.pore.level_mean[states] + scaling.shift
        return loc, self.pore.level_stdv[states] * scaling.var


def make_hmm(pore: PoreModel, transitions: TransitionModel | None = None) -> Hmm:
    if transitions is None:
        transitions = TransitionModel.per_order(pore.k)
    return Hmm(pore, transitions)


# ---------------------------------------------------------------------------
# File formats

PORE_MODEL_HEADER = ["kmer", "mu", "sigma"]
EVENT_FIELDS = {"read_id": str, "scale": float, "shift": float, "var": float, "events": list}


def write_pore_model(path, pore: PoreModel) -> None:
    with atomic_write(path) as fh:
        fh.write("\t".join(PORE_MODEL_HEADER) + "\n")
        for code in range(4**pore.k):
            kmer = decode_kmer(code, pore.k)
            fh.write(f"{kmer}\t{pore.level_mean[code]:.17g}\t{pore.level_stdv[code]:.17g}\n")


def load_pore_model(path) -> PoreModel:
    """Read a ``kmer<TAB>mu<TAB>sigma`` table covering all 4**k k-mers, in any order."""
    linenos, (kmers, mu, sigma) = tsv_fields(path, PORE_MODEL_HEADER)
    mu = parse_column(float, mu, "mu", path, linenos)
    sigma = parse_column(float, sigma, "sigma", path, linenos)
    if not kmers:
        raise ValueError(f"{path}: empty pore model")
    k = len(kmers[0])  # the first row sets k
    seen: set[str] = set()
    alphabet = set(BASES)
    for lineno, kmer, sd in zip(linenos, kmers, sigma):
        if not kmer or len(kmer) != k or not set(kmer) <= alphabet:
            raise ValueError(f"{path}:{lineno}: expected a {k}-mer over {BASES}, got {kmer!r}")
        if not sd > 0:
            raise ValueError(f"{path}:{lineno}: sigma must be positive")
        if kmer in seen:
            raise ValueError(f"{path}:{lineno}: duplicate k-mer {kmer}")
        seen.add(kmer)
    if len(seen) != 4**k:
        raise ValueError(f"{path}: {len(seen)} k-mers, a {k}-mer pore model needs {4**k}")
    # Every row is a distinct k-mer and all 4**k are there, so each code is set once.
    codes = [encode_kmer(kmer) for kmer in kmers]
    mean, stdv = np.empty(4**k), np.empty(4**k)
    mean[codes], stdv[codes] = mu, sigma
    return PoreModel(k, mean, stdv)


def write_events(path, reads: list[EventSequence]) -> None:
    with atomic_write(path) as fh:
        for read in reads:
            record = {
                "read_id": read.read_id,
                "scale": read.scaling.scale,
                "shift": read.scaling.shift,
                "var": read.scaling.var,
                "events": [float(x) for x in read.means],
            }
            fh.write(json.dumps(record) + "\n")


def load_events(path) -> list[EventSequence]:
    """Read one event sequence per JSON line."""
    reads = []
    seen: set[str] = set()
    for where, rec in jsonl_records(path, EVENT_FIELDS):
        if rec["read_id"] in seen:
            raise ValueError(f"{where}: duplicate read id {rec['read_id']!r}")
        seen.add(rec["read_id"])
        means = number_array(rec["events"], "if", "events", where)
        try:
            scaling = ReadScaling(scale=rec["scale"], shift=rec["shift"], var=rec["var"])
            reads.append(EventSequence(rec["read_id"], means, scaling))
        except ValueError as exc:
            raise ValueError(f"{where}: bad event record: {exc}") from None
    return reads
