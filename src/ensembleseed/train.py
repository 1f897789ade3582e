"""Transition-probability estimation from observed state paths.

Counting adds each consecutive state pair to per-order count tables laid out
like ``TransitionModel.tables``, on the smallest order that links the pair.
Estimation chooses the mode: a per-transition model smooths each edge with a
pseudocount and normalizes per source state, and a per-order model pools each
order's table into one count before the same smoothing applies, so both modes
agree on the zero-data limit (uniform over a state's out-edges).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decode import IllegalPathError, StatePath, path_to_sequence
from .io import atomic_write, parse_column, parse_field, tsv_fields, tsv_rows
from .kmers import decode_kmer
from .pore_model import TransitionModel
from .shifts import distinct_pairs, edge_table, gained, pair_probs, smallest_orders

MODES = ("per-order", "per-transition")


def _zero_tables(k: int, max_shift: int) -> list[np.ndarray]:
    """Zeroed tables shaped like ``TransitionModel.tables``, max shift checked before allocating."""
    if not 1 <= max_shift <= k:
        raise ValueError(f"max_shift must be in [1, k], got {max_shift}")
    m = 4**k
    return [np.zeros(m)] + [np.zeros((m, 4**j)) for j in range(1, max_shift + 1)]


def _add_pairs(tables, src, tgt, orders, mass) -> None:
    """Add each (src, tgt) pair's mass to its order-``orders`` edge in ``tables``."""
    for j in range(len(tables)):
        sel = orders == j
        np.add.at(edge_table(tables, j), (src[sel], gained(tgt[sel], j)), mass[sel])


@dataclass
class TransitionCounts:
    """Observed transitions as one count table per shift order.

    ``tables`` is laid out like ``TransitionModel.tables``: ``tables[0]`` has
    shape (m,) and counts each state's splits, ``tables[j]`` has shape
    (m, 4**j) and counts the order-j moves [x, b]. Each observed pair counts
    once, on the smallest order that links it.
    """

    k: int
    tables: list

    def __post_init__(self):
        self.tables = [np.asarray(t, dtype=np.float64) for t in self.tables]
        if not 1 <= self.max_shift <= self.k:
            raise ValueError(f"max_shift must be in [1, k], got {self.max_shift}")
        m = 4**self.k
        for j, table in enumerate(self.tables):
            shape = (m, 4**j) if j else (m,)
            if table.shape != shape:
                raise ValueError(f"order-{j} counts must have shape {shape}")
        if any(np.any(t < 0) for t in self.tables):
            raise ValueError("counts must be non-negative")

    @property
    def max_shift(self) -> int:
        return len(self.tables) - 1

    @property
    def total(self) -> int:
        return int(sum(t.sum() for t in self.tables))


def count_transitions(paths, k: int, max_shift: int = 2) -> TransitionCounts:
    """Count every consecutive state pair across ``paths``.

    Raises IllegalPathError naming the path and event of a code outside the
    k-mers or of a pair no shift of order <= max_shift links.
    """
    tables = _zero_tables(k, max_shift)
    for pi, path in enumerate(paths):
        states = np.asarray(path.states if isinstance(path, StatePath) else path, np.int64)
        if states.size < 2:
            continue
        try:
            orders = path_to_sequence(states, k, max_shift).lengths[1:]
        except IllegalPathError as err:
            raise IllegalPathError(f"path {pi}, {err}") from None
        _add_pairs(tables, states[:-1], states[1:], orders, np.ones(orders.size))
    return TransitionCounts(k, tables)


def estimate_transitions(
    counts: TransitionCounts, mode: str, pseudocount: int = 1
) -> TransitionModel:
    """Smoothed maximum-likelihood transition model of ``mode`` from count tables.

    Each of a state's out-edges gets (count + pseudocount) mass, normalized over
    that state's edges. Per-order counts are pooled, so an order-j edge carries
    a 4**-j share of its order's pool; pseudocount 0 is only legal when every
    row would still be supported.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if pseudocount < 0:
        raise ValueError(f"pseudocount must be >= 0, got {pseudocount}")
    k, max_shift = counts.k, counts.max_shift
    edges = sum(4**j for j in range(max_shift + 1))

    if mode == "per-order":
        pooled = np.array([t.sum() for t in counts.tables])
        total = pooled.sum()
        if pseudocount == 0 and total == 0:
            raise ValueError("no observations and pseudocount 0 would leave zero rows")
        sizes = 4.0 ** np.arange(max_shift + 1)
        probs = (pooled + pseudocount * sizes) / (total + pseudocount * edges)
        return TransitionModel.per_order(k, order_probs=probs)

    totals = counts.tables[0] + sum(t.sum(axis=1) for t in counts.tables[1:])
    if pseudocount == 0:
        unsupported = np.flatnonzero(totals == 0)
        if unsupported.size:
            raise ValueError(
                f"state {decode_kmer(int(unsupported[0]), k)} has no observed "
                "transitions; pseudocount 0 would give it a zero row"
            )
    denom = totals + float(pseudocount) * edges
    tables = [(counts.tables[0] + pseudocount) / denom]
    tables += [(t + pseudocount) / denom[:, None] for t in counts.tables[1:]]
    return TransitionModel(k, tables, mode="per-transition")


# ---------------------------------------------------------------------------
# Model files. One metadata line, then a column header, then TSV rows. The
# per-transition variant stores each (source, target) pair's total probability
# with parallel shift orders summed; loading assigns each pair's mass to its
# smallest linking order, which leaves every state-to-state probability intact.


ORDER_HEADER = ["order", "prob"]
PAIR_HEADER = ["source_kmer", "target_kmer", "prob"]


def save_transition_model(path, model: TransitionModel, pseudocount: int = 1) -> None:
    meta = (
        f"# k={model.k} max_shift={model.max_shift} "
        f"mode={model.mode} pseudocount={pseudocount}\n"
    )
    with atomic_write(path) as fh:
        fh.write(meta)
        if model.mode == "per-order":
            fh.write("\t".join(ORDER_HEADER) + "\n")
            for j, p in enumerate(model.order_probs):
                fh.write(f"{j}\t{p:.17g}\n")
            return
        fh.write("\t".join(PAIR_HEADER) + "\n")
        src, tgt = distinct_pairs(model.k, model.max_shift)
        names = [decode_kmer(code, model.k) for code in range(4**model.k)]
        for x, y, prob in zip(src.tolist(), tgt.tolist(), pair_probs(model, src, tgt).tolist()):
            fh.write(f"{names[x]}\t{names[y]}\t{prob:.17g}\n")


def _parse_meta(path) -> tuple[int, int, str]:
    """k, max shift and mode from the metadata line opening a model file."""
    where = f"{path}:1"
    with open(path) as fh:
        line = fh.readline().rstrip("\n")
    if not line.startswith("#"):
        raise ValueError(f"{where}: missing metadata line")
    meta = dict(token.partition("=")[::2] for token in line[1:].split())
    for key in ("k", "max_shift", "mode", "pseudocount"):
        if key not in meta:
            raise ValueError(f"{where}: metadata line lacks {key}")
    if meta["mode"] not in MODES:
        raise ValueError(f"{where}: unknown mode {meta['mode']!r}")
    k = parse_field(int, meta["k"], "k", where)
    max_shift = parse_field(int, meta["max_shift"], "max_shift", where)
    if not 1 <= max_shift <= k <= 16:
        raise ValueError(f"{where}: need 1 <= max_shift <= k <= 16, got {max_shift} and {k}")
    return k, max_shift, meta["mode"]


def load_transition_model(path) -> TransitionModel:
    k, max_shift, mode = _parse_meta(path)
    if mode == "per-order":
        probs: dict[int, float] = {}
        for where, (j, prob) in tsv_rows(path, ORDER_HEADER, (int, str), header_line=2):
            if not 0 <= j <= max_shift:
                raise ValueError(f"{where}: order {j} outside [0, {max_shift}]")
            if j in probs:
                raise ValueError(f"{where}: duplicate order {j}")
            probs[j] = parse_field(float, prob, "probability", where)
        missing = sorted(set(range(max_shift + 1)) - set(probs))
        if missing:
            raise ValueError(f"{path}: missing order rows {missing}")
    else:
        codes = {decode_kmer(code, k): code for code in range(4**k)}
        linenos, (src, tgt, prob) = tsv_fields(path, PAIR_HEADER, header_line=2)
        src, tgt = (
            np.array(parse_column(codes.__getitem__, fields, name, path, linenos), dtype=np.int64)
            for fields, name in ((src, "source_kmer"), (tgt, "target_kmer"))
        )
        mass = np.array(parse_column(float, prob, "probability", path, linenos))
        orders = smallest_orders(src, tgt, k, max_shift)
        repeated = np.ones(src.size, dtype=bool)
        repeated[np.unique(src * 4**k + tgt, return_index=True)[1]] = False
        unreachable = f"{{}} is not reachable with max shift {max_shift}"
        for bad, message in ((repeated, "duplicate pair {}"), (orders < 0, unreachable)):
            if bad.any():
                i = int(np.argmax(bad))
                pair = f"{decode_kmer(int(src[i]), k)} -> {decode_kmer(int(tgt[i]), k)}"
                raise ValueError(f"{path}:{linenos[i]}: " + message.format(pair))
        tables = _zero_tables(k, max_shift)
        _add_pairs(tables, src, tgt, orders, mass)
    try:
        if mode == "per-order":
            return TransitionModel.per_order(k, order_probs=[probs[j] for j in sorted(probs)])
        return TransitionModel(k, tables, mode="per-transition")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
