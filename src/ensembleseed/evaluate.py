"""Windowed evaluation: event windows, hit classification, FP dedup, parameter sweeps.

Reads are cut into fixed-size event windows, and a window holds its slice of
the Viterbi call and of every sample: the bases and lengths of its events.
Seeds carry an event-column query coordinate, the event's index in the
window, which is comparable across samples. A window scores a true positive
when any seed (or chain) lands inside its true reference interval on the right
strand; everything else is clustered greedily and counted as false positives.
A sweep reads a stream of windows once and scores each window's whole (t, n)
grid under every strategy that shares one index: one k-mer collection, one
lookup and, for chains, one chaining call per window and strategy, then
validity and dedup per point.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .decode import BaseCall, IllegalPathError, ReadEnsemble, StatePath, path_to_sequence
from .io import atomic_write, tsv_rows
from .kmers import STRANDS
from .seeding import KmerIndex, chain_hits, collect_ensemble_kmers, find_hits

DEFAULT_WINDOW_SIZE = 500
DEFAULT_DEDUP_RADIUS = 10


@dataclass(eq=False)
class Window:
    """One window of events: each call's slice over them and the true reference interval."""

    window_id: str
    event_range: tuple[int, int]
    viterbi: BaseCall
    samples: list[BaseCall]
    truth: tuple[int, int, str]


def build_windows(
    ensemble: ReadEnsemble,
    truth: tuple[str, int, int, str],
    true_path: StatePath,
    k: int,
    window_size: int = DEFAULT_WINDOW_SIZE,
) -> list[Window]:
    """Split one read into disjoint full windows, slicing every call per window.

    The window's true interval restricts the read's interval using the
    cumulative per-event shifts of the generating path, so it covers exactly
    the k-mer spans of the window's events.
    """
    if window_size < 1:
        raise ValueError(f"window size must be >= 1, got {window_size}")
    calls = [ensemble.viterbi] + list(ensemble.samples)
    n_events = len(true_path.states)
    starts = []  # per call, each event's first base offset, then the call's length
    for call in calls:
        if call.lengths.size != n_events:
            raise ValueError(
                f"read {ensemble.read_id}: call has {call.lengths.size} event "
                f"spans, true path has {n_events}"
            )
        starts.append(np.concatenate([[0], np.cumsum(call.lengths, dtype=np.int64)]))
        if starts[-1][-1] != len(call.sequence):
            raise ValueError(f"read {ensemble.read_id}: event spans do not tile the call")

    try:
        orders = path_to_sequence(true_path.states, k).lengths
    except IllegalPathError as err:
        raise IllegalPathError(f"read {ensemble.read_id}: true path, {err}") from None
    rel = np.cumsum(orders, dtype=np.int64) - k
    contig, fs, fe, strand = truth
    if k + rel[-1] != fe - fs:
        raise ValueError(
            f"read {ensemble.read_id}: true path spans {k + rel[-1]} bases, truth {fe - fs}"
        )

    windows: list[Window] = []
    for w in range(n_events // window_size):
        a, b = w * window_size, (w + 1) * window_size
        sliced = [BaseCall(c.sequence[o[a] : o[b]], c.lengths[a:b]) for c, o in zip(calls, starts)]
        lo, hi = int(rel[a]), int(rel[b - 1]) + k
        if strand == "+":
            wtruth = (fs + lo, fs + hi, "+")
        else:
            wtruth = (fe - hi, fe - lo, "-")
        windows.append(
            Window(
                window_id=f"{ensemble.read_id}:{w}",
                event_range=(a, b),
                viterbi=sliced[0],
                samples=sliced[1:],
                truth=wtruth,
            )
        )
    return windows


def is_valid_hit(points: np.ndarray, truth: tuple[int, int, str]) -> np.ndarray:
    """Mask over hit rows: valid iff the left endpoint is inside the interval, on its strand."""
    start, end, strand = truth
    return (points[:, 2] == STRANDS.index(strand)) & (start <= points[:, 1]) & (points[:, 1] < end)


def greedy_dedup(points: np.ndarray, radius: int = DEFAULT_DEDUP_RADIUS) -> np.ndarray:
    """Greedy cluster representatives of one window's invalid hit rows.

    Rows are scanned in (query_col, ref_pos) order, ties in input order; a row
    is kept unless a kept row is within ``radius`` in BOTH coordinates, strand
    ignored. Two rows in one cell of side radius + 1 clash, so a cell holds at
    most one kept row, and a row is tested only against the 9 cells around its
    own, of which the 3 at the next query_col hold no kept row yet.
    """
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    order = np.lexsort((points[:, 1], points[:, 0]))
    cells: dict[tuple[int, int], tuple[int, int]] = {}
    kept = []
    for i, q, r in zip(order.tolist(), *points[order, :2].T.tolist()):
        cq, cr = q // (radius + 1), r // (radius + 1)
        if (cq, cr) in cells:
            continue
        for cell in ((cq - 1, cr - 1), (cq - 1, cr), (cq - 1, cr + 1), (cq, cr - 1), (cq, cr + 1)):
            p = cells.get(cell)
            if p is not None and abs(p[0] - q) <= radius and abs(p[1] - r) <= radius:
                break
        else:
            cells[cq, cr] = q, r
            kept.append(i)
    return points[kept]


@dataclass(frozen=True)
class StrategyConfig:
    """What to look up (seed length) and what counts as a match (hit or chain)."""

    kind: str  # "single" or "chain"
    seed_k: int
    chain_len: int = 3
    min_gap: int = 10
    max_gap: int = 50
    use_viterbi: bool = False

    def __post_init__(self):
        if self.kind not in ("single", "chain"):
            raise ValueError(f"kind must be 'single' or 'chain', got {self.kind!r}")
        if not 1 <= self.seed_k <= 16:
            raise ValueError(f"seed length must be in [1, 16], got {self.seed_k}")
        if self.chain_len < 1:
            raise ValueError(f"chain length must be >= 1, got {self.chain_len}")
        if not 0 <= self.min_gap <= self.max_gap:
            raise ValueError(f"need 0 <= min_gap <= max_gap, got [{self.min_gap}, {self.max_gap}]")

    @property
    def label(self) -> str:
        base = "single-kmer" if self.kind == "single" else "chain"
        return base + ("-viterbi" if self.use_viterbi else "")


SINGLE_13 = StrategyConfig(kind="single", seed_k=13)
CHAIN_10 = StrategyConfig(kind="chain", seed_k=10)
SINGLE_13_VITERBI = StrategyConfig(kind="single", seed_k=13, use_viterbi=True)
LABELS = ("single-kmer", "chain", "single-kmer-viterbi", "chain-viterbi")  # every config's label


@dataclass(frozen=True)
class EvalRow:
    strategy: str
    k: int
    t: int
    n: int
    tp: int
    windows: int
    sn: float
    fp: int

    def __post_init__(self):
        if not 0 <= self.tp <= self.windows:
            raise ValueError(f"need 0 <= TP <= windows, got TP {self.tp} of {self.windows}")
        if not 0.0 <= self.sn <= 1.0:
            raise ValueError(f"Sn must be in [0, 1], got {self.sn}")
        if self.fp < 0:
            raise ValueError(f"FP must be >= 0, got {self.fp}")


def window_points(window: Window, index: KmerIndex, config: StrategyConfig, points) -> np.ndarray:
    """Every grid point's candidate left endpoints under a strategy, in one pass.

    ``points`` lists (t, n) pairs with 1 <= t <= n. Returns ``(query_col,
    ref_pos, strand, p)`` rows, p indexing ``points``, grouped by p: point
    p's hit rows, or the distinct rows that start a chain among them, in
    ``find_hits`` order. The k-mers of the first max n samples (the Viterbi
    call in Viterbi mode) are collected and looked up once, each labelled by
    its rank so that each hit names its k-mer, and each point masks the hits
    down to its own k-mers with ``EnsembleKmers.kept``. Chains at a subset of hits are no filter of
    the superset's chains, so each point is chained on its own hits: one
    ``chain_hits`` call takes every point's, with each point's columns
    shifted past the reach of the point before; a gap so wide that the
    shifted columns would pass int64 is a ``ValueError``.
    """
    need = max(n for _, n in points)
    calls = [window.viterbi] if config.use_viterbi else window.samples
    if need > len(calls):
        raise ValueError(f"window has {len(calls)} sample rows, need n={need}")
    k = config.seed_k
    kmers = collect_ensemble_kmers(calls[:need], k)
    cols, codes = np.divmod(kmers.keys, 4**k)
    hits = find_hits(index, replace(kmers, keys=np.arange(cols.size) * 4**k + codes))
    owner = hits[:, 0].copy()
    hits[:, 0] = cols[owner]
    order = np.lexsort(hits.T[::-1])
    kept = np.stack([kmers.kept(t, n) for t, n in points])[:, owner[order]]
    point, at = np.nonzero(kept)  # point-major, each point's hits in find_hits order
    hits = hits[order[at]]
    if config.kind == "single":
        return np.column_stack([hits, point])
    stride = window.event_range[1] - window.event_range[0] + config.max_gap + 1
    if len(points) * stride > np.iinfo(np.int64).max:
        raise ValueError(f"max_gap={config.max_gap} is too wide: shifted columns would pass int64")
    hits[:, 0] += point * stride
    heads = chain_hits(hits, config.chain_len, config.min_gap, config.max_gap)
    point, col = np.divmod(heads[:, 0], stride)
    return np.column_stack([col, heads[:, 1:], point])


def evaluate(
    windows,
    index: KmerIndex,
    config: StrategyConfig,
    t: int,
    n: int,
    radius: int = DEFAULT_DEDUP_RADIUS,
) -> EvalRow:
    """Score one parameter point: TP over windows, plus deduped FP clusters (see ``sweep``)."""
    return sweep(windows, index, [config], [t], [n], radius)[0]


def check_grid(t_values, n_values, radius: int) -> None:
    """Reject a grid with some t < 1 or n < 0, a repeated t or n, or a negative dedup radius."""
    if min(t_values, default=1) < 1 or min(n_values, default=0) < 0:
        raise ValueError(
            f"need every t >= 1 and n >= 0 (scored where 1 <= t <= n), "
            f"got t={list(t_values)}, n={list(n_values)}"
        )
    if len(set(t_values)) < len(t_values) or len(set(n_values)) < len(n_values):
        raise ValueError(  # one report row per point
            f"--t and --n may not repeat a value, got t={list(t_values)}, n={list(n_values)}"
        )
    if radius < 0:
        raise ValueError(f"dedup radius must be >= 0, got {radius}")


def sweep(
    windows,
    index: KmerIndex,
    configs: list[StrategyConfig],
    t_values,
    n_values,
    radius: int = DEFAULT_DEDUP_RADIUS,
) -> list[EvalRow]:
    """Full cartesian (t, n) grid for each strategy, strategy-major then t-major.

    ``windows`` is any iterable, read once and counted as it is read; every
    strategy looks its seeds up in ``index``. Each window is scored in one
    ``window_points`` pass per strategy that carries every scorable
    point; validity and dedup then run per point. A Viterbi-mode strategy
    scores its single Viterbi row at (1, 1) for every grid point (t and n
    only label the row), so it serves as the fixed baseline. Ensemble points
    that cannot draw samples (n = 0, or t > n) score zero so the grid stays
    rectangular; the grid and radius pass ``check_grid`` before any scoring.
    """
    check_grid(t_values, n_values, radius)
    grid = [(t, n) for t in t_values for n in n_values]
    ensemble_points = [(t, n) for t, n in grid if t <= n]
    plans = [[(1, 1)] if c.use_viterbi else ensemble_points for c in configs]
    scores = [{point: [0, 0] for point in points} for points in plans]  # TP, FP
    count = 0
    for count, window in enumerate(windows, 1):
        for config, points, score in zip(configs, plans, scores):
            if not points:
                continue
            found = window_points(window, index, config, points)
            bounds = np.searchsorted(found[:, 3], np.arange(len(points) + 1))
            for point, lo, hi in zip(points, bounds[:-1], bounds[1:]):
                valid = is_valid_hit(found[lo:hi], window.truth)
                score[point][0] += bool(valid.any())
                score[point][1] += len(greedy_dedup(found[lo:hi][~valid], radius))
    rows: list[EvalRow] = []
    for config, score in zip(configs, scores):
        for t, n in grid:
            tp, fp = score.get((1, 1) if config.use_viterbi else (t, n), (0, 0))
            rows.append(
                EvalRow(
                    strategy=config.label, k=config.seed_k, t=t, n=n,
                    tp=tp, windows=count, sn=tp / count if count else 0.0, fp=fp,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Report files.

REPORT_HEADER = ["strategy", "k", "t", "n", "TP", "windows", "Sn", "FP"]


def write_report(path, rows: list[EvalRow]) -> None:
    with atomic_write(path) as fh:
        fh.write("\t".join(REPORT_HEADER) + "\n")
        for r in rows:
            fh.write(
                f"{r.strategy}\t{r.k}\t{r.t}\t{r.n}\t{r.tp}\t{r.windows}\t{r.sn:.3f}\t{r.fp}\n"
            )


def load_report(path) -> list[EvalRow]:
    """Report rows in file order; an unknown strategy or a repeated (strategy, t, n) is rejected."""
    rows: dict[tuple[str, int, int], EvalRow] = {}
    types = (str, int, int, int, int, int, float, int)
    for where, fields in tsv_rows(path, REPORT_HEADER, types):
        try:
            row = EvalRow(*fields)
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        if row.strategy not in LABELS:
            raise ValueError(f"{where}: unknown strategy {row.strategy!r}")
        key = (row.strategy, row.t, row.n)
        if key in rows:
            raise ValueError(f"{where}: repeated row for {row.strategy} t={row.t} n={row.n}")
        rows[key] = row
    return list(rows.values())


def write_points(path, rows: list[EvalRow]) -> None:
    """Plot-ready FP/TP pairs for one (strategy, t) slice, in n order."""
    with atomic_write(path) as fh:
        fh.write("FP\tTP\n")
        for r in sorted(rows, key=lambda r: r.n):
            fh.write(f"{r.fp}\t{r.tp}\n")
