"""Decoding kernels: scaled forward pass, Viterbi, posterior path sampling.

The forward pass keeps each column rescaled to sum 1 (log-space would lose the
within-column ratios that traceback sampling needs); Viterbi runs in log space.
Both take one step per event over the shift structure of the state graph (see
``shifts``): forward sums products, Viterbi maxes sums. The cost per event is
O(m * out_degree) rather than O(m^2), and about O(m) per order under a
per-order model, whose order-j edges all share one weight.
"""

from __future__ import annotations

import contextlib
import json
import mmap
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, zip_longest

import numpy as np

from .io import atomic_write, fasta_record, fasta_records, jsonl_records
from .kmers import BASES, decode_kmer
from .pore_model import Hmm, EventSequence, TransitionModel
from .shifts import by_dropped_bases, incoming_edges, pair_probs, smallest_orders


class IllegalPathError(ValueError):
    """A state path holds a code outside the k-mers or a pair no allowed shift links."""


@dataclass
class StatePath:
    """One k-mer state per event, with the log joint probability of (path, events)."""

    states: np.ndarray
    log_joint: float

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=np.int64)


@dataclass
class ForwardMatrix:
    """Per-event forward columns, rescaled so each column sums to 1.

    The true forward probability is ``columns[i][s] * exp(sum(log_scale_factors[:i+1]))``;
    the factors are kept as logs so the total likelihood never over- or
    underflows.
    """

    columns: np.ndarray
    log_scale_factors: np.ndarray

    @property
    def log_likelihood(self) -> float:
        return float(self.log_scale_factors.sum())


@dataclass(eq=False)
class BaseCall:
    """A decoded DNA sequence plus the number of bases each event emitted.

    Event i emitted ``sequence[offset : offset + lengths[i]]``, its offset
    being the sum of the lengths before it. Calls compare and hash by
    identity.
    """

    sequence: str
    lengths: np.ndarray

    def __post_init__(self):
        self.lengths = np.asarray(self.lengths, dtype=np.uint8)

    def __len__(self) -> int:
        return len(self.sequence)

    @property
    def event_spans(self) -> np.ndarray:
        """(n_events, 2) array of each event's [offset, length] in the sequence."""
        lengths = self.lengths.astype(np.int64)
        return np.column_stack([np.cumsum(lengths) - lengths, lengths])


@dataclass
class ReadEnsemble:
    """Viterbi call plus posterior sample calls for one read."""

    read_id: str
    viterbi: BaseCall
    samples: list[BaseCall]


def _normal_logpdf(x, loc, sd, out=None):
    """``-0.5 * z * z - log(sd * sqrt(2 pi))``, z = (x - loc) / sd, in ``out`` or one new array.

    Only ``-0.5 * z`` needs a temporary, made 16 rows at a time. Overflow
    quietly gives -inf.
    """
    with np.errstate(over="ignore"):
        z = np.subtract(x, loc, out=out)
        z /= sd
        for rows in np.split(z, range(16, len(z), 16)):
            rows *= -0.5 * rows
        z -= np.log(sd * np.sqrt(2.0 * np.pi))
    return z


def emission_log_matrix(hmm: Hmm, events: EventSequence) -> np.ndarray:
    """New (n_events, n_states) array of the log density of each event under each state.

    It has a private memory map of its own, unmapped once dropped: on the heap, small
    blocks landing in a freed matrix's place could keep it resident beside the next read's.
    """
    buffer = mmap.mmap(-1, 8 * len(events) * hmm.num_states, access=mmap.ACCESS_COPY)
    with contextlib.suppress(AttributeError, OSError):  # as numpy asks for its large arrays
        buffer.madvise(mmap.MADV_HUGEPAGE)
    out = np.frombuffer(buffer).reshape(len(events), -1)
    return _normal_logpdf(events.means[:, None], *hmm.levels(events.scaling), out)


def _incoming(prev: np.ndarray, trans, tables, combine, reduce) -> np.ndarray:
    """Reduce ``combine(prev[x], w)`` over the edges x -> y into every target y.

    ``tables`` holds one weight w per edge, laid out as ``trans.tables``:
    forward passes the probabilities with (multiply, add), Viterbi their logs
    with (add, maximum). Orders fold in one at a time, so a pair linked by
    several orders reduces its edges one by one.
    """
    k = trans.k
    out = combine(prev, tables[0])
    for j in range(1, trans.max_shift + 1):
        if trans.mode == "per-order" and j < k:
            # Every order-j edge weighs w_j, so each x = a*4**(k-j) + s sends
            # the same value to all targets s*4**j + b. Combining before
            # reducing over a keeps the per-edge values and their order; at
            # j = k the (4**k, 1) view would be summed pairwise, so order k
            # takes the other branch.
            shared = reduce.reduce(combine(prev, tables[j].flat[0]).reshape(4**j, 4 ** (k - j)))
            view = out.reshape(4 ** (k - j), 4**j)
            reduce(view, shared[:, None], out=view)
        else:
            # Reducing out x's dropped bases lands each edge's value on its target.
            edges = by_dropped_bases(combine(prev[:, None], tables[j]), k, j)
            reduce(out, reduce.reduce(edges).ravel(), out=out)
    return out


def forward(hmm: Hmm, events: EventSequence) -> ForwardMatrix:
    """Scaled forward pass from a uniform start over all states.

    The columns overwrite the read's emission matrix, which the returned
    matrix then holds. Raises ValueError naming the read and event
    when a column has no finite, positive mass, as when no state reachable
    from the previous column can emit the event.
    """
    columns = emission_log_matrix(hmm, events)
    n, m = columns.shape
    col_max = columns.max(axis=1)
    trans = hmm.transitions
    log_sf = np.empty(n)

    with np.errstate(divide="ignore", invalid="ignore"):
        # Row i holds event i's emission probabilities until step i, their
        # only reader, overwrites it with column i.
        columns -= col_max[:, None]
        np.exp(columns, out=columns)
        raw = columns[0] / m
        for i in range(n):
            if i:
                raw = _incoming(columns[i - 1], trans, trans.tables, np.multiply, np.add)
                raw *= columns[i]
            total = raw.sum()
            np.divide(raw, total, out=columns[i])
            log_sf[i] = np.log(total) + col_max[i]
    bad = np.flatnonzero(~np.isfinite(log_sf))
    if bad.size:
        raise ValueError(
            f"read {events.read_id!r}: forward mass is zero or not finite at event {bad[0]}"
        )
    return ForwardMatrix(columns=columns, log_scale_factors=log_sf)


@lru_cache(maxsize=4)
def _incoming_edges(trans: TransitionModel) -> tuple[np.ndarray, np.ndarray]:
    """``incoming_edges`` of a model's tables, built once per model, read-only."""
    tables = incoming_edges(trans.tables, trans.k)
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=4)
def _viterbi_tables(trans: TransitionModel) -> tuple:
    """Viterbi's model tables, built once per model, read-only.

    Returns (pool, log_t, log_tables, parallel, parallel_pool, parallel_log_t).
    """
    # Row y lists every predecessor of y in ascending id order, with the
    # pair's total probability, so argmax's first maximum is the lowest id
    # (a pair linked by several orders repeats with the same total).
    pool = np.sort(_incoming_edges(trans)[0], axis=1)
    with np.errstate(divide="ignore"):
        log_t = np.log(pair_probs(trans, pool, np.arange(len(pool))[:, None]))
        log_tables = tuple(np.log(t) for t in trans.tables)
    # A parallel pair (a repeat in its target's pool row) carries the sum of
    # its edges' weights, which the step's edge-by-edge max misses, so those
    # few targets (28 of 1,024 at k=5, max shift 2) take the max over their
    # pool row, held transposed: numpy takes a max across rows far faster
    # than along many short rows.
    parallel = np.flatnonzero((np.diff(pool, axis=1) == 0).any(axis=1))
    parallel_pool, parallel_log_t = (np.ascontiguousarray(a[parallel].T) for a in (pool, log_t))
    for array in (pool, log_t, *log_tables, parallel, parallel_pool, parallel_log_t):
        array.flags.writeable = False
    return pool, log_t, log_tables, parallel, parallel_pool, parallel_log_t


def viterbi(hmm: Hmm, events: EventSequence) -> StatePath:
    """Most probable state path; ties break toward the lowest state id.

    The scores overwrite the read's emission matrix, freed on return. Raises
    ValueError naming the read and event when no path has a finite score, as
    when no state can emit an event.
    """
    trans = hmm.transitions
    pool, log_t, log_tables, parallel, parallel_pool, parallel_log_t = _viterbi_tables(trans)

    # scores[i] is the best log joint of events 0..i over paths ending in each
    # state, added at step i to event i's emission row, its only reader. Only
    # the scores are kept; the traceback finds each predecessor from the
    # previous row, so the step needs no argmax.
    scores = emission_log_matrix(hmm, events)
    n, m = scores.shape
    scores[0] -= np.log(m)
    for i in range(1, n):
        prev = scores[i - 1]
        top = _incoming(prev, trans, log_tables, np.add, np.maximum)
        top[parallel] = (prev[parallel_pool] + parallel_log_t).max(axis=0)
        scores[i] += top
    # A row with no finite score leaves every later row without one too.
    if not np.isfinite(scores[-1]).any():
        bad = np.flatnonzero(~np.isfinite(scores).any(axis=1))[0]
        raise ValueError(f"read {events.read_id!r}: no finite Viterbi score at event {bad}")

    states = np.empty(n, dtype=np.int64)
    state = states[-1] = int(scores[-1].argmax())
    for i in range(n - 1, 0, -1):
        row = pool[state]
        state = states[i - 1] = int(row[(scores[i - 1].take(row) + log_t[state]).argmax()])
    return StatePath(states=states, log_joint=float(scores[-1, states[-1]]))


def _check_codes(states: np.ndarray, k: int) -> None:
    """Raise IllegalPathError naming the (row and) event of the first code outside the k-mers."""
    if states.size and (states.min() < 0 or states.max() >= 4**k):
        *row, i = np.argwhere((states < 0) | (states >= 4**k))[0]
        where = f"row {row[0]}, " if row else ""
        code = states[(*row, i)]
        raise IllegalPathError(f"{where}event {i}: state code {code} out of range for k={k}")


def path_log_joint(hmm: Hmm, events: EventSequence, states: np.ndarray):
    """Log P(path, events) for an explicit state path, or for each row of a path array."""
    states = np.asarray(states, dtype=np.int64)
    _check_codes(states, hmm.k)
    emit = _normal_logpdf(events.means, *hmm.levels(events.scaling, states)).sum(axis=-1)
    trans = pair_probs(hmm.transitions, states[..., :-1], states[..., 1:])
    if np.any(trans <= 0):
        raise IllegalPathError("path contains a zero-probability transition")
    joints = -np.log(hmm.num_states) + emit + np.log(trans).sum(axis=-1)
    return float(joints) if states.ndim == 1 else joints


_UNIFORM_BLOCK = 1 << 12


def sample_paths(
    hmm: Hmm,
    events: EventSequence,
    fwd: ForwardMatrix,
    count: int,
    seed,
) -> np.ndarray:
    """Draw independent exact posterior path samples by stochastic traceback.

    The forward matrix is computed once and shared across draws: the final
    state is drawn proportionally to the last column, then each earlier state
    proportionally to its forward value times the transition probability into
    the already-fixed successor. Each event's cumulative candidate weights
    are built once per distinct state the draws occupy, not once per draw.
    Returns a (count, n_events) array, one path per row, in the narrowest
    type holding every code (uint16 at k = 5..8); ``path_log_joint`` scores
    its rows. ``seed`` may be an int or a numpy Generator; a given seed
    yields reproducible paths.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    F = fwd.columns
    n, m = F.shape
    if n != len(events) or m != hmm.num_states:
        raise ValueError("forward matrix does not match this model and read")
    paths = np.empty((count, n), dtype=np.min_scalar_type(m - 1))
    if count == 0:
        return paths

    rng = np.random.default_rng(seed)
    # Candidates per state: itself (a split), then its order-1, order-2, ...
    # predecessors in code order; the draw picks the first candidate whose
    # cumulative weight exceeds u, or the last when u rounds up to the total.
    pred, pred_w = _incoming_edges(hmm.transitions)
    draws = np.arange(count)
    slot = np.empty(m, dtype=np.intp)
    # One row of ``count`` uniforms per event, last event first, drawn from
    # the one stream in blocks of at most _UNIFORM_BLOCK values (or one row):
    # the same numbers, in the same order, as one call per event.
    per_block = max(1, _UNIFORM_BLOCK // count)
    uniforms = chain.from_iterable(
        rng.random((min(per_block, n - start), count)) for start in range(0, n, per_block)
    )

    cum = np.cumsum(F[-1])
    cur = np.minimum(np.searchsorted(cum, next(uniforms) * cum[-1], side="right"), m - 1)
    paths[:, -1] = cur
    for i in range(n - 2, -1, -1):
        # The draws sit on few distinct states: number them through ``slot``
        # (one draw per state keeps its own index there) and build each
        # state's cumulative weights once, then give each draw its state's row.
        slot[cur] = draws
        states = cur[slot.take(cur) == draws]
        slot[states] = draws[: len(states)]
        pool = pred.take(states, axis=0)
        cw = np.cumsum(F[i].take(pool) * pred_w.take(states, axis=0), axis=1)
        cw = cw.take(slot.take(cur), axis=0)
        u = next(uniforms) * cw[:, -1]
        cw[:, -1] = np.inf  # when no candidate exceeds u, the last one is picked
        cur = pred[cur, (cw > u[:, None]).argmax(axis=1)]
        paths[:, i] = cur
    return paths


def _emitted_bases(codes: np.ndarray, sizes: np.ndarray) -> str:
    """The last ``sizes[e]`` bases of each k-mer ``codes[e]``, one after another.

    Text position p of an event whose bases end at ``end`` is the base
    2 * (end - 1 - p) bits up its code: one gather per emitted base. The
    temporaries go on return, before the next block of rows makes its own.
    """
    shifts = np.repeat(np.cumsum(sizes), sizes)
    shifts -= np.arange(1, len(shifts) + 1)
    shifts <<= 1
    bases = np.repeat(codes, sizes)
    bases >>= shifts
    bases &= 3
    letters = np.frombuffer(BASES.encode("ascii"), dtype=np.uint8)
    return letters[bases].tobytes().decode("ascii")


def path_to_sequence(states: np.ndarray, k: int, max_shift: int | None = None):
    """Translate state paths to DNA using the shortest consistent interpretation.

    ``states`` is one path, giving a BaseCall, or a (rows, events) array whose
    rows are translated in one call, giving a list of BaseCalls. Each event
    contributes the last j bases of its k-mer: j is k for the first event, so
    it contributes its whole k-mer, and for every later event the smallest
    shift linking it to its predecessor (0 for splits). The call's lengths are
    those orders. Raises IllegalPathError on a path with no event, and names the
    row and event of a code outside the k-mers or of a pair no shift up to ``max_shift`` links;
    raises ValueError when ``max_shift`` is outside [0, k].
    """
    limit = k if max_shift is None else max_shift
    if not 0 <= limit <= k:
        raise ValueError(f"max_shift must be in [0, k={k}], got {max_shift}")
    states = np.asarray(states)
    if states.shape[-1] == 0:
        raise IllegalPathError("empty state path: no event to translate")
    _check_codes(states, k)
    paths = states.reshape(-1, states.shape[-1])
    calls = []
    # Blocks of 16 rows, widened one at a time, keep the temporaries small.
    for first in range(0, len(paths), 16):
        block = paths[first : first + 16].astype(np.int64, copy=False)
        orders = np.empty(block.shape, dtype=np.int64)
        orders[:, 0] = k
        orders[:, 1:] = smallest_orders(block[:, :-1], block[:, 1:], k, limit)
        bad = np.argwhere(orders < 0)
        if bad.size:
            row, i = (int(v) for v in bad[0])
            where = f"row {first + row}, " if states.ndim == 2 else ""
            raise IllegalPathError(
                f"{where}events {i - 1}..{i}: {decode_kmer(int(block[row, i - 1]), k)} -> "
                f"{decode_kmer(int(block[row, i]), k)} needs a shift beyond {limit}"
            )
        text = _emitted_bases(block.ravel(), orders.ravel())
        bounds = [0, *np.cumsum(orders.sum(axis=1)).tolist()]
        calls += [
            BaseCall(sequence=text[start:stop], lengths=lengths)
            for start, stop, lengths in zip(bounds, bounds[1:], orders.astype(np.uint8))
        ]
    return calls[0] if states.ndim == 1 else calls


def call_read(hmm: Hmm, events: EventSequence, n: int, seed) -> ReadEnsemble:
    """Viterbi call plus ``n`` posterior sample calls for one read.

    Viterbi frees its matrix before forward builds one, so a read's decode
    holds one (events x states) matrix at a time. ``seed`` seeds the
    traceback, as in ``sample_paths``.
    """
    k, max_shift = hmm.k, hmm.transitions.max_shift
    best = viterbi(hmm, events)
    samples = []
    if n > 0:
        paths = sample_paths(hmm, events, forward(hmm, events), n, seed)
        samples = path_to_sequence(paths, k, max_shift)
    return ReadEnsemble(events.read_id, path_to_sequence(best.states, k, max_shift), samples)


# ---------------------------------------------------------------------------
# Base-call files: FASTA plus a JSON-lines sidecar with one record per call.
# A record's "spans" string holds one character per event, chr(48 + length):
# lengths 0..16 (k <= 16) map to "0".."@", none of which JSON escapes.

_LENGTH_ZERO = ord("0")
_MAX_LENGTH = 16
SPANS_FIELDS = {"read_id": str, "call": object, "index": object, "spans": object}


def _call_label(kind: str, index: int | None) -> str:
    return "viterbi" if kind == "viterbi" else f"sample{index}"


def write_basecalls(fasta_path, spans_path, ensembles: Iterable[ReadEnsemble]) -> None:
    with atomic_write(fasta_path) as fa, atomic_write(spans_path) as sp:
        for ens in ensembles:
            calls = [("viterbi", None, ens.viterbi)]
            calls += [("sample", i, call) for i, call in enumerate(ens.samples)]
            for kind, index, call in calls:
                fa.write(fasta_record(f"{ens.read_id} {_call_label(kind, index)}", call.sequence))
                spans = (call.lengths + _LENGTH_ZERO).tobytes().decode("ascii")
                record = {"read_id": ens.read_id, "call": kind, "index": index, "spans": spans}
                sp.write(json.dumps(record) + "\n")
            ens = calls = call = None  # freed before the next read decodes


def iter_basecalls(fasta_path, spans_path) -> Iterator[ReadEnsemble]:
    """Yield the reads of ``write_basecalls``' files in turn, each one block of calls."""
    ens, ended = None, set()
    pairs = zip_longest(jsonl_records(spans_path, SPANS_FIELDS), fasta_records(fasta_path))
    for in_spans, in_fasta in pairs:
        if in_spans is None:
            lineno, header, _ = in_fasta
            raise ValueError(f"{fasta_path}:{lineno}: no spans recorded for {header!r}")
        where, rec = in_spans
        read_id, kind, index, text = rec["read_id"], rec["call"], rec["index"], rec["spans"]
        if not (kind == "viterbi" or (kind == "sample" and type(index) is int)):
            raise ValueError(f"{where}: unknown call {kind!r} with index {index!r}")
        if not isinstance(text, str):
            raise ValueError(
                f"{where}: spans must be a string of one length character per event, "
                f"got a JSON {type(text).__name__}"
            )
        lengths = np.frombuffer(text.encode("utf-8"), dtype=np.uint8) - np.uint8(_LENGTH_ZERO)
        if np.any(lengths > _MAX_LENGTH):
            bad = next(c for c in text if not 0 <= ord(c) - _LENGTH_ZERO <= _MAX_LENGTH)
            raise ValueError(f"{where}: span character {bad!r} encodes no length 0..{_MAX_LENGTH}")
        label = _call_label(kind, index)
        if in_fasta is None:
            raise ValueError(f"{where}: no FASTA record for the {label} call of {read_id!r}")
        lineno, header, seq = in_fasta
        pair = f"{where}, {fasta_path}:{lineno}"
        if header.partition(" ")[::2] != (read_id, label):
            raise ValueError(
                f"{pair}: spans of the {label} call of {read_id!r} beside the FASTA record "
                f"{header!r}: both files must list the calls in one order"
            )
        covered = int(lengths.sum(dtype=np.int64))
        if covered != len(seq):
            raise ValueError(
                f"{where}: spans cover {covered} bases, "
                f"the FASTA record {header!r} has {len(seq)}"
            )
        call = BaseCall(sequence=seq, lengths=lengths)
        new = ens is None or read_id != ens.read_id
        due = "viterbi" if new else _call_label("sample", len(ens.samples))
        if label != due or read_id in ended:
            whose = "after its block ended" if read_id in ended else f"where {due} is due"
            raise ValueError(
                f"{pair}: {label} call of read {read_id!r} {whose}: "
                f"each read's calls form one block, viterbi, sample0, sample1, ..."
            )
        if new:
            if ens is not None:
                ended.add(ens.read_id)
                yield ens
            ens = ReadEnsemble(read_id, call, [])
        else:
            ens.samples.append(call)
    if ens is not None:
        yield ens


def load_basecalls(fasta_path, spans_path) -> list[ReadEnsemble]:
    """Every read of ``iter_basecalls``, in file order."""
    return list(iter_basecalls(fasta_path, spans_path))
