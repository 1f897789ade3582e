"""Outside-in spans around the public functions of each ensembleseed layer.

A ``Tracer`` replaces each function listed in ``LAYERS`` by a wrapper in every
loaded ``ensembleseed`` module that binds it (``cli`` imports ``viterbi`` by
name, ``evaluate`` imports ``find_hits``, and so on), so calls made through any
of those names are timed. The program's own code is not changed. Spans hold
name, start, end and parent index, stay in memory, and are written as one JSON
file when the traced command ends. Counters record work done at the same
boundaries, from each call's arguments and result.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time


def _edges(args, result):
    """Transitions scored: events x states x edges leaving each state."""
    hmm, events = args["hmm"], args["events"]
    out_degree = sum(4**j for j in range(hmm.transitions.max_shift + 1))
    return {"edges": len(events) * hmm.num_states * out_degree}


def _written_bytes(args, result):
    return {"bytes": sum(os.path.getsize(args[key]) for key in ("fasta_path", "spans_path"))}


def _index_positions(args, result):
    return {"positions": sum(len(v) for v in result.positions.values())}


def _kmers(args, result):
    return {"kmers": sum(len(v) for v in result.per_column.values())}


def _count(args, result):
    return {"count": len(result)}


def _chains(args, result):
    return {"count": len(result), "hits_in": len(args["hits"])}


def _invalid(args, result):
    return {"invalid": len(args["points"])}


# (module, function, span name, counter or None). The span name is the layer.
LAYERS = [
    ("ensembleseed.pore_model", "load_events", "pore_model.load_events", None),
    ("ensembleseed.decode", "emission_log_matrix", "decode.emission", None),
    ("ensembleseed.decode", "viterbi", "decode.viterbi", _edges),
    ("ensembleseed.decode", "forward", "decode.forward", _edges),
    ("ensembleseed.decode", "sample_paths", "decode.traceback", None),
    ("ensembleseed.decode", "path_to_sequence", "decode.translate", None),
    ("ensembleseed.decode", "write_basecalls", "decode.write", _written_bytes),
    ("ensembleseed.decode", "load_basecalls", "decode.load", None),
    ("ensembleseed.evaluate", "build_windows", "evaluate.windows", None),
    ("ensembleseed.seeding", "build_index", "seeding.index", _index_positions),
    ("ensembleseed.evaluate", "window_points", "evaluate.points", _count),
    ("ensembleseed.seeding", "collect_ensemble_kmers", "seeding.collect", _kmers),
    ("ensembleseed.seeding", "find_hits", "seeding.hits", _count),
    ("ensembleseed.seeding", "chain_hits", "seeding.chain", _chains),
    ("ensembleseed.evaluate", "greedy_dedup", "evaluate.dedup", _invalid),
]


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
        stack.append(index)
        record = self.spans[index]
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def _wrap(self, fn, name: str, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                with self._lock:
                    for key, value in counter(bound, result).items():
                        key = f"{name}.{key}"
                        self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function wherever an ensembleseed module binds it."""
        modules = [
            module for key, module in list(sys.modules.items())
            if key == "ensembleseed" or key.startswith("ensembleseed.")
        ]
        for module_name, attr, name, counter in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            traced = self._wrap(original, name, counter)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    setattr(module, key, traced)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(trace: dict) -> tuple[dict[str, float], dict[str, int], float]:
    """Per-name self time and call count, plus the summed top-level span time.

    Self time is a span's duration minus the durations of its child spans;
    spans of one thread nest, so children never overlap.
    """
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    top = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            top += end - start
    return self_s, calls, top
