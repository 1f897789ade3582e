"""The ensembleseed benchmark: set up a workload, time the CLI on it, check outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is the ``src/`` of the checkout this file lives in;
the working directory does not matter. Set-up makes the inputs from the
workload seed with the program's own ``simulate`` and ``train --source truth``
(and, for eval-sweep, ``basecall --n 16``), several times, and keeps the last
copy; every repeat must make the same bytes. The timed part
then runs one subcommand through ``ensembleseed.cli.main`` in a fresh
single-threaded interpreter (``child.py``), again and again on the same inputs
until S seconds of child wall time have passed, and checks every child's
outputs. The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it summarise each
metric, the environment and the sha256 of every input and output file. The
same record is written under ``.perfbench_work/results/``.

Workloads (all k=5, 1,500 events per read, 100 kb reference):

* call-n16 - ``basecall --n 16`` on 4 reads: Viterbi and forward dominate.
* call-n250 - ``basecall --n 250`` (the CLI default) on 2 reads: traceback,
  path translation and ``write_basecalls`` dominate.
* eval-sweep - ``eval`` over 6 reads basecalled with n=16 during set-up, at
  t in {1,2} x n in {1,4,8,16}: base-call loading, windows, index builds,
  k-mer collection, hit lookup, chaining and dedup. No HMM kernel runs.

End-to-end metrics (``--trace 0``), each the median over the timed children:
``setup_s`` (median over the set-up repeats), ``reads_per_s`` and
``windows_per_s`` (reads and 500-event windows handled per second of child
wall time, interpreter start included), ``peak_rss_mb`` (the child's
``ru_maxrss``), ``output_mb`` (FASTA plus spans bytes; ``report.tsv`` bytes on
eval-sweep). A read is an operation of ``basecall`` and a report row an
operation of ``eval``; ``failed``/``attempted`` count the operations that
failed a check in ``checks.py``, and a non-zero exit fails them all.

Per-layer metrics (``--trace 1``) come from a traced child (``tracer.py``)
run in pairs with an untraced one on the same inputs; the traced outputs must
be byte-identical. ``<layer>.s`` is the layer's self time in one CLI run: span
durations minus the time their child spans cover (``decode.emission`` is a
child of Viterbi, forward and traceback). A layer that does not run in a
workload reports 0. ``cli.other.s`` is the traced child's wall time outside
every top-level span, ``trace.coverage`` the covered share, and
``trace.overhead_s`` traced minus untraced wall time. Each layer metric should
move these end-to-end metrics:

* decode viterbi/forward/emission and their ``edges_per_s`` -> reads_per_s,
  on call-n16 most;
* decode traceback/translate/calls/write -> reads_per_s, peak_rss_mb and
  output_mb, on call-n250 most;
* decode.load, evaluate.windows, seeding.*, evaluate.points/dedup and
  ``evaluate.valid_ratio`` -> windows_per_s and peak_rss_mb on eval-sweep;
  ``pore_model.load_events`` on the call workloads;
* ``simulate.s`` and ``train.s`` (set-up child wall times) -> setup_s;
* ``cli.import.s`` and ``cli.other.s`` -> every throughput metric, slightly.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import checks
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# Children run in the run directory and get these relative paths, so the
# config files they write, and so their digests, do not depend on where the
# checkout lives.
INPUTS = "inputs"
OUT = "out"

MODEL_K = 5
REF_LENGTH = 100_000
EVENTS_PER_READ = 1500
WINDOW = 500  # eval's default window, in events
T_VALUES = [1, 2]
N_VALUES = [1, 4, 8, 16]
SETUP_REPEATS = 3
RUN_LIMIT_S = 170.0  # every child is killed past this point of a run


@dataclass(frozen=True)
class Workload:
    kind: str  # "basecall" or "eval"
    reads: int
    n: int  # samples per read, in the timed basecall or in set-up


WORKLOADS = {
    "call-n16": Workload("basecall", reads=4, n=16),
    "call-n250": Workload("basecall", reads=2, n=250),
    "eval-sweep": Workload("eval", reads=6, n=16),
}


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {metric["name"]: metric["unit"] for metric in json.load(fh)[kind]}


class SetupError(RuntimeError):
    """A set-up command failed, so there is nothing to time."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        ENSEMBLESEED_LOG="WARNING",
    )
    return env


@dataclass
class ChildResult:
    wall: float
    rss_kb: int
    returncode: int


class Runner:
    """Starts one child at a time, reaps it with its resource usage, kills it at the limit."""

    def __init__(self, cwd: str, log_path: str, deadline: float):
        self.cwd = cwd
        self.log_path = log_path
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv: list[str], spans: str | None = None) -> ChildResult:
        cmd = [sys.executable, os.path.join(HERE, "child.py")]
        cmd += ["--spans", spans] if spans else []
        with open(self.log_path, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(
                cmd + argv, env=self.env, cwd=self.cwd,
                stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        return ChildResult(wall, usage.ru_maxrss, proc.returncode)


def digest_tree(path: str) -> dict[str, str]:
    """Relative file path -> sha256 hex digest, for every file under ``path``."""
    digests = {}
    for dirpath, _, files in os.walk(path):
        for name in files:
            full = os.path.join(dirpath, name)
            with open(full, "rb") as fh:
                digests[os.path.relpath(full, path)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(digests.items()))


def derived_seed(workload: str, seed: int, purpose: str) -> int:
    text = f"{workload}:{seed}:{purpose}".encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big") >> 1


def setup(runner: Runner, name: str, workload: Workload, seed: int) -> dict[str, float]:
    """Make the workload's inputs in ``INPUTS``; returns each step's wall time."""
    sim, train = os.path.join(INPUTS, "sim"), os.path.join(INPUTS, "train")
    steps = [
        ("simulate", [
            "simulate", "--model-k", str(MODEL_K), "--ref-length", str(REF_LENGTH),
            "--reads", str(workload.reads), "--events-per-read", str(EVENTS_PER_READ),
            "--seed", str(derived_seed(name, seed, "corpus")), "--out-dir", sim,
        ]),
        ("train", [
            "train", "--model-k", str(MODEL_K), "--source", "truth",
            "--true-paths", os.path.join(sim, "true_paths.jsonl"), "--out-dir", train,
        ]),
    ]
    if workload.kind == "eval":
        steps.append(("basecall", basecall_argv(workload.n, name, seed, os.path.join(INPUTS, "calls"))))
    times = {}
    for step, argv in steps:
        result = runner.run(argv)
        if result.returncode != 0:
            raise SetupError(f"set-up step {step} exited with {result.returncode}; see {runner.log_path}")
        times[step] = result.wall
    return times


def basecall_argv(n: int, name: str, seed: int, out_dir: str) -> list[str]:
    sim = os.path.join(INPUTS, "sim")
    return [
        "basecall", "--events", os.path.join(sim, "events.jsonl"),
        "--pore-model", os.path.join(sim, "pore_model.tsv"),
        "--transitions", os.path.join(INPUTS, "train", "transitions.tsv"),
        "--n", str(n), "--seed", str(derived_seed(name, seed, "basecall")), "--out-dir", out_dir,
    ]


def eval_argv(out_dir: str) -> list[str]:
    sim, calls = os.path.join(INPUTS, "sim"), os.path.join(INPUTS, "calls")
    return [
        "eval", "--reference", os.path.join(sim, "reference.fasta"),
        "--basecalls", os.path.join(calls, "basecalls.fasta"),
        "--spans", os.path.join(calls, "spans.jsonl"),
        "--truth", os.path.join(sim, "truth.tsv"),
        "--true-paths", os.path.join(sim, "true_paths.jsonl"),
        "--t", ",".join(map(str, T_VALUES)), "--n", ",".join(map(str, N_VALUES)),
        "--out-dir", out_dir,
    ]


class TimedCommand:
    """The timed subcommand of a workload, with its operation count and output check."""

    def __init__(self, name: str, workload: Workload, seed: int, run_dir: str):
        self.workload = workload
        self.out_dir = os.path.join(run_dir, OUT)
        events = checks.event_counts(os.path.join(run_dir, INPUTS, "sim", "events.jsonl"))
        self.events = events
        self.reads = len(events)
        self.windows = sum(count // WINDOW for count in events.values())
        if workload.kind == "basecall":
            self.argv = basecall_argv(workload.n, name, seed, OUT)
            self.outputs = ["basecalls.fasta", "spans.jsonl"]
            self.operations = self.reads
        else:
            self.argv = eval_argv(OUT)
            self.outputs = ["report.tsv"]
            self.operations = len(checks.EVAL_STRATEGIES) * len(T_VALUES) * len(N_VALUES)

    def check(self) -> tuple[int, list[str]]:
        out = self.out_dir
        if self.workload.kind == "basecall":
            return checks.check_basecalls(
                os.path.join(out, "basecalls.fasta"), os.path.join(out, "spans.jsonl"),
                self.events, self.workload.n,
            )
        return checks.check_report(os.path.join(out, "report.tsv"), T_VALUES, N_VALUES, self.windows)

    def output_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(self.out_dir, name)) for name in self.outputs)


class Verdicts:
    """Checks each child's outputs: fully once, then by digest against that reference."""

    def __init__(self, command: TimedCommand):
        self.command = command
        self.reference: dict[str, str] | None = None
        self.reference_failed = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def judge(self, result: ChildResult, traced: bool = False) -> int:
        """Number of the child's operations that failed."""
        ops = self.command.operations
        digests = digest_tree(self.command.out_dir) if result.returncode == 0 else {}
        if result.returncode != 0:
            failed, reasons = ops, [f"exit code {result.returncode}"]
        elif self.reference is None and not traced:
            failed, reasons = self.command.check()
            self.reference, self.reference_failed = digests, failed
        elif digests == self.reference:
            failed, reasons = self.reference_failed, []
        else:
            failed = ops
            reasons = ["traced outputs differ from untraced" if traced else "outputs differ between runs"]
        self.attempted += ops
        self.failed += failed
        self.reasons += reasons
        return failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    """Per-layer values of one traced child, by BENCHMARK.json "per_layer" name."""
    self_s, calls, top = tracer.summarize(trace)
    counts = trace["counts"]

    def rate(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator > 0 else 0.0

    values = {f"{name}.s": self_s.get(name, 0.0) for _, _, name, _ in tracer.LAYERS}
    points = counts.get("evaluate.points.count", 0)
    values.update({
        "decode.viterbi.edges_per_s": rate(counts.get("decode.viterbi.edges", 0), self_s.get("decode.viterbi", 0)),
        "decode.forward.edges_per_s": rate(counts.get("decode.forward.edges", 0), self_s.get("decode.forward", 0)),
        "decode.calls": calls.get("decode.translate", 0),
        "decode.write.bytes": counts.get("decode.write.bytes", 0),
        "seeding.index.calls": calls.get("seeding.index", 0),
        "seeding.index.positions": counts.get("seeding.index.positions", 0),
        "seeding.collect.kmers": counts.get("seeding.collect.kmers", 0),
        "seeding.hits.count": counts.get("seeding.hits.count", 0),
        "seeding.chain.count": counts.get("seeding.chain.count", 0),
        "seeding.chain.yield": rate(counts.get("seeding.chain.count", 0), counts.get("seeding.chain.hits_in", 0)),
        "evaluate.valid_ratio": rate(points - counts.get("evaluate.dedup.invalid", 0), points),
        "cli.import.s": self_s.get("cli.import", 0.0),
        "cli.other.s": wall - top,
        "trace.coverage": top / wall,
    })
    return values


def measure(args, name: str, workload: Workload, run_dir: str, runner: Runner) -> dict:
    inputs = os.path.join(run_dir, INPUTS)
    setups, input_digests, run_errors = [], None, []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        setups.append(setup(runner, name, workload, args.seed))
        digests = digest_tree(inputs)
        if input_digests is not None and digests != input_digests:
            run_errors.append("set-up repeats made different inputs")
        input_digests = digests

    command = TimedCommand(name, workload, args.seed, run_dir)
    out_dir = command.out_dir
    verdicts = Verdicts(command)
    samples: dict[str, list[float]] = {"setup_s": [sum(s.values()) for s in setups]}
    failed_fracs: list[float] = []
    spans_path = os.path.join(run_dir, "spans.json")

    def timed(traced: bool) -> tuple[ChildResult, float]:
        """Runs the command once; returns the child and the share of operations that passed."""
        shutil.rmtree(out_dir, ignore_errors=True)
        if traced and os.path.exists(spans_path):
            os.remove(spans_path)
        result = runner.run(command.argv, spans=spans_path if traced else None)
        failed_fracs.append(verdicts.judge(result, traced) / command.operations)
        return result, 1.0 - failed_fracs[-1]

    measured, pairs = 0.0, 0
    while (measured < args.seconds or not failed_fracs) and time.monotonic() < runner.deadline - 30:
        if not args.trace:
            result, passed = timed(False)
            measured += result.wall
            # Work whose outputs failed a check does not count as done.
            for key, value in [
                ("reads_per_s", passed * command.reads / result.wall),
                ("windows_per_s", passed * command.windows / result.wall),
                ("peak_rss_mb", result.rss_kb * 1024 / 1e6),
                ("output_mb", command.output_bytes() / 1e6 if result.returncode == 0 else 0.0),
            ]:
                samples.setdefault(key, []).append(value)
            continue
        # Alternate which of the pair runs first, so neither gets a warmer machine.
        order = (False, True) if pairs % 2 == 0 else (True, False)
        walls = {}
        for traced in order:
            result, _ = timed(traced)
            walls[traced] = result.wall
            measured += result.wall
            if traced and result.returncode == 0:
                with open(spans_path) as fh:
                    for key, value in layer_metrics(json.load(fh), result.wall).items():
                        samples.setdefault(key, []).append(value)
        samples.setdefault("trace.overhead_s", []).append(walls[True] - walls[False])
        pairs += 1
    if args.trace:
        for step in ("simulate", "train"):
            samples[f"{step}.s"] = [s[step] for s in setups]

    wanted = metric_units("per_layer" if args.trace else "end_to_end")
    missing = [key for key in wanted if not samples.get(key)]
    if missing:
        run_errors.append(f"no samples for {missing}")
    return {
        "samples": samples,
        "units": wanted,
        "failed_fracs": failed_fracs,
        "verdicts": verdicts,
        "errors": run_errors,
        "input_digests": input_digests,
        "output_digests": verdicts.reference or {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "ensembleseed", "cli.py")):
        print(f"perfbench: no ensembleseed sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Turn a termination request into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    name, workload = args.workload, WORKLOADS[args.workload]
    run_dir = os.path.join(WORK, f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(run_dir)
    runner = Runner(run_dir, os.path.join(run_dir, "children.log"), started + RUN_LIMIT_S)
    try:
        result = measure(args, name, workload, run_dir, runner)
    except SetupError as exc:
        with open(runner.log_path, errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        log_tail = os.path.join(WORK, "last_children.log")
        if os.path.exists(runner.log_path):
            shutil.copyfile(runner.log_path, log_tail)
        shutil.rmtree(run_dir, ignore_errors=True)

    verdicts = result["verdicts"]
    correct = verdicts.failed == 0 and not result["errors"]
    status = "ok" if correct else "failed"
    summary = {}
    for key, unit in result["units"].items():
        values = result["samples"].get(key, [])
        if not values:
            continue
        q1, median, q3 = quartiles(values)
        summary[key] = {"unit": unit, "median": median, "q1": q1, "q3": q3, "values": values}
        print(f"{name} {key} {unit} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"samples={len(values)} check={status}")
    q1, median, q3 = quartiles(result["failed_fracs"])
    print(f"{name} failed_frac ratio median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
          f"samples={len(result['failed_fracs'])} check={status}")
    for reason in (result["errors"] + verdicts.reasons)[:10]:
        print(f"{name} check: {reason}")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    for kind in ("input", "output"):
        for path, digest in result[f"{kind}_digests"].items():
            print(f"sha256 {kind} {path} {digest}")

    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": verdicts.attempted, "failed": verdicts.failed,
        "failed_frac": verdicts.failed / max(1, verdicts.attempted),
        "errors": result["errors"], "reasons": verdicts.reasons[:50],
        "metrics": summary, "environment": env,
        "sha256": {"inputs": result["input_digests"], "outputs": result["output_digests"]},
        "elapsed_s": time.monotonic() - started,
    }
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{name}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(json.dumps({
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {key: {"value": s["median"], "unit": s["unit"]} for key, s in summary.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
