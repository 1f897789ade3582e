"""Command-line pipeline: simulate -> train -> basecall -> eval -> report.

Each subcommand validates its inputs up front, writes outputs atomically, and
drops a resolved config JSON next to them. Reads run in order, and outputs
are deterministic for a fixed seed: every read gets its own RNG stream,
spawned in read order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import sys
from functools import partial

import numpy as np

from . import __version__
from .decode import call_read, iter_basecalls, viterbi, write_basecalls
from .evaluate import (
    CHAIN_10,
    DEFAULT_DEDUP_RADIUS,
    DEFAULT_WINDOW_SIZE,
    SINGLE_13,
    StrategyConfig,
    build_windows,
    check_grid,
    load_report,
    sweep,
    write_points,
    write_report,
)
from .io import atomic_write, read_fasta, write_fasta
from .pore_model import (
    DEFAULT_ORDER_PROBS,
    TransitionModel,
    load_events,
    load_pore_model,
    make_hmm,
    write_events,
    write_pore_model,
)
from .seeding import build_index
from .simulate import (
    CONTIG,
    DEFAULT_CORPUS_SEED,
    DEFAULT_EVENTS_PER_READ,
    DEFAULT_READ_COUNT,
    DEFAULT_REFERENCE_LENGTH,
    simulate_corpus,
    synthetic_pore_model,
    write_true_paths,
    load_true_paths,
    load_truth,
    write_truth,
)
from .train import (
    count_transitions,
    estimate_transitions,
    load_transition_model,
    save_transition_model,
)

log = logging.getLogger("ensembleseed")


def _list_of(kind, text: str) -> list:
    """A non-empty comma-separated list of ``kind`` (int or float) values, for argparse."""
    noun = {int: "integer", float: "number"}[kind]
    try:
        values = [kind(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated {noun}s, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one {noun}, got {text!r}")
    return values


def _write_config(out_dir: str, name: str, args: argparse.Namespace) -> None:
    resolved = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    with atomic_write(os.path.join(out_dir, f"{name}_config.json")) as fh:
        json.dump(resolved, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_transitions(args, k: int) -> TransitionModel:
    """The ``--transitions`` model, checked against the pore model's k, or a per-order one."""
    if args.transitions:
        model = load_transition_model(args.transitions)
        if model.k != k:
            raise ValueError(f"transition model has k={model.k}, but the pore model has k={k}")
        return model
    return TransitionModel.per_order(k, order_probs=args.order_probs or DEFAULT_ORDER_PROBS)


def cmd_simulate(args) -> int:
    pore = synthetic_pore_model(args.model_k, seed=args.seed)
    hmm = make_hmm(pore, _load_transitions(args, args.model_k))
    reference, reads = simulate_corpus(
        hmm,
        reference_length=args.ref_length,
        read_count=args.reads,
        events_per_read=args.events_per_read,
        seed=args.seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    write_fasta(os.path.join(args.out_dir, "reference.fasta"), [(CONTIG, reference)])
    write_pore_model(os.path.join(args.out_dir, "pore_model.tsv"), pore)
    write_events(os.path.join(args.out_dir, "events.jsonl"), [r.events for r in reads])
    write_truth(os.path.join(args.out_dir, "truth.tsv"), reads)
    write_true_paths(os.path.join(args.out_dir, "true_paths.jsonl"), reads)
    _write_config(args.out_dir, "simulate", args)
    log.info("simulated %d reads over a %d bp reference", len(reads), len(reference))
    return 0


# The flags each ``train --source`` needs, and the flags it would ignore.
TRAIN_SOURCE_FLAGS = {
    "truth": (["--true-paths"], ["--events", "--pore-model", "--transitions", "--order-probs"]),
    "viterbi": (["--events", "--pore-model"], ["--true-paths"]),
}


def cmd_train(args) -> int:
    needs, ignores = TRAIN_SOURCE_FLAGS[args.source]
    given = {"--" + name.replace("_", "-") for name, value in vars(args).items() if value}
    if not given.issuperset(needs):
        raise ValueError(f"--source {args.source} requires {' and '.join(needs)}")
    unused = [flag for flag in ignores if flag in given]
    if unused:
        raise ValueError(f"--source {args.source} does not use {', '.join(unused)}")
    if args.source == "truth":
        paths = list(load_true_paths(args.true_paths).values())
    else:
        pore = load_pore_model(args.pore_model)
        if args.model_k != pore.k:
            raise ValueError(f"pore model has k={pore.k}, but --model-k is {args.model_k}")
        hmm = make_hmm(pore, _load_transitions(args, pore.k))
        events = load_events(args.events)
        paths = [viterbi(hmm, ev) for ev in events]
    counts = count_transitions(paths, args.model_k, args.max_shift)
    model = estimate_transitions(counts, args.mode, pseudocount=args.pseudocount)
    os.makedirs(args.out_dir, exist_ok=True)
    save_transition_model(
        os.path.join(args.out_dir, "transitions.tsv"), model, pseudocount=args.pseudocount
    )
    _write_config(args.out_dir, "train", args)
    log.info("trained %s model from %d transitions", args.mode, counts.total)
    return 0


def cmd_basecall(args) -> int:
    if args.n < 0:
        raise ValueError(f"--n must be >= 0, got {args.n}")
    pore = load_pore_model(args.pore_model)
    hmm = make_hmm(pore, _load_transitions(args, pore.k))
    events = load_events(args.events)
    streams = np.random.SeedSequence(args.seed).spawn(max(1, len(events)))
    ensembles = (call_read(hmm, ev, args.n, stream) for ev, stream in zip(events, streams))
    made = not os.path.isdir(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    out = partial(os.path.join, args.out_dir)
    try:
        write_basecalls(out("basecalls.fasta"), out("spans.jsonl"), ensembles)
    except BaseException:
        if made:  # the writer has removed its temporary files
            os.rmdir(args.out_dir)
        raise
    _write_config(args.out_dir, "basecall", args)
    log.info("base-called %d reads (n=%d samples each)", len(events), args.n)
    return 0


def _strategies(args) -> list[StrategyConfig]:
    single_k = SINGLE_13.seed_k if args.seed_k is None else args.seed_k
    chain_k = CHAIN_10.seed_k if args.seed_k is None else args.seed_k
    common = dict(chain_len=args.chain_len, min_gap=args.min_gap, max_gap=args.max_gap)
    return [
        StrategyConfig(kind="single", seed_k=single_k),
        StrategyConfig(kind="chain", seed_k=chain_k, **common),
        StrategyConfig(kind="single", seed_k=single_k, use_viterbi=True),
        StrategyConfig(kind="chain", seed_k=chain_k, use_viterbi=True, **common),
    ]


def cmd_eval(args) -> int:
    strategies = _strategies(args)
    check_grid(args.t, args.n, args.dedup_radius)
    if args.window < 1:
        raise ValueError(f"window size must be >= 1, got {args.window}")
    records = read_fasta(args.reference)
    if len(records) != 1:
        raise ValueError(f"{args.reference}: expected exactly one reference sequence")
    reference = records[0][1]
    # grid points with t > n score zero without drawing samples
    need = max((n for n in args.n if n >= min(args.t)), default=0)
    truth, true_paths = load_truth(args.truth), load_true_paths(args.true_paths)

    def read_windows(first_pass: bool):
        for ens in iter_basecalls(args.basecalls, args.spans):
            read_id = ens.read_id
            if len(ens.samples) < need:
                have = f"read {read_id} in {args.basecalls} has {len(ens.samples)}"
                raise ValueError(f"--n {need} needs {need} sample calls per read, but {have}")
            for path, table in ((args.truth, truth), (args.true_paths, true_paths)):
                if read_id not in table:
                    raise ValueError(f"read {read_id} missing from {path}")
            # a call's first event emits its whole k-mer; build_windows refuses a call of no event
            k = int(ens.viterbi.lengths[0]) if ens.viterbi.lengths.size else 0
            windows = build_windows(ens, truth[read_id], true_paths[read_id], k, args.window)
            if first_pass:
                log.info("read %s: %d windows", read_id, len(windows))
            yield from windows

    # One pass over the reads per seed length, each read checked before its windows are
    # cut, and one index alive at a time: it is dropped when its sweep returns. The first
    # window is read before the index is built, so a bad first read fails before any index.
    grid = (args.t, args.n, args.dedup_radius)
    lengths = list(dict.fromkeys(c.seed_k for c in strategies))
    rows = []
    for length in lengths:
        stream = read_windows(length == lengths[0])
        first = list(itertools.islice(stream, 1))
        mine = [c for c in strategies if c.seed_k == length]
        rows += sweep(itertools.chain(first, stream), build_index(reference, length), mine, *grid)
    labels = [c.label for c in strategies]
    rows.sort(key=lambda row: labels.index(row.strategy))
    os.makedirs(args.out_dir, exist_ok=True)
    write_report(os.path.join(args.out_dir, "report.tsv"), rows)
    _write_config(args.out_dir, "eval", args)
    return 0


def cmd_report(args) -> int:
    rows = load_report(args.report)
    groups: dict[tuple[str, int], list] = {}
    for row in rows:
        groups.setdefault((row.strategy, row.t), []).append(row)
    os.makedirs(args.out_dir, exist_ok=True)
    for (strategy, t), group in sorted(groups.items()):
        write_points(os.path.join(args.out_dir, f"points_{strategy}_t{t}.tsv"), group)
    _write_config(args.out_dir, "report", args)
    log.info("wrote %d points files", len(groups))
    return 0


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    model = p.add_mutually_exclusive_group()
    model.add_argument(
        "--order-probs", type=partial(_list_of, float), default=None,
        help="per-order transition probabilities, comma separated (stay,move,skip...)",
    )
    model.add_argument("--transitions", default=None, help="trained transition model TSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ensembleseed",
        description="Event-HMM base calling with posterior ensembles and k-mer seeding.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic corpus")
    p.add_argument("--model-k", type=int, default=5, help="HMM k-mer length")
    _add_model_flags(p)
    p.add_argument("--ref-length", type=int, default=DEFAULT_REFERENCE_LENGTH)
    p.add_argument("--reads", type=int, default=DEFAULT_READ_COUNT)
    p.add_argument("--events-per-read", type=int, default=DEFAULT_EVENTS_PER_READ)
    p.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="estimate transition probabilities from paths")
    p.add_argument("--model-k", type=int, default=5, help="HMM k-mer length")
    _add_model_flags(p)
    p.add_argument("--source", choices=("truth", "viterbi"), default="truth")
    p.add_argument("--true-paths", default=None, help="true_paths.jsonl from simulate")
    p.add_argument("--events", default=None, help="events.jsonl (for --source viterbi)")
    p.add_argument("--pore-model", default=None, help="pore model TSV (for --source viterbi)")
    p.add_argument("--mode", choices=("per-order", "per-transition"), default="per-order")
    p.add_argument("--pseudocount", type=int, default=1)
    p.add_argument("--max-shift", type=int, default=2, help="largest skip order to train")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("basecall", help="Viterbi call plus posterior samples per read")
    _add_model_flags(p)
    p.add_argument("--events", required=True)
    p.add_argument("--pore-model", required=True)
    p.add_argument("--n", type=int, default=250, help="posterior samples per read")
    p.add_argument("--seed", type=int, default=DEFAULT_CORPUS_SEED)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_basecall)

    p = sub.add_parser("eval", help="windowed seeding sensitivity/FP sweep")
    p.add_argument("--reference", required=True)
    p.add_argument("--basecalls", required=True)
    p.add_argument("--spans", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--true-paths", required=True)
    p.add_argument("--window", type=int, default=DEFAULT_WINDOW_SIZE)
    p.add_argument("--seed-k", type=int, default=None,
                   help="seed length override (default: 13 single, 10 chain)")
    p.add_argument("--chain-len", type=int, default=CHAIN_10.chain_len)
    p.add_argument("--min-gap", type=int, default=CHAIN_10.min_gap)
    p.add_argument("--max-gap", type=int, default=CHAIN_10.max_gap)
    p.add_argument("--dedup-radius", type=int, default=DEFAULT_DEDUP_RADIUS)
    integers = partial(_list_of, int)
    p.add_argument("--t", type=integers, default=[1], help="support thresholds, comma separated")
    p.add_argument("--n", type=integers, default=[1], help="sample counts, comma separated")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("report", help="convert a report TSV into FP/TP points files")
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("ENSEMBLESEED_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"ensembleseed {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
