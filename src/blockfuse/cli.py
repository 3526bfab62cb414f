"""Batch command-line front end: search -> apply-mask -> fine-tune ->
shrink -> verify -> report.

Exit codes: 0 success, 1 domain error (JSON object on stderr), 2 usage
error. Every subcommand writes its outputs into a directory containing
graph.json / weights.dswt / mask.json / report.json as applicable.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .autodiff import extract_params
from .core import ActivationKind
from .cost import cost_report
from .errors import BlockfuseError
from .expand import expand_for_training
from .fixtures import generate
from .graph import apply_mask_vector
from .merge import insert_free_activations, shrink_graph, verify_equivalence
from .train import (
    TrainConfig,
    accuracy,
    finetune,
    load_dataset_raw,
    search_masks,
    synthetic_two_class,
    write_log,
)


def _resolve(path_arg: str, weights_arg=None, payloads: bool = True):
    """Accept a directory (graph.json + weights.dswt inside) or a graph file. A
    weights file named on the command line must exist; the weights.dswt beside
    the graph is optional. `payloads` goes to `io.load_weights`."""
    p = Path(path_arg)
    graph_path = p / "graph.json" if p.is_dir() else p
    weights_path = Path(weights_arg) if weights_arg else graph_path.with_name("weights.dswt")
    graph = io.load_graph(graph_path)
    if weights_arg or weights_path.exists():
        graph = io.bind_weights(graph, io.load_weights(weights_path, payloads))
    return graph


def _write_outputs(out_dir: Path, graph=None, weights=None, mask=None, report=None,
                   log=None):
    out_dir.mkdir(parents=True, exist_ok=True)
    if graph is not None:
        io.save_graph(graph, out_dir / "graph.json")
    if weights is not None:
        io.save_weights(weights, out_dir / "weights.dswt")
    if mask is not None:
        io.save_mask(mask, out_dir / "mask.json")
    if report is not None:
        with open(out_dir / "report.json", "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    if log is not None:
        write_log(log, out_dir / "log.jsonl")


def _add_seed(p, precision: bool = False):
    p.add_argument("--seed", type=int, default=0)
    if precision:
        p.add_argument("--precision", choices=("f32", "f64"), default="f64")


def _add_training(p):
    """The arguments `search` and `finetune` share."""
    p.add_argument("--graph", required=True)
    p.add_argument("--weights")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--data", help="raw dataset file; default: synthetic toy set")
    p.add_argument("--data-samples", type=int, default=128)
    p.add_argument("--out", required=True)
    _add_seed(p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockfuse",
        description="Block-fusion compiler: activation-mask search and exact "
                    "merging of linear layer chains into dense convolutions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fixture", help="write a named fixture network")
    p.add_argument("name")
    p.add_argument("--out", required=True)
    _add_seed(p, precision=True)

    p = sub.add_parser("cost", help="FLOPs / footprint report")
    p.add_argument("--graph", required=True)
    p.add_argument("--weights")
    p.add_argument("--latency")
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--out")

    p = sub.add_parser("shrink", help="merge every mask-0 block to a dense conv")
    p.add_argument("--graph", required=True)
    p.add_argument("--weights")
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--free-act", action="store_true",
                   help="append a free ReLU6 after each merged conv")

    p = sub.add_parser("verify", help="numerical equivalence of two graphs")
    p.add_argument("--before", required=True)
    p.add_argument("--after", required=True)
    p.add_argument("--before-weights")
    p.add_argument("--after-weights")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--out")
    _add_seed(p, precision=True)

    p = sub.add_parser("search", help="differentiable top-k activation search")
    _add_training(p)
    p.add_argument("--latency")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--decay", type=float, default=0.0)

    p = sub.add_parser("finetune", help="fine-tune a mask-applied network")
    _add_training(p)
    p.add_argument("--mask", required=True)
    p.add_argument("--label-smoothing", type=float, default=0.0)
    p.add_argument("--distill", action="store_true",
                   help="self-distill from the unmasked original network")
    p.add_argument("--distill-alpha", type=float, default=0.5)
    p.add_argument("--distill-temperature", type=float, default=1.0)
    p.add_argument("--free-act", action="store_true",
                   help="insert free ReLU6 nodes after to-be-merged blocks")

    p = sub.add_parser("expand", help="expand convs into mergeable IRBs")
    p.add_argument("--graph", required=True)
    p.add_argument("--weights")
    p.add_argument("--out", required=True)
    _add_seed(p)
    return parser


def _cmd_gen_fixture(args) -> int:
    graph, masks = generate(args.name, seed=args.seed)
    out = Path(args.out)
    weights = io.weights_of_graph(graph)
    if args.precision == "f32":
        weights = {k: v.astype(np.float32) for k, v in weights.items()}
    _write_outputs(out, graph=graph, weights=weights)
    for label, mask in masks.items():
        io.save_mask(mask, out / f"mask_{label}.json")
    report = cost_report(graph)
    print(f"fixture {args.name}: {len(graph.nodes)} nodes, "
          f"{len(graph.blocks)} blocks, {report.total_flops / 1e9:.4f} GFLOPs")
    return 0


def _cmd_cost(args) -> int:
    graph = _resolve(args.graph, args.weights, payloads=False)  # MACs need shapes only
    latency = io.load_latency_table(args.latency) if args.latency else None
    report = cost_report(graph, precision_bits=args.bits, latency=latency)
    print(report.to_table())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=1)
            fh.write("\n")
    return 0


def _cmd_shrink(args) -> int:
    graph = _resolve(args.graph, args.weights)
    mask = io.load_mask(args.mask)
    free = ActivationKind.RELU6 if args.free_act else None
    shrunk, report = shrink_graph(graph, mask, free_activation=free)
    _write_outputs(Path(args.out), graph=shrunk, weights=io.weights_of_graph(shrunk),
                   mask=mask, report=report.to_json())
    merged = sum(1 for r in report.records if r.merged)
    print(f"merged {merged}/{len(report.records)} blocks")
    return 0


def _cmd_verify(args) -> int:
    before = _resolve(args.before, args.before_weights)
    after = _resolve(args.after, args.after_weights)
    report = verify_equivalence(before, after, args.samples, args.tol, args.seed,
                                precision=args.precision)
    print(json.dumps(report.to_json()))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=1)
            fh.write("\n")
    if not report.passed:
        print(json.dumps({"error": "equivalence check failed",
                          "report": report.to_json()}), file=sys.stderr)
        return 1
    return 0


def _training_inputs(args, **settings):
    """The TrainConfig, graph and dataset of a `search` or `finetune` run;
    `settings` are the TrainConfig fields only one of the two commands sets."""
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
                      seed=args.seed, **settings)
    graph = _resolve(args.graph, args.weights)
    _, channels, size, _ = graph.input_dims
    dataset = load_dataset_raw(args.data) if args.data else \
        synthetic_two_class(args.data_samples, channels, size, seed=args.seed)
    return cfg, graph, dataset


def _cmd_search(args) -> int:
    cfg, graph, dataset = _training_inputs(args, decay_strength=args.decay)
    latency = io.load_latency_table(args.latency) if args.latency else None
    log: list = []
    state, ranked, params = search_masks(graph, extract_params(graph), dataset,
                                         latency, cfg, args.k, log=log)
    mask = [int(v) for v in state.m_hat]
    _write_outputs(Path(args.out), graph=graph, weights=params, mask=mask, log=log,
                   report={"scores": state.m.tolist(), "k": state.k,
                           "ranked_for_removal": ranked})
    print(f"kept blocks (mask=1): {[i for i, v in enumerate(mask) if v]}; "
          f"removal ranking: {ranked}")
    return 0


def _cmd_finetune(args) -> int:
    cfg, graph, dataset = _training_inputs(
        args, distill="on" if args.distill else "off", distill_alpha=args.distill_alpha,
        distill_temperature=args.distill_temperature,
        label_smoothing=args.label_smoothing)
    mask = io.load_mask(args.mask)
    student = apply_mask_vector(graph, mask)
    if args.free_act:
        student = insert_free_activations(student, mask)
    teacher = (graph, extract_params(graph)) if args.distill else None
    log: list = []
    params = finetune(student, extract_params(student), dataset, cfg,
                      teacher=teacher, log=log)
    acc = accuracy(student, params, dataset)
    _write_outputs(Path(args.out), graph=student, weights=params, mask=mask, log=log,
                   report={"train_accuracy": acc})
    print(f"fine-tuned {cfg.epochs} epochs; train accuracy {acc:.3f}")
    return 0


def _cmd_expand(args) -> int:
    graph = _resolve(args.graph, args.weights)
    expanded = expand_for_training(graph, seed=args.seed)
    _write_outputs(Path(args.out), graph=expanded,
                   weights=io.weights_of_graph(expanded),
                   report={"blocks": len(expanded.blocks),
                           "nodes": len(expanded.nodes)})
    print(f"expanded: {len(graph.nodes)} -> {len(expanded.nodes)} nodes, "
          f"{len(graph.blocks)} -> {len(expanded.blocks)} blocks")
    return 0


_COMMANDS = {
    "gen-fixture": _cmd_gen_fixture,
    "cost": _cmd_cost,
    "shrink": _cmd_shrink,
    "verify": _cmd_verify,
    "search": _cmd_search,
    "finetune": _cmd_finetune,
    "expand": _cmd_expand,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BlockfuseError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1
    except OSError as exc:  # a missing file, a directory, a path through a file
        name = "FileNotFound" if isinstance(exc, FileNotFoundError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
