"""Run a fixed blockfuse CLI pipeline and print `sha256  relpath` of each output.

A change that should leave every output the same shows it with one diff:

    python tools/cli_digest.py > after.txt
    python tools/cli_digest.py --src /path/to/other/checkout/src > before.txt
    diff before.txt after.txt

The pipeline: gen-fixture of toy-irb-3, vgg-toy and mbv2-1.4 (seed 7); shrink of
mbv2-1.4 under DS-A and DS-F, and `cost --out` of the DS-F shrink; expand of
vgg-toy; expand of toy-irb-3 (5 blocks, 1 and 4 nested in 0 and 3) and its `cost
--out`, whose peak activations count each block's skip; the expanded toy-irb-3's
shrink under [1,0,1,1,0], which merges the two nested blocks, and under
[0,0,0,0,0], which merges each nested block with the block that holds it; shrink
of toy-irb-3 under [0,1,0] with free activations; a distilled finetune of
toy-irb-3 under that mask with free activations, then its shrink and verify; a
search of toy-irb-3 for k=1 with a latency table and L1 decay, so the score update
runs; a search of toy-irb-3 for k=0, where every block activation is gated 0. Each
command runs in its own interpreter with `--src` first on PYTHONPATH (default:
this checkout's src). Outputs go to a temporary directory that is removed
afterwards, or to `--out`, which is kept.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TRAIN = ["--epochs", "2", "--data-samples", "32"]
PIPELINE = [
    ["gen-fixture", "toy-irb-3", "--seed", "7", "--out", "toy"],
    ["gen-fixture", "vgg-toy", "--seed", "7", "--out", "vgg"],
    ["gen-fixture", "mbv2-1.4", "--seed", "7", "--out", "mbv2"],
    ["shrink", "--graph", "mbv2", "--mask", "mbv2/mask_DS-A.json", "--out", "mbv2_DS-A"],
    ["shrink", "--graph", "mbv2", "--mask", "mbv2/mask_DS-F.json", "--out", "mbv2_DS-F"],
    ["cost", "--graph", "mbv2_DS-F", "--out", "mbv2_DS-F_cost.json"],
    ["expand", "--graph", "vgg", "--out", "vgg_expanded"],
    ["expand", "--graph", "toy", "--out", "toy_expanded"],
    ["cost", "--graph", "toy_expanded", "--out", "toy_expanded_cost.json"],
    ["shrink", "--graph", "toy_expanded", "--mask", "mask_10110.json",
     "--out", "toy_expanded_shrunk"],
    ["shrink", "--graph", "toy_expanded", "--mask", "mask_00000.json",
     "--out", "toy_expanded_all"],
    ["shrink", "--graph", "toy", "--mask", "mask_010.json", "--free-act",
     "--out", "toy_free_act"],
    ["finetune", "--graph", "toy", "--mask", "mask_010.json", "--free-act", "--distill",
     *TRAIN, "--out", "finetune"],
    ["shrink", "--graph", "finetune", "--mask", "mask_010.json", "--out", "finetune_shrunk"],
    ["verify", "--before", "finetune", "--after", "finetune_shrunk",
     "--out", "finetune_verify.json"],
    ["search", "--graph", "toy", "--k", "1", "--latency", "latency.csv", "--decay", "0.01",
     *TRAIN, "--out", "search"],
    ["search", "--graph", "toy", "--k", "0", *TRAIN, "--out", "search_k0"],
]


def run_pipeline(src: Path, work: Path) -> None:
    (work / "mask_010.json").write_text("[0, 1, 0]\n", encoding="utf-8")
    (work / "mask_10110.json").write_text("[1, 0, 1, 1, 0]\n", encoding="utf-8")
    (work / "mask_00000.json").write_text("[0, 0, 0, 0, 0]\n", encoding="utf-8")
    (work / "latency.csv").write_text("block_id,latency_ms\n0,1.5\n1,3.0\n2,0.75\n",
                                      encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    for argv in PIPELINE:
        done = subprocess.run([sys.executable, "-m", "blockfuse.cli", *argv], cwd=work,
                              env=env, capture_output=True, text=True)
        if done.returncode != 0:
            raise SystemExit(f"blockfuse {' '.join(argv)} exited {done.returncode}:\n"
                             f"{done.stderr}")


def digests(work: Path) -> list:
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work).as_posix()}"
            for p in sorted(work.rglob("*")) if p.is_file()]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src",
                        help="directory holding the blockfuse package to run")
    parser.add_argument("--out", type=Path,
                        help="write the outputs here and keep them (must not exist)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if args.out is not None:
            work = args.out.resolve()
            work.mkdir(parents=True)
        run_pipeline(args.src.resolve(), work)
        print("\n".join(digests(work)))


if __name__ == "__main__":
    main()
