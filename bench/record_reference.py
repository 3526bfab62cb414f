"""Record the train workload's loss trajectory (the first PASSES passes) for
a range of seeds into reference_train.json, which the workload's check
compares against.

    python3 bench/record_reference.py FIRST_SEED LAST_SEED
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PASSES = 2


def main(first: int, last: int) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import REFERENCE_FILE, Train

    reference = {}
    if REFERENCE_FILE.exists():
        with open(REFERENCE_FILE, encoding="utf-8") as fh:
            reference = json.load(fh)
    for seed in range(first, last + 1):
        wl = Train(seed, ROOT / ".bench_out")  # writes no files
        wl.setup()
        for i in range(PASSES):
            failures = wl.record(i, {label: call() for label, call in wl.ops(i)})
            if failures:
                raise SystemExit(f"seed {seed}: {failures}")
        reference[str(seed)] = wl.losses
        print(seed, wl.losses, flush=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items(), key=lambda kv: int(kv[0]))), fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]), int(sys.argv[2]))
