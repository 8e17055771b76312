"""Write one workload's inputs for a seed and print the calls of a round.

    python3 perfbench/make_inputs.py --workload class-sums --seed 1 --out DIR

The files land in DIR; each printed line is one CLI call of a round, as
`python -m zeta_workbench.cli ARGS`, writing its outputs under DIR/out.
Enumerate calls also need ZETA_CACHE_DIR pointed at an empty directory.
"""

from __future__ import annotations

import argparse
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    out = args.out.resolve()
    (out / "out").mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload].Workload(args.seed, out)
    for _, call_args, _ in workload.calls(out / "out"):
        print("python -m zeta_workbench.cli " + shlex.join(call_args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
