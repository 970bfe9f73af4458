"""Time one set-up in a fresh interpreter and print the seconds.

Set-up runs from before `import drivecoach` to the end of the first env step:
config resolution, the teacher stack, `Trainer(...)` (two policy nets and the
env), one reset and one step. run.py starts this script several times per
run and reports the median.

    python3 perfbench/setup_probe.py --workload highway-free --seed 0 --out DIR
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS, build_trainer, resolve_config

    workload = WORKLOADS[args.workload]
    start = time.perf_counter()
    cfg = resolve_config(workload, args.seed, args.out)  # first drivecoach import
    trainer = build_trainer(cfg)
    from drivecoach.sim.vehicles import Maneuver

    trainer.env.reset(seed=args.seed)
    trainer.env.step(Maneuver.Cruise)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
