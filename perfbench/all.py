"""Run every workload untraced and traced, one process each, and print every
end-to-end and per-layer metric side by side with its unit and n.

    python3 perfbench/all.py --seed 0 [--seconds 30]

This covers merge-guided too, which BENCHMARK.json leaves out while its
training fails (see perfbench/README.md).
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RECORD_PREFIX = "run record: "


def run_one(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{name} trace {trace} exited {proc.returncode}: {proc.stderr.strip()}")
    line = next(l for l in proc.stdout.splitlines() if l.startswith(RECORD_PREFIX))
    return json.loads(line[len(RECORD_PREFIX):])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    records = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            rec = run_one(name, args.seed, args.seconds, trace)
            records[name, trace] = rec
            print(f"{name} trace {trace}: {rec['attempted']} operations, {rec['failed']} failed")
            for err in rec["errors"]:
                print(f"  failed {err['op']} x{err['count']}: {err['error']}")
            if rec["quality"]:
                print(f"  quality {rec['quality']} digests {rec['digests']}")

    width = 20
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        print(f"\n{section} (seed {args.seed})")
        print(f"{'metric':32s} {'unit':6s}" + "".join(f"{n:>{width}s}" for n in WORKLOADS))
        for metric in spec[section]:
            cells = []
            for name in WORKLOADS:
                m = records[name, trace]["metrics"][metric["name"]]
                value = "n/a" if m["value"] is None else f"{m['value']:.4g}"
                cells.append(f"{value} n={m['n']}".rjust(width))
            print(f"{metric['name']:32s} {metric['unit']:6s}" + "".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
