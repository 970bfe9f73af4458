"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload highway-free --seed 0 --seconds 40 --trace 0

Run from the repository root; `drivecoach` is imported from ./src. With
--trace 0 it prints the end-to-end metrics of BENCHMARK.json, with --trace 1
the per-layer metrics of a traced run. The last line of stdout is the result
as one JSON object; the run record and, when traced, the spans are written to
.perfbench_runs/.
"""

import os

# BLAS threads are fixed before numpy is first imported; everything else
# in the benchmark runs on one thread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUP_PER_REPEAT = 3  # set-up probes before each repeat, so they spread over the run
MIN_REPEATS = 2  # the artifact digests are compared across repeats of one seed
EVAL_SECONDS = 1.0  # per repeat, resume and evaluate pairs run at least this long
REFERENCE_NOMINAL_S = 0.005  # the reference kernel's time that timings are scaled to
REFERENCE_RUNS = 9


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep repeating the workload until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- run record -------------------------------------------------------------------

def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads(np) -> int | None:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads": _blas_threads(np),
    }


# --- measurement ------------------------------------------------------------------

def setup_seconds(workload, seed: int, run_dir: Path) -> float:
    """One set-up in a fresh interpreter, so imports are paid again. A probe
    that fails stops the benchmark: without set-up nothing else can run."""
    out = run_dir / "setup"
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload.name,
           "--seed", str(seed), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    if proc.returncode != 0:
        lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
        raise RuntimeError(f"set-up probe failed: {lines[-1]}")
    return float(proc.stdout.split()[-1])


def one_repeat(ops, workload, seed: int, run_dir: Path, done: list,
               eval_seconds=EVAL_SECONDS):
    """Run one repeat and fail its training if the artifacts differ from an
    earlier repeat of the same seed."""
    out = run_dir / f"repeat{len(done)}"
    try:
        rep = ops.run_repeat(workload, seed, out, eval_seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    earlier = next((r for r in done if r.ok("train")), None)
    if rep.ok("train") and earlier is not None and rep.digests != earlier.digests:
        differ = sorted(k for k in rep.digests if rep.digests[k] != earlier.digests[k])
        rep.ops[0] = ("train", f"CheckFailed: artifacts differ across repeats of one seed: {differ}")
    done.append(rep)
    return rep


def median_or_none(values):
    return statistics.median(values) if values else None


def reference_seconds(matrix) -> float:
    """Median time of a fixed kernel, interpreter loop plus small matmuls like
    the program's own mix. It shows how fast the host runs right now."""
    times = []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(50):
            matrix @ matrix
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure_end_to_end(ops, workload, seed, seconds, run_dir):
    """Every timing is scaled by the host's speed while it was taken: the
    reference kernel runs before and after each repeat, and a sample is
    multiplied (rates) or divided (times) by the mean of the two readings
    over REFERENCE_NOMINAL_S. The host this was tuned on drifted by half
    again over minutes, far past any bound, while scaled samples held."""
    import numpy as np

    matrix = np.random.default_rng(0).random((128, 128))
    refs = [reference_seconds(matrix)]
    setup, train, evals, repeats = [], [], [], []
    start = time.perf_counter()
    while len(repeats) < MIN_REPEATS or time.perf_counter() - start < seconds:
        probes = [setup_seconds(workload, seed, run_dir) for _ in range(SETUP_PER_REPEAT)]
        rep = one_repeat(ops, workload, seed, run_dir, repeats)
        refs.append(reference_seconds(matrix))
        slowdown = (refs[-2] + refs[-1]) / 2 / REFERENCE_NOMINAL_S
        setup += [s / slowdown for s in probes]
        if rep.ok("train"):
            train.append(rep.run_steps / rep.train_s * slowdown)
        evals += [rate * slowdown for rate in rep.eval_rates]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "train_steps_per_s": (median_or_none(train), len(train)),
        "eval_steps_per_s": (median_or_none(evals), len(evals)),
        "setup_s": (median_or_none(setup), len(setup)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
    }
    samples = {"train_steps_per_s": train, "eval_steps_per_s": evals, "setup_s": setup,
               "reference_s": refs}
    return metrics, repeats, {"samples": samples}


def measure_per_layer(ops, workload, seed, seconds, run_dir):
    import spans

    recorder = spans.SpanRecorder()
    targets = spans.drivecoach_targets()
    plain, traced, repeats = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        # alternate which side of a pair goes first, so drift favours neither;
        # one evaluation per repeat keeps the per-repeat counts exact
        for side in ((plain, traced) if len(plain) % 2 == 0 else (traced, plain)):
            with spans.patched(recorder, targets) if side is traced else contextlib.nullcontext():
                side.append(one_repeat(ops, workload, seed, run_dir, repeats, 0.0))
    rate = lambda reps: [r.run_steps / r.train_s for r in reps if r.ok("train")]
    overhead = (statistics.median(rate(traced)) / statistics.median(rate(plain))
                if rate(traced) and rate(plain) else 0.0)
    ckpt = next((r.checkpoint_bytes for r in repeats if r.ok("train")), 0)
    metrics = spans.layer_metrics(recorder.spans, len(traced), ckpt, overhead,
                                  min(len(rate(traced)), len(rate(plain))))
    with open(run_dir / "spans.jsonl", "w") as f:
        for span in recorder.spans:
            f.write(json.dumps(span) + "\n")
    tails = {name: spans.tail_q(n) for name, (_, n) in metrics.items()
             if name.endswith("_p99")}
    return metrics, repeats, {"tail_percentile_used": tails}


# --- main ---------------------------------------------------------------------------

def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    if not (SRC / "drivecoach" / "__init__.py").is_file():
        print(f"error: drivecoach sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    import ops

    workload = WORKLOADS[args.workload]
    units = declared_metrics(args.trace)
    run_dir = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    measure = measure_per_layer if args.trace else measure_end_to_end
    metrics, repeats, notes = measure(ops, workload, args.seed, args.seconds, run_dir)
    if set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(set(metrics) ^ set(units))} "
                           "disagree with BENCHMARK.json")

    operations = [op for rep in repeats for op in rep.ops]
    errors = Counter(op for op in operations if op[1] is not None)
    attempted = len(operations)
    failed = sum(errors.values())
    first_ok = next((r for r in repeats if r.ok("train")), None)
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "repeats": len(repeats),
        **environment(),
        "metrics": {name: {"value": value, "unit": units[name], "n": n}
                    for name, (value, n) in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "errors": [{"op": op, "error": err, "count": count}
                   for (op, err), count in sorted(errors.items())],
        "quality": first_ok.quality if first_ok else None,
        "digests": first_ok.digests if first_ok else None,
        **notes,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(repeats)} repeats, {attempted} operations, {failed} failed")
    for (op, err), count in sorted(errors.items()):
        print(f"  failed {op} x{count}: {err}")
    for name, (value, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown:>14s} {units[name]:8s} n={n}")
    print("run record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
