"""abrsim benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload compare_vod --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
measuring is done by ``worker.py`` processes, started one after another, with
BLAS and OpenMP pools set to one thread.

``--trace 0`` splits ``--seconds`` over up to five workers and reports the
end-to-end metrics as medians over the workers: on a shared host the speed
of identical work differs between processes far more than within one.
``--trace 1`` runs one worker, which times the workload untraced and then
traced, and reports the per-layer metrics.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the same numbers for
people, plus the run record (versions, seed, simulation digest), which is
also written to ``.perfbench/<workload>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("compare_vod", "sessions_live", "replay_io")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKERS = 5
MIN_WORKERS = 2  # digests and artifacts are compared across workers
DEADLINE_S = 170.0  # the whole run ends within 180 s

# end-to-end metric -> unit; BENCHMARK.json lists the same names and units
E2E_UNITS = {
    "epochs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def run_worker(args, seconds: float, first_op: int, env: dict, deadline: float) -> tuple[dict, float]:
    """Run one worker to completion; returns its result and its start time."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(seconds),
        "--trace", str(args.trace), "--size", args.size, "--first-op", str(first_op),
    ]
    spawned = time.time()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def run_workers(args, env: dict) -> list[dict]:
    """Split ``--seconds`` evenly over up to WORKERS workers.  A further worker
    is started only while a median worker still fits, or fewer than
    MIN_WORKERS ran."""
    begin = time.perf_counter()
    deadline = begin + DEADLINE_S
    results, walls = [], []
    while len(results) < WORKERS:
        left = args.seconds - (time.perf_counter() - begin)
        if len(results) >= MIN_WORKERS and left < statistics.median(walls):
            break
        t0 = time.perf_counter()
        first_op = sum(len(r["op_s"]) for r in results)
        share = max(left, 0.0) / (WORKERS - len(results))
        result, spawned = run_worker(args, share, first_op, env, deadline)
        walls.append(time.perf_counter() - t0)
        result["setup_s"] = result["ready_wall"] - spawned
        results.append(result)
    return results


def op_tail(op_s: list) -> tuple[float, str]:
    """Highest percentile of op time with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    x = sorted(op_s)
    n = len(x)
    if n < 11:
        return x[-1], f"max of {n}"
    return x[n - 11], f"p{100.0 * (n - 10) / n:.1f} of {n}"


def summarize(results: list[dict], ops: str, setup: str) -> tuple[dict, str]:
    """End-to-end metrics from the per-op times under key ``ops``."""
    tail, tail_label = op_tail([s for r in results for s in r[ops]])
    values = {
        "epochs_per_s": statistics.median(r["epochs"] / sum(r[ops]) for r in results),
        "op_p50_ms": statistics.median(statistics.median(r[ops]) for r in results) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(r[setup] for r in results),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    return values, tail_label


def end_to_end(results: list[dict]) -> tuple[dict, dict, list[str]]:
    """Metrics at the reference speed, the same in raw host time, and notes.

    Each op's time is scaled by NOMINAL_S over the mean quantum time during
    it; a worker's set-up by NOMINAL_S over the mean of the quanta timed right
    after it.
    """
    for r in results:
        r["scaled_s"] = scaled(r["op_s"], r["quantum_s"])
        r["scaled_setup_s"] = r["setup_s"] * NOMINAL_S / r["setup_quantum_s"]
    values, tail_label = summarize(results, "scaled_s", "scaled_setup_s")
    raw, _ = summarize(results, "op_s", "setup_s")
    lines = [
        f"{len(results)} workers; times scaled to a {NOMINAL_S * 1e3:g} ms reference quantum; "
        "all but op_tail_ms are medians over workers",
        f"op_tail_ms is the {tail_label} op times of all workers",
        "raw host time: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if k != "peak_rss_mb"),
        "quantum ms per worker (median over ops): "
        + ", ".join(f"{statistics.median(r['quantum_s']) * 1e3:.3f}" for r in results),
    ]
    return values, raw, lines


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def version(pkg: str) -> str | None:
    try:
        return importlib.metadata.version(pkg)
    except importlib.metadata.PackageNotFoundError:
        return None


def run_record(args, env: dict, digest: dict) -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "abrsim").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "commit": commit(),
        "src_sha256": src.hexdigest(),
        "digest": digest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input, for the smoke run")
    args = parser.parse_args(argv)

    if not (SRC / "abrsim" / "__init__.py").is_file():
        print(f"perfbench: no abrsim package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    try:
        if args.trace:
            results = [run_worker(args, args.seconds, 0, env, time.perf_counter() + DEADLINE_S)[0]]
        else:
            results = run_workers(args, env)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["op_s"]) for r in results)
    failed = sum(r["failed"] for r in results)
    digest: dict[str, str] = {}
    for r in results:
        for key, value in r["digest"].items():
            if digest.setdefault(key, value) != value:
                print(f"check failed: workers disagree on digest {key}", file=sys.stderr)
                failed += 1
    if args.trace:
        from layers import UNITS as units

        values, lines = results[0]["metrics"], results[0]["lines"]
    else:
        units = E2E_UNITS
        values, raw, lines = end_to_end(results)
    notes: dict = {}
    for r in results:
        for key, value in r["notes"].items():
            notes[key] = notes.get(key, 0) + value

    record = run_record(args, env, digest)
    record["metrics"] = values
    if not args.trace:
        record["raw_host_time"] = raw
        record["quantum_s"] = [r["quantum_s"] for r in results]
    record["known_defects"] = notes
    record["op_s"] = [r["op_s"] for r in results]
    (WORK / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, value in values.items():
        print(f"  {name:44s} {value:14.6g} {units[name]}")
    print(f"  {'error_rate':44s} {failed / attempted:14.6g} ({failed} of {attempted} ops failed)")
    for line in lines:
        print(f"  {line}")
    print("  known defects, not counted as errors: " + (json.dumps(notes) if notes else "none"))
    print("  record " + json.dumps({k: v for k, v in record.items() if k not in ("metrics", "op_s", "quantum_s")}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
