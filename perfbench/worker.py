"""One measuring process of the benchmark.

``run.py`` starts it, with BLAS and OpenMP pools set to one thread, and reads
the JSON object on the last line of its stdout.  It imports the package from
``src/``, sets the workload up, and runs ops in a closed loop: the next op
starts when the previous op and its checks return.

With ``--trace 1`` it runs the workload untraced for a quarter of
``--seconds`` (the baseline for the tracing overhead), then installs the
tracer and runs it traced, and returns the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
UNTRACED_SHARE = 0.25  # of --seconds, in a traced run, for the overhead baseline
SETUP_QUANTA = 10  # quanta timed right after set-up, to scale setup_s


@dataclass
class Phase:
    """Ops of one timed loop: host seconds per op and what the checks found."""

    op_s: list = field(default_factory=list)
    quantum_s: list = field(default_factory=list)  # mean quantum time per op
    epochs: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.op_s)


def run_phase(wl, clock, seconds: float, cycle: int, tracer=None, sampler=None) -> Phase:
    """Closed loop until ``seconds`` would pass.  Ops run in whole cycles of
    ``cycle`` ops, so that every input of a cycle is run equally often; a
    further cycle is started while a median op-plus-check time still fits.
    With a ``sampler``, op times exclude its quanta and come with the mean
    quantum time during each op."""
    phase = Phase()
    loop_s: list[float] = []
    begin = clock()
    i = wl.ops_started
    while True:
        spent = clock() - begin
        done = phase.attempted > 0 and phase.attempted % cycle == 0
        if done and spent + statistics.median(loop_s) > seconds:
            break
        if tracer is not None:
            tracer.op_id = i
        before = sampler.sample() if sampler is not None else None
        t0 = clock()
        try:
            result = wl.run_op(i)
        except Exception:
            result = None
            traceback.print_exc(file=sys.stderr)
        t1 = clock()
        if sampler is None:
            phase.op_s.append(t1 - t0)
        else:
            op_s, quantum_s = sampler.op_time(before, t0, t1)
            phase.op_s.append(op_s)
            phase.quantum_s.append(quantum_s)
        if tracer is not None:
            tracer.op_id = -1
        if result is None:
            fails, notes = [f"op {i} raised"], {}
        else:
            phase.epochs += wl.epochs_per_op
            fails, notes = wl.check(i, result)
        for msg in fails:
            print(f"check failed: {msg}", file=sys.stderr)
        phase.failed += bool(fails)
        for key, value in notes.items():
            phase.notes[key] = phase.notes.get(key, 0) + value
        loop_s.append(clock() - t0)
        i += 1
        wl.ops_started = i
    return phase


def traced(wl, seconds: float) -> tuple[Phase, dict]:
    from layers import LayerStats, layer_metrics
    from tracer import Tracer

    # both phases run every input equally often, so that per-op counts repeat
    # exactly and the overhead compares like with like
    tracer = Tracer()
    tracer.install("abrsim", {})
    wl.setup()
    tracer.uninstall()
    t0 = time.perf_counter()
    base = run_phase(wl, time.perf_counter, seconds * UNTRACED_SHARE, wl.n_inputs)
    left = seconds - (time.perf_counter() - t0)
    stats = LayerStats()
    tracer.install("abrsim", stats.hooks())
    try:
        phase = run_phase(wl, tracer.now, left, wl.n_inputs, tracer)
    finally:
        tracer.uninstall()
    spans = WORK / f"spans-{wl.name}.npz"
    tracer.save(spans)
    out = {
        "metrics": layer_metrics(
            tracer, stats, phase, base.epochs / sum(base.op_s), phase.epochs / sum(phase.op_s)
        ),
        "lines": [
            f"traced {phase.attempted} ops after {base.attempted} untraced; "
            f"{len(tracer.start)} spans in {spans.relative_to(ROOT)}",
            *(f"absent: {name}" for name in tracer.absent),
        ],
        "absent": tracer.absent,
    }
    phase.failed += base.failed
    phase.op_s = base.op_s + phase.op_s
    return phase, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--first-op", type=int, required=True,
                        help="op id to start at, so workers continue one sequence")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import abrsim
    import workloads

    if not Path(abrsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: abrsim imported from {abrsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size == "tiny", WORK / args.workload)
    wl.ops_started = args.first_op
    if args.trace:
        phase, out = traced(wl, args.seconds)
    else:
        from reference import Sampler

        wl.setup()
        out = {"ready_wall": time.time()}
        with Sampler() as sampler:
            for _ in range(SETUP_QUANTA):
                sampler.sample()
            out["setup_quantum_s"] = statistics.fmean(m[1] for m in sampler.marks)
            phase = run_phase(wl, time.perf_counter, args.seconds, wl.cycle, sampler=sampler)
    if args.first_op == 0:
        # a second, untimed pass over the first input, so that every run
        # compares two passes even when each input was timed once
        try:
            fails, _ = wl.check(0, wl.run_op(0))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            fails = ["the repeat pass raised"]
        for msg in fails:
            print(f"check failed on the repeat pass: {msg}", file=sys.stderr)
        phase.failed += bool(fails)
    out.update(
        op_s=phase.op_s,
        quantum_s=phase.quantum_s,
        epochs=phase.epochs,
        failed=phase.failed,
        notes=phase.notes,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        digest=wl.digest(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
