"""perfbench's bindings to the package, checked at tiny size.

The benchmark's workloads call the package (``cli.run_compare``,
``cli.build_policy``, ``cli.method_name`` and the session, channel, media and
metrics functions), and its tracer hooks read call arguments by name
(``run_compare``'s ``out_dir``, ``solve_benchmark``'s ``sliding``,
``run_session``'s ``trace`` and ``policy``, ``export_log_csv``'s ``path``).
A package change that breaks one of them would show only when the benchmark
runs, as a failed op, or as one more absent site.  Here each workload sets
up and runs one op per input, with its checks, under the tracer and the
per-layer hooks, as ``perfbench/worker.py`` does in a traced run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the tracer's sites that name a function the package no longer calls there
# (ROADMAP item 20); a binding that breaks adds to this list
STALE_SITES = ["session.download", "session.step", "l2a.project_simplex", "metrics.project_simplex"]


def _perfbench_module(monkeypatch, name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["compare_vod", "sessions_live", "replay_io"])
def test_a_workload_runs_traced_with_every_binding_in_place(tmp_path, monkeypatch, workload):
    tracer_module, layers, workloads = (_perfbench_module(monkeypatch, name)
                                        for name in ("tracer", "layers", "workloads"))
    # built before the tracer is installed, so its checks add no spans
    wl = workloads.WORKLOADS[workload](1, True, tmp_path / workload)
    tracer = tracer_module.Tracer()
    tracer.install("abrsim", layers.LayerStats().hooks())
    fails = []
    try:
        wl.setup()
        for i in range(wl.n_inputs):
            fails += wl.check(i, wl.run_op(i))[0]
    finally:
        tracer.uninstall()
    assert fails == []
    assert sorted(tracer.absent) == sorted(STALE_SITES)
