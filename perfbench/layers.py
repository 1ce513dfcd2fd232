"""Per-layer metrics of a traced run (``run.py --trace 1``).

Counts and times are per op unless the name ends in ``.ms``/``.p50_ms`` (per
call) or ``_share`` (a ratio, with its base in the README).  Call counts,
``l2a.step_taken_share`` and ``session.stall_epochs`` come from a
deterministic program and repeat exactly for a seed.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

# name -> unit; BENCHMARK.json lists the same names, units and directions.
UNITS = {
    "metrics.solve_benchmark.calls": "count/op",
    "metrics.solve_benchmark.self_ms": "ms/op",
    "metrics.solve_benchmark.p50_ms": "ms",
    "metrics.solve_benchmark.op_share": "share",
    "metrics.solve_benchmark.slack_share": "share",
    "metrics.solve_benchmark.slack_gap": "s",
    "metrics.regret_and_residuals.ms": "ms",
    "metrics.qoe_metrics.ms": "ms",
    "simplex.project_simplex.calls.in_metrics": "count/op",
    "simplex.project_simplex.calls.in_l2a": "count/op",
    "simplex.project_simplex.self_ms.in_metrics": "ms/op",
    "simplex.project_simplex.self_ms.in_l2a": "ms/op",
    "l2a.l2a_decide.calls": "count/op",
    "l2a.l2a_decide.self_ms": "ms/op",
    "l2a.step_taken_share": "share",
    "baselines.rb_decide.calls": "count/op",
    "baselines.rb_decide.self_ms": "ms/op",
    "baselines.bb_decide.calls": "count/op",
    "baselines.bb_decide.self_ms": "ms/op",
    "session.step.calls": "count/op",
    "session.step.self_ms": "ms/op",
    "session.run_session.self_ms": "ms/op",
    "session.stall_epochs": "count/op",
    "session.export_log_csv.ms": "ms",
    "session.read_log_csv.ms": "ms",
    "session.log_bytes": "bytes/op",
    "session.log_series_mismatch": "count/op",
    "channel.download.calls": "count/op",
    "channel.download.self_ms": "ms/op",
    "channel.download.multi_sample_share": "share",
    "channel.load_trace.ms": "ms",
    "channel.load_trace.samples": "count",
    "media.load_manifest.ms": "ms",
    "media.synthesize_manifest.ms": "ms",
    "cli.run_compare.self_ms": "ms/op",
    "cli.artifact_bytes": "bytes/op",
    "trace.epochs_per_s": "1/s",
    "trace.overhead_share": "share",
    "trace.absent_wrappers": "count",
}


def window_means(dt: np.ndarray, k: int, sliding: bool) -> np.ndarray:
    """Mean per-epoch download time of every length-k window: the solver's
    constraint rows, rebuilt here because the package's helper is private."""
    t_total, n = dt.shape
    if sliding:
        cum = np.vstack([np.zeros((1, n)), np.cumsum(dt, axis=0)])
        return (cum[k:] - cum[:-k]) / k
    count = t_total // k
    return dt[: count * k].reshape(count, k, n).sum(axis=1) / k


def min_slack(manifest, realized_rate_kbps, k, segment_duration_s, b_max_s, sliding) -> float:
    """True minimum uniform slack of a benchmark instance, by HiGHS.

    minimize s  s.t.  lower - s <= W omega <= upper + s,  omega on the simplex.
    """
    from scipy.optimize import linprog

    rates = np.asarray(realized_rate_kbps, dtype=float)
    t_total = rates.size
    windows = window_means(manifest.segment_sizes_kbit[:t_total] / rates[:, None], k, sliding)
    m, n = windows.shape
    upper = float(segment_duration_s)
    lower = upper - float(b_max_s) / t_total
    ones = np.ones((m, 1))
    res = linprog(
        np.r_[np.zeros(n), 1.0],
        A_ub=np.vstack([np.hstack([windows, -ones]), np.hstack([-windows, -ones])]),
        b_ub=np.r_[np.full(m, upper), np.full(m, -lower)],
        A_eq=np.r_[np.ones(n), 0.0][None, :],
        b_eq=[1.0],
        bounds=[(0, None)] * (n + 1),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.x[-1])


class LayerStats:
    """Counters filled by tracer hooks, which run outside all span timing."""

    def __init__(self) -> None:
        self.slack: list[float] = []
        self.slack_gap: list[float] = []
        self.epochs = 0
        self.stall_epochs = 0
        self.multi_sample = 0
        self.gamma = 0
        self.decisions = 0
        self.log_bytes = 0
        self.trace_samples: list[int] = []
        self.artifact_bytes = 0

    def hooks(self) -> dict:
        return {
            "metrics.solve_benchmark": self._solve,
            "session.run_session": self._session,
            "session.export_log_csv": self._export,
            "channel.load_trace": self._load_trace,
            "cli.run_compare": self._compare,
        }

    def _solve(self, args, sol) -> None:
        self.slack.append(sol.slack_used)
        best = min_slack(
            args["manifest"], args["realized_rate_kbps"], args["k"],
            args["segment_duration_s"], args["b_max_s"], args["sliding"],
        )
        self.slack_gap.append(sol.slack_used - best)

    def _session(self, args, state) -> None:
        history = state.history
        ts = args["trace"].timestamps_s
        d = np.array([rec.download_s for rec in history])
        gap = d + np.array([rec.delta_s for rec in history])
        starts = np.concatenate(([0.0], np.cumsum(gap)[:-1]))
        last = ts.size - 1
        i = np.searchsorted(ts, starts, side="right") - 1
        crosses = (i < last) & (starts + d > ts[np.minimum(i + 1, last)])
        self.epochs += len(history)
        self.multi_sample += int(crosses.sum())
        self.stall_epochs += sum(1 for rec in history if rec.stall)
        policy_state = getattr(args["policy"], "state", None)
        if hasattr(policy_state, "gamma"):
            self.gamma += policy_state.gamma
            self.decisions += policy_state.t

    def _export(self, args, _) -> None:
        self.log_bytes += os.path.getsize(args["path"])

    def _load_trace(self, _, trace) -> None:
        self.trace_samples.append(trace.num_samples)

    def _compare(self, args, _) -> None:
        out = Path(args["out_dir"])
        self.artifact_bytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, stats: LayerStats, phase, untraced_eps: float, traced_eps: float) -> dict:
    """Every per-layer metric of a traced phase, as name -> value.  The two
    epoch rates are in raw host time, from the same worker."""
    notes = phase.notes
    cols = tracer.table()
    n_ops = len(phase.op_s)
    in_op = cols["op"] >= 0

    def spans(name, setup=False):
        if name not in tracer.names:
            return np.zeros(0, dtype=int)
        mask = cols["name"] == tracer.names.index(name)
        return np.nonzero(mask & (~in_op if setup else in_op))[0]

    def calls(name):
        return spans(name).size / n_ops

    def self_ms(name):
        return float(cols["self"][spans(name)].sum()) * 1e3 / n_ops

    def per_call_ms(name, setup=False, stat=np.mean):
        idx = spans(name, setup)
        return float(stat(cols["dur"][idx])) * 1e3 if idx.size else 0.0

    solve = "metrics.solve_benchmark"
    out = {
        f"{solve}.calls": calls(solve),
        f"{solve}.self_ms": self_ms(solve),
        f"{solve}.p50_ms": per_call_ms(solve, stat=np.median),
        f"{solve}.op_share": float(cols["dur"][spans(solve)].sum()) / sum(phase.op_s),
        f"{solve}.slack_share": _ratio(sum(1 for s in stats.slack if s > 0), len(stats.slack)),
        f"{solve}.slack_gap": float(np.mean(stats.slack_gap)) if stats.slack_gap else 0.0,
        "metrics.regret_and_residuals.ms": per_call_ms("metrics.regret_and_residuals"),
        "metrics.qoe_metrics.ms": per_call_ms("metrics.qoe_metrics"),
        "l2a.l2a_decide.calls": calls("l2a.l2a_decide"),
        "l2a.l2a_decide.self_ms": self_ms("l2a.l2a_decide"),
        "l2a.step_taken_share": _ratio(stats.gamma, stats.decisions),
        "session.step.calls": calls("session.step"),
        "session.step.self_ms": self_ms("session.step"),
        "session.run_session.self_ms": self_ms("session.run_session"),
        "session.stall_epochs": stats.stall_epochs / n_ops,
        "session.export_log_csv.ms": per_call_ms("session.export_log_csv"),
        "session.read_log_csv.ms": per_call_ms("session.read_log_csv"),
        "session.log_bytes": stats.log_bytes / n_ops,
        "session.log_series_mismatch": notes.get("log_series_mismatch", 0) / n_ops,
        "channel.download.calls": calls("channel.download"),
        "channel.download.self_ms": self_ms("channel.download"),
        "channel.download.multi_sample_share": _ratio(stats.multi_sample, stats.epochs),
        "channel.load_trace.ms": per_call_ms("channel.load_trace"),
        "channel.load_trace.samples": float(np.mean(stats.trace_samples)) if stats.trace_samples else 0.0,
        "media.load_manifest.ms": per_call_ms("media.load_manifest"),
        "media.synthesize_manifest.ms": per_call_ms("media.synthesize_manifest", setup=True),
        "cli.run_compare.self_ms": self_ms("cli.run_compare"),
        "cli.artifact_bytes": stats.artifact_bytes / n_ops,
        "trace.epochs_per_s": traced_eps,
        "trace.overhead_share": 1.0 - traced_eps / untraced_eps,
        "trace.absent_wrappers": float(len(tracer.absent)),
    }
    for site in ("metrics", "l2a"):
        span = f"simplex.project_simplex.in_{site}"
        out[f"simplex.project_simplex.calls.in_{site}"] = calls(span)
        out[f"simplex.project_simplex.self_ms.in_{site}"] = self_ms(span)
    for policy in ("rb", "bb"):
        span = f"baselines.{policy}_decide"
        out[f"{span}.calls"] = calls(span)
        out[f"{span}.self_ms"] = self_ms(span)
    return out
