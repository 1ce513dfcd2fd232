"""Session quality metrics, the hindsight benchmark solver, and regret series.

Five session metrics over a completed log: average bitrate (optionally
normalized across the methods being compared), stability (switch frequency),
smoothness (switch amplitude), consistency (stall seconds against the viewing
time budget) and continuity (stall count against the resumable segment
budget).  The benchmark is the best fixed decision distribution in hindsight
whose average download time stays within bounds over every length-K window of
the realized channel; regret is the cumulative loss gap against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .media import Manifest
from .session import EpochRecord
from .simplex import project_simplex

__all__ = [
    "BenchmarkSolution",
    "ConvergenceSeries",
    "SessionReport",
    "evaluate_session",
    "normalize_avg_bitrate",
    "qoe_metrics",
    "regret_and_residuals",
    "solve_benchmark",
]


@dataclass
class SessionReport:
    """Per-session metric summary plus optional convergence series."""

    avg_bitrate_kbps: float
    stability: float
    smoothness: float
    consistency: float
    continuity: float
    normalized_avg_bitrate: float | None = None
    regret_rate: list[float] | None = None
    residual1_rate: list[float] | None = None
    residual2_rate: list[float] | None = None
    flags: list[str] = field(default_factory=list)


def qoe_metrics(
    history: Sequence[EpochRecord],
    manifest: Manifest,
    tau: int,
    duration_s: float,
) -> SessionReport:
    """Compute the five session metrics from a completed per-epoch log.

    ``duration_s`` is the viewer's time budget, normally the content duration
    T*V.  A stall at epoch t contributes the download time of the tau
    resume segments minus the buffer that was left, all against that budget.
    Consistency is reported unclamped and flagged when the stall penalty
    exceeds the budget; horizons too short for switch metrics report 1 and
    are flagged.
    """
    if tau < 1:
        raise ValueError("tau must be at least 1")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    flags: list[str] = []
    t_total = len(history)
    if t_total == 0:
        return SessionReport(0.0, 1.0, 1.0, 1.0, 1.0, flags=["empty-log"])

    rates = np.array([rec.bitrate_kbps for rec in history])
    avg = float(rates.mean())
    r_lo = manifest.bitrates_kbps[0]
    r_hi = manifest.bitrates_kbps[-1]
    if t_total < 2:
        stability = 1.0
        smoothness = 1.0
        flags.append("short-horizon")
    else:
        jumps = np.abs(np.diff(rates))
        stability = 1.0 - float(np.count_nonzero(jumps)) / (t_total - 1)
        smoothness = 1.0 - float(jumps.sum()) / ((r_hi - r_lo) * (t_total - 1))

    downloads = np.array([rec.download_s for rec in history])
    before = np.array([rec.buffer_before_s for rec in history])
    stalled = before < downloads
    penalty = 0.0
    for t in np.nonzero(stalled)[0]:
        penalty += float(downloads[t : t + tau].sum()) - float(before[t])
    consistency = 1.0 - penalty / duration_s
    if consistency < 0:
        flags.append("consistency-negative")
    continuity = 1.0 - float(stalled.sum()) / math.ceil(t_total / tau)

    return SessionReport(avg, stability, smoothness, consistency, continuity, flags=flags)


def normalize_avg_bitrate(reports: Iterable[SessionReport]) -> list[SessionReport]:
    """Scale each report's average bitrate by the best across the set.

    The best method in the comparison set scores exactly 1.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("no reports to normalize")
    best = max(r.avg_bitrate_kbps for r in reports)
    for r in reports:
        r.normalized_avg_bitrate = 1.0 if best == 0 else r.avg_bitrate_kbps / best
    return reports


# ---------------------------------------------------------------------------
# Hindsight benchmark


@dataclass
class BenchmarkSolution:
    """Best fixed distribution in hindsight over windowed buffer constraints."""

    omega_star: tuple[float, ...]
    objective: float  # expected bitrate under omega_star, kbps
    max_window_violation: float  # against the unslackened constraints
    slack_used: float  # 0 when the instance is feasible as stated


_FEAS_TOL = 1e-9
_PHASE1_ITERS = 3000
_PHASE2_ITERS = 4000
_STALL_LIMIT = 400  # iterations without 1e-6 objective improvement


def _window_means(dt: np.ndarray, k: int, sliding: bool) -> np.ndarray:
    """Average per-epoch download-time rows over every length-k window."""
    t_total, n = dt.shape
    if sliding:
        cum = np.vstack([np.zeros((1, n)), np.cumsum(dt, axis=0)])
        return (cum[k:] - cum[:-k]) / k
    count = t_total // k
    return dt[: count * k].reshape(count, k, n).sum(axis=1) / k


def _max_violation(windows: np.ndarray, omega: np.ndarray, upper: float, lower: float) -> float:
    z = windows @ omega
    return float(max(0.0, np.max(np.maximum(z - upper, lower - z))))


def _phase1_min_slack(windows, upper, lower, n):
    """Projected subgradient on the worst-window violation; returns an
    achievable slack (an upper bound on the minimum) and the point attaining it."""
    omega = np.full(n, 1.0 / n)
    best_v = _max_violation(windows, omega, upper, lower)
    best_omega = omega
    scale = float(np.abs(windows).max()) or 1.0
    for i in range(1, _PHASE1_ITERS + 1):
        z = windows @ omega
        over = z - upper
        under = lower - z
        k_over = int(np.argmax(over))
        k_under = int(np.argmax(under))
        if over[k_over] <= 0 and under[k_under] <= 0:
            return 0.0, omega
        grad = windows[k_over] if over[k_over] >= under[k_under] else -windows[k_under]
        omega = project_simplex(omega - grad / (scale * math.sqrt(i)))
        v = _max_violation(windows, omega, upper, lower)
        if v < best_v:
            best_v, best_omega = v, omega
    return best_v, best_omega


def _phase2_penalty(windows, upper, lower, rates, start, slack):
    """Projected subgradient on an exact-penalty objective.

    Rows are normalized so the penalty weight has a uniform meaning; the
    weight escalates until the incumbent satisfies every window within the
    slack.  Stops once the best objective stalls below 1e-6 improvement.
    """
    norms = np.linalg.norm(windows, axis=1)
    norms[norms == 0] = 1.0
    rows = windows / norms[:, None]
    hi = (upper + slack) / norms
    lo = (lower - slack) / norms
    obj_grad = rates / rates[-1]

    best_omega = None
    best_obj = -math.inf
    mu = 10.0
    for _ in range(5):
        omega = start.copy()
        stall = 0
        for i in range(1, _PHASE2_ITERS + 1):
            z = rows @ omega
            over = z > hi
            under = z < lo
            grad = -obj_grad + mu * (rows[over].sum(axis=0) - rows[under].sum(axis=0))
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-15:
                break
            omega = project_simplex(omega - grad / (gnorm * math.sqrt(i)))
            if _max_violation(windows, omega, upper + slack, lower - slack) <= _FEAS_TOL:
                obj = float(rates @ omega)
                if obj > best_obj + 1e-6:
                    best_obj, best_omega = obj, omega
                    stall = 0
                else:
                    stall += 1
                    if stall >= _STALL_LIMIT:
                        break
        if best_omega is not None:
            return best_omega
        mu *= 10.0
    return start


def _polish_candidates(windows, upper, lower, rates, incumbent, slack):
    """Exact refinement: the optimum of a linear objective sits on a vertex of
    the feasible polytope, so enumerate vertex candidates and keep the best
    feasible one.

    Candidates: the incumbent, every one-hot vector, every point where a
    single window boundary crosses a two-level support segment, and (for
    three or more levels) intersections of pairs of near-active window
    boundaries with three-level supports.
    """
    n = rates.size
    hi = upper + slack + _FEAS_TOL
    lo = lower - slack - _FEAS_TOL
    cands = [np.asarray(incumbent, dtype=float)]
    cands.extend(np.eye(n))

    for i, j in combinations(range(n), 2):
        denom = windows[:, j] - windows[:, i]
        with np.errstate(divide="ignore", invalid="ignore"):
            for bound in (upper + slack, lower - slack):
                w = (bound - windows[:, i]) / denom
                w = w[np.isfinite(w) & (w > 0.0) & (w < 1.0)]
                for wv in np.unique(w):
                    vec = np.zeros(n)
                    vec[i] = 1.0 - wv
                    vec[j] = wv
                    cands.append(vec)

    if n >= 3:
        cands.extend(_three_support_candidates(windows, upper + slack, lower - slack, incumbent, n))

    cand_arr = np.array(cands)
    best_obj = -math.inf
    best = None
    for chunk in np.array_split(cand_arr, max(1, len(cand_arr) // 2048)):
        z = chunk @ windows.T
        worst = np.max(np.maximum(z - hi, lo - z), axis=1)
        feasible = worst <= 0.0
        if not feasible.any():
            continue
        objs = chunk[feasible] @ rates
        k = int(np.argmax(objs))
        if objs[k] > best_obj:
            best_obj = float(objs[k])
            best = chunk[feasible][k]
    return best


def _three_support_candidates(windows, hi, lo, incumbent, n, per_side=12):
    """Vertices pinned by two window boundaries and a three-level support."""
    z = windows @ incumbent
    idx_hi = np.argsort(np.abs(hi - z))[:per_side]
    idx_lo = np.argsort(np.abs(z - lo))[:per_side]
    actives = [(int(k), hi) for k in idx_hi] + [(int(k), lo) for k in idx_lo]
    out = []
    for (k1, b1), (k2, b2) in combinations(actives, 2):
        if k1 == k2 and b1 == b2:
            continue
        for support in combinations(range(n), 3):
            cols = list(support)
            mat = np.array([[1.0, 1.0, 1.0], windows[k1, cols], windows[k2, cols]])
            rhs = np.array([1.0, b1, b2])
            det = np.linalg.det(mat)
            if abs(det) < 1e-12:
                continue
            sol = np.linalg.solve(mat, rhs)
            if np.all(sol >= -1e-12):
                vec = np.zeros(n)
                vec[cols] = np.maximum(sol, 0.0)
                total = vec.sum()
                if total > 0:
                    out.append(vec / total)
    return out


def solve_benchmark(
    manifest: Manifest,
    realized_rate_kbps,
    k: int,
    segment_duration_s: float,
    b_max_s: float,
    sliding: bool = True,
) -> BenchmarkSolution:
    """Best fixed distribution in hindsight under windowed buffer constraints.

    Maximizes the expected bitrate subject to every length-``k`` window of the
    realized channel keeping the average download time between the overflow
    allowance (V - b_max/T) and the segment duration V.  Solved by projected
    subgradient on an exact-penalty objective, then polished exactly over
    vertex candidates.  When no distribution satisfies the constraints, the
    smallest achievable uniform slack is found first and reported.
    """
    rates_c = np.asarray(realized_rate_kbps, dtype=float)
    t_total = rates_c.size
    if not 1 <= k <= t_total:
        raise ValueError(f"window k={k} outside 1..{t_total}")
    if t_total > manifest.num_segments:
        raise ValueError("more realized rates than manifest segments")
    if np.any(rates_c <= 0):
        raise ValueError("realized rates must be positive")

    sizes = manifest.segment_sizes_kbit[:t_total]
    ladder = np.asarray(manifest.bitrates_kbps, dtype=float)
    dt = sizes / rates_c[:, None]
    windows = _window_means(dt, k, sliding)
    upper = float(segment_duration_s)
    lower = float(segment_duration_s) - float(b_max_s) / t_total

    n = ladder.size
    slack, feas_point = _phase1_min_slack(windows, upper, lower, n)
    if slack <= _FEAS_TOL:
        slack = 0.0

    incumbent = _phase2_penalty(windows, upper, lower, ladder, feas_point, slack)
    polished = _polish_candidates(windows, upper, lower, ladder, incumbent, slack)
    omega = polished if polished is not None else feas_point
    omega = np.maximum(omega, 0.0)
    omega = omega / omega.sum()

    return BenchmarkSolution(
        omega_star=tuple(float(w) for w in omega),
        objective=float(ladder @ omega),
        max_window_violation=_max_violation(windows, omega, upper, lower),
        slack_used=float(slack),
    )


# ---------------------------------------------------------------------------
# Regret and constraint residuals


@dataclass
class ConvergenceSeries:
    """Cumulative rates R_t/t and V^i_t/t along one session."""

    regret_rate: np.ndarray | None
    residual1_rate: np.ndarray
    residual2_rate: np.ndarray
    one_hot_fallback: bool


def regret_and_residuals(
    history: Sequence[EpochRecord],
    manifest: Manifest,
    benchmark: BenchmarkSolution | None,
    segment_duration_s: float,
    b_max_s: float,
) -> ConvergenceSeries:
    """Per-epoch cumulative regret and constraint-residual rates.

    Uses each epoch's logged decision distribution when present; index-only
    policies fall back to the one-hot distribution of the chosen quality
    (flagged), on which the expected and raw per-decision values coincide.
    Regret requires a benchmark solution; pass None to get residuals only.
    """
    t_total = len(history)
    ladder = np.asarray(manifest.bitrates_kbps, dtype=float)
    n = ladder.size
    if t_total == 0:
        empty = np.zeros(0)
        return ConvergenceSeries(empty if benchmark else None, empty, empty, False)

    omegas = np.zeros((t_total, n))
    fallback = False
    for idx, rec in enumerate(history):
        if rec.omega is None:
            omegas[idx, rec.x - 1] = 1.0
            fallback = True
        else:
            omegas[idx] = rec.omega

    sizes = manifest.segment_sizes_kbit[:t_total]
    rates_c = np.array([rec.rate_kbps for rec in history])
    expected_dl = np.einsum("tn,tn->t", sizes, omegas) / rates_c
    g1 = expected_dl - segment_duration_s
    g2 = segment_duration_s - expected_dl - b_max_s / t_total
    epochs = np.arange(1, t_total + 1)
    residual1 = np.cumsum(g1) / epochs
    residual2 = np.cumsum(g2) / epochs

    regret = None
    if benchmark is not None:
        star = float(ladder @ np.asarray(benchmark.omega_star))
        losses = -(omegas @ ladder)
        regret = (np.cumsum(losses) + epochs * star) / epochs

    return ConvergenceSeries(regret, residual1, residual2, fallback)


# ---------------------------------------------------------------------------
# The evaluation pipeline


def evaluate_session(
    history: Sequence[EpochRecord],
    manifest: Manifest,
    b_max_s: float,
    tau: int,
    k: int,
    sliding: bool = True,
) -> tuple[SessionReport, BenchmarkSolution]:
    """Score one session log against its hindsight benchmark.

    Solves the benchmark over length-``k`` windows of the log's realized
    channel rates, then returns the five session metrics (viewing budget:
    the manifest's duration) with the regret and residual series filled in,
    together with the benchmark solution.  A log without decision
    distributions is scored on its one-hot choices and flagged
    ``one-hot-omega``.
    """
    v = manifest.segment_duration_s
    bench = solve_benchmark(
        manifest, [rec.rate_kbps for rec in history], k, v, b_max_s, sliding=sliding
    )
    series = regret_and_residuals(history, manifest, bench, v, b_max_s)
    report = qoe_metrics(history, manifest, tau, manifest.duration_s)
    report.regret_rate = list(series.regret_rate)
    report.residual1_rate = list(series.residual1_rate)
    report.residual2_rate = list(series.residual2_rate)
    if series.one_hot_fallback:
        report.flags.append("one-hot-omega")
    return report, bench
