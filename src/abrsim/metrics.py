"""Session quality metrics, the hindsight benchmark solver, and regret series.

Five session metrics over a completed log: average bitrate (optionally
normalized across the methods being compared), stability (switch frequency),
smoothness (switch amplitude), consistency (stall seconds against the viewing
time budget) and continuity (stall count against the resumable segment
budget).  The benchmark is the best fixed decision distribution in hindsight
whose average download time stays within bounds over every length-K window of
a trace's slot clock, one rate per epoch (``hindsight_benchmark``); regret is
the cumulative loss gap against it.  The benchmark is solved exactly, as two
linear programs (the smallest uniform slack that makes the window bounds
feasible, then the best bitrate at that slack), by a small revised simplex on
their duals: the dual has one row per quality level however many windows
there are.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import is_not
from typing import Iterable

import numpy as np

from .channel import ChannelTrace, require_count, require_positive, slot_clock
from .media import Manifest
from .session import SessionLog, _columns, _pack

__all__ = [
    "BenchmarkSolution",
    "ConvergenceSeries",
    "SessionReport",
    "benchmark_window",
    "hindsight_benchmark",
    "normalize_avg_bitrate",
    "qoe_metrics",
    "regret_and_residuals",
    "solve_benchmark",
]


@dataclass
class SessionReport:
    """The five session metrics, the normalized average bitrate once set, and flags."""

    avg_bitrate_kbps: float
    stability: float
    smoothness: float
    consistency: float
    continuity: float
    normalized_avg_bitrate: float | None = None
    flags: list[str] = field(default_factory=list)


def qoe_metrics(
    history: SessionLog,
    manifest: Manifest,
    tau: int,
    duration_s: float,
) -> SessionReport:
    """Compute the five session metrics from a completed per-epoch log.

    ``duration_s`` is the viewer's time budget, normally the content duration
    T*V.  A stall at epoch t contributes the download time of the tau
    resume segments minus the buffer that was left, all against that budget.
    Consistency and continuity are reported unclamped, each flagged when it
    is below 0; horizons too short for switch metrics report 1 and are
    flagged.  ``history`` is a ``SessionLog`` that ``run_session`` returned
    or that ``session.replay_log`` accepted, and its fields are not checked
    again here.  A ``tau`` that is not an integer of at least 1, or a
    ``duration_s`` that is not positive and finite, is a ValueError.
    """
    require_count("tau", tau)
    require_positive("duration_s", duration_s)
    flags: list[str] = []
    t_total = len(history)
    if t_total == 0:
        return SessionReport(0.0, 1.0, 1.0, 1.0, 1.0, flags=["empty-log"])

    columns = _columns(history)
    rates = _pack(columns["bitrate_kbps"])
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

    downloads = _pack(columns["download_s"])
    before = _pack(columns["buffer_before_s"])
    stalled = before < downloads
    penalty = 0.0
    # Python ints, so a slice past the end clips for any tau, 2**63 included
    for t in np.nonzero(stalled)[0].tolist():
        penalty += float(downloads[t : t + tau].sum()) - float(before[t])
    consistency = 1.0 - penalty / duration_s
    if consistency < 0:
        flags.append("consistency-negative")
    continuity = 1.0 - float(stalled.sum()) / math.ceil(t_total / tau)
    if continuity < 0:
        flags.append("continuity-negative")

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
    binding_windows: int = 0  # bounds, widened by slack_used, met within 1e-9 by omega_star


_FEAS_TOL = 1e-9
# The optimum sits on the boundary of the polytope at the minimum slack, which
# rounding can leave empty; the bitrate LP is solved with this much more slack.
_SLACK_MARGIN = 1e-10
_COST_TOL = 1e-11  # reduced costs are primal constraint residuals, in seconds
_PIVOT_TOL = 1e-9
_TIE_TOL = 1e-12  # ratios this close tie, and the lexicographic rule picks
_MAX_PIVOTS = 5000


def _window_means(dt: np.ndarray, k: int, sliding: bool) -> np.ndarray:
    """Average per-epoch download-time rows over every length-k window."""
    t_total, n = dt.shape
    if sliding:
        cum = np.vstack([np.zeros((1, n)), np.cumsum(dt, axis=0)])
        return (cum[k:] - cum[:-k]) / k
    count = t_total // k
    return dt[: count * k].reshape(count, k, n).sum(axis=1) / k


def _lp_on_simplex(cost: np.ndarray, g: np.ndarray, h: np.ndarray, n: int) -> np.ndarray:
    """Minimize cost @ x subject to g @ x <= h, x >= 0 and sum(x[:n]) == 1.

    Revised primal simplex on the dual LP, whose len(cost) rows keep the basis
    small however many rows ``g`` has; x is read off the simplex multipliers.
    The sum's dual variable is free, so it stays first in the basis; with
    cost[n:] >= 0 it and the dual slacks form a feasible start.  Pricing takes
    the most negative reduced cost; ratio-test ties go to the lexicographically
    smallest row of the basis inverse, against cycling on degenerate pivots.
    """
    p, rows = cost.size, len(h)
    a = (np.arange(p) < n).astype(float)
    # dual columns: one per row of g, the sum's free variable, then the slacks
    mat = np.hstack([-g.T, a[:, None], np.eye(p)])
    d = np.concatenate([h, [-1.0], np.zeros(p)])
    first = int(np.argmin(cost[:n]))
    basis = np.array([rows] + [rows + 1 + i for i in range(p) if i != first])
    for _ in range(_MAX_PIVOTS):
        b = mat[:, basis]
        # a solve, unlike the inverse, leaves binding rows rounding-size residuals
        x = -np.linalg.solve(b.T, d[basis])
        reduced = d + x @ mat  # g's row slacks, sum(x[:n]) - 1, then x itself
        reduced[basis] = 0.0  # zero but for rounding
        j = reduced.argmin()
        if reduced[j] >= -_COST_TOL:
            omega = np.maximum(x[:n], 0.0)
            x[:n] = omega / omega.sum()
            return x
        binv = np.linalg.inv(b)  # only a pivot reads the inverse
        col = binv @ mat[:, j]
        pos = (col[1:] > _PIVOT_TOL).nonzero()[0] + 1
        if pos.size == 0:
            raise RuntimeError("benchmark LP is infeasible (its dual is unbounded)")
        ratios = np.maximum(binv[pos] @ cost, 0.0) / col[pos]
        ties = pos[ratios <= ratios.min() + _TIE_TOL]
        row = ties[0]
        if ties.size > 1:
            row = ties[np.lexsort((binv[ties] / col[ties, None]).T[::-1])[0]]
        basis[row] = j
    raise RuntimeError(f"benchmark LP not solved in {_MAX_PIVOTS} pivots")


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
    allowance (V - b_max/T) and the segment duration V.  Two exact linear
    programs are solved: the smallest uniform slack s* that makes the window
    bounds feasible (reported; 0 when the instance is feasible as stated),
    then the best bitrate with every bound widened by s* + 1e-10.  A ``k``
    that is not an integer in 1..T is a ValueError naming it, and so is a
    realized rate that is not positive and finite, by its epoch and value.
    """
    rates_c = np.asarray(realized_rate_kbps, dtype=float)
    t_total = rates_c.size
    if isinstance(k, bool) or not isinstance(k, numbers.Integral):
        raise ValueError(f"window k must be an integer, got {k!r}")
    if not 1 <= k <= t_total:
        raise ValueError(f"window k={k} outside 1..{t_total}")
    require_positive("b_max_s", b_max_s)
    if t_total > manifest.num_segments:
        raise ValueError(f"{t_total} realized rates, more than the {manifest.num_segments} segments of the"
                         " manifest")
    bad = np.flatnonzero(~(np.isfinite(rates_c) & (rates_c > 0)))
    if bad.size:
        raise ValueError(f"realized rate at epoch {bad[0] + 1} must be positive and finite,"
                         f" got {float(rates_c[bad[0]])!r}")

    sizes = manifest.segment_sizes_kbit[:t_total]
    ladder = np.asarray(manifest.bitrates_kbps, dtype=float)
    windows = _window_means(sizes / rates_c[:, None], k, sliding)
    upper = float(segment_duration_s)
    lower = float(segment_duration_s) - float(b_max_s) / t_total

    n = ladder.size
    g = np.vstack([windows, -windows])
    h = np.repeat([upper, -lower], len(windows))
    # min s  s.t.  lower - s <= W omega <= upper + s
    x = _lp_on_simplex(np.append(np.zeros(n), 1.0), np.hstack([g, -np.ones((len(g), 1))]), h, n)
    min_slack = max(0.0, float(np.max(g @ x[:n] - h)))
    slack = 0.0 if min_slack <= _FEAS_TOL else min_slack
    omega = _lp_on_simplex(-ladder / ladder[-1], g, h + min_slack + _SLACK_MARGIN, n)

    excess = g @ omega - h  # by how much omega exceeds each of the 2W window bounds
    return BenchmarkSolution(
        omega_star=tuple(float(w) for w in omega),
        objective=float(ladder @ omega),
        max_window_violation=max(0.0, float(excess.max())),
        slack_used=float(slack),
        binding_windows=int(np.count_nonzero(np.abs(excess - slack) <= _FEAS_TOL)),
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
    history: SessionLog,
    manifest: Manifest,
    benchmark: BenchmarkSolution | None,
    segment_duration_s: float,
    b_max_s: float,
) -> ConvergenceSeries:
    """Per-epoch cumulative regret and constraint-residual rates.

    Uses each epoch's logged decision distribution when present; index-only
    policies fall back to the one-hot distribution of the chosen quality
    (flagged), on which the expected and raw per-decision values coincide.
    Regret requires a benchmark solution, whose ``objective`` is read as
    omega*'s expected bitrate; pass None to get residuals only.
    ``history`` is a ``SessionLog`` that ``run_session`` returned or that
    ``session.replay_log`` accepted, on ``manifest``: its quality indices lie
    on the ladder and its rates are positive and finite, and neither is
    checked again here.  A logged omega whose length is not the ladder's,
    which an in-process policy may log, is a ValueError naming its epoch, as
    is a segment duration or buffer bound that is not positive and finite.
    """
    require_positive("segment_duration_s", segment_duration_s)
    require_positive("b_max_s", b_max_s)
    t_total = len(history)
    ladder = np.asarray(manifest.bitrates_kbps, dtype=float)
    n = ladder.size
    if t_total == 0:
        empty = np.zeros(0)
        return ConvergenceSeries(empty if benchmark else None, empty, empty, False)

    sizes = manifest.segment_sizes_kbit[:t_total]
    columns = _columns(history)
    rates = _pack(columns["rate_kbps"])
    # whether each epoch logged an omega
    omega_column = columns["omega"]
    logged = np.fromiter(map(is_not, omega_column, repeat(None)), bool, t_total)
    logged_omegas = list(compress(omega_column, logged))
    if set(map(len, logged_omegas)) - {n}:
        t, omega = next((t, w) for t, w in enumerate(omega_column, 1) if w is not None and len(w) != n)
        raise ValueError(f"epoch {t}: omega has {len(omega)} entries; the ladder has {n}")

    # the one-hot distribution of the chosen quality, each logged omega written over its row
    rows = np.arange(t_total)
    omegas = np.zeros((t_total, n))
    omegas[rows, _pack(columns["x"], "q") - 1] = 1.0
    omegas[logged] = _pack(list(chain.from_iterable(logged_omegas))).reshape(-1, n)
    fallback = len(logged_omegas) < t_total

    expected_dl = np.einsum("tn,tn->t", sizes, omegas) / rates
    g1 = expected_dl - segment_duration_s
    g2 = segment_duration_s - expected_dl - b_max_s / t_total
    epochs = rows + 1
    residual1 = np.cumsum(g1) / epochs
    residual2 = np.cumsum(g2) / epochs

    regret = None
    if benchmark is not None:
        losses = -(omegas @ ladder)
        regret = (np.cumsum(losses) + epochs * benchmark.objective) / epochs

    return ConvergenceSeries(regret, residual1, residual2, fallback)


# ---------------------------------------------------------------------------
# The evaluation pipeline


def benchmark_window(t_total: int) -> int:
    """The benchmark window K = ceil(T^0.9) of a T-epoch session, clipped to 1..T."""
    return max(1, min(t_total, math.ceil(t_total**0.9)))


def hindsight_benchmark(manifest: Manifest, trace: ChannelTrace, t_total: int,
                        b_max_s: float) -> BenchmarkSolution:
    """The benchmark stage of a ``t_total``-epoch session on ``trace``:
    ``solve_benchmark`` over length-K windows of the trace's slot clock
    (``channel.slot_clock``), with K = ``benchmark_window(t_total)`` and the
    manifest's segment duration.  The slot clock is the channel a player
    fetching segment t during slot t would meet; no decision changes it, so
    every method run on one trace is measured against one benchmark.  The
    series stage, ``regret_and_residuals``, takes the solution; the session
    metrics are a third stage, ``qoe_metrics``."""
    v = manifest.segment_duration_s
    return solve_benchmark(manifest, slot_clock(trace, v, t_total), benchmark_window(t_total), v, b_max_s)
