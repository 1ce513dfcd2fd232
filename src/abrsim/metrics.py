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
from typing import Iterable, Sequence

import numpy as np

from .channel import ChannelTrace, require_count, require_positive, slot_clock
from .media import Manifest
from .session import EpochRecord, _columns, _pack

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
    are flagged.  A ``duration_s`` that is not positive and finite is a
    ValueError, and so is a field read that ``_pack`` does not pack as a
    float: one that is not a number, or an int past the float range.
    """
    require_count("tau", tau)
    require_positive("duration_s", duration_s)
    flags: list[str] = []
    t_total = len(history)
    if t_total == 0:
        return SessionReport(0.0, 1.0, 1.0, 1.0, 1.0, flags=["empty-log"])

    columns = _columns(history)
    ts = columns["t"]
    rates = _pack(columns["bitrate_kbps"], "bitrate_kbps", ts)
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

    downloads = _pack(columns["download_s"], "download_s", ts)
    before = _pack(columns["buffer_before_s"], "buffer_before_s", ts)
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


def _first_fault(history, manifest: Manifest, candidates) -> None:
    """Raise the ValueError of the first of the records at ``candidates`` (in
    epoch order) whose quality index is not an integer or is off the ladder,
    whose bitrate or segment size is not the manifest's at (t, x_t), whose
    rate does not pack as a float or is not positive and finite, or whose
    logged omega does not have one entry per rung; return if none is."""
    levels = manifest.bitrates_kbps
    n = len(levels)
    # indexing the manifest's flat memoryview of the sizes gives Python floats
    flat_sizes = manifest._sizes_view
    for idx in candidates:
        t, x, bitrate, size, rate = history[idx][:5]
        if not isinstance(x, numbers.Integral):
            raise ValueError(f"epoch {t}: quality index {x!r} is not an integer")
        if not 1 <= x <= n:
            raise ValueError(f"epoch {t}: quality index {x} outside 1..{n}")
        if bitrate != levels[x - 1]:
            raise ValueError(f"epoch {t}: r_kbps is {bitrate!r}; the manifest's bitrate"
                             f" at x_t={x} is {levels[x - 1]!r}")
        if size != flat_sizes[idx * n + x - 1]:
            raise ValueError(f"epoch {t}: size_kbit is {size!r}; the manifest's size"
                             f" at x_t={x} is {flat_sizes[idx * n + x - 1]!r}")
        rate = float(_pack((rate,), "rate_kbps", (t,))[0])
        if not 0.0 < rate < math.inf:
            raise ValueError(f"epoch {t}: rate_kbps must be positive and finite, got {rate!r}")
        omega = history[idx].omega
        if omega is not None and len(omega) != n:
            raise ValueError(f"epoch {t}: omega has {len(omega)} entries; the ladder has {n}")


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
    Regret requires a benchmark solution, whose ``objective`` is read as
    omega*'s expected bitrate; pass None to get residuals only.
    A quality index that is not an integer or lies outside 1..N, a bitrate
    or segment size other than the manifest's at (t, x_t), a rate that is not
    positive and finite, or a logged omega without exactly N entries is a
    ValueError naming the first such epoch, and so is a rate, bitrate, size
    or logged omega entry that ``_pack`` does not pack as a float; so is a
    segment duration or buffer bound that is not positive and finite.
    """
    require_positive("segment_duration_s", segment_duration_s)
    require_positive("b_max_s", b_max_s)
    t_total = len(history)
    ladder = np.asarray(manifest.bitrates_kbps, dtype=float)
    n = ladder.size
    if t_total == 0:
        empty = np.zeros(0)
        return ConvergenceSeries(empty if benchmark else None, empty, empty, False)
    if t_total > manifest.num_segments:
        raise ValueError(f"{t_total} epochs, more than the {manifest.num_segments} segments of the manifest")

    sizes = manifest.segment_sizes_kbit[:t_total]
    columns = _columns(history)
    ts = columns["t"]
    try:
        x = _pack(columns["x"], "x", ts, "q")
    except ValueError:
        # an index that is not an int64: every record checked alone
        _first_fault(history, manifest, range(t_total))
        raise
    # the columns checked as a whole; the flagged records are checked alone,
    # in epoch order, and the first that fails names its epoch
    rows = np.arange(t_total)
    level = x - 1
    on_ladder = (level >= 0) & (level < n)
    level = np.where(on_ladder, level, 0)
    flagged = ~on_ladder
    try:
        # the rates are read first, so a bitrate or size that does not pack
        # leaves them read; a rate that does not pack is named by _first_fault
        rates = _pack(columns["rate_kbps"], "rate_kbps", ts)
        flagged |= ~((rates > 0.0) & (rates < math.inf))
        flagged |= _pack(columns["bitrate_kbps"], "bitrate_kbps", ts) != ladder[level]
        flagged |= _pack(columns["size_kbit"], "size_kbit", ts) != sizes[rows, level]
    except ValueError:  # fields that do not pack as floats
        flagged[:] = True
    # whether each epoch logged an omega; one of another length is a fault
    omega_column = columns["omega"]
    logged = np.fromiter(map(is_not, omega_column, repeat(None)), bool, t_total)
    logged_omegas = list(compress(omega_column, logged))
    flagged[logged] |= np.fromiter(map(len, logged_omegas), np.intp, len(logged_omegas)) != n
    _first_fault(history, manifest, np.flatnonzero(flagged).tolist())

    # the one-hot distribution of the chosen quality, each logged omega written over its row
    omegas = np.zeros((t_total, n))
    omegas[rows, level] = 1.0
    omegas[logged] = _pack(list(chain.from_iterable(logged_omegas)), "omega", list(compress(ts, logged)),
                           width=n).reshape(-1, n)
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
