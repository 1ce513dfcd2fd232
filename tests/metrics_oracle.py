"""Earlier forms of the package's scoring and solver code, kept as bitwise
oracles.

- ``reference_regret_and_residuals``: ``regret_and_residuals`` as it ran
  before it read the log's columns as a whole.  One Python loop over the
  records copies each record's omega, or the one-hot distribution of its
  choice, into the matrix row by row.  The package's function must give the
  same series and the same ``one_hot_fallback``.
- ``reference_qoe_metrics``: ``qoe_metrics`` as it ran when it transposed
  every record with ``zip(*history)`` and read each column with ``np.array``.
- ``reference_lp_on_simplex``: the benchmark LP's pivot loop as it ran when
  it gathered the basis columns twice per pivot and ran the lexicographic
  tie-break on every ratio test, one row or more.
"""

from __future__ import annotations

import math

import numpy as np

from abrsim import ConvergenceSeries, SessionReport
from abrsim.metrics import _COST_TOL, _MAX_PIVOTS, _PIVOT_TOL, _TIE_TOL


def reference_regret_and_residuals(history, manifest, benchmark, segment_duration_s, b_max_s):
    t_total = len(history)
    ladder = np.asarray(manifest.bitrates_kbps, dtype=float)
    n = ladder.size
    if t_total == 0:
        empty = np.zeros(0)
        return ConvergenceSeries(empty if benchmark else None, empty, empty, False)

    sizes = manifest.segment_sizes_kbit[:t_total]
    omegas = np.zeros((t_total, n))
    rates_c = []
    fallback = False
    for idx, (_, x, _, _, rate, _, _, _, _, _, _, omega) in enumerate(history):
        if omega is None:
            omegas[idx, x - 1] = 1.0
            fallback = True
        else:
            omegas[idx] = omega
        rates_c.append(rate)

    rates_c = np.array(rates_c)
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


def reference_qoe_metrics(history, manifest, tau, duration_s):
    flags = []
    t_total = len(history)
    if t_total == 0:
        return SessionReport(0.0, 1.0, 1.0, 1.0, 1.0, flags=["empty-log"])

    _, _, rates, _, _, downloads, _, before, *_ = zip(*history)
    rates = np.array(rates)
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

    downloads = np.array(downloads)
    before = np.array(before)
    stalled = before < downloads
    penalty = 0.0
    for t in np.nonzero(stalled)[0]:
        penalty += float(downloads[t : t + tau].sum()) - float(before[t])
    consistency = 1.0 - penalty / duration_s
    if consistency < 0:
        flags.append("consistency-negative")
    continuity = 1.0 - float(stalled.sum()) / math.ceil(t_total / tau)
    if continuity < 0:
        flags.append("continuity-negative")

    return SessionReport(avg, stability, smoothness, consistency, continuity, flags=flags)


def reference_lp_on_simplex(cost, g, h, n):
    p, rows = cost.size, len(h)
    a = (np.arange(p) < n).astype(float)
    mat = np.hstack([-g.T, a[:, None], np.eye(p)])
    d = np.concatenate([h, [-1.0], np.zeros(p)])
    first = int(np.argmin(cost[:n]))
    basis = [rows] + [rows + 1 + i for i in range(p) if i != first]
    for _ in range(_MAX_PIVOTS):
        x = -np.linalg.solve(mat[:, basis].T, d[basis])
        binv = np.linalg.inv(mat[:, basis])
        reduced = d + x @ mat
        reduced[basis] = 0.0
        j = int(np.argmin(reduced))
        if reduced[j] >= -_COST_TOL:
            omega = np.maximum(x[:n], 0.0)
            x[:n] = omega / omega.sum()
            return x
        col = binv @ mat[:, j]
        pos = np.flatnonzero(col[1:] > _PIVOT_TOL) + 1
        if pos.size == 0:
            raise RuntimeError("benchmark LP is infeasible (its dual is unbounded)")
        ratios = np.maximum(binv[pos] @ cost, 0.0) / col[pos]
        ties = pos[ratios <= ratios.min() + _TIE_TOL]
        basis[ties[np.lexsort((binv[ties] / col[ties, None]).T[::-1])[0]]] = j
    raise RuntimeError(f"benchmark LP not solved in {_MAX_PIVOTS} pivots")
