import math
import numbers
import os
import re
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abrsim

from abrsim import (
    BenchmarkSolution,
    EpochRecord,
    Manifest,
    normalize_avg_bitrate,
    qoe_metrics,
    regret_and_residuals,
    solve_benchmark,
    synthesize_manifest,
)

from metrics_oracle import reference_lp_on_simplex, reference_qoe_metrics, reference_regret_and_residuals
from fixture_log import DURATION, EXPECTED, TAU, fixture_history, fixture_manifest
from simplex_grid import simplex_grid


def simple_records(xs, bitrates, sizes, rates, buffers_before, downloads, omegas=None):
    records = []
    for i, x in enumerate(xs):
        records.append(
            EpochRecord(
                t=i + 1,
                x=x,
                bitrate_kbps=bitrates[x - 1],
                size_kbit=sizes[x - 1],
                rate_kbps=rates[i],
                download_s=downloads[i],
                delta_s=0.0,
                buffer_before_s=buffers_before[i],
                buffer_after_s=buffers_before[i],
                stall=buffers_before[i] < downloads[i],
                stall_s=0.0,
                omega=None if omegas is None else tuple(omegas[i]),
            )
        )
    return records


# ---------------------------------------------------------------------------
# the five metrics


def test_fixture_metrics_to_1e9():
    report = qoe_metrics(fixture_history(), fixture_manifest(), TAU, DURATION)
    assert report.avg_bitrate_kbps == pytest.approx(EXPECTED["avg_bitrate_kbps"], abs=1e-9)
    assert report.stability == pytest.approx(EXPECTED["stability"], abs=1e-9)
    assert report.smoothness == pytest.approx(EXPECTED["smoothness"], abs=1e-9)
    assert report.consistency == pytest.approx(EXPECTED["consistency"], abs=1e-9)
    assert report.continuity == pytest.approx(EXPECTED["continuity"], abs=1e-9)


def test_constant_sequence_is_perfectly_stable():
    man = fixture_manifest()
    recs = simple_records(
        [2] * 10, man.bitrates_kbps, (2000, 4000, 8000),
        [4000.0] * 10, [10.0] * 10, [1.0] * 10,
    )
    report = qoe_metrics(recs, man, 2, 20.0)
    assert report.stability == 1.0
    assert report.smoothness == 1.0
    assert report.continuity == 1.0
    assert report.consistency == 1.0


def test_alternating_extremes_zero_stability_and_smoothness():
    man = fixture_manifest()
    xs = [1, 3] * 5
    recs = simple_records(
        xs, man.bitrates_kbps, (2000, 4000, 8000),
        [8000.0] * 10, [10.0] * 10, [1.0] * 10,
    )
    report = qoe_metrics(recs, man, 2, 20.0)
    assert report.stability == pytest.approx(0.0, abs=1e-12)
    assert report.smoothness == pytest.approx(0.0, abs=1e-12)


def test_consistency_single_stall_example():
    # stall only at t = 5 with 1 s of buffer left; tau = 2 pulls in the 3 s and
    # 2 s downloads: consistency = 1 - (-1 + 5)/100 = 0.96
    man = fixture_manifest()
    downloads = [1.0] * 10
    downloads[4] = 3.0
    downloads[5] = 2.0
    buffers = [10.0] * 10
    buffers[4] = 1.0
    recs = simple_records(
        [1] * 10, man.bitrates_kbps, (2000, 4000, 8000),
        [2000.0] * 10, buffers, downloads,
    )
    report = qoe_metrics(recs, man, 2, 100.0)
    assert report.consistency == pytest.approx(0.96, abs=1e-12)


def test_consistency_may_go_negative_with_flag():
    man = fixture_manifest()
    recs = simple_records(
        [3] * 10, man.bitrates_kbps, (2000, 4000, 8000),
        [100.0] * 10, [0.0] * 10, [80.0] * 10,
    )
    report = qoe_metrics(recs, man, 2, 20.0)
    assert report.consistency < 0
    assert "consistency-negative" in report.flags


def test_short_horizon_convention():
    man = fixture_manifest()
    recs = simple_records([1], man.bitrates_kbps, (2000, 4000, 8000), [2000.0], [10.0], [1.0])
    report = qoe_metrics(recs, man, 2, 20.0)
    assert report.stability == 1.0
    assert report.smoothness == 1.0
    assert "short-horizon" in report.flags


def test_empty_log_flagged():
    report = qoe_metrics([], fixture_manifest(), 2, 20.0)
    assert report.flags == ["empty-log"]


def test_qoe_validation():
    # tau follows SessionConfig.tau_resume's rule
    for bad in (math.nan, math.inf, 1.5, 0):
        with pytest.raises(ValueError) as info:
            qoe_metrics(fixture_history(), fixture_manifest(), bad, DURATION)
        assert str(info.value) == f"tau must be an integer >= 1, got {bad!r}"
    with pytest.raises(ValueError):
        qoe_metrics([], fixture_manifest(), 2, 0.0)


# ---------------------------------------------------------------------------
# normalization


def _report(avg):
    from abrsim import SessionReport

    return SessionReport(avg, 1.0, 1.0, 1.0, 1.0)


def test_normalize_singleton():
    (rep,) = normalize_avg_bitrate([_report(4000.0)])
    assert rep.normalized_avg_bitrate == 1.0


def test_normalize_ratio():
    reps = normalize_avg_bitrate([_report(4000.0), _report(5000.0)])
    assert [r.normalized_avg_bitrate for r in reps] == pytest.approx([0.8, 1.0])


def test_normalize_all_equal():
    reps = normalize_avg_bitrate([_report(3000.0)] * 3)
    assert all(r.normalized_avg_bitrate == 1.0 for r in reps)


def test_normalize_empty_raises():
    with pytest.raises(ValueError):
        normalize_avg_bitrate([])


# ---------------------------------------------------------------------------
# hindsight benchmark


def test_benchmark_single_binding_constraint_hand_case():
    # constant channel, S1/C = 1 < V = 2 < 4 = S2/C: the underflow window pins
    # omega2 = (V - S1/C) / ((S2 - S1)/C) = 1/3
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    sol = solve_benchmark(man, [2000.0] * 10, 5, 2.0, 120.0)
    assert sol.slack_used == 0.0
    assert sol.omega_star[1] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert sol.objective == pytest.approx(2000.0, abs=1e-5)
    assert sol.max_window_violation <= 1e-6
    # all six sliding windows sit on the upper bound; the lower one (-10 s) is slack
    assert sol.binding_windows == 6


def test_benchmark_unconstrained_fast_channel():
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    sol = solve_benchmark(man, [1e6] * 10, 5, 2.0, 120.0)
    assert sol.omega_star == pytest.approx((0.0, 1.0), abs=1e-9)
    assert sol.objective == pytest.approx(4000.0, abs=1e-9)


def test_benchmark_k_equals_horizon():
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    sol = solve_benchmark(man, [2000.0] * 10, 10, 2.0, 120.0)
    assert sol.omega_star[1] == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_benchmark_infeasible_reports_minimal_slack():
    # channel so fast that no distribution can download slowly enough to meet
    # the overflow floor 2 - 12/10 = 0.8; the best is e_2 at 0.008 s, so the
    # minimal slack is 0.792 and the solution is pinned there
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    sol = solve_benchmark(man, [1e6] * 10, 5, 2.0, 12.0)
    assert sol.slack_used == pytest.approx(0.792, abs=1e-9)
    assert sol.omega_star == pytest.approx((0.0, 1.0), abs=1e-9)
    assert sol.max_window_violation <= sol.slack_used + 1e-6


def test_benchmark_validation():
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    with pytest.raises(ValueError):
        solve_benchmark(man, [2000.0] * 10, 0, 2.0, 120.0)
    with pytest.raises(ValueError):
        solve_benchmark(man, [2000.0] * 10, 11, 2.0, 120.0)
    with pytest.raises(ValueError):
        solve_benchmark(man, [2000.0] * 11, 5, 2.0, 120.0)
    with pytest.raises(ValueError):
        solve_benchmark(man, [2000.0] * 9 + [0.0], 5, 2.0, 120.0)
    for b_max in (float("nan"), float("inf"), 0.0, -5.0):
        with pytest.raises(ValueError, match=f"b_max_s must be positive and finite, got {b_max!r}"):
            solve_benchmark(man, [2000.0] * 10, 5, 2.0, b_max)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -5.0])
def test_benchmark_rejects_non_finite_rates(bad):
    # a rate that is not positive once named neither its epoch nor its value
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    realized = [2000.0] * 10
    realized[3] = bad
    realized[7] = bad
    expected = f"realized rate at epoch 4 must be positive and finite, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(expected)):
        solve_benchmark(man, realized, 5, 2.0, 120.0)


@pytest.mark.parametrize("k", [2.5, 3.0, True, np.float64(3.0)], ids=["2.5", "3.0", "True", "float64-3.0"])
def test_benchmark_rejects_a_window_that_is_not_an_integer(k):
    # 2.5 and 3.0 once failed with a TypeError from slicing, and True was read as 1
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    with pytest.raises(ValueError, match=re.escape(f"window k must be an integer, got {k!r}")):
        solve_benchmark(man, [2000.0] * 10, k, 2.0, 120.0)
    # an integer out of range keeps its message
    with pytest.raises(ValueError, match=re.escape("window k=0 outside 1..10")):
        solve_benchmark(man, [2000.0] * 10, 0, 2.0, 120.0)
    assert solve_benchmark(man, [2000.0] * 10, np.int64(3), 2.0, 120.0) == solve_benchmark(
        man, [2000.0] * 10, 3, 2.0, 120.0)


def _windows(manifest, realized, k, sliding=True):
    """Mean per-epoch download time of every length-k window, one row each."""
    dt = manifest.segment_sizes_kbit[: len(realized)] / np.asarray(realized)[:, None]
    if not sliding:
        count = len(realized) // k
        return dt[: count * k].reshape(count, k, -1).mean(axis=1)
    cum = np.vstack([np.zeros((1, dt.shape[1])), np.cumsum(dt, axis=0)])
    return (cum[k:] - cum[:-k]) / k


def _grid_best_feasible(manifest, realized, k, v, b_max, slack, resolution=1e-3):
    rates = np.asarray(manifest.bitrates_kbps)
    windows = _windows(manifest, realized, k)
    upper, lower = v + slack, v - b_max / len(realized) - slack
    grid = simplex_grid(rates.size, resolution)
    best = -np.inf
    for chunk in np.array_split(grid, max(1, len(grid) // 50000)):
        z = chunk @ windows.T
        ok = (z.max(axis=1) <= upper + 1e-12) & (z.min(axis=1) >= lower - 1e-12)
        if ok.any():
            best = max(best, float((chunk[ok] @ rates).max()))
    return best


@pytest.mark.parametrize("n", [2, 3])
def test_benchmark_dominates_grid_oracle(n):
    rng = np.random.default_rng(100 + n)
    ladder = (1000.0, 3000.0) if n == 2 else (1000.0, 3000.0, 6000.0)
    for _ in range(4):
        t_total, k = 60, 20
        man = synthesize_manifest(t_total, ladder, 2.0, vbr_jitter=0.1, seed=int(rng.integers(1e6)))
        realized = rng.uniform(900.0, 2600.0, t_total)
        sol = solve_benchmark(man, realized, k, 2.0, 120.0)
        grid_best = _grid_best_feasible(man, realized, k, 2.0, 120.0, sol.slack_used)
        assert sol.objective >= grid_best - 1e-9
        assert sol.max_window_violation <= sol.slack_used + 1e-6


def _worst_violation(windows, w, upper, lower):
    """Largest window-bound violation at omega = (1 - w, w), for each w."""
    z = np.outer(1.0 - w, windows[:, 0]) + np.outer(w, windows[:, 1])
    return np.maximum(np.maximum(z - upper, lower - z).max(axis=1), 0.0)


def test_benchmark_min_slack_matches_grid_oracle():
    # two levels: the worst-window violation is convex and piecewise linear in
    # omega_2, so its minimizer lies within one step of the 1e-3 grid's; a 1e-7
    # grid over those two steps pins the minimum to within its Lipschitz
    # constant times half a fine step
    rng = np.random.default_rng(21)
    coarse = simplex_grid(2)[:, 1]
    with_slack = 0
    for _ in range(6):
        t_total, k, b_max = 60, int(rng.integers(1, 21)), 20.0
        man = synthesize_manifest(t_total, (1000.0, 3000.0), 2.0, vbr_jitter=0.1,
                                  seed=int(rng.integers(1e6)))
        realized = rng.uniform(600.0, 6000.0, t_total)
        sol = solve_benchmark(man, realized, k, 2.0, b_max)
        windows = _windows(man, realized, k)
        upper, lower = 2.0, 2.0 - b_max / t_total
        w0 = coarse[int(np.argmin(_worst_violation(windows, coarse, upper, lower)))]
        fine = np.linspace(max(w0 - 1e-3, 0.0), min(w0 + 1e-3, 1.0), 20001)
        grid_min = float(_worst_violation(windows, fine, upper, lower).min())
        lipschitz = float(np.abs(windows[:, 1] - windows[:, 0]).max())
        assert grid_min - lipschitz * 0.5e-7 - 1e-9 <= sol.slack_used <= grid_min + 1e-9
        with_slack += sol.slack_used > 0
    assert with_slack >= 4


def _highs_benchmark(linprog, manifest, realized, k, v, b_max, sliding):
    """Minimum slack, then the best bitrate 1e-10 above it, both by HiGHS.

    HiGHS's default 1e-7 feasibility tolerance is too loose for a reference:
    where the polytope at the minimum slack is a sliver, the best bitrate
    moves by kbps per 1e-8 s of slack.
    """
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    windows = _windows(manifest, realized, k, sliding)
    m, n = windows.shape
    upper, lower = v, v - b_max / len(realized)
    rows = np.vstack([windows, -windows])
    bounds = np.r_[np.full(m, upper), np.full(m, -lower)]
    res = linprog(
        np.r_[np.zeros(n), 1.0], A_ub=np.hstack([rows, -np.ones((2 * m, 1))]), b_ub=bounds,
        A_eq=np.r_[np.ones(n), 0.0][None, :], b_eq=[1.0], bounds=(0, None), method="highs",
        options=tight,
    )
    assert res.status == 0, res.message
    slack = float(res.x[-1])
    ladder = np.asarray(manifest.bitrates_kbps)
    res = linprog(
        -ladder, A_ub=rows, b_ub=bounds + slack + 1e-10,
        A_eq=np.ones((1, n)), b_eq=[1.0], bounds=(0, None), method="highs", options=tight,
    )
    assert res.status == 0, res.message
    return slack, float(-res.fun)


EIGHT_LEVELS = (370.0, 750.0, 1500.0, 3000.0, 5800.0, 12000.0, 17000.0, 20000.0)
HIGHS_CASES = [(120.0, True), (20.0, True), (120.0, False), (20.0, False)]


def highs_instances(b_max, sliding):
    """The (manifest, realized rates, k) instances cross-checked against HiGHS."""
    rng = np.random.default_rng(31 + int(b_max) + sliding)
    for t_total, k in ((200, 119), (200, 10), (300, 1)):
        man = synthesize_manifest(t_total, EIGHT_LEVELS, 2.0, vbr_jitter=0.1, seed=int(rng.integers(1e6)))
        realized = rng.choice((750.0, 23000.0), t_total) * rng.uniform(0.3, 1.2)
        yield man, realized, k


@pytest.mark.parametrize("b_max,sliding", HIGHS_CASES)
def test_benchmark_matches_highs_on_eight_levels(b_max, sliding):
    linprog = pytest.importorskip("scipy.optimize").linprog
    for man, realized, k in highs_instances(b_max, sliding):
        sol = solve_benchmark(man, realized, k, 2.0, b_max, sliding=sliding)
        slack, objective = _highs_benchmark(linprog, man, realized, k, 2.0, b_max, sliding)
        assert abs(sol.slack_used - slack) <= 1e-9
        assert sol.objective == pytest.approx(objective, rel=1e-9)


def solver_lps(monkeypatch, man, realized, k, b_max, sliding=True):
    """The arguments and the result of each LP ``solve_benchmark`` solves."""
    calls = []
    solve = abrsim.metrics._lp_on_simplex

    def recorded(*args):
        x = solve(*args)
        calls.append((args, x))
        return x

    with monkeypatch.context() as patch:
        patch.setattr(abrsim.metrics, "_lp_on_simplex", recorded)
        solve_benchmark(man, realized, k, 2.0, b_max, sliding=sliding)
    return calls


@pytest.mark.parametrize("b_max,sliding", HIGHS_CASES)
def test_pivot_loop_matches_the_reference_bitwise(monkeypatch, b_max, sliding):
    for man, realized, k in highs_instances(b_max, sliding):
        for args, x in solver_lps(monkeypatch, man, realized, k, b_max, sliding):
            assert x.tobytes() == reference_lp_on_simplex(*args).tobytes()


def test_pivot_loop_matches_the_reference_on_ratio_ties(monkeypatch):
    # a CBR manifest on a constant-rate trace makes every window alike, so
    # rows of g repeat and the ratio test ties; np.lexsort, which breaks the
    # ties, runs only when more than one row ties
    lexsort_calls = []
    lexsort = np.lexsort

    def counted(keys):
        lexsort_calls.append(len(keys[0]))
        return lexsort(keys)

    for t_total, k, rate, b_max in ((60, 10, 5000.0, 120.0), (60, 1, 1000.0, 20.0),
                                    (120, 30, 23000.0, 20.0), (40, 40, 2600.0, 120.0)):
        man = synthesize_manifest(t_total, EIGHT_LEVELS, 2.0, vbr_jitter=0.0, seed=3)
        monkeypatch.setattr(np, "lexsort", counted)
        calls = solver_lps(monkeypatch, man, [rate] * t_total, k, b_max)
        monkeypatch.setattr(np, "lexsort", lexsort)
        for args, x in calls:
            assert x.tobytes() == reference_lp_on_simplex(*args).tobytes()
    assert lexsort_calls and min(lexsort_calls) > 1


def test_benchmark_leaves_scipy_unimported():
    code = (
        "import sys\n"
        "import abrsim\n"
        "man = abrsim.synthesize_manifest(40, (1000.0, 3000.0), 2.0, seed=1)\n"
        "abrsim.solve_benchmark(man, [900.0] * 40, 10, 2.0, 20.0)\n"
        "assert 'scipy' not in sys.modules, sorted(sys.modules)\n"
    )
    src = str(Path(abrsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


# ---------------------------------------------------------------------------
# regret and residuals


def _one_hot_log(man, xs, rates):
    sizes = man.segment_sizes_kbit
    return simple_records(
        xs, man.bitrates_kbps, sizes[0], rates, [50.0] * len(xs),
        [sizes[0][x - 1] / rates[i] for i, x in enumerate(xs)],
    )


def test_regret_zero_when_playing_the_benchmark():
    # binary-exact ladder so the zero is exact, not approximate
    ladder = (1024.0, 2048.0, 4096.0)
    man = Manifest(2.0, ladder, np.tile([2048.0, 4096.0, 8192.0], (50, 1)))
    star = (0.25, 0.25, 0.5)
    recs = simple_records(
        [3] * 50, ladder, (2048, 4096, 8192), [4000.0] * 50, [50.0] * 50, [2.0] * 50,
        omegas=[star] * 50,
    )
    bench = BenchmarkSolution(star, float(np.dot(star, ladder)), 0.0, 0.0)
    series = regret_and_residuals(recs, man, bench, 2.0, 120.0)
    assert not series.one_hot_fallback
    assert np.all(series.regret_rate == 0.0)


def test_regret_constant_gap_for_always_lowest():
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (40, 1)))
    recs = _one_hot_log(man, [1] * 40, [5000.0] * 40)
    bench = BenchmarkSolution((0.5, 0.5), 2500.0, 0.0, 0.0)
    series = regret_and_residuals(recs, man, bench, 2.0, 120.0)
    assert series.one_hot_fallback
    assert np.allclose(series.regret_rate, 2500.0 - 1000.0, atol=1e-9)


def test_residual_strongly_negative_on_fast_channel():
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (40, 1)))
    recs = _one_hot_log(man, [1] * 40, [1e6] * 40)
    series = regret_and_residuals(recs, man, None, 2.0, 120.0)
    assert series.regret_rate is None
    assert series.residual1_rate[-1] < -1.9


def test_regret_invariant_under_ladder_translation():
    shift = 500.0
    sizes = np.tile([2000.0, 8000.0], (40, 1))
    man_a = Manifest(2.0, (1000.0, 4000.0), sizes)
    man_b = Manifest(2.0, (1500.0, 4500.0), sizes)
    rng = np.random.default_rng(0)
    xs = [int(x) for x in rng.integers(1, 3, 40)]
    rates = rng.uniform(1000, 9000, 40)
    omegas = rng.dirichlet((1.0, 1.0), 40)
    recs_a = simple_records(xs, man_a.bitrates_kbps, (2000, 8000), rates, [50.0] * 40, [1.0] * 40, omegas)
    recs_b = simple_records(xs, man_b.bitrates_kbps, (2000, 8000), rates, [50.0] * 40, [1.0] * 40, omegas)
    star = (0.3, 0.7)
    bench_a = BenchmarkSolution(star, float(np.dot(star, man_a.bitrates_kbps)), 0.0, 0.0)
    bench_b = BenchmarkSolution(star, float(np.dot(star, man_b.bitrates_kbps)), 0.0, 0.0)
    ser_a = regret_and_residuals(recs_a, man_a, bench_a, 2.0, 120.0)
    ser_b = regret_and_residuals(recs_b, man_b, bench_b, 2.0, 120.0)
    assert np.allclose(ser_a.regret_rate, ser_b.regret_rate, atol=1e-9)
    assert np.array_equal(ser_a.residual1_rate, ser_b.residual1_rate)


@pytest.mark.parametrize("x", [2.0, 2.5])
def test_scoring_rejects_a_quality_index_that_is_not_an_integer(x):
    # such a record once failed with a TypeError from indexing the ladder
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    recs = _one_hot_log(man, [1] * 10, [5000.0] * 10)
    recs[6] = recs[6]._replace(x=x)
    for score in (regret_and_residuals, reference_regret_and_residuals):
        with pytest.raises(ValueError, match=re.escape(f"epoch 7: quality index {x!r} is not an integer")):
            score(recs, man, None, 2.0, 120.0)


def test_one_hot_residuals_equal_raw_per_decision_sums():
    man = synthesize_manifest(30, (1000.0, 4000.0), 2.0, vbr_jitter=0.2, seed=8)
    rng = np.random.default_rng(3)
    xs = [int(x) for x in rng.integers(1, 3, 30)]
    rates = rng.uniform(800, 6000, 30)
    recs = []
    for i, x in enumerate(xs):
        row = man.sizes_row(i + 1)
        recs.append(
            EpochRecord(
                t=i + 1, x=x, bitrate_kbps=man.bitrates_kbps[x - 1],
                size_kbit=float(row[x - 1]), rate_kbps=float(rates[i]),
                download_s=float(row[x - 1] / rates[i]), delta_s=0.0,
                buffer_before_s=50.0, buffer_after_s=50.0, stall=False, stall_s=0.0,
            )
        )
    series = regret_and_residuals(recs, man, None, 2.0, 120.0)
    raw_g1 = [rec.size_kbit / rec.rate_kbps - 2.0 for rec in recs]
    expected = np.cumsum(raw_g1) / np.arange(1, 31)
    assert np.allclose(series.residual1_rate, expected, atol=1e-12)


def test_empty_history_series():
    man = fixture_manifest()
    series = regret_and_residuals([], man, None, 2.0, 120.0)
    assert series.residual1_rate.size == 0


# ---------------------------------------------------------------------------
# the column checks and the omega matrix against the record loop


# a fault in one record: the quality index off the ladder or not an integer,
# the bitrate or the size of another rung, a rate that is not positive and
# finite, an omega of another length, or a bitrate or size that is not a
# float (a complex number that equals the manifest's value is not a fault;
# the value's numeric string is)
RECORD_FAULTS = ("x-low", "x-high", "x-float", "bitrate", "size", "rate", "omega-length", "unreadable")
UNREADABLE = (None, 10**400, [1.0], complex, repr)
BAD_RATES = (0.0, -5.0, math.nan, math.inf)


@st.composite
def scored_histories(draw):
    """A manifest and a session history with omega logged on every epoch, on
    none or on some, and up to three faulty records (one record may carry
    two faults); bitrates and sizes are at times written as integers."""
    n = draw(st.integers(2, 6))
    ladder = tuple(float(r) for r in sorted(draw(st.sets(st.integers(100, 20000), min_size=n, max_size=n))))
    t_total = draw(st.integers(1, 40))
    man = synthesize_manifest(t_total + draw(st.integers(0, 3)), ladder, 2.0,
                              vbr_jitter=draw(st.sampled_from([0.0, 0.2])), seed=draw(st.integers(0, 99)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logged = draw(st.sampled_from(["all", "none", "mixed"]))
    first_t = draw(st.sampled_from([1, 6]))
    records = []
    for idx in range(t_total):
        x = int(rng.integers(1, n + 1))
        bitrate, size = ladder[x - 1], float(man.segment_sizes_kbit[idx, x - 1])
        if rng.random() < 0.2:
            bitrate = int(bitrate)
        if rng.random() < 0.2 and size.is_integer():
            size = int(size)
        has_omega = logged == "all" or (logged == "mixed" and rng.random() < 0.5)
        omega = tuple(rng.dirichlet(np.ones(n)).tolist()) if has_omega else None
        records.append(EpochRecord(first_t + idx, x, bitrate, size, float(rng.uniform(300.0, 30000.0)),
                                   1.0, 0.0, 10.0, 10.0, False, 0.0, omega))
    for _ in range(draw(st.integers(0, 3))):
        idx = draw(st.integers(0, t_total - 1))
        kind = draw(st.sampled_from(RECORD_FAULTS))
        rec = records[idx]
        other = draw(st.integers(1, n))
        if kind == "x-low":
            rec = rec._replace(x=draw(st.integers(-3, 0)))
        elif kind == "x-high":
            rec = rec._replace(x=draw(st.integers(n + 1, n + 3)))
        elif kind == "x-float":
            rec = rec._replace(x=float(rec.x))
        elif kind == "bitrate" and ladder[other - 1] != rec.bitrate_kbps:
            rec = rec._replace(bitrate_kbps=ladder[other - 1])
        elif kind == "size" and isinstance(rec.size_kbit, (int, float)) and rec.size_kbit < 1e300:
            rec = rec._replace(size_kbit=rec.size_kbit * 1.5 + 1.0)
        elif kind == "rate":
            rec = rec._replace(rate_kbps=draw(st.sampled_from(BAD_RATES)))
        elif kind == "omega-length":
            m = draw(st.integers(0, n + 2).filter(lambda m: m != n))
            rec = rec._replace(omega=tuple(rng.uniform(0.0, 1.0, m).tolist()))
        elif kind == "unreadable":
            name = draw(st.sampled_from(["bitrate_kbps", "size_kbit"]))
            value = draw(st.sampled_from(UNREADABLE))
            current = getattr(rec, name)
            if not callable(value):
                rec = rec._replace(**{name: value})
            elif isinstance(current, (int, float)) and abs(current) < 1e300:
                # the value as a complex number or a string; not a value that
                # an earlier fault on this record made unreadable (None,
                # 10**400, a list)
                rec = rec._replace(**{name: value(current)})
        records[idx] = rec
    star = draw(st.none() | st.just(tuple(rng.dirichlet(np.ones(n)).tolist())))
    bench = None if star is None else BenchmarkSolution(star, float(np.dot(star, ladder)), 0.0, 0.0)
    return records, man, bench, draw(st.sampled_from([20.0, 120.0]))


def scoring_outcome(score, history, man, bench, b_max):
    """The bytes of every series and the fallback flag, or the error raised."""
    try:
        series = score(history, man, bench, 2.0, b_max)
    except (ValueError, TypeError) as exc:
        return type(exc).__name__, str(exc)
    regret = None if series.regret_rate is None else series.regret_rate.tobytes()
    return regret, series.residual1_rate.tobytes(), series.residual2_rate.tobytes(), series.one_hot_fallback


@settings(max_examples=300, deadline=None)
@given(case=scored_histories())
def test_scoring_matches_the_record_loop_oracle(case):
    history, man, bench, b_max = case
    assert (scoring_outcome(regret_and_residuals, history, man, bench, b_max)
            == scoring_outcome(reference_regret_and_residuals, history, man, bench, b_max))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_scoring_rejects_a_time_that_is_not_positive_and_finite(bad):
    history, man = fixture_history(), fixture_manifest()
    with pytest.raises(ValueError, match=re.escape(f"duration_s must be positive and finite, got {bad!r}")):
        qoe_metrics(history, man, TAU, bad)
    for name in ("segment_duration_s", "b_max_s"):
        times = {"segment_duration_s": 2.0, "b_max_s": 120.0, name: bad}
        with pytest.raises(ValueError, match=re.escape(f"{name} must be positive and finite, got {bad!r}")):
            regret_and_residuals(history, man, None, **times)
        # an empty history too: the check is where the time enters
        with pytest.raises(ValueError, match=re.escape(f"{name} must be positive and finite")):
            regret_and_residuals([], man, None, **times)


@pytest.mark.parametrize("bad", BAD_RATES, ids=["zero", "negative", "nan", "inf"])
def test_scoring_rejects_a_rate_that_is_not_positive_and_finite(bad):
    # each was once scored with no error: 0.0 to an infinite series (with
    # numpy's divide-by-zero warning), -5.0 to a negative residual rate, nan
    # to a nan series and inf to a finite one; a later fault is not named first
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    recs = _one_hot_log(man, [1, 2] * 5, [5000.0] * 10)
    history = [*recs[:2], recs[2]._replace(rate_kbps=bad), *recs[3:6], recs[6]._replace(bitrate_kbps=4000.0),
               *recs[7:]]
    expected = f"epoch 3: rate_kbps must be positive and finite, got {bad!r}"
    for score in (regret_and_residuals, reference_regret_and_residuals):
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            score(history, man, None, 2.0, 120.0)


def test_an_omega_of_the_wrong_length_names_its_epoch():
    # all short once failed in np.einsum, mixed lengths with "inhomogeneous
    # shape", and mixed lengths that sum to T*N could be read mis-shaped
    man = Manifest(2.0, (1000.0, 4000.0, 8000.0), np.tile([2000.0, 8000.0, 16000.0], (6, 1)))
    recs = _one_hot_log(man, [1, 2, 3, 1, 2, 3], [5000.0] * 6)
    third = (1 / 3, 1 / 3, 1 / 3)
    cases = [
        ([(0.5, 0.5)] * 6, "epoch 1: omega has 2 entries; the ladder has 3"),
        ([third, third, (0.25,) * 4, (0.5, 0.5), third, third],
         "epoch 3: omega has 4 entries; the ladder has 3"),
        ([None, None, None, None, (1.0,), None], "epoch 5: omega has 1 entries; the ladder has 3"),
    ]
    for omegas, expected in cases:
        history = [rec._replace(omega=omega) for rec, omega in zip(recs, omegas)]
        for score in (regret_and_residuals, reference_regret_and_residuals):
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                score(history, man, None, 2.0, 120.0)


def test_a_history_longer_than_the_manifest_names_both_counts():
    # once "more epochs than manifest segments" and "more realized rates than
    # manifest segments", naming neither count
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (5, 1)))
    history = _one_hot_log(man, [1, 2, 1, 2, 1, 2], [5000.0] * 6)
    for score in (regret_and_residuals, reference_regret_and_residuals):
        with pytest.raises(ValueError, match="^6 epochs, more than the 5 segments of the manifest$"):
            score(history, man, None, 2.0, 120.0)
    with pytest.raises(ValueError, match="^6 realized rates, more than the 5 segments of the manifest$"):
        solve_benchmark(man, [2000.0] * 6, 3, 2.0, 120.0)


def test_a_field_that_is_not_a_real_number_names_its_epoch_and_field():
    # np.fromiter once read None as NaN and parsed a numeric string: a None
    # rate scored to NaN series, and a string bitrate passed the manifest check
    man = Manifest(2.0, (1000.0, 4000.0), np.tile([2000.0, 8000.0], (10, 1)))
    recs = _one_hot_log(man, [1, 2] * 5, [5000.0] * 10)
    no_rate = [*recs[:3], recs[3]._replace(rate_kbps=None), *recs[4:]]
    string_bitrate = [*recs[:4], recs[4]._replace(bitrate_kbps="1000.0"), *recs[5:]]
    # the record loop reads rates with np.array, so it fails on None in einsum
    for history, expected, scores in [
        (no_rate, "epoch 4: rate_kbps is None, not a real number", [regret_and_residuals]),
        (string_bitrate, "epoch 5: r_kbps is '1000.0'; the manifest's bitrate at x_t=1 is 1000.0",
         [regret_and_residuals, reference_regret_and_residuals]),
    ]:
        for score in scores:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                score(history, man, None, 2.0, 120.0)
    no_download = [*recs[:2], recs[2]._replace(download_s=None), *recs[3:]]
    with pytest.raises(ValueError, match=f"^{re.escape('epoch 3: download_s is None, not a real number')}$"):
        qoe_metrics(no_download, man, 2, 20.0)
    # a logged omega entry, read with np.fromiter when every record logged
    # one and assigned into the one-hot matrix when some did not: None scored
    # to NaN series, and a numeric string was parsed
    logged = [rec._replace(omega=(0.5, 0.5)) for rec in recs]
    for entries, shown in [((None, 1.0), "None"), (("0.5", "0.5"), "'0.5'")]:
        for history in (logged, [*recs[:5], *logged[5:]]):
            history = [*history[:6], history[6]._replace(omega=entries), *history[7:]]
            expected = f"epoch 7: omega holds {shown}, not a real number"
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                regret_and_residuals(history, man, None, 2.0, 120.0)


# the fields scoring reads, each with the scoring stages that read it; "omega"
# is the first entry of epoch 3's logged omega, with omega logged on every
# epoch or, in "omega-some", on all but epoch 4
SCORED_FIELDS = {
    "bitrate_kbps": (qoe_metrics, regret_and_residuals),
    "size_kbit": (regret_and_residuals,),
    "rate_kbps": (regret_and_residuals,),
    "download_s": (qoe_metrics,),
    "buffer_before_s": (qoe_metrics,),
    "x": (regret_and_residuals,),
    "omega": (regret_and_residuals,),
    "omega-some": (regret_and_residuals,),
}
# every value but the last three equals 1, the value of every scored field
ONE_AND_OTHERS = (np.float64(1.0), np.int64(1), 1, True, Decimal("1"), "1.5", None, 10**400)


def _ones_history(field, value):
    """Four epochs on a 1 kbps, 1 kbit rung whose every scored field is 1,
    with ``value`` in epoch 3's ``field``."""
    rec = EpochRecord(1, 1, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, False, 0.0, (1.0, 0.0))
    history = [rec._replace(t=t) for t in range(1, 5)]
    if field.startswith("omega"):
        history[2] = history[2]._replace(omega=(value, 0.0))
        if field == "omega-some":
            history[3] = history[3]._replace(omega=None)
    else:
        history[2] = history[2]._replace(**{field: value})
    return history


def _score_bits(score, history):
    man = Manifest(2.0, (1.0, 2.0), np.tile([1.0, 2.0], (4, 1)))
    bench = BenchmarkSolution((1.0, 0.0), 1.0, 0.0, 0.0)
    if score is qoe_metrics:
        return report_bits(qoe_metrics(history, man, 2, 8.0))
    series = regret_and_residuals(history, man, bench, 2.0, 20.0)
    return [a.tobytes() for a in (series.regret_rate, series.residual1_rate, series.residual2_rate)]


def _expected_fault(score, field, value):
    """The message of ``value`` in epoch 3's ``field``, or None where it is
    read as the 1 it equals."""
    name = field.split("-")[0]
    if field == "x":
        if not isinstance(value, numbers.Integral):
            return f"epoch 3: quality index {value!r} is not an integer"
        return None if value == 1 else f"epoch 3: quality index {value} outside 1..2"
    if not isinstance(value, (str, type(None))) and value == 1:
        return None
    if score is regret_and_residuals and name in ("bitrate_kbps", "size_kbit"):
        # checked against the manifest's value at x_t first
        shown = "r_kbps" if name == "bitrate_kbps" else name
        kind = "bitrate" if name == "bitrate_kbps" else "size"
        return f"epoch 3: {shown} is {value!r}; the manifest's {kind} at x_t=1 is 1.0"
    if isinstance(value, int):
        return f"epoch 3: {name} is out of the float range"
    return f"epoch 3: {name} {'holds' if name == 'omega' else 'is'} {value!r}, not a real number"


@pytest.mark.parametrize("value", ONE_AND_OTHERS,
                         ids=["float64", "int64", "int", "bool", "Decimal", "str", "None", "int-10**400"])
@pytest.mark.parametrize("field", SCORED_FIELDS)
def test_every_scored_field_reads_a_number_by_one_rule(field, value):
    # any Python or numpy number is read as the float it equals, a bool
    # included; text and None are not real numbers, and an int past the float
    # range is out of it (a Decimal field and 10**400 once failed, the latter
    # with a bare OverflowError)
    history = _ones_history(field, value)
    faults = []
    for score in SCORED_FIELDS[field]:
        expected = _expected_fault(score, field, value)
        faults.append(expected is None)
        if expected is None:
            ones = _ones_history(field, 1 if field == "x" else 1.0)
            assert _score_bits(score, history) == _score_bits(score, ones)
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
                _score_bits(score, history)
    assert len(set(faults)) == 1  # both stages accept a value, or both reject it


# ---------------------------------------------------------------------------
# the five metrics against zip(*history)


@st.composite
def qoe_histories(draw):
    """A manifest, a history of 0, 1, 2 or more epochs whose numeric fields
    are all floats, all integers or a mix, and stalls that may fall in the
    last tau epochs."""
    n = draw(st.integers(2, 6))
    ladder = sorted(draw(st.sets(st.integers(100, 20000), min_size=n, max_size=n)))
    t_total = draw(st.sampled_from([0, 1, 2]) | st.integers(3, 50))
    tau = draw(st.integers(1, 10))
    sizes = np.tile(np.array(ladder, dtype=float), (max(t_total, 1), 1))
    man = Manifest(2.0, tuple(map(float, ladder)), sizes)
    kind = draw(st.sampled_from(["float", "int", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def number(value):
        whole = kind == "int" or (kind == "mixed" and rng.random() < 0.5)
        return int(round(value)) if whole else float(value)

    late_stall = draw(st.booleans())
    records = []
    for idx in range(t_total):
        x = int(rng.integers(1, n + 1))
        download = number(rng.uniform(0.0, 12.0))
        before = number(rng.uniform(0.0, 12.0))
        if late_stall and idx >= t_total - tau:
            before, download = number(rng.uniform(0.0, 3.0)), number(rng.uniform(4.0, 12.0))
        records.append(EpochRecord(idx + 1, x, number(ladder[x - 1]), 1.0, 1000.0, download, 0.0,
                                   before, before, before < download, 0.0, None))
    duration = draw(st.sampled_from([2.0 * max(t_total, 1), 3.5]))
    return records, man, tau, duration


def report_bits(report):
    values = (report.avg_bitrate_kbps, report.stability, report.smoothness,
              report.consistency, report.continuity)
    return [float(v).hex() for v in values], [type(v) for v in values], report.flags


@settings(max_examples=300, deadline=None)
@given(case=qoe_histories())
def test_qoe_metrics_match_the_transposing_reference(case):
    history, man, tau, duration = case
    assert (report_bits(qoe_metrics(history, man, tau, duration))
            == report_bits(reference_qoe_metrics(history, man, tau, duration)))


def _as_numpy_numbers(history):
    """``history`` with every float field, and every entry of a logged
    omega, an equal numpy float64, and an int quality index a numpy int64."""
    def swap(value):
        return np.float64(value) if type(value) is float else value

    return [EpochRecord(rec.t, np.int64(rec.x) if type(rec.x) is int else rec.x, *map(swap, rec[2:-1]),
                        None if rec.omega is None else tuple(map(swap, rec.omega)))
            for rec in history]


@settings(max_examples=150, deadline=None)
@given(scored=scored_histories(), case=qoe_histories())
def test_numpy_numbers_score_as_the_numbers_they_equal(scored, case):
    history, man, bench, b_max = scored
    plain = scoring_outcome(regret_and_residuals, history, man, bench, b_max)
    swapped = scoring_outcome(regret_and_residuals, _as_numpy_numbers(history), man, bench, b_max)
    if len(plain) == 2:  # a fault: the same error at the same epoch (a value's repr may differ)
        plain, swapped = (plain[0], plain[1].split(":")[0]), (swapped[0], swapped[1].split(":")[0])
    assert swapped == plain
    history, man, tau, duration = case
    assert (report_bits(qoe_metrics(_as_numpy_numbers(history), man, tau, duration))
            == report_bits(qoe_metrics(history, man, tau, duration)))
