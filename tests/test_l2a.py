import hashlib
import math
import re
from array import array
from functools import reduce
from operator import add, mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim import (
    ChannelTrace,
    L2APolicy,
    L2AState,
    Manifest,
    SessionConfig,
    generate_markovian,
    l2a_decide,
    project_simplex,
    run_session,
    synthesize_manifest,
)

import abrsim.l2a
from abrsim.l2a import EPSILON, UTILITY_WEIGHT

from conftest import constant_trace

LADDER = (370.0, 750.0, 1500.0, 3000.0, 5800.0, 12000.0, 17000.0, 20000.0)


def make_feedback(sizes, rate, buffer_s=10.0):
    """The feedback tuple ``(realized_rate_kbps, row_sizes_kbit, buffer_s)``."""
    return float(rate), tuple(float(s) for s in sizes), float(buffer_s)


def fold_dot(a, b):
    """Dot product summed strictly left to right, as ``l2a_decide`` sums it."""
    return reduce(add, map(mul, a, b), 0.0)


def loss_and_constraints(
    omega, sizes_row_kbit, bitrates, rate_kbps, segment_duration_s, b_max_s, horizon_t
):
    """Expected loss and buffer-displacement constraint values at ``omega``.

    Returns ``(f, g1, g2)``: the negated expected bitrate (in whatever units
    ``bitrates`` uses), the expected download time minus the segment duration
    (positive means underflow pressure), and the slack side with its
    b_max / T overflow allowance.
    """
    expected_dl = fold_dot(sizes_row_kbit, omega) / rate_kbps
    f = -fold_dot(bitrates, omega)
    g1 = expected_dl - segment_duration_s
    g2 = segment_duration_s - expected_dl - b_max_s / horizon_t
    return f, g1, g2


def gradients(sizes_row_kbit, rate_kbps, bitrates):
    """Gradients of (f, g1, g2) w.r.t. omega, as lists of floats.

    Constant vectors, because all three functions are linear in omega.
    """
    dl = [s / rate_kbps for s in sizes_row_kbit]
    return [-r for r in bitrates], dl, [-d for d in dl]


def first_min_gap(omega, bitrates_kbps):
    """The quality whose gap to the expected bitrate is the first minimum."""
    expected = fold_dot(bitrates_kbps, omega)
    gaps = [abs(r - expected) for r in bitrates_kbps]
    return gaps.index(min(gaps)) + 1


class OracleController:
    """An oracle's controller: its own ``state``, and the settings of a policy
    built from the same ladder, V, b_max, T and beta, with the schedule
    v_l = T^(1 - EPSILON/2) and alpha = v_l * sqrt(T) derived here by the
    package's expressions rather than read from a policy."""

    def __init__(self, ladder, v, b_max, horizon, beta, state):
        self.bitrates_kbps = tuple(ladder)
        self.segment_duration_s, self.b_max_s, self.horizon_t, self.beta = v, b_max, horizon, beta
        self.v_l = float(horizon) ** (1.0 - EPSILON / 2.0)
        self.alpha = self.v_l * math.sqrt(horizon)
        self.state = state


def scalar_decide(controller, feedback):
    """``l2a_decide`` step by step on an ``OracleController``: the three
    gradient vectors and the constraint values at the new point from the
    functions above."""
    state, bitrates_kbps = controller.state, controller.bitrates_kbps
    state.t += 1
    if feedback is None:
        return first_min_gap(state.omega, bitrates_kbps)
    c_prev, sizes_prev, _ = feedback
    scale = UTILITY_WEIGHT / bitrates_kbps[-1]
    grad_f, grad_g1, grad_g2 = gradients(sizes_prev, c_prev, [r * scale for r in bitrates_kbps])
    v_l, q1, q2 = controller.v_l, state.q1, state.q2
    state.grad_accum = [
        a + v_l * f + q1 * g1 + q2 * g2
        for a, f, g1, g2 in zip(state.grad_accum, grad_f, grad_g1, grad_g2)
    ]
    if state.gamma / state.t <= controller.beta:
        denom = 2.0 * controller.alpha
        state.omega = project_simplex([w - a / denom for w, a in zip(state.omega, state.grad_accum)])
        state.gamma += 1
        state.grad_accum = [0.0] * len(state.omega)
    _, g1, g2 = loss_and_constraints(
        state.omega, sizes_prev, bitrates_kbps, c_prev, controller.segment_duration_s,
        controller.b_max_s, controller.horizon_t,
    )
    state.q1 = max(q1 + g1, 0.0)
    state.q2 = max(q2 + g2, 0.0)
    return first_min_gap(state.omega, bitrates_kbps)


def float_bytes(values):
    return array("d", values).tobytes()


# ---------------------------------------------------------------------------
# the pure pieces


def test_loss_one_hot_recovers_ladder():
    sizes = (2000.0, 4000.0, 8000.0)
    rates = (1000.0, 2000.0, 4000.0)
    for n in range(3):
        omega = np.zeros(3)
        omega[n] = 1.0
        f, _, _ = loss_and_constraints(omega, sizes, rates, 2000.0, 2.0, 120.0, 600)
        assert f == pytest.approx(-rates[n], abs=1e-12)


def test_constraint_boundary_and_overflow_allowance():
    # expected download 4000 kbit at 2000 kbps = 2 s = V: g1 sits on its boundary
    f, g1, g2 = loss_and_constraints(
        (1.0, 0.0), (4000.0, 8000.0), (2000.0, 4000.0), 2000.0, 2.0, 120.0, 600
    )
    assert g1 == pytest.approx(0.0, abs=1e-12)
    # and the overflow side carries the B_max/T allowance: 2 - 2 - 120/600
    assert g2 == pytest.approx(-0.2, abs=1e-12)


def test_gradients_match_finite_differences():
    sizes = np.array([2000.0, 4100.0, 7900.0])
    rates = np.array([1000.0, 2000.0, 4000.0])
    rate_c = 1700.0
    omega = np.array([0.5, 0.3, 0.2])
    grad_f, grad_g1, grad_g2 = gradients(sizes, rate_c, rates)
    h = 1e-4
    for n in range(3):
        bumped = omega.copy()
        bumped[n] += h
        f0, g10, g20 = loss_and_constraints(omega, sizes, rates, rate_c, 2.0, 120.0, 600)
        f1, g11, g21 = loss_and_constraints(bumped, sizes, rates, rate_c, 2.0, 120.0, 600)
        assert (f1 - f0) / h == pytest.approx(grad_f[n], rel=1e-6)
        assert (g11 - g10) / h == pytest.approx(grad_g1[n], rel=1e-6)
        assert (g21 - g20) / h == pytest.approx(grad_g2[n], rel=1e-6)


def test_constraint_gradients_mirror():
    _, g1, g2 = gradients((2000.0, 4000.0), 1500.0, (1000.0, 2000.0))
    assert np.linalg.norm(g1) == np.linalg.norm(g2)
    assert np.array_equal(g1, -np.asarray(g2))


def test_map_to_quality_tie_breaks_low():
    # the step's quality: the rung nearest the expected bitrate
    assert abrsim.l2a._nearest(fold_dot((1000.0, 3000.0), (0.5, 0.5)), (1000.0, 3000.0)) == 1
    assert abrsim.l2a._nearest(fold_dot((1000.0, 3000.0), (0.0, 1.0)), (1000.0, 3000.0)) == 2


def test_map_to_quality_is_the_first_minimal_gap():
    rng = np.random.default_rng(11)
    n = len(LADDER)
    cases = [(omega, LADDER) for omega in rng.dirichlet(np.ones(n), 4000).tolist()]
    # sparse distributions put the expected bitrate near a rung or a midpoint
    for _ in range(4000):
        omega = [0.0] * n
        for i, w in zip(rng.integers(0, n, 2).tolist(), rng.dirichlet((0.3, 0.3)).tolist()):
            omega[i] += w
        cases.append((omega, LADDER))
    # exact midpoint ties between adjacent rungs, and each rung itself
    for i in range(n - 1):
        omega = [0.0] * n
        omega[i] = omega[i + 1] = 0.5
        cases.append((omega, LADDER))
        assert first_min_gap(omega, LADDER) == i + 1
    cases += [(np.eye(n)[i].tolist(), LADDER) for i in range(n)]
    # expected bitrates at and beyond either end of the ladder
    for scale in (0.0, 1e-300, 1.0 - 1e-16, 1.0 + 1e-12, 2.0, 1e300):
        cases += [([scale] + [0.0] * (n - 1), LADDER), ([0.0] * (n - 1) + [scale], LADDER)]
    # a ladder where the gaps to 1 and to 1e17 round to the same value around 5e16
    wide = (1.0, 1e17, 2e17)
    cases += [(omega, wide) for omega in rng.dirichlet(np.ones(3), 2000).tolist()]
    cases += [((1.0 - w, w, 0.0), wide) for w in np.linspace(0.4999, 0.5001, 2001).tolist()]
    cases += [((0.0, 1.0 - w, w), wide) for w in np.linspace(0.4999, 0.5001, 2001).tolist()]
    assert first_min_gap((0.5, 0.5, 0.0), wide) == 1
    for omega, ladder in cases:
        assert abrsim.l2a._nearest(fold_dot(ladder, omega), ladder) == first_min_gap(omega, ladder), (omega, ladder)


@pytest.mark.parametrize("name", ["segment_duration_s", "b_max_s"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -5.0, "2"])
def test_policy_rejects_a_time_that_is_not_positive_and_finite(name, bad):
    times = {"segment_duration_s": 2.0, "b_max_s": 120.0, name: bad}
    with pytest.raises(ValueError, match=re.escape(f"{name} must be positive and finite, got {bad!r}")):
        L2APolicy(LADDER, horizon_t=600, **times)


def test_schedule_is_derived_and_beta_is_the_one_setting():
    # the oracle tests check the derived schedule bit for bit
    for beta in (0.0, 1.5, math.nan, math.inf, "0.3"):
        with pytest.raises(ValueError, match=re.escape(f"beta must be a number in (0, 1], got {beta!r}")):
            L2APolicy(LADDER, 2.0, 120.0, 600, beta=beta)
    # nan once failed only at the first gradient step, and 2.5 and True ran a
    # session on a fractional or unit horizon
    for horizon in (0, math.nan, 2.5, True):
        with pytest.raises(ValueError, match=re.escape(f"horizon_t must be an integer >= 1, got {horizon!r}")):
            L2APolicy(LADDER, 2.0, 120.0, horizon)
    # the schedule is not settable, and the utility is weighed against the
    # ladder top, so there is no rate-unit knob either
    for name in ("epsilon", "v_l", "alpha", "utility_rate_scale"):
        with pytest.raises(TypeError, match=name):
            L2APolicy(LADDER, 2.0, 120.0, 600, **{name: 1.0})


@pytest.mark.parametrize("name", ["beta", "v_l", "alpha", "horizon_t", "segment_duration_s", "b_max_s"])
def test_a_setting_cannot_be_assigned_after_the_policy_is_built(name):
    # the settings live only in the per-epoch constants, so an assignment,
    # which once was accepted and changed nothing, is an error
    policy = L2APolicy(LADDER, 2.0, 120.0, 600, beta=1.0)
    with pytest.raises(AttributeError, match=name):
        setattr(policy, name, 0.3)
    assert not hasattr(policy, name)


# ---------------------------------------------------------------------------
# the decision update


def test_first_epoch_starts_lowest():
    policy = L2APolicy((1000.0, 2000.0, 4000.0), 2.0, 120.0, 10)
    state = policy.state
    assert l2a_decide(policy, None) == 1
    assert list(state.omega) == [1.0, 0.0, 0.0]
    assert state.gamma == 0


def test_predict_constraint_cases():
    # the queues add the constraints at the post-step omega,
    # q_i <- [q_i + g_i(omega_new)]^+ with g_i from loss_and_constraints, both
    # when the gradient step is taken (gamma = 0) and when the switching
    # budget blocks it (gamma/t = 5/6 > beta, so omega_new = omega_prev)
    sizes, rates, rate_c = (1800.0, 4200.0), (1000.0, 2000.0), 1300.0
    for gamma, taken in ((0, True), (5, False)):
        policy = L2APolicy(rates, 2.0, 120.0, 60, beta=0.5)
        state = policy.state
        state.omega = (0.7, 0.3)
        state.gamma, state.t = gamma, 5
        state.q1, state.q2 = 0.4, 30.0
        q1_before, q2_before = state.q1, state.q2
        l2a_decide(policy, make_feedback(sizes, rate_c))
        assert (state.gamma == gamma + 1) is taken
        assert (list(state.omega) != [0.7, 0.3]) is taken
        _, g1, g2 = loss_and_constraints(state.omega, sizes, rates, rate_c, 2.0, 120.0, 60)
        assert state.q1 == pytest.approx(max(q1_before + g1, 0.0), abs=1e-12)
        assert state.q2 == pytest.approx(max(q2_before + g2, 0.0), abs=1e-12)


def test_prediction_exact_for_linear_constraints():
    # the constraints are linear in omega, so the first-order prediction from
    # the previous point equals their value at the new point; this is why the
    # queue update evaluates loss_and_constraints at omega_new directly
    sizes = (1800.0, 4200.0)
    rates = (1000.0, 2000.0)
    rate_c = 1300.0
    omega_prev = np.array([0.7, 0.3])
    omega_new = np.array([0.25, 0.75])
    _, g1_prev, g2_prev = loss_and_constraints(omega_prev, sizes, rates, rate_c, 2.0, 120.0, 100)
    _, grad_g1, grad_g2 = gradients(sizes, rate_c, rates)
    _, g1_new, g2_new = loss_and_constraints(omega_new, sizes, rates, rate_c, 2.0, 120.0, 100)
    assert g1_prev + grad_g1 @ (omega_new - omega_prev) == pytest.approx(g1_new, abs=1e-12)
    assert g2_prev + grad_g2 @ (omega_new - omega_prev) == pytest.approx(g2_new, abs=1e-12)


def test_queue_floor_at_zero():
    # blocked update (gamma/t > beta) keeps omega, so the queue adds the raw
    # previous-epoch constraint value: q1 = [0.5 + (-1)]^+ = 0
    policy = L2APolicy((500.0, 1000.0), 2.0, 120.0, 60, beta=0.5)
    state = policy.state
    state.gamma = 5
    state.t = 5
    state.q1 = 0.5
    state.q2 = 0.25
    fb = make_feedback((1000.0, 2000.0), 1000.0)  # g1 = 1 - 2 = -1, g2 = 2 - 1 - 2 = -1
    l2a_decide(policy, fb)
    assert list(state.omega) == [1.0, 0.0]  # gate blocked the step
    assert state.q1 == 0.0
    assert state.q2 == 0.0


def test_queue_accumulates_violation():
    policy = L2APolicy((500.0, 1000.0), 2.0, 120.0, 60, beta=0.5)
    state = policy.state
    state.gamma = 5
    state.t = 5
    fb = make_feedback((5000.0, 9000.0), 1000.0)  # g1 at e_1: 5 - 2 = +3
    l2a_decide(policy, fb)
    assert state.q1 == pytest.approx(3.0)


def test_switch_budget_bound_is_hard():
    horizon = 100
    beta = 0.3
    man = synthesize_manifest(horizon, LADDER, 2.0, vbr_jitter=0.1, seed=0)
    trace = generate_markovian(2000, 750, 23000, 0.05, 1.0, seed=1)
    policy = L2APolicy(LADDER, 2.0, 120.0, horizon, beta=beta)
    cfg = SessionConfig(b_max_s=120.0, tau_resume=2)
    state = run_session(policy, cfg, man, trace)
    omegas = [np.asarray(r.omega) for r in state.history]
    changes = sum(
        1 for i in range(1, len(omegas)) if not np.array_equal(omegas[i], omegas[i - 1])
    )
    assert changes <= beta * horizon + 1
    assert policy.state.gamma <= beta * horizon + 1


def test_gamma_within_budget_at_every_epoch():
    beta = 0.25
    policy = L2APolicy(LADDER, 2.0, 120.0, 50, beta=beta)
    state = policy.state
    rng = np.random.default_rng(3)
    feedback = None
    for _ in range(50):
        l2a_decide(policy, feedback)
        assert state.gamma <= beta * state.t + 1
        sizes = np.asarray(LADDER) * 2.0 * rng.uniform(0.9, 1.1, len(LADDER))
        feedback = make_feedback(np.sort(sizes), rng.uniform(800, 23000))


def test_fast_channel_reaches_top_and_stays():
    horizon = 200
    man = synthesize_manifest(horizon, LADDER, 2.0, vbr_jitter=0.0, seed=0)
    policy = L2APolicy(LADDER, 2.0, 120.0, horizon)
    cfg = SessionConfig(b_max_s=120.0, tau_resume=2)
    state = run_session(policy, cfg, man, constant_trace(200000.0))
    xs = [r.x for r in state.history]
    assert max(xs) == len(LADDER)
    assert all(x == len(LADDER) for x in xs[-20:])
    assert policy.state.omega[-1] > 0.7
    assert int(np.argmax(policy.state.omega)) == len(LADDER) - 1


def test_invariants_hold_along_a_stress_run():
    horizon = 400
    man = synthesize_manifest(horizon, LADDER, 2.0, vbr_jitter=0.1, seed=4)
    trace = generate_markovian(3000, 750, 23000, 0.05, 1.0, seed=4)
    policy = L2APolicy(LADDER, 2.0, 120.0, horizon)
    cfg = SessionConfig(b_max_s=120.0, tau_resume=2)
    state = run_session(policy, cfg, man, trace)
    c_min = min(r.rate_kbps for r in state.history)
    f_bound = math.sqrt(sum(r * r for r in LADDER))
    for rec in state.history:
        omega = np.asarray(rec.omega)
        assert abs(omega.sum() - 1.0) <= 1e-9
        assert np.all(omega >= 0.0)
        grad_f, grad_g1, _ = gradients(man.rows[rec.t - 1], rec.rate_kbps, LADDER)
        assert np.linalg.norm(grad_f) <= f_bound + 1e-9
        g_bound = math.sqrt(float(np.sum((np.asarray(man.rows[rec.t - 1]) / c_min) ** 2)))
        assert np.linalg.norm(grad_g1) <= g_bound + 1e-9
    assert policy.state.q1 >= 0.0
    assert policy.state.q2 >= 0.0


def test_constant_feedback_converges():
    # the top level's download time 16000/8200 = 1.95 s sits inside the
    # satisfied band [V - b_max/T, V] = [1.8, 2], so both queues decay to zero
    # and the update becomes a plain projected gradient step on a fixed
    # linear function, which parks at the top vertex
    rates = (1000.0, 2000.0, 4000.0, 8000.0)
    policy = L2APolicy(rates, 2.0, 120.0, 600, beta=1.0)
    state = policy.state
    fb = make_feedback((2000.0, 4000.0, 8000.0, 16000.0), 8200.0)
    prev = np.asarray(state.omega)
    drift = None
    for _ in range(600):
        l2a_decide(policy, fb)
        drift = float(np.linalg.norm(np.asarray(state.omega) - prev))
        prev = np.asarray(state.omega)
    assert drift <= 1e-12
    assert list(state.omega) == [0.0, 0.0, 0.0, 1.0]


def test_decisions_do_not_depend_on_rate_units():
    # the same content written in other rate units: ladder, sizes and channel
    # scaled together by a power of two, which is exact in floating point
    horizon = 150
    man = synthesize_manifest(horizon, LADDER, 2.0, vbr_jitter=0.1, seed=8)
    cfg = SessionConfig(b_max_s=120.0, tau_resume=2)
    for seed in (2, 3):
        trace = generate_markovian(1500, 750, 23000, 0.05, 1.0, seed=seed)
        for beta in (1.0, 0.3):
            runs = []
            for scale in (1.0, 2.0 ** -10, 2.0 ** 3):
                ladder = tuple(r * scale for r in LADDER)
                scaled_man = Manifest(2.0, ladder, man.segment_sizes_kbit * scale)
                scaled_trace = ChannelTrace(trace.timestamps_s, trace.throughputs_kbps * scale)
                policy = L2APolicy(ladder, 2.0, 120.0, horizon, beta=beta)
                runs.append(run_session(policy, cfg, scaled_man, scaled_trace).history)
            base, *scaled = runs
            for history in scaled:
                assert [r.x for r in history] == [r.x for r in base]
                assert (np.array([r.omega for r in history]).tobytes()
                        == np.array([r.omega for r in base]).tobytes())


# ---------------------------------------------------------------------------
# the numpy formulas as an oracle


def reference_decide(controller, feedback):
    """The numpy formulas ``l2a_decide`` and its helpers ran before their
    scalar rewrite, on an ``OracleController`` whose state holds numpy
    arrays.  The dot products sum in numpy's order, which no Python
    summation order matches bit for bit."""
    state = controller.state
    state.t += 1
    rates = np.asarray(controller.bitrates_kbps, dtype=float)

    def to_quality(omega):
        return int(np.argmin(np.abs(rates - float(rates @ omega)))) + 1

    if feedback is None:
        return to_quality(state.omega)
    c_prev = float(feedback[0])
    sizes = np.asarray(feedback[1], dtype=float)
    dl = sizes / c_prev
    grad_f, grad_g1, grad_g2 = -(rates * (UTILITY_WEIGHT / rates[-1])), dl, -dl
    state.grad_accum = (
        state.grad_accum + controller.v_l * grad_f + state.q1 * grad_g1 + state.q2 * grad_g2
    )
    omega_new = state.omega
    if state.gamma / state.t <= controller.beta:
        step_vec = state.grad_accum / (2.0 * controller.alpha)
        omega_new = np.array(project_simplex(state.omega - step_vec))
        state.gamma += 1
        state.grad_accum = np.zeros_like(state.grad_accum)
    expected_dl = float(sizes @ omega_new) / c_prev
    v = controller.segment_duration_s
    g1 = expected_dl - v
    g2 = v - expected_dl - controller.b_max_s / controller.horizon_t
    state.q1 = max(state.q1 + g1, 0.0)
    state.q2 = max(state.q2 + g2, 0.0)
    state.omega = omega_new
    return to_quality(omega_new)


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([1.0, 0.3, 0.2]),
    epochs=st.integers(1, 120),
    extra_horizon=st.integers(0, 3000),
)
def test_decide_matches_numpy_reference(seed, beta, epochs, extra_horizon):
    rng = np.random.default_rng(seed)
    ladder = tuple(np.cumsum(rng.uniform(100.0, 4000.0, size=int(rng.integers(2, 10)))).tolist())
    man = synthesize_manifest(epochs, ladder, 2.0, vbr_jitter=0.2, seed=seed)
    b_max = float(rng.uniform(2.0, 120.0))
    policy = L2APolicy(ladder, 2.0, b_max, epochs + extra_horizon, beta=beta)
    state = policy.state
    ref = L2AState(omega=np.array(state.omega), grad_accum=np.zeros(len(ladder)))
    reference = OracleController(ladder, 2.0, b_max, epochs + extra_horizon, beta, ref)
    midpoints = [(lo + hi) / 2.0 for lo, hi in zip(ladder, ladder[1:])]
    feedback = ref_feedback = None
    for t in range(1, epochs + 1):
        x = l2a_decide(policy, feedback)
        x_ref = reference_decide(reference, ref_feedback)
        assert (state.q1 > 0.0, state.q2 > 0.0) == (ref.q1 > 0.0, ref.q2 > 0.0)
        assert state.gamma == ref.gamma
        assert max(abs(a - b) for a, b in zip(state.omega, ref.omega)) <= 1e-12
        expected = float(np.asarray(ladder) @ ref.omega)
        if min(abs(expected - m) for m in midpoints) > 1e-9:
            assert x == x_ref
        # the session's row view and the matrix row it replaces hold the same bits
        row = man.rows[t - 1]
        assert np.asarray(row).tobytes() == man.segment_sizes_kbit[t - 1].tobytes()
        # a channel between the ladder's ends: far below the bottom rung the
        # queues amplify the rounding of both versions, and with download
        # times of hundreds of seconds omega was seen to differ by 2e-12
        rate = float(np.exp(rng.uniform(np.log(ladder[0]), np.log(ladder[-1]))))
        buffer_s = float(rng.uniform(0.0, b_max))
        feedback = (rate, row, buffer_s)
        ref_feedback = (rate, man.segment_sizes_kbit[t - 1], buffer_s)


# ---------------------------------------------------------------------------
# the scalar oracle, bit for bit, and bytes that do not depend on the Python version


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    beta=st.sampled_from([1.0, 0.5, 0.2]),
    epochs=st.integers(1, 150),
)
def test_decide_matches_the_scalar_oracle_bit_for_bit(seed, beta, epochs):
    rng = np.random.default_rng(seed)
    ladder = tuple(np.cumsum(rng.uniform(100.0, 4000.0, size=int(rng.integers(2, 10)))).tolist())
    v = float(rng.uniform(0.5, 4.0))
    man = synthesize_manifest(epochs, ladder, v, vbr_jitter=0.2, seed=seed)
    b_max = float(rng.uniform(v, 120.0))
    horizon = epochs + int(rng.integers(0, 3000))
    policy = L2APolicy(ladder, v, b_max, horizon, beta=beta)
    state = policy.state
    # the conservative start: all mass on the lowest quality
    oracle = L2AState(omega=(1.0,) + (0.0,) * (len(ladder) - 1), grad_accum=(0.0,) * len(ladder))
    oracle_controller = OracleController(ladder, v, b_max, horizon, beta, oracle)
    feedback = None
    for t in range(1, epochs + 1):
        x = l2a_decide(policy, feedback)
        x_oracle = scalar_decide(oracle_controller, feedback)
        assert x == x_oracle
        assert float_bytes(state.omega) == float_bytes(oracle.omega)
        assert float_bytes(state.grad_accum) == float_bytes(oracle.grad_accum)
        assert float_bytes((state.q1, state.q2)) == float_bytes((oracle.q1, oracle.q2))
        assert state.gamma == oracle.gamma
        # any channel, from far below the bottom rung to above the top one
        rate = float(np.exp(rng.uniform(np.log(ladder[0] / 20.0), np.log(ladder[-1] * 2.0))))
        feedback = (rate, man.rows[t - 1], float(rng.uniform(0.0, b_max)))


def one_step_against_the_oracle(ladder, omega, grad_accum, feedback):
    """One gradient step of ``l2a_decide`` from ``omega`` and ``grad_accum``
    (empty queues, no step taken yet) and of ``scalar_decide`` from the same
    state; each quality, omega and the queues must hold the same bits.
    Returns the quality and the policy's state."""
    policy = L2APolicy(ladder, 2.0, 20.0, 10, beta=1.0)
    state = policy.state
    state.omega, state.grad_accum = omega, grad_accum
    oracle = L2AState(omega=omega, grad_accum=grad_accum)
    x = l2a_decide(policy, feedback)
    assert state.gamma == 1
    assert x == scalar_decide(OracleController(ladder, 2.0, 20.0, 10, 1.0, oracle), feedback)
    assert float_bytes(state.omega) == float_bytes(oracle.omega)
    assert float_bytes((state.q1, state.q2)) == float_bytes((oracle.q1, oracle.q2))
    return x, state


def test_a_step_onto_a_midpoint_maps_low_as_the_oracle():
    # an accumulator that cancels the utility gradient leaves the projection's
    # argument at omega = (0.5, 0.5): the expected bitrate the step folds is
    # 2000, the midpoint of 1000 and 3000, and the tie goes low
    ladder = (1000.0, 3000.0)
    utility_grad = L2APolicy(ladder, 2.0, 20.0, 10)._decide_constants[1]
    x, state = one_step_against_the_oracle(ladder, (0.5, 0.5), tuple(-u for u in utility_grad),
                                           make_feedback((2000.0, 6000.0), 2500.0))
    assert state.omega == (0.5, 0.5)
    assert x == 1


def test_a_step_that_clips_rungs_to_zero_matches_the_oracle():
    omega = (0.1, 0.2, 0.1, 0.2, 0.1, 0.1, 0.1, 0.1)
    grad_accum = (40.0, -10.0, 30.0, 0.0, -5.0, 20.0, 0.0, 0.0)
    _, state = one_step_against_the_oracle(LADDER, omega, grad_accum,
                                           make_feedback([2.0 * r for r in LADDER], 3000.0))
    # three rungs are clipped, and the queue update reads the clipped omega
    assert [w == 0.0 for w in state.omega] == [True, False, True, False, False, True, False, False]
    assert state.q1 > 0.0


def compensated_sum(values, start=0):
    """Float ``sum`` the way CPython 3.12 computes it: Neumaier summation."""
    total, compensation = float(start), 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation


def l2a_bytes(history):
    """The decisions and distributions of a session, in a fixed byte order."""
    return (np.array([r.x for r in history], dtype="<i8").tobytes()
            + np.array([r.omega for r in history], dtype="<f8").tobytes())


def test_bytes_do_not_depend_on_the_float_sum(monkeypatch):
    # the shadow sum rounds differently from a left fold, as 3.12's sum does
    assert compensated_sum([0.1] * 10) == 1.0 != reduce(add, [0.1] * 10, 0.0)
    horizon = 300
    man = synthesize_manifest(horizon, LADDER, 2.0, vbr_jitter=0.1, seed=5)
    trace = generate_markovian(3000, 750, 23000, 0.05, 1.0, seed=5)
    cfg = SessionConfig(b_max_s=20.0, tau_resume=2)

    def sessions():
        return [
            l2a_bytes(run_session(L2APolicy(LADDER, 2.0, 20.0, horizon, beta=beta), cfg, man, trace).history)
            for beta in (1.0, 0.3)
        ]

    plain = sessions()
    monkeypatch.setattr(abrsim.l2a, "sum", compensated_sum, raising=False)
    assert sessions() == plain


def test_a_closed_form_session_has_pinned_bytes():
    # inputs from exact arithmetic on small integers, with no RNG and no libm,
    # so every platform and Python version builds the same bits
    horizon, v, b_max = 240, 2.0, 20.0
    sizes = [[r * v * (1.0 + ((7 * t + 3 * n) % 11 - 5) / 100.0) for n, r in enumerate(LADDER)]
             for t in range(horizon)]
    rates = [(900.0 if (i // 40) % 3 == 0 else 23000.0) + 100.0 * (i % 7) for i in range(2000)]
    policy = L2APolicy(LADDER, v, b_max, horizon, beta=0.5)
    history = run_session(policy, SessionConfig(b_max_s=b_max, tau_resume=2),
                          Manifest(v, LADDER, sizes), ChannelTrace(np.arange(2000.0), rates)).history
    # every rung is chosen, the buffer underflows and the budget blocks steps
    assert {r.x for r in history} == set(range(1, len(LADDER) + 1))
    assert any(r.stall for r in history) and policy.state.gamma < horizon
    assert (hashlib.sha256(l2a_bytes(history)).hexdigest()
            == "08c41324f3f63830c8367e7cffb69d0bac71640b4dcb4c64308cea27d7443f68")


def test_a_seeded_live_session_at_beta_0_3_has_pinned_records():
    # a live buffer (b_max 20 s) on a 0.1 s trace: the session stalls, the
    # budget blocks steps, and every field of every record, omega included,
    # is pinned
    horizon = 300
    man = synthesize_manifest(horizon, LADDER, 2.0, vbr_jitter=0.1, seed=18)
    trace = generate_markovian(900, 750, 23000, 0.01, 0.1, seed=18)
    policy = L2APolicy(LADDER, 2.0, 20.0, horizon, beta=0.3)
    history = run_session(policy, SessionConfig(b_max_s=20.0, tau_resume=2), man, trace).history
    assert any(r.stall for r in history) and policy.state.gamma < horizon
    assert len({r.x for r in history}) > 2
    records = (np.array([rec[:-1] for rec in history], dtype="<f8").tobytes()
               + np.array([rec.omega for rec in history], dtype="<f8").tobytes())
    assert (hashlib.sha256(records).hexdigest()
            == "b3d55a773c2ff897f1f634a55f626cd6b43fb63b57f2ea9f06b1612906773cc3")
