"""Online-learning rate controller on the quality simplex (L2A).

The controller maintains a distribution omega over the N quality levels and
two non-negative virtual queues that accumulate predicted buffer underflow
and overflow pressure.  Each epoch it

1. adds the queue-weighted gradients of the previous epoch's loss and
   constraint functions to a running accumulator,
2. takes a projected gradient step ``omega = proj(omega - accum / (2 alpha))``
   when the switching budget allows (at most a ``beta`` fraction of epochs),
   flushing the accumulator,
3. performs dual ascent on the queues with the previous epoch's constraint
   values at the new point, and
4. maps the distribution to the quality whose ladder bitrate is nearest the
   expected bitrate.

The loss is the negated expected bitrate over the ladder top r_N, weighted by
``UTILITY_WEIGHT``, and the constraints are the expected download time
against the segment duration (underflow side) and against an overflow
allowance of b_max / T per epoch.  All three are linear in omega, so their
gradients do not depend on omega, and a first-order prediction of the
constraints at the new point equals their value there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

from .session import EpochFeedback, require_finite
from .simplex import project_simplex

__all__ = [
    "L2AParams",
    "L2APolicy",
    "L2AState",
    "gradients",
    "l2a_decide",
    "loss_and_constraints",
    "map_to_quality",
]

# weight of the bitrate utility r / r_N (r_N the ladder top) against the
# constraint signals, which are seconds of buffer displacement
UTILITY_WEIGHT = 0.3


def loss_and_constraints(
    omega,
    sizes_row_kbit,
    bitrates,
    rate_kbps: float,
    segment_duration_s: float,
    b_max_s: float,
    horizon_t: int,
) -> tuple[float, float, float]:
    """Expected loss and buffer-displacement constraint values at ``omega``.

    Returns ``(f, g1, g2)``: the negated expected bitrate (in whatever units
    ``bitrates`` uses), the expected download time minus the segment duration
    (positive means underflow pressure), and the slack side with its
    b_max / T overflow allowance.
    """
    expected_dl = sum(map(mul, sizes_row_kbit, omega)) / rate_kbps
    f = -sum(map(mul, bitrates, omega))
    g1 = expected_dl - segment_duration_s
    g2 = segment_duration_s - expected_dl - b_max_s / horizon_t
    return f, g1, g2


def gradients(sizes_row_kbit, rate_kbps: float, bitrates):
    """Gradients of (f, g1, g2) w.r.t. omega, as lists of floats.

    Constant vectors, because all three functions are linear in omega.
    """
    dl = [s / rate_kbps for s in sizes_row_kbit]
    return [-r for r in bitrates], dl, [-d for d in dl]


def map_to_quality(omega, bitrates_kbps) -> int:
    """Quality index (1-based) nearest the expected bitrate; ties go low."""
    expected = sum(map(mul, bitrates_kbps, omega))
    gaps = [abs(r - expected) for r in bitrates_kbps]
    return gaps.index(min(gaps)) + 1


@dataclass
class L2AParams:
    """Controller schedule.

    ``v_l`` (cautiousness) defaults to T^(1 - epsilon/2) and ``alpha``
    (step size) to v_l * sqrt(T).  There is no rate-unit knob: the utility
    gradient is ``UTILITY_WEIGHT * r / r_N`` (ladder top r_N), so rescaling
    the ladder, the sizes and the channel together leaves every decision
    unchanged.  ``average_blocked_grads`` divides the accumulated gradient
    by the number of epochs it covers instead of using the literal sum.
    """

    horizon_t: int
    beta: float = 1.0
    epsilon: float = 0.2
    v_l: float | None = None
    alpha: float | None = None
    average_blocked_grads: bool = False

    def __post_init__(self) -> None:
        require_finite(self, "beta", "epsilon")
        if self.horizon_t < 1:
            raise ValueError("horizon_t must be at least 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.v_l is None:
            self.v_l = float(self.horizon_t) ** (1.0 - self.epsilon / 2.0)
        require_finite(self, "v_l")
        if self.alpha is None:
            self.alpha = self.v_l * math.sqrt(self.horizon_t)
        require_finite(self, "alpha")
        if self.v_l <= 0 or self.alpha <= 0:
            raise ValueError("v_l and alpha must be positive")


@dataclass
class L2AState:
    """Per-session controller state, in Python floats.

    ``omega`` is the decision distribution, a tuple replaced (never mutated)
    at each gradient step, so a reference to it stays a record of that epoch.
    ``grad_accum`` is the queue-weighted gradient sum since the last step.
    """

    omega: tuple[float, ...]
    q1: float = 0.0
    q2: float = 0.0
    gamma: int = 0  # switch counter
    t: int = 0  # epochs decided so far
    grad_accum: list[float] = field(default_factory=list)
    accum_epochs: int = 0

    @classmethod
    def initial(cls, n_levels: int) -> "L2AState":
        """Conservative start: all mass on the lowest quality."""
        omega = (1.0,) + (0.0,) * (n_levels - 1)
        return cls(omega=omega, grad_accum=[0.0] * n_levels)


def l2a_decide(
    state: L2AState,
    params: L2AParams,
    feedback: EpochFeedback | None,
    bitrates_kbps,
    segment_duration_s: float,
    b_max_s: float,
) -> tuple[int, L2AState]:
    """Pick the quality index for the next epoch; mutates and returns state.

    With no feedback yet (first epoch) the distribution stays at its
    initialization and the startup quality is returned.
    """
    state.t += 1
    t = state.t
    if feedback is None:
        return map_to_quality(state.omega, bitrates_kbps), state

    c_prev = feedback.realized_rate_kbps
    sizes_prev = feedback.row_sizes_kbit
    utility_scale = UTILITY_WEIGHT / bitrates_kbps[-1]
    grad_f, grad_g1, grad_g2 = gradients(
        sizes_prev, c_prev, [r * utility_scale for r in bitrates_kbps]
    )
    v_l, q1, q2 = params.v_l, state.q1, state.q2
    state.grad_accum = [
        a + v_l * f + q1 * g1 + q2 * g2
        for a, f, g1, g2 in zip(state.grad_accum, grad_f, grad_g1, grad_g2)
    ]
    state.accum_epochs += 1

    if state.gamma / t <= params.beta:
        denom = 2.0 * params.alpha
        if params.average_blocked_grads and state.accum_epochs > 1:
            n = state.accum_epochs
            shifted = [w - a / denom / n for w, a in zip(state.omega, state.grad_accum)]
        else:
            shifted = [w - a / denom for w, a in zip(state.omega, state.grad_accum)]
        state.omega = project_simplex(shifted)
        state.gamma += 1
        state.grad_accum = [0.0] * len(shifted)
        state.accum_epochs = 0

    # dual ascent on the queues, evaluated at the post-step distribution
    _, g1, g2 = loss_and_constraints(
        state.omega, sizes_prev, bitrates_kbps, c_prev, segment_duration_s, b_max_s,
        params.horizon_t,
    )
    state.q1 = max(q1 + g1, 0.0)
    state.q2 = max(q2 + g2, 0.0)
    return map_to_quality(state.omega, bitrates_kbps), state


class L2APolicy:
    """Session adapter that owns one controller state per stream.

    Keyword arguments are the ``L2AParams`` schedule fields.
    """

    def __init__(self, bitrates_kbps, segment_duration_s: float, b_max_s: float,
                 horizon_t: int, **params):
        self.params = L2AParams(horizon_t, **params)
        self.bitrates_kbps = tuple(float(r) for r in bitrates_kbps)
        self.segment_duration_s = float(segment_duration_s)
        self.b_max_s = float(b_max_s)
        self.state = L2AState.initial(len(self.bitrates_kbps))

    @property
    def omega(self) -> tuple[float, ...]:
        return self.state.omega

    def decide(self, feedback: EpochFeedback | None) -> int:
        x, self.state = l2a_decide(
            self.state,
            self.params,
            feedback,
            self.bitrates_kbps,
            self.segment_duration_s,
            self.b_max_s,
        )
        return x
