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

Each dot product is one left fold, ``reduce(add, map(mul, a, b), 0.0)``, not
``sum``: CPython 3.12 made float ``sum`` compensated, so with ``sum`` the bits
of omega, and at times a decision, would depend on the Python version.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

from .session import EpochFeedback, require_finite
from .simplex import project_simplex

__all__ = [
    "L2AParams",
    "L2APolicy",
    "L2AState",
    "l2a_decide",
    "map_to_quality",
]

# weight of the bitrate utility r / r_N (r_N the ladder top) against the
# constraint signals, which are seconds of buffer displacement
UTILITY_WEIGHT = 0.3


def map_to_quality(omega, bitrates_kbps) -> int:
    """Quality index (1-based) nearest the expected bitrate; ties go low.

    The first rung at or above the expected bitrate, or the one below it
    while that one's gap is not larger: the same index as the first minimum
    of ``abs(r - expected)`` over a strictly increasing ladder, because each
    gap, rounding included, only grows away from the expected bitrate.
    """
    expected = reduce(add, map(mul, bitrates_kbps, omega), 0.0)
    n = min(bisect.bisect_left(bitrates_kbps, expected), len(bitrates_kbps) - 1)
    gap = abs(bitrates_kbps[n] - expected)
    while n:
        lower = expected - bitrates_kbps[n - 1]
        if lower > gap:
            break
        n -= 1
        gap = lower
    return n + 1


@dataclass
class L2AParams:
    """Controller schedule.

    ``v_l`` (cautiousness) defaults to T^(1 - epsilon/2) and ``alpha``
    (step size) to v_l * sqrt(T).  There is no rate-unit knob: the utility
    gradient is ``UTILITY_WEIGHT * r / r_N`` (ladder top r_N), so rescaling
    the ladder, the sizes and the channel together leaves every decision
    unchanged.
    """

    horizon_t: int
    beta: float = 1.0
    epsilon: float = 0.2
    v_l: float | None = None
    alpha: float | None = None

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
    # the gradients of (f, g1, g2) are -w*r, d and -d, with d = s / c the
    # download time of each level: one pass adds v_l*f + q1*g1 + q2*g2 in
    # that order, with the same bits
    w = UTILITY_WEIGHT / bitrates_kbps[-1]
    v_l, q1, q2 = params.v_l, state.q1, state.q2
    state.grad_accum = [
        a + v_l * -(r * w) + q1 * (d := s / c_prev) - q2 * d
        for a, r, s in zip(state.grad_accum, bitrates_kbps, sizes_prev)
    ]

    if state.gamma / t <= params.beta:
        denom = 2.0 * params.alpha
        state.omega = project_simplex([o - a / denom for o, a in zip(state.omega, state.grad_accum)])
        state.gamma += 1
        state.grad_accum = [0.0] * len(state.omega)

    # dual ascent on the queues, with the constraints at the post-step omega
    expected_dl = reduce(add, map(mul, sizes_prev, state.omega), 0.0) / c_prev
    state.q1 = max(q1 + (expected_dl - segment_duration_s), 0.0)
    state.q2 = max(q2 + (segment_duration_s - expected_dl - b_max_s / params.horizon_t), 0.0)
    return map_to_quality(state.omega, bitrates_kbps), state


class L2APolicy:
    """Session adapter that owns one controller state per stream.

    ``beta`` is the switch-rate budget, the one setting; v_l and alpha take
    the ``L2AParams`` schedule derived from ``horizon_t``.
    """

    def __init__(self, bitrates_kbps, segment_duration_s: float, b_max_s: float,
                 horizon_t: int, beta: float = 1.0):
        self.params = L2AParams(horizon_t, beta=beta)
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
