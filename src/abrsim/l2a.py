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

The switch-rate budget ``beta`` is the one setting.  ``UTILITY_WEIGHT`` and
``EPSILON`` are constants, and ``L2APolicy`` derives the cautiousness v_l and
the step size alpha from the horizon T when it is built.

Each dot product is one left fold, ``reduce(add, map(mul, a, b), 0.0)``, not
``sum``: CPython 3.12 made float ``sum`` compensated, so with ``sum`` the bits
of omega, and at times a decision, would depend on the Python version.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass, field
from functools import reduce
from operator import add, mul

from .session import EpochFeedback, require_count, require_positive
from .simplex import project_simplex

__all__ = [
    "L2APolicy",
    "L2AState",
    "check_beta",
    "l2a_decide",
    "map_to_quality",
]

# weight of the bitrate utility r / r_N (r_N the ladder top) against the
# constraint signals, which are seconds of buffer displacement
UTILITY_WEIGHT = 0.3
# the schedule's exponent: cautiousness v_l = T^(1 - EPSILON/2)
EPSILON = 0.2


def check_beta(beta):
    """``beta`` if it is a switch-rate budget in (0, 1], else a ValueError naming it."""
    if not (isinstance(beta, numbers.Real) and 0.0 < beta <= 1.0):
        raise ValueError(f"beta must be a number in (0, 1], got {beta!r}")
    return beta


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
class L2AState:
    """Per-session controller state, in Python floats.

    ``omega`` is the decision distribution, a tuple replaced (never mutated)
    at each gradient step, so a reference to it stays a record of that epoch
    and ``l2a_decide`` maps each one to a quality once.
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


def l2a_decide(policy: L2APolicy, feedback: EpochFeedback | None) -> int:
    """Pick the quality index for the next epoch; mutates ``policy.state``.

    ``policy`` supplies the ladder, the segment duration, the buffer bound,
    ``beta``, the schedule and the constants derived from them.  With no
    feedback yet (first epoch) the distribution stays at its initialization
    and the startup quality is returned.
    """
    state = policy.state
    state.t += 1
    if feedback is not None:
        c_prev = feedback.realized_rate_kbps
        sizes_prev = feedback.row_sizes_kbit
        # the gradients of (f, g1, g2) are -w*r, d and -d, with d = s / c the
        # download time of each level: one pass adds v_l*f + q1*g1 + q2*g2 in
        # that order, with the same bits, and on a step feeds the sum straight
        # into the projection's argument
        q1, q2 = state.q1, state.q2
        if state.gamma / state.t <= policy.beta:
            denom = policy._two_alpha
            state.omega = project_simplex([
                o - (a + u + q1 * (d := s / c_prev) - q2 * d) / denom
                for o, a, u, s in zip(state.omega, state.grad_accum, policy._utility_grad, sizes_prev)
            ])
            state.gamma += 1
            state.grad_accum = [0.0] * len(state.omega)
        else:
            state.grad_accum = [
                a + u + q1 * (d := s / c_prev) - q2 * d
                for a, u, s in zip(state.grad_accum, policy._utility_grad, sizes_prev)
            ]

        # dual ascent on the queues, with the constraints at the post-step omega
        v = policy.segment_duration_s
        expected_dl = reduce(add, map(mul, sizes_prev, state.omega), 0.0) / c_prev
        state.q1 = max(q1 + (expected_dl - v), 0.0)
        state.q2 = max(q2 + (v - expected_dl - policy._allowance_s), 0.0)

    # omega is replaced, never mutated, so the same object maps to the same quality
    omega, quality = policy._last_quality
    if state.omega is not omega:
        omega = state.omega
        quality = map_to_quality(omega, policy.bitrates_kbps)
        policy._last_quality = (omega, quality)
    return quality


class L2APolicy:
    """Session adapter that owns one controller state per stream.

    ``beta`` is the switch-rate budget, the one setting.  The schedule is
    derived from ``horizon_t`` here, once: cautiousness ``v_l`` =
    T^(1 - EPSILON/2) and step size ``alpha`` = v_l * sqrt(T).  There is no
    rate-unit knob: the utility gradient is ``UTILITY_WEIGHT * r / r_N``
    (ladder top r_N), so rescaling the ladder, the sizes and the channel
    together leaves every decision unchanged.  ``l2a_decide``'s per-epoch
    constants are derived here too, from the ladder, the schedule,
    ``b_max_s`` and ``horizon_t``, so those are fixed once the policy is
    built.
    """

    def __init__(self, bitrates_kbps, segment_duration_s: float, b_max_s: float,
                 horizon_t: int, beta: float = 1.0):
        self.beta = check_beta(beta)
        self.horizon_t = require_count("horizon_t", horizon_t)
        self.v_l = float(horizon_t) ** (1.0 - EPSILON / 2.0)
        self.alpha = self.v_l * math.sqrt(horizon_t)
        self.bitrates_kbps = tuple(float(r) for r in bitrates_kbps)
        self.segment_duration_s = float(require_positive("segment_duration_s", segment_duration_s))
        self.b_max_s = float(require_positive("b_max_s", b_max_s))
        self.state = L2AState.initial(len(self.bitrates_kbps))
        # per-epoch constants of l2a_decide: the v_l-weighted utility gradient
        # per rung, the step's divisor and the per-epoch overflow allowance
        w = UTILITY_WEIGHT / self.bitrates_kbps[-1]
        self._utility_grad = tuple(self.v_l * -(r * w) for r in self.bitrates_kbps)
        self._two_alpha = 2.0 * self.alpha
        self._allowance_s = self.b_max_s / horizon_t
        # the last (omega, quality) pair l2a_decide mapped
        self._last_quality = (None, 0)

    @property
    def omega(self) -> tuple[float, ...]:
        return self.state.omega

    def decide(self, feedback: EpochFeedback | None) -> int:
        return l2a_decide(self, feedback)
