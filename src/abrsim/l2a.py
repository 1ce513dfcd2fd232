"""Online-learning rate controller on the quality simplex (L2A).

The controller maintains a distribution omega over the N quality levels and
two non-negative virtual queues that accumulate predicted buffer underflow
and overflow pressure.  Each epoch it

1. adds the queue-weighted gradients of the previous epoch's loss and
   constraint functions to a running accumulator,
2. takes a projected gradient step ``omega = proj(omega - accum / (2 alpha))``
   when the switching budget allows (at most a ``beta`` fraction of epochs),
   flushing the accumulator and mapping the new distribution to the quality
   whose ladder bitrate is nearest the expected bitrate,
3. performs dual ascent on the queues with the previous epoch's constraint
   values at the new point, and
4. returns the quality of the last step, since omega changes only on a step
   (the lowest quality before the first one).

The loss is the negated expected bitrate over the ladder top r_N, weighted by
``UTILITY_WEIGHT``, and the constraints are the expected download time
against the segment duration (underflow side) and against an overflow
allowance of b_max / T per epoch.  All three are linear in omega, so their
gradients do not depend on omega, and a first-order prediction of the
constraints at the new point equals their value there.

The switch-rate budget ``beta`` is the one setting.  ``UTILITY_WEIGHT`` and
``EPSILON`` are constants, and ``L2APolicy`` derives the cautiousness v_l and
the step size alpha from the horizon T when it is built.

Each dot product is a left fold from 0.0 in rung order, not ``sum``: CPython
3.12 made float ``sum`` compensated, so with ``sum`` the bits of omega, and at
times a decision, would depend on the Python version.  A gradient step takes
its two folds in one pass over the rungs: after the simplex shift it clips
each entry to the new omega and adds it, times the rung's bitrate and times
its size, to the expected bitrate and the expected download size.  Outside a
step the one fold is ``reduce(add, map(mul, a, b), 0.0)``, with the same bits.
"""

from __future__ import annotations

import bisect
import math
import numbers
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import Sequence

from .channel import require_count, require_positive
from .media import require_ladder
from .simplex import _shift

__all__ = [
    "L2APolicy",
    "L2AState",
    "check_beta",
    "l2a_decide",
]

# weight of the bitrate utility r / r_N (r_N the ladder top) against the
# constraint signals, which are seconds of buffer displacement
UTILITY_WEIGHT = 0.3
# the schedule's exponent: cautiousness v_l = T^(1 - EPSILON/2)
EPSILON = 0.2


def check_beta(beta):
    """``beta`` if it is a switch-rate budget in (0, 1] and not a bool, else a
    ValueError naming it."""
    if isinstance(beta, bool) or not (isinstance(beta, numbers.Real) and 0.0 < beta <= 1.0):
        raise ValueError(f"beta must be a number in (0, 1], got {beta!r}")
    return beta


def _nearest(expected: float, bitrates_kbps) -> int:
    """Quality index (1-based) of the rung nearest the expected bitrate
    ``expected``; ties go low.  The search of ``l2a_decide``'s step, which
    takes the expectation as it clips.

    The first rung at or above ``expected``, or the one below it while that
    one's gap is not larger: the same index as the first minimum of
    ``abs(r - expected)`` over a strictly increasing ladder, because each
    gap, rounding included, only grows away from ``expected``.
    """
    n = bisect.bisect_left(bitrates_kbps, expected)
    if n == len(bitrates_kbps):
        n -= 1
    gap = abs(bitrates_kbps[n] - expected)
    while n:
        lower = expected - bitrates_kbps[n - 1]
        if lower > gap:
            break
        n -= 1
        gap = lower
    return n + 1


@dataclass(slots=True)
class L2AState:
    """Per-session controller state, in Python floats.

    ``omega`` is the decision distribution, a tuple replaced (never mutated)
    at each gradient step, so a reference to it stays a record of that epoch.
    ``last_index`` is the quality that step mapped omega to, which
    ``l2a_decide`` returns until the next step (1 for the all-lowest start).
    ``grad_accum`` is the queue-weighted gradient sum since the last step,
    also replaced rather than mutated.
    """

    omega: tuple[float, ...]
    q1: float = 0.0
    q2: float = 0.0
    gamma: int = 0  # switch counter
    t: int = 0  # epochs decided so far
    grad_accum: Sequence[float] = ()
    last_index: int = 1


def l2a_decide(policy: L2APolicy, feedback: tuple | None) -> int:
    """Pick the quality index for the next epoch; mutates ``policy.state``.

    ``policy`` supplies the ladder and the per-epoch constants that
    ``L2APolicy`` derives from its settings.  With no
    feedback yet (first epoch) the distribution stays at its initialization
    and the startup quality is returned; after that, the quality the last
    gradient step mapped omega to.  A realized rate that is not
    positive and finite is a ValueError naming it, as for ``rb`` and ``bb``.
    """
    state = policy.state
    state.t += 1
    if feedback is not None:
        c_prev, sizes_prev, _ = feedback
        if not 0.0 < c_prev < math.inf:
            raise ValueError(f"realized_rate_kbps must be positive and finite, got {float(c_prev)!r}")
        beta, utility_grad, two_alpha, v, allowance_s, zero_accum = policy._decide_constants
        # the gradients of (f, g1, g2) are -w*r, d and -d, with d = s / c the
        # download time of each level: one pass adds v_l*f + q1*g1 + q2*g2 in
        # that order, with the same bits, and on a step feeds the sum straight
        # into the projection's argument
        q1, q2 = state.q1, state.q2
        if state.gamma / state.t <= beta:
            step = [
                o - (a + u + q1 * (d := s / c_prev) - q2 * d) / two_alpha
                for o, a, u, s in zip(state.omega, state.grad_accum, utility_grad, sizes_prev)
            ]
            theta = _shift(step)
            # one pass clips each entry and folds the new omega into the
            # expected bitrate and the expected download size, left to right
            # from 0.0 as reduce(add, map(mul, ...), 0.0) would
            omega = []
            expected_r = expected_s = 0.0
            for x, r, s in zip(step, policy.bitrates_kbps, sizes_prev):
                w = x - theta if x > theta else 0.0
                expected_r += r * w
                expected_s += s * w
                omega.append(w)
            state.omega = tuple(omega)
            state.last_index = _nearest(expected_r, policy.bitrates_kbps)
            state.gamma += 1
            state.grad_accum = zero_accum
        else:
            state.grad_accum = [
                a + u + q1 * (d := s / c_prev) - q2 * d
                for a, u, s in zip(state.grad_accum, utility_grad, sizes_prev)
            ]
            expected_s = reduce(add, map(mul, sizes_prev, state.omega), 0.0)

        # dual ascent on the queues, with the constraints at the post-step
        # omega; each max(q, 0.0) as a comparison, the same for every float
        expected_dl = expected_s / c_prev
        q1 += expected_dl - v
        q2 += v - expected_dl - allowance_s
        state.q1 = 0.0 if q1 < 0.0 else q1
        state.q2 = 0.0 if q2 < 0.0 else q2
    return state.last_index


class L2APolicy:
    """Session adapter that owns one controller state per stream.

    ``beta`` is the switch-rate budget, the one setting.  The schedule is
    derived from ``horizon_t`` here, once: cautiousness v_l =
    T^(1 - EPSILON/2) and step size alpha = v_l * sqrt(T).  There is no
    rate-unit knob: the utility gradient is ``UTILITY_WEIGHT * r / r_N``
    (ladder top r_N), so rescaling the ladder, the sizes and the channel
    together leaves every decision unchanged.  The settings, the schedule,
    the segment duration and ``b_max_s`` are kept only as the per-epoch
    constants of ``l2a_decide``, one tuple, so they are fixed once the
    policy is built; the class has slots, so assigning any of them
    afterwards is an AttributeError.  The first state puts all mass on the
    lowest quality.  A ladder that ``media.require_ladder`` rejects is a
    ManifestError with a ``Manifest``'s message, as for ``RBPolicy``.
    """

    __slots__ = ("bitrates_kbps", "state", "_decide_constants")

    def __init__(self, bitrates_kbps, segment_duration_s: float, b_max_s: float,
                 horizon_t: int, beta: float = 1.0):
        check_beta(beta)
        require_count("horizon_t", horizon_t)
        v_l = float(horizon_t) ** (1.0 - EPSILON / 2.0)
        alpha = v_l * math.sqrt(horizon_t)
        self.bitrates_kbps = require_ladder(bitrates_kbps)
        segment_duration_s = float(require_positive("segment_duration_s", segment_duration_s))
        b_max_s = float(require_positive("b_max_s", b_max_s))
        n = len(self.bitrates_kbps)
        # per-epoch constants of l2a_decide, read as one tuple: beta, the
        # v_l-weighted utility gradient per rung, the step's divisor, the
        # segment duration, the per-epoch overflow allowance and the zero
        # accumulator a step leaves behind, which the first state starts from
        w = UTILITY_WEIGHT / self.bitrates_kbps[-1]
        zero_accum = (0.0,) * n
        self._decide_constants = (
            beta,
            tuple(v_l * -(r * w) for r in self.bitrates_kbps),
            2.0 * alpha,
            segment_duration_s,
            b_max_s / horizon_t,
            zero_accum,
        )
        self.state = L2AState(omega=(1.0,) + (0.0,) * (n - 1), grad_accum=zero_accum)

    @property
    def omega(self) -> tuple[float, ...]:
        return self.state.omega

    def decide(self, feedback: tuple | None) -> int:
        return l2a_decide(self, feedback)
