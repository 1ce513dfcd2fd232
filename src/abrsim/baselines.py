"""Reference rate-adaptation policies.

RB is a throughput-based policy: an additive probe tracks the available
bandwidth from below, an EWMA smooths it, and a dead-zone quantizer with
up-switch hysteresis maps the estimate to the ladder.  BB is a buffer-based
policy: it maximizes a joint utility of log-bitrate value and buffer
occupancy per size unit, with an oscillation cap that limits up-switches to
the level sustainable at the recently observed throughput.

Both are reconstructions of well-known design principles.  RB's four
parameters are module constants, documented defaults rather than ground
truth, and BB derives its two from the ladder and the buffer bound when the
policy is built.  Neither takes a tuning argument.  Both share the
conservative lowest-quality cold start.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .channel import require_positive
from .media import Manifest, require_ladder
from .session import EpochFeedback

__all__ = [
    "BBPolicy",
    "BBState",
    "RBPolicy",
    "RBState",
    "bb_decide",
    "derive_bb_parameters",
    "rb_decide",
]


def _rate(feedback: EpochFeedback) -> float:
    """The feedback's realized rate, its entry 0, as a float, or a ValueError
    naming it if it is not positive and finite."""
    rate = float(feedback[0])
    if not 0.0 < rate < math.inf:
        raise ValueError(f"realized_rate_kbps must be positive and finite, got {rate!r}")
    return rate


# ---------------------------------------------------------------------------
# RB: throughput probe + smoothing + dead-zone quantizer


RB_KAPPA = 0.14  # probe gain per epoch
RB_PROBE_KBPS = 300.0  # additive probing margin w
RB_DEADZONE = 0.15  # up-switch only if smoothed >= (1 + deadzone) * rate
RB_EWMA_WEIGHT = 0.2


@dataclass(slots=True)
class RBState:
    bw_probe_kbps: float = 0.0
    bw_smooth_kbps: float = 0.0
    last_index: int = 1
    initialized: bool = False


def rb_decide(state: RBState, feedback: EpochFeedback | None, bitrates_kbps, up_thresholds_kbps) -> int:
    """Throughput-probe decision; mutates ``state``.

    The probe rises additively by kappa*w per epoch while below the observed
    rate and is pulled down proportionally to its overshoot, so a constant
    channel is its fixed point.  The dead-zone quantizer only switches up to
    levels whose rate times (1 + deadzone) fits under the smoothed estimate
    and only switches down when the current level no longer fits at all.
    The up-switch search bisects ``up_thresholds_kbps``, each rung's
    ``(1.0 + RB_DEADZONE) * r``, and the down-switch search bisects
    ``bitrates_kbps``, which must be strictly increasing; ``RBPolicy``
    checks the ladder and builds the thresholds.  A realized rate that is not
    positive and finite is a ValueError naming it: a NaN estimate would fit
    every up-switch threshold and lock the quantizer to the top rung.  The
    feedback is read by position, in ``EpochFeedback``'s field order, so a
    plain tuple and an ``EpochFeedback`` of the same values decide alike.
    """
    if feedback is None:
        state.last_index = 1
        return 1

    observed = _rate(feedback)
    if not state.initialized:
        state.bw_probe_kbps = observed
        state.bw_smooth_kbps = observed
        state.initialized = True
    else:
        # max(v, 0.0) as a comparison: the same result for every float
        probe = state.bw_probe_kbps
        overshoot = probe - observed + RB_PROBE_KBPS
        probe += RB_KAPPA * (RB_PROBE_KBPS - (0.0 if overshoot < 0.0 else overshoot))
        if probe < 0.0:
            probe = 0.0
        state.bw_probe_kbps = probe
        state.bw_smooth_kbps += RB_EWMA_WEIGHT * (probe - state.bw_smooth_kbps)

    smooth = state.bw_smooth_kbps
    # the highest level whose up-switch threshold fits, 0 if none does
    up = bisect_right(up_thresholds_kbps, smooth)
    cur = state.last_index
    if up > cur:
        new = up
    elif bitrates_kbps[cur - 1] > smooth:
        new = max(1, bisect_right(bitrates_kbps, smooth))
    else:
        new = cur
    state.last_index = new
    return new


class RBPolicy:
    """Session adapter for the throughput-probe policy."""

    def __init__(self, bitrates_kbps):
        self.bitrates_kbps = rates = require_ladder(bitrates_kbps)
        self._up_thresholds_kbps = tuple((1.0 + RB_DEADZONE) * r for r in rates)
        self.state = RBState()

    def decide(self, feedback: EpochFeedback | None) -> int:
        return rb_decide(self.state, feedback, self.bitrates_kbps, self._up_thresholds_kbps)


# ---------------------------------------------------------------------------
# BB: buffer-level utility maximization with an up-switch cap


@dataclass(slots=True)
class BBState:
    v_b: float
    gamma_p: float
    last_index: int = 1


def derive_bb_parameters(
    bitrates_kbps, segment_duration_s: float, b_max_s: float
) -> tuple[float, float]:
    """Choose the utility scale and rebuffer weight from the ladder.

    The buffer threshold (in segments) for preferring level n+1 over level n
    is v_b * (gamma_p + a_n) with a_n determined by the nominal sizes and log
    utilities.  The two parameters are set so these thresholds span from one
    segment of buffer up to a nearly full buffer: the lowest level wins near
    an empty buffer and the top level wins as the buffer approaches b_max.
    A ladder that ``require_ladder`` rejects is a ManifestError, and a
    duration that ``require_positive`` rejects is a ValueError naming it.
    """
    rates = np.asarray(require_ladder(bitrates_kbps))
    segment_duration_s = float(require_positive("segment_duration_s", segment_duration_s))
    b_max_s = float(require_positive("b_max_s", b_max_s))
    sizes = rates * segment_duration_s
    util = np.log(sizes / sizes[0])
    a = (sizes[1:] * util[:-1] - sizes[:-1] * util[1:]) / (sizes[1:] - sizes[:-1])
    q_lo = 1.0
    q_hi = max(b_max_s / segment_duration_s - 1.0, q_lo + 1.0)
    a_first, a_last = float(a[0]), float(a[-1])
    if a_last - a_first > 1e-12:
        gamma_p = (a_last * q_lo - a_first * q_hi) / (q_hi - q_lo)
        v_b = (q_hi - q_lo) / (a_last - a_first)
        if gamma_p > 0 and v_b > 0:
            return v_b, gamma_p
    # two-level ladders collapse to a single threshold: centre it
    gamma_p = 1.0 - a_first
    v_b = 0.5 * (q_lo + q_hi)
    return v_b, gamma_p


def bb_decide(
    state: BBState,
    feedback: EpochFeedback | None,
    bitrates_kbps,
    sizes_row_kbit,
    segment_duration_s: float,
) -> int:
    """Buffer-utility decision; mutates ``state``.

    Maximizes (v_b * (ln(S_n/S_1) + gamma_p) - buffer_segments) / S_n over the
    ladder, on Python floats; ``sizes_row_kbit`` is any sequence of the
    sizes, such as ``Manifest.sizes_row``, and ties go to the lowest level.
    The rungs are scored in one pass that keeps the first level whose score
    is greater than the best so far, with no score list: that is the
    comparison ``max`` makes, so the level is ``score.index(max(score)) + 1``
    for every list of scores, ties, -0.0 and NaN included.
    When the maximizer would switch up past the level sustainable at the last
    observed throughput, it is capped at that level (but never forced below
    the current one); that level is found by bisecting ``bitrates_kbps``,
    which must be strictly increasing, as a ``Manifest``'s ladder is; the
    realized rate it reads there must be positive and finite, or it is a
    ValueError naming it.  The feedback is read by position, as in
    ``rb_decide``.
    """
    if feedback is None:
        state.last_index = 1
        return 1

    buffer_segments = float(feedback[2]) / segment_duration_s
    v_b, gamma_p = state.v_b, state.gamma_p
    s1 = sizes_row_kbit[0]
    log = math.log
    m = level = 0
    best = None
    for s in sizes_row_kbit:
        level += 1
        score = (v_b * (log(s / s1) + gamma_p) - buffer_segments) / s
        if best is None or score > best:
            best = score
            m = level

    if m > state.last_index:
        sustainable = max(1, bisect_right(bitrates_kbps, _rate(feedback)))
        if m > sustainable:
            m = max(sustainable, state.last_index)

    state.last_index = m
    return m


class BBPolicy:
    """Session adapter for the buffer-utility policy.

    Needs the manifest because the utility uses the upcoming segment's actual
    sizes, which the client knows ahead of time: its ``t``-th ``decide``
    scores the manifest's row ``rows[t - 1]``, and past the last segment
    raises the ``IndexError`` of ``Manifest.sizes_row``; ``v_b`` and
    ``gamma_p`` come from ``derive_bb_parameters``.
    """

    def __init__(self, manifest: Manifest, b_max_s: float):
        self.state = BBState(*derive_bb_parameters(manifest.bitrates_kbps, manifest.segment_duration_s, b_max_s))
        # what bb_decide reads of the manifest, fixed for the session
        self._bitrates_kbps = manifest.bitrates_kbps
        self._segment_duration_s = manifest.segment_duration_s
        self._rows = manifest.rows
        self._num_segments = manifest.num_segments
        self._t = 0

    def decide(self, feedback: EpochFeedback | None) -> int:
        self._t = t = self._t + 1
        if t > self._num_segments:
            raise IndexError(f"segment {t} outside 1..{self._num_segments}")
        return bb_decide(self.state, feedback, self._bitrates_kbps, self._rows[t - 1], self._segment_duration_s)
