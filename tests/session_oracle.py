"""The per-epoch loop as it ran before ``run_session`` took the download and
the buffer law inline: ``download`` drains one segment through the trace,
``step`` advances one epoch of an ``OracleState``, and ``run_oracle`` calls
``step`` once per epoch.  ``run_session`` must match ``run_oracle`` bit for
bit."""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from abrsim import ChannelTrace, EpochRecord, Manifest, SessionConfig


class DownloadResult(NamedTuple):
    """Wall-clock duration of one segment download and its realized rate."""

    duration_s: float
    effective_rate_kbps: float


@dataclass
class OracleState:
    """The loop's bookkeeping between epochs; the next epoch is
    ``len(history) + 1``."""

    buffer_s: float = 0.0
    wall_clock_s: float = 0.0
    stalled: bool = False
    segments_since_stall: int = 0
    history: list[EpochRecord] = field(default_factory=list)


def download(trace: ChannelTrace, start_time_s: float, size_kbit: float) -> DownloadResult:
    """Drain ``size_kbit`` through the bandwidth profile from ``start_time_s``.

    Exact under the fluid model: bits accumulate at the piecewise-constant
    rate, with the final sample's rate extending forever.
    """
    # chained comparisons, so that NaN fails them too
    if not 0.0 <= start_time_s < math.inf:
        raise ValueError(f"start_time_s must be finite and >= 0, got {start_time_s!r}")
    if not 0.0 < size_kbit < math.inf:
        raise ValueError(f"size_kbit must be finite and positive, got {size_kbit!r}")
    ts, tp, cum, last = trace._views
    i = bisect.bisect_right(ts, start_time_s) - 1
    # fast path: the download completes inside the start interval (always the
    # case past the final sample); exact division avoids cancellation on tiny
    # durations late in long traces
    if i == last or size_kbit <= tp[i] * (ts[i + 1] - start_time_s):
        duration = float(size_kbit) / tp[i]
    else:
        start_kbit = cum[i] + tp[i] * (start_time_s - ts[i])
        target = start_kbit + size_kbit
        j = bisect.bisect_left(cum, target)
        if j > last:
            end = ts[last] + (target - cum[last]) / tp[last]
        else:
            end = ts[j - 1] + (target - cum[j - 1]) / tp[j - 1]
        duration = float(end - start_time_s)
    return DownloadResult(duration, float(size_kbit) / duration)


def step(
    state: OracleState,
    config: SessionConfig,
    manifest: Manifest,
    trace: ChannelTrace,
    x_t: int,
    *,
    omega: tuple[float, ...] | None = None,
) -> tuple:
    """Advance one epoch with quality choice ``x_t`` (1-based), storing
    ``omega`` in the epoch record; mutates ``state`` and returns the
    epoch's feedback ``(rate, row, buffer_after_s)``."""
    n_levels = manifest.num_levels
    epoch = len(state.history) + 1
    if not 1 <= x_t <= n_levels:
        raise ValueError(f"epoch {epoch}: quality index {x_t} outside 1..{n_levels}")
    if epoch > manifest.num_segments:
        raise ValueError(f"epoch {epoch} beyond horizon {manifest.num_segments}")
    v = manifest.segment_duration_s
    if config.b_max_s < v:
        raise ValueError("b_max_s smaller than the segment duration")

    row = manifest.rows[epoch - 1]
    size = row[x_t - 1]
    result = download(trace, state.wall_clock_s, size)
    d = result.duration_s
    b0 = state.buffer_s
    underflow = b0 < d

    if state.stalled:
        # playback already paused: nothing drains, the whole epoch stalls
        drained = b0
        stall_time = d
    elif underflow:
        state.stalled = True
        state.segments_since_stall = 0
        drained = 0.0
        stall_time = d - b0
    else:
        drained = b0 - d
        stall_time = 0.0

    pre_append = drained + v
    b1 = min(pre_append, config.b_max_s)
    delta = pre_append - b1
    state.buffer_s = b1
    state.wall_clock_s += d + delta

    if state.stalled:
        state.segments_since_stall += 1
        if state.segments_since_stall >= config.tau_resume:
            state.stalled = False
            state.segments_since_stall = 0

    rate = result.effective_rate_kbps
    state.history.append(EpochRecord(
        epoch, x_t, manifest.bitrates_kbps[x_t - 1], size, rate, d, delta,
        b0, b1, bool(underflow), stall_time, omega,
    ))
    return rate, row, b1


def run_oracle(policy, config: SessionConfig, manifest: Manifest, trace: ChannelTrace) -> OracleState:
    """One ``step`` per epoch over the manifest's horizon, each storing the
    policy's ``omega`` attribute as read after its ``decide``, or None if the
    policy had none before its first ``decide``."""
    state = OracleState()
    has_omega = hasattr(policy, "omega")
    feedback = None
    for _ in range(manifest.num_segments):
        x = policy.decide(feedback)
        feedback = step(state, config, manifest, trace, x, omega=policy.omega if has_omega else None)
    return state
