"""Per-epoch client loop: request, download, buffer update, feedback.

Each epoch the player downloads one segment (wall-clock duration d), drains d
seconds of buffer while playing, gains one segment duration V on completion,
and delays the next request by Delta = [pre_append_buffer + V - B_max]^+ so
the buffer never exceeds B_max at an epoch boundary.  An underflow
(buffer < d) pauses playback until ``tau_resume`` segments have been appended
since the pause began; while paused the buffer does not drain, but new stall
indicator epochs are still recorded whenever buffer < d.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol, Sequence

from .channel import ChannelTrace, download, undecodable
from .media import Manifest

__all__ = [
    "EpochFeedback",
    "EpochRecord",
    "LOG_COLUMNS",
    "Policy",
    "ScriptedPolicy",
    "SessionConfig",
    "SessionState",
    "export_log_csv",
    "read_log_csv",
    "run_session",
    "step",
]

LOG_COLUMNS = (
    "t",
    "x_t",
    "r_kbps",
    "size_kbit",
    "C_kbps",
    "download_s",
    "delta_s",
    "buffer_s",
    "stall",
    "stall_s",
)


@dataclass
class SessionConfig:
    """Client-side playback parameters."""

    b_max_s: float
    tau_resume: int = 2

    def __post_init__(self) -> None:
        require_finite(self, "b_max_s")
        if self.b_max_s <= 0:
            raise ValueError("b_max_s must be positive")
        if self.tau_resume < 1:
            raise ValueError("tau_resume must be at least 1")


class EpochFeedback(NamedTuple):
    """What the client learns once an epoch completes.

    An immutable ``NamedTuple``: ``step`` builds one per epoch, positionally.
    """

    realized_rate_kbps: float
    row_sizes_kbit: Sequence[float]  # the manifest's read-only row view, ``Manifest.sizes_row``
    buffer_s: float


class EpochRecord(NamedTuple):
    """One line of the per-epoch session log (t and x are 1-based).

    An immutable ``NamedTuple``: ``step`` builds one per epoch, positionally,
    and ``rec._replace(omega=None)`` is a copy without the distribution.
    """

    t: int
    x: int
    bitrate_kbps: float
    size_kbit: float
    rate_kbps: float
    download_s: float
    delta_s: float
    buffer_before_s: float
    buffer_after_s: float
    stall: bool  # underflow indicator: buffer_before < download time
    stall_s: float  # paused playback time accrued during this epoch
    omega: tuple[float, ...] | None = None


@dataclass
class SessionState:
    """Mutable per-session bookkeeping; one instance per stream."""

    epoch_t: int = 1
    buffer_s: float = 0.0
    wall_clock_s: float = 0.0
    stalled: bool = False
    segments_since_stall: int = 0
    history: list[EpochRecord] = field(default_factory=list)


class Policy(Protocol):
    """Anything that can pick a quality index from per-epoch feedback."""

    def decide(self, feedback: EpochFeedback | None) -> int: ...


class ScriptedPolicy:
    """Replays a fixed quality-index sequence (tests, log replay)."""

    def __init__(self, indices: Iterable[int]):
        self._it = iter(indices)

    def decide(self, feedback: EpochFeedback | None) -> int:
        return next(self._it)


def require_finite(owner, *names: str) -> None:
    """Raise a ValueError naming the first of ``owner``'s fields that is not a finite number."""
    for name in names:
        value = getattr(owner, name)
        if not (isinstance(value, numbers.Real) and math.isfinite(value)):
            raise ValueError(f"{type(owner).__name__}.{name} must be a finite number, got {value!r}")


def step(
    state: SessionState,
    config: SessionConfig,
    manifest: Manifest,
    trace: ChannelTrace,
    x_t: int,
    *,
    omega: tuple[float, ...] | None = None,
) -> EpochFeedback:
    """Advance one epoch with quality choice ``x_t`` (1-based).

    ``omega``, the policy's decision distribution for this epoch, if it has
    one, is stored in the epoch record.

    Mutates ``state`` in place and returns the epoch's feedback.  The buffer
    stays in [0, b_max_s] at every epoch boundary by construction: the
    overflow delay is exactly the excess of the pre-append level plus V over
    b_max_s, and deficits are converted to recorded stall time instead of
    negative buffer.
    """
    n_levels = manifest.num_levels
    if not 1 <= x_t <= n_levels:
        raise ValueError(f"quality index {x_t} outside 1..{n_levels}")
    if state.epoch_t > manifest.num_segments:
        raise ValueError(f"epoch {state.epoch_t} beyond horizon {manifest.num_segments}")
    v = manifest.segment_duration_s
    if config.b_max_s < v:
        raise ValueError("b_max_s smaller than the segment duration")

    row = manifest.sizes_row(state.epoch_t)
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
        state.epoch_t, x_t, manifest.bitrates_kbps[x_t - 1], size, rate, d, delta,
        b0, b1, bool(underflow), stall_time, omega,
    ))
    state.epoch_t += 1
    return EpochFeedback(rate, row, b1)


def run_session(
    policy: Policy,
    config: SessionConfig,
    manifest: Manifest,
    trace: ChannelTrace,
) -> SessionState:
    """Run the decide/download/update loop over the whole manifest horizon.

    Fully deterministic given (policy state, manifest, trace).  If the policy
    exposes an ``omega`` attribute (its current decision distribution, a
    tuple of floats the policy replaces rather than mutates), it is stored
    as is in each epoch record for later regret analysis.
    """
    state = SessionState()
    feedback: EpochFeedback | None = None
    for _ in range(manifest.num_segments):
        x = policy.decide(feedback)
        feedback = step(state, config, manifest, trace, x, omega=getattr(policy, "omega", None))
    return state


def export_log_csv(history: Iterable[EpochRecord], path: str | Path) -> None:
    """Write the per-epoch log in its CSV schema (full float fidelity)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        # each record's values in LOG_COLUMNS order; unpacking the tuple costs
        # less than ten attribute reads
        writer.writerows(
            (t, x, float(bitrate), float(size), float(rate), float(download), float(delta),
             float(buffer_after), int(stall), float(stall_s))
            for t, x, bitrate, size, rate, download, delta, _, buffer_after, stall, stall_s, _ in history
        )


# the type each LOG_COLUMNS field is read back as
_LOG_TYPES = (int, int, float, float, float, float, float, float, int, float)


def read_log_csv(path: str | Path) -> list[EpochRecord]:
    """Read a log written by ``export_log_csv``.

    The exported schema carries the post-epoch buffer; the pre-epoch buffer is
    reconstructed from the previous row (B_0 = 0), which is exact because the
    schema preserves full float precision.  A row with the wrong number of
    fields, a non-integer ``t``, ``x_t`` or ``stall``, a NaN or inf value, a
    ``stall`` other than 0 or 1, or a ``t`` that does not continue 1, 2, 3, ...
    is a ValueError naming the file, the line and the first bad column.  So
    is a byte the file's encoding cannot decode, with its line.
    """
    records: list[EpochRecord] = []
    with open(path, newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != LOG_COLUMNS:
                raise ValueError(f"{path}: expected header {','.join(LOG_COLUMNS)}")

            def bad_row(message: str) -> ValueError:
                return ValueError(f"{path}: line {reader.line_num}: {message}")

            buffer_before = 0.0
            for row in reader:
                if not row:
                    continue
                if len(row) != len(LOG_COLUMNS):
                    got = f"expected {len(LOG_COLUMNS)} fields, got {len(row)}"
                    if len(row) < len(LOG_COLUMNS):
                        raise bad_row(f"column {LOG_COLUMNS[len(row)]} missing; {got}")
                    raise bad_row(f"fields after column {LOG_COLUMNS[-1]}; {got}")
                values = []
                for name, parse, text in zip(LOG_COLUMNS, _LOG_TYPES, row):
                    try:
                        value = parse(text)
                    except ValueError:
                        kind = "an integer" if parse is int else "a number"
                        raise bad_row(f"column {name}: {text!r} is not {kind}") from None
                    if not math.isfinite(value):
                        raise bad_row(f"column {name} is {text!r}; values must be finite")
                    if name == "t" and value != len(records) + 1:
                        raise bad_row(f"column t is {text!r}; expected epoch {len(records) + 1}")
                    if name == "stall" and value not in (0, 1):
                        raise bad_row(f"column stall is {text!r}; expected 0 or 1")
                    values.append(value)
                t, x, bitrate, size, rate, download, delta, buffer_after, stall, stall_s = values
                records.append(EpochRecord(
                    t, x, bitrate, size, rate, download, delta,
                    buffer_before, buffer_after, bool(stall), stall_s,
                ))
                buffer_before = buffer_after
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {undecodable(fh, exc)}") from None
    return records
