"""Per-epoch client loop: request, download, buffer update, feedback.

``run_session`` is the loop, and the only place the download and the buffer
law below are computed.  Each epoch the player downloads one segment
(wall-clock duration d), drains d seconds of buffer while playing, gains one
segment duration V on completion, and delays the next request by
Delta = [pre_append_buffer + V - B_max]^+ so the buffer never exceeds B_max
at an epoch boundary.  An underflow (buffer < d) pauses playback until
``tau_resume`` segments have been appended since the pause began; while
paused the buffer does not drain, but new stall indicator epochs are still
recorded whenever buffer < d.

A download drains the segment's bits through the trace's piecewise-constant
rate (the fluid model), so its duration is exact even when it spans several
samples, and the last sample's rate lasts forever.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, NamedTuple, Protocol, Sequence

import numpy as np

from .channel import ChannelTrace, parse_csv_rows, read_csv_table, require_count, require_positive
from .media import Manifest

__all__ = [
    "DEFAULT_TAU_RESUME",
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
]

# The log's columns: each one's name, the EpochRecord field it carries and
# the type it is read back as.  A column is one entry here: the writer's row
# template and the reader's dtype are built from this table.
_LOG_TABLE = (
    ("t", "t", int),
    ("x_t", "x", int),
    ("r_kbps", "bitrate_kbps", float),
    ("size_kbit", "size_kbit", float),
    ("C_kbps", "rate_kbps", float),
    ("download_s", "download_s", float),
    ("delta_s", "delta_s", float),
    ("buffer_s", "buffer_after_s", float),
    ("stall", "stall", int),
    ("stall_s", "stall_s", float),
)
LOG_COLUMNS = tuple(name for name, _, _ in _LOG_TABLE)
# one row of the log: integers in decimal, floats as their repr
_LOG_ROW = ",".join("%d" if typ is int else "%r" for _, _, typ in _LOG_TABLE) + "\r\n"
_LOG_DTYPE = np.dtype([(name, np.int64 if typ is int else np.float64) for name, _, typ in _LOG_TABLE])

# segments appended after a stall before playback resumes, unless set
DEFAULT_TAU_RESUME = 2

# how many trace samples, from the previous download's start sample on,
# run_session bisects before it bisects the whole trace: on the 0.1 s traces
# of perfbench's replay_io (seed 1) a start sample moved forward by at most
# 63 samples an epoch, and the window held both answers in 7,999 of 8,000
# epochs
_WINDOW = 64


@dataclass
class SessionConfig:
    """Client-side playback parameters."""

    b_max_s: float
    tau_resume: int = DEFAULT_TAU_RESUME

    def __post_init__(self) -> None:
        require_positive("b_max_s", self.b_max_s)
        require_count("tau_resume", self.tau_resume)


class EpochFeedback(NamedTuple):
    """What the client learns once an epoch completes.

    An immutable ``NamedTuple``: ``run_session`` builds one per epoch from
    all its fields by ``tuple.__new__``, and gives it to the policy's next
    ``decide``.
    """

    realized_rate_kbps: float
    row_sizes_kbit: Sequence[float]  # the manifest's read-only row view, ``Manifest.sizes_row``
    buffer_s: float


class EpochRecord(NamedTuple):
    """One line of the per-epoch session log (t and x are 1-based).

    An immutable ``NamedTuple``: ``run_session`` and ``read_log_csv`` build
    each record from all twelve fields by ``tuple.__new__``, and
    ``rec._replace(omega=None)`` is a copy without the distribution.
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


@dataclass(slots=True)
class SessionState:
    """What ``run_session`` returns: one record per epoch, and the wall
    clock at which the session ends.  The final buffer is the last record's
    ``buffer_after_s``."""

    wall_clock_s: float = 0.0
    history: list[EpochRecord] = field(default_factory=list)


class Policy(Protocol):
    """Anything that can pick a quality index from per-epoch feedback."""

    def decide(self, feedback: EpochFeedback | None) -> int: ...


class ScriptedPolicy:
    """Plays a fixed quality-index sequence, one index per ``decide``."""

    def __init__(self, indices: Iterable[int]):
        self._it = iter(indices)

    def decide(self, feedback: EpochFeedback | None) -> int:
        return next(self._it)


def run_session(
    policy: Policy,
    config: SessionConfig,
    manifest: Manifest,
    trace: ChannelTrace,
) -> SessionState:
    """Run the decide/download/update loop over the whole manifest horizon.

    Fully deterministic given (policy state, manifest, trace).  Each epoch
    the policy's quality index (1-based) is checked against the ladder (one
    that is not an integer is a ValueError naming the epoch), the segment is
    drained through the trace under the fluid model, and the buffer law of
    the module docstring is applied; the buffer stays in [0, b_max_s] at
    every epoch boundary by construction.  If the policy
    exposes an ``omega`` attribute (its current decision distribution, a
    tuple of floats the policy replaces rather than mutates), it is read
    after each ``decide`` and stored as is in that epoch's record for later
    regret analysis.  A ``b_max_s`` below the segment duration is a
    ValueError raised before the first ``decide``.  The buffer, clock and
    stall state live in locals; the state returned holds the records and
    the final wall clock.

    The download's start sample and the first sample whose cumulative kbit
    reaches the download's end are bisected first in the ``_WINDOW`` samples
    from the previous download's start sample on, since the clock only
    moves forward.  That answer is taken only when it lies strictly inside
    the window or is the trace's end; on the window's edge the whole trace
    is bisected.  The samples are sorted, so both searches give the index a
    bisection of the whole trace gives.
    """
    v = manifest.segment_duration_s
    b_max = config.b_max_s
    if b_max < v:
        raise ValueError("b_max_s smaller than the segment duration")
    tau = config.tau_resume
    n = manifest.num_levels
    sizes = manifest._sizes_view
    bitrates = manifest.bitrates_kbps
    ts, tp, cum, last = trace._views
    samples = last + 1
    bisect_left = bisect.bisect_left
    bisect_right = bisect.bisect_right
    inf = math.inf
    state = SessionState()
    append = state.history.append
    decide = policy.decide
    # tuple.__new__ with every field skips the NamedTuples' Python-level __new__
    new = tuple.__new__
    buffer = clock = 0.0
    stalled = False
    since_stall = 0
    i = 0  # the previous download's start sample
    feedback: EpochFeedback | None = None
    for t in range(1, manifest.num_segments + 1):
        x = decide(feedback)
        omega = getattr(policy, "omega", None)
        row = sizes[(t - 1) * n : t * n]
        try:
            if not 1 <= x <= n:
                raise ValueError(f"quality index {x} outside 1..{n}")
            size = row[x - 1]
        except TypeError:  # an index that neither compares nor indexes as an integer
            raise ValueError(f"epoch {t}: quality index {x!r} is not an integer") from None

        # fluid-model download of ``size`` kbit from ``clock``: the bits
        # drain at each sample's rate, the last sample's rate lasting forever
        if not clock < inf:
            raise ValueError(f"epoch {t}: download start time must be finite, got {clock!r}")
        # the start sample i, bisected first in the window from the previous
        # one on; an answer on the window's edge may lie beyond it, unless it
        # is the trace's end, so the whole trace is bisected then
        hi = i + _WINDOW
        if hi > samples:
            hi = samples
        k = bisect_right(ts, clock, i, hi)
        if k == i or k == hi < samples:
            k = bisect_right(ts, clock)
        i = k - 1
        # fast path: the download completes inside the start interval (always
        # the case past the final sample); exact division avoids cancellation
        # on tiny durations late in long traces
        if i == last or size <= tp[i] * (ts[i + 1] - clock):
            d = size / tp[i]
        else:
            target = cum[i] + tp[i] * (clock - ts[i]) + size
            # the first sample j whose cumulative kbit reaches the target,
            # bisected as i is
            hi = i + _WINDOW
            if hi > samples:
                hi = samples
            j = bisect_left(cum, target, i, hi)
            if j == i or j == hi < samples:
                j = bisect_left(cum, target)
            if j > last:
                end = ts[last] + (target - cum[last]) / tp[last]
            else:
                end = ts[j - 1] + (target - cum[j - 1]) / tp[j - 1]
            d = end - clock
        rate = size / d

        b0 = buffer
        underflow = b0 < d
        if stalled:
            # playback already paused: nothing drains, the whole epoch stalls
            drained = b0
            stall_time = d
        elif underflow:
            stalled = True
            since_stall = 0
            drained = 0.0
            stall_time = d - b0
        else:
            drained = b0 - d
            stall_time = 0.0
        pre_append = drained + v
        buffer = b_max if b_max < pre_append else pre_append  # min(pre_append, b_max)
        delta = pre_append - buffer
        clock += d + delta
        if stalled:
            since_stall += 1
            if since_stall >= tau:
                stalled = False
                since_stall = 0

        append(new(EpochRecord, (
            t, x, bitrates[x - 1], size, rate, d, delta, b0, buffer, underflow, stall_time, omega,
        )))
        feedback = new(EpochFeedback, (rate, row, buffer))
    state.wall_clock_s = clock
    return state


def _columns(history: Iterable[EpochRecord]) -> dict[str, tuple]:
    """Each field of ``history`` by name, as a tuple in epoch order (empty
    for no records): the one transposition of a history's records."""
    return dict(zip(EpochRecord._fields, chain(zip(*history), repeat(()))))


def export_log_csv(history: Iterable[EpochRecord], path: str | Path) -> None:
    """Write the per-epoch log in its CSV schema (full float fidelity).

    The header, then one row per record, each line ended with ``\\r\\n`` as
    ``csv.writer`` ends them: ``t``, ``x_t`` and ``stall`` as integers, every
    other column as the ``repr`` of its value as a Python float, so numpy
    scalars write the same text as the Python numbers they equal.  The rows
    are formatted from the record fields column by column and written in one
    call.
    """
    columns = _columns(history)
    values = [map(typ, columns[name]) for _, name, typ in _LOG_TABLE]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_COLUMNS) + "\r\n" + "".join(map(_LOG_ROW.__mod__, zip(*values))))


def _broken_rule(name: str, values: np.ndarray, first_epoch: int = 1) -> tuple[np.ndarray, str]:
    """Which of the ``values`` of log column ``name`` break its rule, the
    first of them read as epoch ``first_epoch``, and the rule: ``t`` counts
    the epochs, ``stall`` is 0 or 1, and every other value is finite."""
    if name == "t":
        return values != np.arange(first_epoch, first_epoch + len(values)), "expected epoch {epoch}"
    if name == "stall":
        return (values != 0) & (values != 1), "expected 0 or 1"
    return ~np.isfinite(values), "values must be finite"


def _row_fault(row: str, fields: list[str], i: int, _values) -> str:
    """What is wrong with ``row``, the text of the log's row ``i`` split into
    ``fields``: its first bad column in column order, each field parsed alone
    by the reader's grammar."""
    epoch = i + 1
    if len(fields) != len(LOG_COLUMNS):
        got = f"expected {len(LOG_COLUMNS)} fields, got {len(fields)}"
        if len(fields) < len(LOG_COLUMNS):
            return f"column {LOG_COLUMNS[len(fields)]} missing; {got}"
        return f"fields after column {LOG_COLUMNS[-1]}; {got}"
    for j, ((name, _, typ), text) in enumerate(zip(_LOG_TABLE, fields)):
        try:
            value = parse_csv_rows([row], dtype=_LOG_DTYPE[j], usecols=(j,), ndmin=1)
        except ValueError:
            kind = "an integer" if typ is int else "a number"
            return f"column {name}: {text!r} is not {kind}"
        broken, rule = _broken_rule(name, value, epoch)
        if broken[0]:
            return f"column {name} is {text!r}; {rule.format(epoch=epoch)}"
    return f"cannot parse row {fields!r}"


def _log_faults(table: np.ndarray) -> np.ndarray:
    """Whether each row of ``table`` breaks a column's rule."""
    faults = np.zeros(len(table), dtype=bool)
    for name in LOG_COLUMNS:
        faults |= _broken_rule(name, table[name])[0]
    return faults


def read_log_csv(path: str | Path) -> list[EpochRecord]:
    """Read a log written by ``export_log_csv``.

    The exported schema carries the post-epoch buffer; the pre-epoch buffer is
    reconstructed from the previous row (B_0 = 0), which is exact because the
    schema preserves full float precision.  The file is read by
    ``channel.read_csv_table``: the header must match exactly, and a row with
    the wrong number of fields, a non-integer ``t``, ``x_t`` or ``stall``, a
    NaN or inf value, a ``stall`` other than 0 or 1, or a ``t`` that does not
    continue 1, 2, 3, ... is a ValueError naming its line and its first bad
    column.
    """
    table = read_csv_table(path, LOG_COLUMNS, {"dtype": _LOG_DTYPE, "ndmin": 1}, _log_faults, _row_fault,
                           ValueError)
    columns = {name: table[column].tolist() for column, name, _ in _LOG_TABLE}
    columns["stall"] = (table["stall"] == 1).tolist()
    after = columns["buffer_after_s"]
    columns["buffer_before_s"] = [0.0, *after[:-1]]
    columns["omega"] = repeat(None)
    fields = zip(*(columns[name] for name in EpochRecord._fields))
    return list(map(tuple.__new__, repeat(EpochRecord), fields))

