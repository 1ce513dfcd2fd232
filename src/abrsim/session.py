"""Per-epoch client loop: request, download, buffer update, feedback.

``run_session`` is the loop, and the only place the download and the buffer
law below are computed.  Each epoch the player downloads one segment
(wall-clock duration d), drains d seconds of buffer while playing, gains one
segment duration V on completion, and delays the next request by
Delta = [pre_append_buffer + V - B_max]^+ so the buffer never exceeds B_max
at an epoch boundary.  An underflow (buffer < d) pauses playback until
``tau_resume`` segments have been appended since the pause began; while
paused the buffer does not drain, but new stall indicator epochs are still
recorded whenever buffer < d.  The buffer starts empty, so the startup pause
lasts exactly ``tau_resume`` epochs, each with ``stall_s == download_s``; a
later underflow stalls for d - b0 < d, as b0 >= V after any epoch.

A download drains the segment's bits through the trace's piecewise-constant
rate (the fluid model), so its duration is exact even when it spans several
samples, and the last sample's rate lasts forever.
"""

from __future__ import annotations

import bisect
import math
import numbers
import struct
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple, Protocol

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
    "SessionLog",
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
    """What the client learns once an epoch completes, in the order a
    policy's ``decide`` reads it.

    ``run_session`` gives each ``decide`` after the first the plain tuple
    ``(realized_rate_kbps, row_sizes_kbit, buffer_s)``, in these fields'
    order, not an ``EpochFeedback``: a tuple display is several times
    cheaper to build and to unpack.  So a policy reads the feedback by
    position, as ``rb``, ``bb`` and L2A do, and one that reads it by field
    name gets an ``AttributeError``.  A caller may still build an
    ``EpochFeedback`` and give it to a ``decide`` by hand: it is a tuple with
    the same positions.
    """

    realized_rate_kbps: float
    row_sizes_kbit: Sequence[float]  # the epoch's segment's row, ``Manifest.rows[t - 1]``
    buffer_s: float


class EpochRecord(NamedTuple):
    """One line of the per-epoch session log (t and x are 1-based).

    An immutable ``NamedTuple``, and the type of every record read from a
    ``SessionLog``, which stores these twelve fields of each epoch in one
    flat list and builds the record only when it is read;
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


# the fields a SessionLog stores per epoch
_WIDTH = len(EpochRecord._fields)


class SessionLog(Sequence):
    """A session's history: a read-only sequence of ``EpochRecord``.

    The fields of every epoch are stored in one flat list, twelve per epoch
    in ``EpochRecord``'s order, and an ``EpochRecord`` is built, by
    ``tuple.__new__`` from its twelve fields, only when one is read: by index
    (negative ones and ``IndexError`` as a list's), by slice (as a list) or
    by iteration.  So a history keeps no object per epoch: each field is an
    atom or an exact tuple of atoms (ω), which CPython's cyclic GC untracks,
    and the flat list is the one tracked object.  A kept row or NamedTuple
    record would be GC-tracked, and the allocation of one per epoch would
    start young collections.  A log equals another log, or a list, of the
    same records.
    """

    __slots__ = ("_flat",)

    def __init__(self, rows: Iterable[tuple] = ()):
        self._flat = list(chain.from_iterable(rows))

    def __len__(self) -> int:
        return len(self._flat) // _WIDTH

    def __getitem__(self, index):
        flat = self._flat
        # the offset of each record read, as a list indexes its positions
        at = range(0, len(flat), _WIDTH)[index]
        if isinstance(at, range):
            return [tuple.__new__(EpochRecord, flat[i : i + _WIDTH]) for i in at]
        return tuple.__new__(EpochRecord, flat[at : at + _WIDTH])

    def __iter__(self):
        return map(tuple.__new__, repeat(EpochRecord), zip(*[iter(self._flat)] * _WIDTH))

    def __eq__(self, other):
        if isinstance(other, SessionLog):
            return self._flat == other._flat
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


@dataclass(slots=True)
class SessionState:
    """What ``run_session`` returns: the history, a ``SessionLog`` of one
    record per epoch held as twelve fields of its flat list, and the wall
    clock at which the session ends.  The final buffer is the last record's
    ``buffer_after_s``."""

    wall_clock_s: float = 0.0
    history: SessionLog = field(default_factory=SessionLog)


class Policy(Protocol):
    """Anything that can pick a quality index from per-epoch feedback: None
    before the first segment, then the previous epoch's
    ``(realized_rate_kbps, row_sizes_kbit, buffer_s)``, a plain tuple in
    ``EpochFeedback``'s field order, read by position.  A policy may also
    expose an ``omega`` attribute (see ``run_session``), which the loop
    reads only if the policy has it when the session starts."""

    def decide(self, feedback: EpochFeedback | None) -> int: ...


class ScriptedPolicy:
    """Plays a fixed quality-index sequence, one index per ``decide``; a
    ``decide`` past the script's end is a ValueError."""

    def __init__(self, indices: Iterable[int]):
        self._it = iter(indices)
        self._played = 0

    def decide(self, feedback: EpochFeedback | None) -> int:
        try:
            x = next(self._it)
        except StopIteration:
            # a StopIteration let out would end a map or generator running
            # sessions as if it were exhausted, dropping this one silently
            raise ValueError(f"ScriptedPolicy: the script ended after {self._played} indices") from None
        self._played += 1
        return x


def run_session(
    policy: Policy,
    config: SessionConfig,
    manifest: Manifest,
    trace: ChannelTrace,
) -> SessionState:
    """Run the decide/download/update loop over the whole manifest horizon.

    Fully deterministic given (policy state, manifest, trace).  Each epoch
    the policy's quality index (1-based) is checked against the ladder (one
    that is not an integer or lies off the ladder is a ValueError naming the
    epoch), the segment is drained through the trace under the fluid model,
    and the buffer law of the module docstring is applied; the buffer stays
    in [0, b_max_s] at every epoch boundary by construction.  Whether the
    policy has an ``omega`` attribute (its current decision distribution, a
    tuple of floats the policy replaces rather than mutates) is asked once,
    by ``hasattr`` before the first ``decide``.  If it has, ``policy.omega``
    is read after each ``decide`` and stored as is in that epoch's record for
    later regret analysis, and an ``AttributeError`` raised in that read
    propagates; if it has not, every record's ``omega`` is None, even if the
    policy sets ``omega`` later.  The segment's sizes are the manifest's row
    ``rows[t - 1]``, which the next feedback carries as is: each ``decide``
    after the first gets the plain tuple ``(rate, row, buffer_after_s)`` of
    the epoch before, in ``EpochFeedback``'s field order.  A ``b_max_s``
    below the segment duration is a ValueError raised before the first
    ``decide``.  The buffer, clock and stall state live in locals; the state
    returned holds the records and the final wall clock.  Each epoch's
    twelve fields are added to the history's flat list by one ``extend`` of
    a tuple display, which dies at once, so the loop keeps no GC-tracked
    object per epoch.

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
    bitrates = manifest.bitrates_kbps
    ts, tp, cum, last = trace._views
    samples = last + 1
    bisect_left = bisect.bisect_left
    bisect_right = bisect.bisect_right
    inf = math.inf
    state = SessionState()
    extend = state.history._flat.extend
    decide = policy.decide
    has_omega = hasattr(policy, "omega")
    omega = None
    buffer = clock = 0.0
    stalled = False
    since_stall = 0
    i = 0  # the previous download's start sample
    feedback = None
    for t, row in enumerate(manifest.rows, 1):
        x = decide(feedback)
        if has_omega:
            omega = policy.omega
        try:
            if not 1 <= x <= n:
                raise ValueError(f"epoch {t}: quality index {x} outside 1..{n}")
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

        extend((t, x, bitrates[x - 1], size, rate, d, delta, b0, buffer, underflow, stall_time, omega))
        feedback = (rate, row, buffer)
    state.wall_clock_s = clock
    return state


def _startup_pause(history: SessionLog) -> int:
    """The ``tau_resume`` that ``history`` ran under: its leading run of
    epochs with ``stall_s == download_s`` (module docstring), at least 1.  A
    session of T epochs that never leaves its pause replays alike under any
    tau_resume >= T, so T is taken."""
    columns = _columns(history)
    paused = zip(columns["stall_s"], columns["download_s"])
    return max(1, next((i for i, (stall, d) in enumerate(paused) if stall != d), len(history)))


def _check_replay(history: SessionLog, manifest: Manifest, trace: ChannelTrace, b_max_s: float, log_name) -> None:
    """A ValueError unless ``history``, read from the log ``log_name``, is
    the ``SessionLog`` that ``run_session`` gives for a ``ScriptedPolicy`` of
    its ``x`` over the manifest's first len(history) segments and ``trace``,
    at ``b_max_s`` and ``_startup_pause(history)``: the error names the log,
    the first epoch and log column where the two differ and both values.  A
    quality index off the ladder gets ``run_session``'s error, after the log's
    name, once the epochs before it are compared."""
    x = _columns(history)["x"]
    n = manifest.num_levels
    played = next((i for i, xt in enumerate(x) if not 1 <= xt <= n), len(x))
    if played:
        tau = _startup_pause(history)
        prefix = Manifest(manifest.segment_duration_s, manifest.bitrates_kbps, manifest.segment_sizes_kbit[:played])
        replay = run_session(ScriptedPolicy(x), SessionConfig(b_max_s, tau), prefix, trace).history._flat
        logged = history._flat
        if replay != logged[: len(replay)]:
            i = next(i for i, pair in enumerate(zip(logged, replay)) if pair[0] != pair[1])
            name = EpochRecord._fields[i % _WIDTH]
            column = next((log for log, field_name, _ in _LOG_TABLE if field_name == name), name)
            raise ValueError(f"{log_name}: epoch {i // _WIDTH + 1}: {column} is {logged[i]!r}, but its replay"
                             f" at b_max {b_max_s!r} s and tau {tau} gives {replay[i]!r}")
    if played < len(x):
        raise ValueError(f"{log_name}: epoch {played + 1}: quality index {x[played]} outside 1..{n}")


def _columns(history: Iterable[EpochRecord]) -> dict[str, Sequence]:
    """Each field of ``history`` by name, in epoch order (empty for no
    records).  Field i of a ``SessionLog`` is the list ``flat[i::12]``, read
    from its flat list with no transposition and no record built; any other
    iterable of records is transposed by ``zip(*history)`` into tuples."""
    if isinstance(history, SessionLog):
        flat = history._flat
        return {name: flat[i::_WIDTH] for i, name in enumerate(EpochRecord._fields)}
    return dict(zip(EpochRecord._fields, chain(zip(*history), repeat(()))))


def _pack(values: Sequence, name: str, epochs: Sequence[int], code: str = "d", width: int = 1) -> np.ndarray:
    """``values``, ``width`` of them per epoch of ``epochs``, as float64 (the
    struct code ``d``) or int64 (``q``), by one ``struct.pack``: any Python or
    numpy number counts as a float, a bool and a ``Decimal`` included, and
    any Python or numpy integer, a bool included, as an int.  Only if that
    fails are they packed one by one, and the first that does not pack is a
    ValueError naming its epoch and ``name``: an integer past the type's
    range, or else not a number of the type."""
    try:
        return np.frombuffer(struct.pack(f"{len(values)}{code}", *values), dtype=code)
    except (struct.error, TypeError):  # TypeError: a numpy array's __index__
        for i, value in enumerate(values):
            try:
                struct.pack(code, value)
            except (struct.error, TypeError):
                span, kind = ("float", "a real number") if code == "d" else ("int64", "an integer")
                fault = (f"is out of the {span} range" if isinstance(value, numbers.Integral)
                         else f"{'is' if width == 1 else 'holds'} {value!r}, not {kind}")
                raise ValueError(f"epoch {epochs[i // width]}: {name} {fault}") from None
        raise


# the types a record's stall may have
_BOOLS = frozenset((bool, np.bool_))


def export_log_csv(history: Iterable[EpochRecord], path: str | Path) -> None:
    """Write the per-epoch log in its CSV schema (full float fidelity).

    The header, then one row per record, each line ended with ``\\r\\n`` as
    ``csv.writer`` ends them: ``t`` and ``x_t`` as integers, packed by
    ``_pack`` as int64; ``stall``, a bool (numpy's too), as 1 or 0; and every
    other column as the ``repr`` of its value packed by ``_pack`` as a float,
    so numpy scalars write the same text as the Python numbers they equal.
    Each packed column then keeps ``read_log_csv``'s rule for it, by
    ``_broken_rule``: ``t`` counts 1, 2, 3, ..., and every float is finite.
    So the log holds only what the scorers take and the reader reads back: a
    value they refuse, such as an ``x`` of 2.7, a bitrate of ``"370"``, a
    NaN download time or a second ``t`` of 5, is a ValueError naming its
    epoch (its record's place, from 1) and its field, raised before the file
    is opened.  The rows are formatted column by column and written in one
    call.
    """
    columns = _columns(history)
    epochs = range(1, len(columns["t"]) + 1)
    values = []
    for log_name, name, typ in _LOG_TABLE:
        column = columns[name]
        if name == "stall":
            if not {*map(type, column)} <= _BOOLS:
                epoch, value = next((e, v) for e, v in zip(epochs, column) if type(v) not in _BOOLS)
                raise ValueError(f"epoch {epoch}: stall is {value!r}, not a bool")
        else:
            packed = _pack(column, name, epochs, "q" if typ is int else "d")
            column = packed.tolist()
            broken, rule = _broken_rule(log_name, packed)
            if broken.any():
                epoch = int(broken.argmax()) + 1
                raise ValueError(f"epoch {epoch}: {name} is {column[epoch - 1]!r}; {rule.format(epoch=epoch)}")
        values.append(column)
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


def read_log_csv(path: str | Path) -> SessionLog:
    """Read a log written by ``export_log_csv``, as a ``SessionLog`` whose
    flat list is filled from the parsed columns, each written into its
    field's place by one extended-slice assignment (``omega`` None).

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
    # B_0 = 0, then each epoch's buffer after; [:-1] keeps an empty log empty
    columns["buffer_before_s"] = [0.0, *columns["buffer_after_s"]][:-1]
    log = SessionLog()
    flat = log._flat = [None] * (len(table) * _WIDTH)
    for i, name in enumerate(EpochRecord._fields):
        if name in columns:  # omega stays None
            flat[i::_WIDTH] = columns[name]
    return log
