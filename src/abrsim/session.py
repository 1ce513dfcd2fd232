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

import numpy as np

from .channel import ChannelTrace, download, parse_csv_rows, reread_rows, undecodable
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


def require_positive(name: str, value):
    """``value`` if it is a positive finite real number, else a ValueError naming ``name``."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


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
    """Write the per-epoch log in its CSV schema (full float fidelity).

    The header, then one row per record, each line ended with ``\\r\\n`` as
    ``csv.writer`` ends them: ``t``, ``x_t`` and ``stall`` as integers, every
    other column as the ``repr`` of its value as a Python float, so numpy
    scalars write the same text as the Python numbers they equal.  The rows
    are formatted from the record fields column by column and written in one
    call.
    """
    columns = dict(zip(EpochRecord._fields, zip(*history)))
    values = [map(typ, columns.get(name, ())) for _, name, typ in _LOG_TABLE]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(LOG_COLUMNS) + "\r\n" + "".join(map(_LOG_ROW.__mod__, zip(*values))))


def _parse_log_rows(lines, max_rows: int | None = None) -> np.ndarray:
    """The log rows in ``lines`` as a structured array with one field per column."""
    return parse_csv_rows(lines, max_rows, dtype=_LOG_DTYPE, ndmin=1)


def _broken_rule(name: str, values: np.ndarray, first_epoch: int = 1) -> tuple[np.ndarray, str]:
    """Which of the ``values`` of log column ``name`` break its rule, the
    first of them read as epoch ``first_epoch``, and the rule: ``t`` counts
    the epochs, ``stall`` is 0 or 1, and every other value is finite."""
    if name == "t":
        return values != np.arange(first_epoch, first_epoch + len(values)), "expected epoch {epoch}"
    if name == "stall":
        return (values != 0) & (values != 1), "expected 0 or 1"
    return ~np.isfinite(values), "values must be finite"


def _row_fault(line: str, epoch: int) -> str:
    """What is wrong with ``line``, the row of epoch ``epoch``: its first bad
    column in column order, each field parsed alone by the reader's grammar."""
    fields = next(csv.reader([line]))
    if len(fields) != len(LOG_COLUMNS):
        got = f"expected {len(LOG_COLUMNS)} fields, got {len(fields)}"
        if len(fields) < len(LOG_COLUMNS):
            return f"column {LOG_COLUMNS[len(fields)]} missing; {got}"
        return f"fields after column {LOG_COLUMNS[-1]}; {got}"
    for j, ((name, _, typ), text) in enumerate(zip(_LOG_TABLE, fields)):
        try:
            value = parse_csv_rows([line], dtype=_LOG_DTYPE[j], usecols=(j,), ndmin=1)
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


def _first_bad_log_row(fh, table: np.ndarray | None) -> str:
    """Describe the first bad row of the log file ``fh`` in file order, with
    its line; ``table`` holds every row, or is None when some row cannot be
    parsed.  The rows before an unparseable one are checked first."""
    lines, rows, table, unparsed = reread_rows(fh, _parse_log_rows, table)
    bad = np.flatnonzero(_log_faults(table))
    i = int(bad[0]) if bad.size else unparsed
    return f"line {rows[i] + 1}: {_row_fault(lines[rows[i]], i + 1)}"


def read_log_csv(path: str | Path) -> list[EpochRecord]:
    """Read a log written by ``export_log_csv``.

    The exported schema carries the post-epoch buffer; the pre-epoch buffer is
    reconstructed from the previous row (B_0 = 0), which is exact because the
    schema preserves full float precision.  The rows after the header are
    parsed in one ``np.loadtxt`` call, so numbers follow numpy's grammar, as
    in trace files: blank lines are skipped (but counted), values may be
    quoted, and a digit separator (``1_000``), a non-ASCII digit or an
    integer beyond int64 is a value that cannot be parsed.  The columns are
    then checked as a whole.  A row with the wrong number of fields, a
    non-integer ``t``, ``x_t`` or ``stall``, a NaN or inf value, a ``stall``
    other than 0 or 1, or a ``t`` that does not continue 1, 2, 3, ... is a
    ValueError naming the file, the line and the first bad column; only then
    is the file read again, from the handle already open, to find the first
    such row in file order.  A byte the file's encoding cannot decode is a
    ValueError naming its line, unless a row before that line is bad: faults
    are reported in file order.
    """
    with open(path, newline="") as fh:
        try:
            table = _read_log_table(fh, path)
        except UnicodeDecodeError as exc:
            message = undecodable(fh, exc, lambda head: _read_log_table(head, path))
            raise ValueError(f"{path}: {message}") from None
    columns = {name: table[column].tolist() for column, name, _ in _LOG_TABLE}
    columns["stall"] = (table["stall"] == 1).tolist()
    after = columns["buffer_after_s"]
    columns["buffer_before_s"] = [0.0, *after[:-1]]
    return list(map(EpochRecord, *(columns[name] for name in EpochRecord._fields[:-1])))


def _read_log_table(fh, path: str | Path) -> np.ndarray:
    """The rows of the log file ``fh`` as a structured array, checked; a
    ValueError names the first bad row of the file, its line and column."""
    if tuple(next(csv.reader([fh.readline()]))) != LOG_COLUMNS:
        raise ValueError(f"{path}: expected header {','.join(LOG_COLUMNS)}")
    try:
        table = _parse_log_rows(fh)
    except UnicodeDecodeError:
        raise
    except ValueError:
        table = None
    if table is None or _log_faults(table).any():
        raise ValueError(f"{path}: {_first_bad_log_row(fh, table)}")
    return table
