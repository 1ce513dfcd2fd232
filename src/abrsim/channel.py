"""Channel rate process: trace files, a two-state synthetic generator, trace
concatenation, and the slot clock (a trace's mean rate per content slot).
Also the checks of a positive number and of an integer argument, which the
modules above it share.

A trace is a piecewise-constant bandwidth profile; ``session.run_session``
drains each segment's bits through it (the fluid model), so the realized
per-segment rate is well-defined (size / duration) even when a download
spans several samples.
"""

from __future__ import annotations

import bisect
import csv
import io
import math
import numbers
import os
import stat
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ChannelTrace",
    "TraceError",
    "FLOOR_KBPS",
    "concat_traces",
    "generate_markovian",
    "load_trace",
    "slot_clock",
    "write_trace",
]

_TRACE_HEADER = ("timestamp_s", "throughput_kbps")

# Outage samples are floored so size/rate stays finite.
FLOOR_KBPS = 10.0

# rows per write in write_trace: a 30,000-sample trace is one write
_WRITE_ROWS = 65536

# the longest field a fault message quotes whole
_SHOWN_CHARS = 64

# the suffixes numpy's file opener decompresses by: a file named so is read
# from its open handle, as text, whatever its name says
_DECOMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


class TraceError(ValueError):
    """Malformed trace file."""


def require_positive(name: str, value):
    """``value`` if it is a positive real number that a float holds finitely
    and not a bool, else a ValueError naming ``name``: an int past the float
    range is not finite to any float arithmetic on it."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and 0.0 < value <= sys.float_info.max):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def require_count(name: str, value, least: int = 1):
    """``value`` if it is an integer of at least ``least`` and not a bool, else
    a ValueError naming ``name``."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral) and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return value


@dataclass
class ChannelTrace:
    """Piecewise-constant bandwidth profile.

    Sample ``i`` gives the rate on [timestamps[i], timestamps[i+1]); the last
    sample's rate extends indefinitely.  Immutable after construction.
    """

    timestamps_s: np.ndarray
    throughputs_kbps: np.ndarray
    # memoryviews of the timestamps, the throughputs and the kbit delivered
    # from t=0 up to each timestamp (indexing them gives Python floats
    # without copying the trace), and the index of the last sample: the
    # download in session.run_session reads all four, slot_clock the
    # cumulative kbit
    _views: tuple[memoryview, memoryview, memoryview, int] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps_s, dtype=float)
        tp = np.asarray(self.throughputs_kbps, dtype=float)
        if ts.ndim != 1 or ts.shape != tp.shape or ts.size == 0:
            raise TraceError("trace needs matching non-empty timestamp/throughput arrays")
        for name, values in (("timestamps_s", ts), ("throughputs_kbps", tp)):
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise TraceError(f"trace {name}[{bad[0]}] is {float(values[bad[0]])!r}; samples must be finite")
        if ts[0] != 0.0:
            raise TraceError("trace timestamps must start at 0")
        if np.any(np.diff(ts) <= 0):
            raise TraceError("trace timestamps must be strictly increasing")
        if np.any(tp <= 0):
            raise TraceError("trace throughputs must be positive")
        ts = ts.copy()
        tp = tp.copy()
        cum = np.concatenate(([0.0], np.cumsum(tp[:-1] * np.diff(ts))))
        for arr in (ts, tp, cum):
            arr.setflags(write=False)
        self.timestamps_s = ts
        self.throughputs_kbps = tp
        self._views = (memoryview(ts), memoryview(tp), memoryview(cum), ts.size - 1)

    @property
    def num_samples(self) -> int:
        return int(self.timestamps_s.size)


def load_trace(path: str | Path) -> ChannelTrace:
    """Read a trace CSV, rebase its clock to zero, and floor the throughputs.

    Samples below ``FLOOR_KBPS`` (outages are often logged as zero) are
    replaced by the floor so every download makes progress.  One sample is
    a trace, as for ``ChannelTrace``: the last rate lasts forever; a file
    with no sample is a TraceError naming it.  The file is read
    by ``read_csv_table``: the header's two names may hold surrounding spaces
    (a third name is an error), a row's fields after the second are ignored,
    and a row that cannot be parsed, holds a NaN or inf, or does not increase
    the timestamp is a TraceError naming its line.
    """
    samples = read_csv_table(path, _TRACE_HEADER, {"usecols": (0, 1), "ndmin": 2},
                             _sample_faults, _sample_fault, TraceError, strip_header=True)
    if not len(samples):
        raise TraceError(f"{path}: need at least 1 sample, got 0")
    ts, tp = samples.T
    return ChannelTrace(ts - ts[0], np.maximum(tp, FLOOR_KBPS))


def _sample_faults(samples: np.ndarray) -> np.ndarray:
    """Whether each sample is non-finite or does not increase the timestamp."""
    ts, tp = samples.T
    faults = ~(np.isfinite(ts) & np.isfinite(tp))
    faults[1:] |= ~(ts[1:] > ts[:-1])
    return faults


def _sample_fault(text: str, fields: list[str], i: int, sample: np.ndarray | None) -> str:
    """What is wrong with the trace row ``fields``, sample ``i``, read as
    ``sample`` (None when it cannot be parsed)."""
    if sample is None:
        return f"cannot parse row {fields!r}"
    if np.isfinite(sample).all():
        return f"timestamps not increasing at sample {i + 1}"
    return f"non-finite sample {tuple(sample.tolist())!r}"


def parse_csv_rows(lines, max_rows: int | None = None, **options) -> np.ndarray:
    """``np.loadtxt`` of the comma-separated rows in ``lines`` (an open file
    after its header, or a list of lines), with ``options`` such as ``dtype``
    or ``usecols``: the one number grammar of trace and log files.  Fields may
    be quoted, there are no comments, and blank lines are skipped."""
    with warnings.catch_warnings():
        # loadtxt warns when there are no rows, and when max_rows skips a blank line
        warnings.simplefilter("ignore", UserWarning)
        # from numpy 1.23 until the deprecation expires, an integer field such
        # as '2.5' is read through a float and truncated with only this
        # warning; as an error it fails the conversion with a ValueError
        warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"',
                          max_rows=max_rows, **options)


def read_csv_table(path: str | Path, header: tuple[str, ...], parse: dict, faults, describe,
                   error: type[ValueError], strip_header: bool = False) -> np.ndarray:
    """The rows of the CSV file ``path`` after its header, parsed in one
    ``parse_csv_rows`` call with the options ``parse`` and checked as a whole:
    the one reader of trace and log files.

    The header's fields must be ``header`` (each stripped of surrounding
    spaces first if ``strip_header``), read from an open handle as
    ``csv.reader`` reads the first row, which may span lines.  The body is
    parsed from the file's name, which numpy reads in chunks rather than line
    by line, or from the handle where the name would not give the same text
    (``_chunked_name``).  ``faults(table)`` flags the rows that break a
    rule.  Only when a row cannot be parsed or is flagged is the file
    read again, from the handle already open, to find the first bad row in
    file order; ``describe(text, fields, i, row)`` says what is wrong with it,
    given its text, its fields, its index and its parsed value (None when it
    cannot be parsed).  Rows are counted as ``csv.reader`` counts them, as
    the parse does: blank lines are no rows, and a quoted field that spans a
    newline keeps its row whole, on the line where the row ends (the header's
    lines counting first).  A byte the file's encoding cannot decode is
    reported with its line, unless a row before that line is bad.  Each fault
    is an ``error`` whose message starts with the file and, for a row or a
    byte, ``line N:``.
    """

    def read(fh, name: str | None) -> np.ndarray:
        # the body is parsed from the file ``name`` after the header's lines,
        # or when ``name`` is None from ``fh``, where the header's read stops
        reader = csv.reader(iter(fh.readline, ""))
        try:
            names = next(reader, [])
        except csv.Error:  # a field past csv's limit
            names = []
        if strip_header:
            names = [h.strip() for h in names]
        if tuple(names) != header:
            raise error(f"{path}: expected header {','.join(header)}")
        skip = reader.line_num
        try:
            if name is None:
                table = parse_csv_rows(fh, **parse)
            else:
                table = parse_csv_rows(name, skiprows=skip, encoding=fh.encoding, **parse)
        except UnicodeDecodeError:
            raise
        except ValueError:
            table = None
        else:
            flagged = faults(table)
            if not flagged.any():
                return table
        fh.seek(0)
        body = fh.readlines()[skip:]
        if table is None:
            # the first row whose prefix fails the parse; the rows before it
            # are checked first
            unparsed = bisect.bisect_left(range(len(body)), True, key=lambda k: fails(body, k + 1))
            table = parse_csv_rows(body, unparsed, **parse)
            flagged = np.append(faults(table), True)
        i = int(flagged.argmax())
        # numpy reads a field of any length, so csv splits the rows with its
        # limit raised to the body's length, and then restored
        limit = csv.field_size_limit(max(csv.field_size_limit(), sum(map(len, body))))
        try:
            line, text = _row(body, i, skip)
            fields = _fields(text)
        finally:
            csv.field_size_limit(limit)
        row = table[i] if i < len(table) else None
        raise error(f"{path}: line {line}: {describe(text, fields, i, row)}")

    def fails(body: list[str], rows: int) -> bool:
        try:
            parse_csv_rows(body, rows, **parse)
        except ValueError:
            return True
        return False

    with open(path, newline="") as fh:
        try:
            return read(fh, _chunked_name(path, fh))
        except UnicodeDecodeError as exc:
            # raised on a chunk of the file, exc knows no line: decode it whole
            fh.seek(0)
            data = fh.buffer.read()
            message = str(exc)
            try:
                data.decode(fh.encoding)
            except UnicodeDecodeError as whole:
                lines = (data[:whole.start] + b".").splitlines(keepends=True)
                if len(lines) > 1:
                    # a bad row before the byte's line is the first fault
                    read(io.StringIO(b"".join(lines[:-1]).decode(fh.encoding), newline=""), None)
                message = f"line {len(lines)}: {whole}"
            raise error(f"{path}: {message}") from None


def _chunked_name(path, fh) -> str | None:
    """The name from which ``np.loadtxt`` reads the text of ``fh``, the file
    ``path`` open, or None if there is none.  A pipe opened again would not
    give the text ``fh`` has read, so only a regular file has one.  numpy's
    opener fetches a ``scheme://netloc`` string as a URL, so the name is
    ``path`` joined to the working directory (not normalized, which could
    step out of a symbolic link); it decompresses by suffix, so a name
    ending in one of ``_DECOMPRESSED_SUFFIXES`` has none; and it needs the
    working directory."""
    name = os.fsdecode(path)
    if not stat.S_ISREG(os.fstat(fh.fileno()).st_mode) or os.path.splitext(name)[1] in _DECOMPRESSED_SUFFIXES:
        return None
    try:
        return os.path.join(os.getcwd(), name)
    except OSError:
        return None


def _row(body: list[str], i: int, header_lines: int = 1) -> tuple[int, str]:
    """The line and the text of row ``i`` of ``body``, the lines after the
    header's ``header_lines``, as ``csv.reader`` counts rows and lines."""
    reader = csv.reader(body)
    start = 0
    for fields in reader:
        if fields:
            if not i:
                return reader.line_num + header_lines, "".join(body[start:reader.line_num])
            i -= 1
        start = reader.line_num


def _fields(text: str) -> list[str]:
    """The fields ``csv.reader`` splits the row ``text`` into.  A field longer
    than ``_SHOWN_CHARS`` is a ``_LongField``."""
    return [_LongField(f) if len(f) > _SHOWN_CHARS else f for f in next(csv.reader([text]))]


class _LongField(str):
    """A field whose repr, as a fault message quotes it, is its first
    ``_SHOWN_CHARS // 2`` characters and its length."""

    def __repr__(self) -> str:
        return f"{self[:_SHOWN_CHARS // 2]!r}... ({len(self)} characters)"


def generate_markovian(
    duration_s: float,
    low_kbps: float,
    high_kbps: float,
    p_transition: float,
    step_s: float = 1.0,
    seed: int = 0,
) -> ChannelTrace:
    """Two-state bandwidth process flipping state with fixed probability per step.

    Starts in the high state; emits one sample per ``step_s`` so transitions
    are independent of segment download durations.  Deterministic per seed.
    A ``duration_s / step_s`` that overflows to infinity is a ValueError
    naming both.
    """
    if isinstance(p_transition, bool) or not (isinstance(p_transition, numbers.Real)
                                              and 0.0 < p_transition < 1.0):
        raise ValueError(f"p_transition must be in (0, 1), got {p_transition!r}")
    require_positive("low_kbps", low_kbps)
    require_positive("high_kbps", high_kbps)
    if not low_kbps < high_kbps:
        raise ValueError(f"low_kbps must be below high_kbps, got {low_kbps!r} and {high_kbps!r}")
    require_positive("duration_s", duration_s)
    require_positive("step_s", step_s)
    require_count("seed", seed, 0)
    count = duration_s / step_s
    if not count < math.inf:
        raise ValueError(f"duration_s / step_s must be finite, got {duration_s!r} / {step_s!r}")
    n = max(1, math.ceil(count))
    rng = np.random.default_rng(seed)
    flips = rng.random(n - 1) < p_transition
    in_low = np.concatenate(([False], np.cumsum(flips) % 2 == 1))
    values = np.where(in_low, float(low_kbps), float(high_kbps))
    return ChannelTrace(np.arange(n) * float(step_s), values)


def slot_clock(trace: ChannelTrace, segment_duration_s: float, num_slots: int) -> np.ndarray:
    """The trace's mean rate over each content slot [(t-1)V, tV), t = 1..``num_slots``:
    the kbit the fluid model delivers over the slot divided by V, the last
    sample's rate lasting forever as in ``session.run_session``.

    This is the channel that a player fetching segment t during slot t would
    meet, and no decision changes it, so it is one yardstick per trace for the
    hindsight benchmark of every method run on the trace.  A slot that lies
    inside one sample gets that sample's rate exactly.  A V that is not
    positive and finite, or a slot count that is not an integer >= 0, is a
    ValueError naming it.
    """
    v = require_positive("segment_duration_s", segment_duration_s)
    require_count("num_slots", num_slots, 0)
    edges = np.arange(num_slots + 1) * float(v)
    start, end = edges[:-1], edges[1:]
    ts, tp = trace.timestamps_s, trace.throughputs_kbps
    cum = np.asarray(trace._views[2])
    # the sample each slot starts in and the last sample that starts before it ends
    first = np.searchsorted(ts, start, side="right") - 1
    last = np.searchsorted(ts, end, side="left") - 1
    kbit = (cum[last] - cum[first]) + tp[last] * (end - ts[last]) - tp[first] * (start - ts[first])
    return np.where(first == last, tp[first], kbit / v)


def concat_traces(traces) -> ChannelTrace:
    """Splice traces end to end, continuing the clock after each one.

    Each trace is extended past its last sample by that trace's final sample
    interval before the next one begins (the final sample notionally lasts
    forever, so some cut must be chosen).
    """
    traces = list(traces)
    if not traces:
        raise ValueError("need at least one trace")
    ts_parts, tp_parts = [], []
    offset = 0.0
    for tr in traces:
        ts_parts.append(tr.timestamps_s + offset)
        tp_parts.append(tr.throughputs_kbps)
        if tr.timestamps_s.size > 1:
            tail = float(tr.timestamps_s[-1] - tr.timestamps_s[-2])
        else:
            tail = 1.0
        offset += float(tr.timestamps_s[-1]) + tail
    return ChannelTrace(np.concatenate(ts_parts), np.concatenate(tp_parts))


def write_trace(trace: ChannelTrace, path: str | Path) -> None:
    """Serialize a trace to its CSV file format: the header, then one
    ``timestamp_s,throughput_kbps`` row per sample, each number written as
    its ``repr`` (full float fidelity) and each line ended with ``\\r\\n``,
    as ``csv.writer`` ends them.  Rows are formatted and written
    ``_WRITE_ROWS`` at a time, so the text in memory stays small however
    long the trace is."""
    ts, tp = trace.timestamps_s, trace.throughputs_kbps
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRACE_HEADER) + "\r\n")
        for i in range(0, ts.size, _WRITE_ROWS):
            rows = zip(ts[i:i + _WRITE_ROWS].tolist(), tp[i:i + _WRITE_ROWS].tolist())
            fh.write("".join(map("%r,%r\r\n".__mod__, rows)))
