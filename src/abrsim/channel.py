"""Channel rate process: trace files, a two-state synthetic generator, and
trace concatenation.

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
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "ChannelTrace",
    "TraceError",
    "DEFAULT_FLOOR_KBPS",
    "TRACE_HEADER",
    "concat_traces",
    "generate_markovian",
    "load_trace",
    "write_trace",
]

TRACE_HEADER = ("timestamp_s", "throughput_kbps")

# Outage samples are floored so size/rate stays finite.
DEFAULT_FLOOR_KBPS = 10.0

# rows per write in write_trace: a 30,000-sample trace is one write
_WRITE_ROWS = 65536


class TraceError(ValueError):
    """Malformed trace file."""


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
    # without copying the trace), and the index of the last sample; the
    # download in session.run_session reads them
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

    @property
    def duration_s(self) -> float:
        return float(self.timestamps_s[-1])

    @property
    def min_throughput_kbps(self) -> float:
        return float(self.throughputs_kbps.min())

    @property
    def max_throughput_kbps(self) -> float:
        return float(self.throughputs_kbps.max())


def load_trace(path: str | Path, floor_kbps: float = DEFAULT_FLOOR_KBPS) -> ChannelTrace:
    """Read a trace CSV, rebase its clock to zero, and floor the throughputs.

    Samples below ``floor_kbps`` (outages are often logged as zero) are
    replaced by the floor so every download makes progress.  The rows after
    the header are parsed in one ``np.loadtxt`` call: blank lines are skipped
    (but counted), columns after the second are ignored, values may be
    quoted, and numbers follow numpy's grammar (no ``1_000``, ASCII digits
    only).  The samples are then checked as a whole; only when a row cannot
    be parsed, holds a NaN or inf, or does not increase the timestamp is the
    file read again, from the handle already open, to name the first such
    row in file order and its line.  A byte the file's encoding cannot decode
    is a TraceError naming its line, unless a row before that line is bad:
    faults are reported in file order.
    """
    if not 0 < floor_kbps < math.inf:
        raise ValueError(f"floor_kbps must be positive and finite, got {floor_kbps!r}")
    with open(path, newline="") as fh:
        try:
            samples = _read_samples(fh, path)
        except UnicodeDecodeError as exc:
            message = undecodable(fh, exc, lambda head: _read_samples(head, path))
            raise TraceError(f"{path}: {message}") from None
    if len(samples) < 2:
        raise TraceError(f"{path}: need at least 2 samples, got {len(samples)}")
    ts, tp = samples.T
    return ChannelTrace(ts - ts[0], np.maximum(tp, floor_kbps))


def _read_samples(fh, path: str | Path) -> np.ndarray:
    """The samples of the trace file ``fh``, checked; a TraceError names the
    first bad row of the file and its line."""
    header = next(csv.reader([fh.readline()]))
    if [h.strip() for h in header] != list(TRACE_HEADER):
        raise TraceError(f"{path}: expected header {','.join(TRACE_HEADER)}")
    try:
        samples = _parse_samples(fh)
    except UnicodeDecodeError:
        raise
    except ValueError:
        samples = None
    if samples is None or _sample_fault(samples) is not None:
        raise TraceError(f"{path}: {_first_bad_row(fh, samples)}")
    return samples


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


def reread_rows(fh, parse, parsed: np.ndarray | None):
    """Rewind ``fh``, whose rows after the header ``parse`` read as ``parsed``
    or (``parsed`` None) failed to read, to locate its rows.

    Returns each row after the header as its line and its text, the rows
    ``parse`` reads before the first one it cannot, and that row's index
    (None when ``parsed`` is given).  Rows are counted as ``csv.reader``
    counts them, as ``parse`` does: blank lines are no rows, and a quoted
    field that spans a newline keeps its row whole, on the line where the
    row ends (``csv.reader.line_num``, the header being line 1).  The row is
    found by bisecting over row prefixes with ``parse`` itself, so it is the
    one that made the whole read fail.
    """
    fh.seek(0)
    body = fh.readlines()[1:]
    # Python 3.10's csv rejects a NUL byte, which ends no field and no row
    reader = csv.reader(line.replace("\0", " ") for line in body)
    rows = []
    start = 0
    for fields in reader:
        if fields:
            rows.append((reader.line_num + 1, "".join(body[start:reader.line_num])))
        start = reader.line_num
    if parsed is not None:
        return rows, parsed, None

    def unparseable(k: int) -> bool:
        try:
            parse(body, max_rows=k + 1)
        except ValueError:
            return True
        return False

    unparsed = bisect.bisect_left(range(len(rows)), True, key=unparseable)
    return rows, parse(body, max_rows=unparsed), unparsed


def _parse_samples(lines, max_rows: int | None = None) -> np.ndarray:
    """The (timestamp, throughput) columns of the trace rows in ``lines``, as
    an (n, 2) array."""
    return parse_csv_rows(lines, max_rows, usecols=(0, 1), ndmin=2)


def _sample_fault(samples: np.ndarray) -> tuple[int, str] | None:
    """The index of the first sample that is non-finite or does not increase
    the timestamp, and what is wrong with it; None when every sample is good."""
    finite = np.isfinite(samples).all(axis=1)
    good = finite.copy()
    good[1:] &= samples[1:, 0] > samples[:-1, 0]
    bad = np.flatnonzero(~good)
    if not bad.size:
        return None
    i = int(bad[0])
    if finite[i]:
        return i, f"timestamps not increasing at sample {i + 1}"
    return i, f"non-finite sample {tuple(samples[i].tolist())!r}"


def _first_bad_row(fh, samples: np.ndarray | None) -> str:
    """Describe the first bad row of the trace file ``fh`` in file order, with
    its line; ``samples`` holds every row, or is None when some row cannot be
    parsed.  The rows before an unparseable one are checked first."""
    rows, samples, unparsed = reread_rows(fh, _parse_samples, samples)
    fault = _sample_fault(samples)
    if fault is not None:
        i, message = fault
        return f"line {rows[i][0]}: {message}"
    # every row before the unparseable one is good, so it is the first bad row
    line, text = rows[unparsed]
    return f"line {line}: cannot parse row {next(csv.reader([text]))!r}"


def undecodable(fh, exc: UnicodeDecodeError, read) -> str:
    """Describe the first byte that the encoding of the text file ``fh``
    cannot decode, with its line, by rewinding ``fh`` and decoding it whole
    (``exc``, raised while reading it in chunks, knows no line).  The lines
    before the byte's line are first given to ``read`` as a text file, which
    raises at a bad row among them, so that the first fault in file order is
    the one reported."""
    fh.seek(0)
    data = fh.buffer.read()
    try:
        data.decode(fh.encoding)
        return str(exc)
    except UnicodeDecodeError as whole:
        exc = whole
    lines = (data[:exc.start] + b".").splitlines(keepends=True)
    if len(lines) > 1:
        read(io.StringIO(b"".join(lines[:-1]).decode(fh.encoding), newline=""))
    return f"line {len(lines)}: {exc}"


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
    """
    if not 0.0 < p_transition < 1.0:
        raise ValueError(f"p_transition must be in (0, 1), got {p_transition}")
    if not 0.0 < low_kbps < high_kbps < math.inf:
        raise ValueError("need 0 < low_kbps < high_kbps < inf")
    for name, value in (("duration_s", duration_s), ("step_s", step_s)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value!r}")
    n = max(1, math.ceil(duration_s / step_s))
    rng = np.random.default_rng(seed)
    flips = rng.random(n - 1) < p_transition
    in_low = np.concatenate(([False], np.cumsum(flips) % 2 == 1))
    values = np.where(in_low, float(low_kbps), float(high_kbps))
    return ChannelTrace(np.arange(n) * float(step_s), values)


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
        fh.write(",".join(TRACE_HEADER) + "\r\n")
        for i in range(0, ts.size, _WRITE_ROWS):
            rows = zip(ts[i:i + _WRITE_ROWS].tolist(), tp[i:i + _WRITE_ROWS].tolist())
            fh.write("".join(map("%r,%r\r\n".__mod__, rows)))
