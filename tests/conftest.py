import os

import numpy as np
from hypothesis import strategies as st

from abrsim import ChannelTrace, channel, session


def constant_trace(rate_kbps: float, duration_s: float = 100000.0) -> ChannelTrace:
    return ChannelTrace(
        np.array([0.0, duration_s]), np.array([float(rate_kbps), float(rate_kbps)])
    )


def assert_buffer_law(history, b_max_s: float) -> None:
    """Epoch-boundary buffer in [0, b_max]; delay iff the pre-delay level
    would exceed b_max, in which case the buffer lands exactly on b_max."""
    for rec in history:
        assert 0.0 <= rec.buffer_after_s <= b_max_s, rec
        pre_delay = rec.buffer_after_s + rec.delta_s
        assert (rec.delta_s > 0) == (pre_delay > b_max_s), rec
        if rec.delta_s > 0:
            assert rec.buffer_after_s == b_max_s, rec


def count_switches(history) -> int:
    xs = [rec.x for rec in history]
    return sum(1 for i in range(1, len(xs)) if xs[i] != xs[i - 1])


def record_parses(monkeypatch) -> list:
    """Record each call of ``parse_csv_rows`` by the trace and log readers as
    ``(lines, max_rows)``, ``lines`` being "path" for a file's name, which
    numpy reads in chunks, and "file" for an open file, which it reads line
    by line."""
    calls = []
    parse = channel.parse_csv_rows

    def label(lines):
        if isinstance(lines, (str, os.PathLike)):
            return "path"
        return "file" if hasattr(lines, "read") else lines

    def recording(lines, max_rows=None, **options):
        calls.append((label(lines), max_rows))
        return parse(lines, max_rows, **options)

    monkeypatch.setattr(channel, "parse_csv_rows", recording)
    monkeypatch.setattr(session, "parse_csv_rows", recording)
    return calls


def with_a_bad_byte(data: bytes, at: float | None) -> bytes:
    """``data`` with a byte no UTF-8 text holds put at the fraction ``at``
    of its length, or as it is if ``at`` is None."""
    if at is None:
        return data
    k = int(at * len(data))
    return data[:k] + b"\xff" + data[k:]


def csv_text(draw, header: str, rows, quotable=lambda fields: True, breakable=lambda i: True):
    """``rows`` (lists of fields) under ``header`` as CSV text, with drawn
    line endings (LF, CRLF or lone CR), blank lines, quoting (if
    ``quotable(fields)``), a quoted line break (if ``breakable(i)`` for row
    ``i``) and final line ending; and the line each row ends on."""
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header]
    line_of = []
    physical = 1
    for i, fields in enumerate(rows):
        if quotable(fields) and draw(st.booleans()):
            fields = [f'"{f}"' for f in fields]
            # a short row cut to no fields is a blank line, with no field to quote
            if fields and breakable(i) and draw(st.booleans()):
                # a newline inside the quotes: one row on two lines
                fields[-1] = fields[-1][:-1] + newline + '"'
        blanks = draw(st.integers(0, 2))
        lines.extend([""] * blanks)
        lines.append(",".join(fields))
        physical += blanks + 1 + lines[-1].count(newline)
        line_of.append(physical)
    return newline.join(lines) + (newline if draw(st.booleans()) else ""), line_of


def load_outcome(load, path):
    """The repr of the trace ``load`` reads, or the message of its ValueError."""
    try:
        trace = load(path)
    except ValueError as exc:
        return str(exc)
    return repr((trace.timestamps_s.tolist(), trace.throughputs_kbps.tolist()))


def read_outcome(read, path):
    """The repr of every field ``read`` reads, or the message of its ValueError."""
    try:
        records = read(path)
    except ValueError as exc:
        return str(exc)
    return [tuple(map(repr, rec)) for rec in records]
