"""``channel.read_csv_table`` as it ran when it parsed a file's body from
the open handle, which ``np.loadtxt`` iterates line by line, rather than
from the file's name, which it reads in chunks.  Within ``line_iterated()``
the trace and log readers parse with it; they must give the same table,
records or error message as without.
"""

from __future__ import annotations

import bisect
import io
from contextlib import contextmanager

import numpy as np

from abrsim import channel, session
from abrsim.channel import _fields, _row, parse_csv_rows


def read_csv_table(path, header, parse, faults, describe, error, strip_header=False):
    def read(fh) -> np.ndarray:
        names = _fields(fh.readline())
        if strip_header:
            names = [h.strip() for h in names]
        if tuple(names) != header:
            raise error(f"{path}: expected header {','.join(header)}")
        try:
            table = parse_csv_rows(fh, **parse)
        except UnicodeDecodeError:
            raise
        except ValueError:
            table = None
        else:
            flagged = faults(table)
            if not flagged.any():
                return table
        fh.seek(0)
        body = fh.readlines()[1:]
        if table is None:
            unparsed = bisect.bisect_left(range(len(body)), True, key=lambda k: fails(body, k + 1))
            table = parse_csv_rows(body, unparsed, **parse)
            flagged = np.append(faults(table), True)
        i = int(flagged.argmax())
        line, text = _row(body, i)
        row = table[i] if i < len(table) else None
        raise error(f"{path}: line {line}: {describe(text, _fields(text), i, row)}")

    def fails(body, rows) -> bool:
        try:
            parse_csv_rows(body, rows, **parse)
        except ValueError:
            return True
        return False

    with open(path, newline="") as fh:
        try:
            return read(fh)
        except UnicodeDecodeError as exc:
            fh.seek(0)
            data = fh.buffer.read()
            message = str(exc)
            try:
                data.decode(fh.encoding)
            except UnicodeDecodeError as whole:
                lines = (data[:whole.start] + b".").splitlines(keepends=True)
                if len(lines) > 1:
                    read(io.StringIO(b"".join(lines[:-1]).decode(fh.encoding), newline=""))
                message = f"line {len(lines)}: {whole}"
            raise error(f"{path}: {message}") from None


@contextmanager
def line_iterated():
    """Within, ``load_trace`` and ``read_log_csv`` read with the oracle."""
    saved = channel.read_csv_table, session.read_csv_table
    channel.read_csv_table = session.read_csv_table = read_csv_table
    try:
        yield
    finally:
        channel.read_csv_table, session.read_csv_table = saved
