import bisect
import csv
import hashlib
import math
import os
import re
import urllib.request
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim import (
    ChannelTrace,
    L2APolicy,
    SessionConfig,
    TraceError,
    concat_traces,
    generate_markovian,
    load_trace,
    read_log_csv,
    slot_clock,
    write_trace,
)
from abrsim.channel import _DECOMPRESSED_SUFFIXES, FLOOR_KBPS
from abrsim.session import LOG_COLUMNS

from conftest import constant_trace, csv_text, load_outcome, read_outcome, record_parses, with_a_bad_byte
from csv_oracle import line_iterated
from session_oracle import download


def _write(tmp_path, rows, header="timestamp_s,throughput_kbps"):
    path = tmp_path / "trace.csv"
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


# ---------------------------------------------------------------------------
# loading


def test_load_minimal(tmp_path):
    tr = load_trace(_write(tmp_path, ["0,5000", "1,8000"]))
    assert tr.num_samples == 2
    assert tr.throughputs_kbps.tolist() == [5000.0, 8000.0]


def test_load_applies_floor(tmp_path):
    path = _write(tmp_path, ["0,0", "1,8000"])
    tr = load_trace(path)
    assert FLOOR_KBPS == 10.0
    assert tr.throughputs_kbps.tolist() == [FLOOR_KBPS, 8000.0]
    # the floor is a constant, not a setting
    with pytest.raises(TypeError, match="floor_kbps"):
        load_trace(path, floor_kbps=1.0)


def test_load_rebases_clock(tmp_path):
    tr = load_trace(_write(tmp_path, ["5,5000", "6,8000"]))
    assert tr.timestamps_s.tolist() == [0.0, 1.0]


def test_load_rejects_non_monotone(tmp_path):
    with pytest.raises(TraceError, match="sample 3"):
        load_trace(_write(tmp_path, ["0,5000", "2,8000", "1,9000"]))
    with pytest.raises(TraceError, match="line 4: timestamps not increasing at sample 3"):
        load_trace(_write(tmp_path, ["0,5000", "2,8000", "1,9000"]))


def test_load_reads_a_single_sample(tmp_path):
    # one sample is a trace whose rate lasts forever, as ChannelTrace and
    # generate_markovian take it; the loader once asked for two
    tr = load_trace(_write(tmp_path, ["3,5000"]))
    assert (tr.timestamps_s.tolist(), tr.throughputs_kbps.tolist()) == ([0.0], [5000.0])


def test_load_rejects_bad_header(tmp_path):
    with pytest.raises(TraceError, match="header"):
        load_trace(_write(tmp_path, ["0,5000", "1,8000"], header="time,rate"))


def test_a_header_csv_cannot_read_is_a_bad_header(tmp_path):
    # a name longer than csv's field limit once escaped as a csv.Error
    path = _write(tmp_path, ["0,5000", "1,8000"], header="timestamp_s," + "x" * (csv.field_size_limit() + 1))
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: expected header timestamp_s,throughput_kbps"


def test_load_ignores_fields_after_the_second_but_not_a_third_header_name(tmp_path):
    tr = load_trace(_write(tmp_path, ["0,5000,x", "1,8000,9,note"]))
    assert tr.throughputs_kbps.tolist() == [5000.0, 8000.0]
    path = _write(tmp_path, ["0,5000,x", "1,8000,9"], header="timestamp_s,throughput_kbps,note")
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: expected header timestamp_s,throughput_kbps"


@pytest.mark.parametrize(
    "row, fields",
    [
        ("1,abc", ["1", "abc"]),
        ("1", ["1"]),
        # numbers follow numpy's grammar, narrower than float(): no digit
        # separators and no non-ASCII digits
        ("1,1_000", ["1", "1_000"]),
        ("\u0661,8000", ["\u0661", "8000"]),
    ],
    ids=["word", "short", "underscore", "arabic-indic-digit"],
)
def test_load_rejects_garbage_row(tmp_path, row, fields):
    path = _write(tmp_path, ["0,5000", row])
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: line 3: cannot parse row {fields!r}"


@pytest.mark.parametrize("rows", [[], [""], ["", "", ""]], ids=["header-only", "blank", "blanks"])
def test_load_without_rows_needs_two_samples_and_warns_nothing(tmp_path, rows):
    path = tmp_path / "trace.csv"
    path.write_text("\n".join(["timestamp_s,throughput_kbps", *rows]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TraceError) as info:
            load_trace(path)
    assert str(info.value) == f"{path}: need at least 1 sample, got 0"


def test_load_names_the_line_of_an_undecodable_byte(tmp_path):
    # far enough into the file that it is not in the first chunk read
    rows = [f"{i},5000" for i in range(2000)]
    path = tmp_path / "trace.csv"
    path.write_bytes(("timestamp_s,throughput_kbps\n" + "\n".join(rows) + "\n").encode()
                     + b"2000,\xff\n2001,5000\n")
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value).startswith(f"{path}: line 2002: 'utf-8' codec can't decode byte 0xff ")


@pytest.mark.parametrize(
    "bad, byte, expected",
    [
        (4, 2002, "line 4: non-finite sample (2.0, nan)"),
        (2003, 2002, "line 2002: 'utf-8' codec can't decode byte 0xff "),
        (None, 1, "line 1: 'utf-8' codec can't decode byte 0xff "),
    ],
    ids=["row-before-a-later-byte", "row-after-the-byte", "byte-in-the-header"],
)
def test_load_reports_a_bad_row_and_an_undecodable_byte_in_file_order(tmp_path, bad, byte, expected):
    lines = [b"timestamp_s,throughput_kbps"] + [f"{i},5000".encode() for i in range(3000)]
    if bad is not None:
        lines[bad - 1] = lines[bad - 1].replace(b"5000", b"nan")
    lines[byte - 1] = lines[byte - 1].replace(b",", b",\xff", 1)
    path = tmp_path / "trace.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value).startswith(f"{path}: {expected}")


LOG_TEXT = ",".join(LOG_COLUMNS) + "\r\n" + "".join(
    f"{t},1,1000.0,2000.0,1000.0,2.0,0.0,{2.0 * t!r},0,0.0\r\n" for t in range(1, 4))
# a text file of each kind, its reader and the reader's outcome, and the
# same file with a bad row
TEXT_FILES = {
    "trace": (load_trace, load_outcome, "timestamp_s,throughput_kbps\n0,5000\n1,8000\n2,6000\n",
              ("2,6000", "2,inf")),
    "log": (read_log_csv, read_outcome, LOG_TEXT, (",0,0.0\r\n", ",2,0.0\r\n")),
}


@pytest.mark.parametrize("kind", sorted(TEXT_FILES))
@pytest.mark.parametrize("bad", [False, True], ids=["good", "bad-row"])
@pytest.mark.parametrize(
    "name, parsed_from",
    [("x.csv.gz", "file"), ("x.csv.bz2", "file"), ("x.csv.xz", "file"), ("x.csv.lzma", "file"),
     ("http://host/x.csv", "path"), ("http:/x.csv", "path")],
    ids=["gz", "bz2", "xz", "lzma", "http-dir-netloc", "http-dir"],
)
def test_a_name_numpy_would_decompress_or_fetch_reads_as_text(tmp_path, monkeypatch, kind, bad, name,
                                                              parsed_from):
    # numpy's opener decompresses a name by its suffix and fetches a
    # scheme://netloc name; such a name is a plain local text file here, read
    # as the line-iterated reader read it.  The decoy is the file a URL's
    # netloc and path name in the working directory.
    read, outcome, text, (good_row, bad_row) = TEXT_FILES[kind]
    if bad:
        text = text.replace(good_row, bad_row, 1)
    monkeypatch.chdir(tmp_path)
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, newline="")
    (tmp_path / "host").mkdir()
    (tmp_path / "host" / "x.csv").write_text(text.replace("1", "3"), newline="")
    fetched = []
    monkeypatch.setattr(urllib.request, "urlopen", lambda *args, **kwargs: fetched.append(args))
    with line_iterated():
        expected = outcome(read, name)
    calls = record_parses(monkeypatch)
    assert outcome(read, name) == expected
    assert str(expected).startswith(f"{name}: line") == bad
    assert calls[0] == (parsed_from, None)
    assert fetched == []


def test_compressed_suffixes_cover_numpys_openers():
    assert set(np.lib._datasource._file_openers.keys()) - {None} <= set(_DECOMPRESSED_SUFFIXES)


def test_load_reads_the_file_a_name_through_a_symbolic_link_opens(tmp_path, monkeypatch):
    # "link/../trace.csv" opens trace.csv beside the link's target, not the
    # one beside the link, which is what the name spells once normalized
    (tmp_path / "a" / "b").mkdir(parents=True)
    (tmp_path / "link").symlink_to(tmp_path / "a" / "b")
    (tmp_path / "a" / "trace.csv").write_text("timestamp_s,throughput_kbps\n0,5000\n1,8000\n")
    (tmp_path / "trace.csv").write_text("timestamp_s,throughput_kbps\n0,6000\n1,9000\n")
    monkeypatch.chdir(tmp_path)
    tr = load_trace("link/../trace.csv")
    assert tr.throughputs_kbps.tolist() == [5000.0, 8000.0]


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_load_reads_a_pipe_from_its_handle(monkeypatch):
    # a pipe opened again gives what is left after the handle's first read:
    # its body is parsed from the handle
    text = "timestamp_s,throughput_kbps\n" + "".join(f"{i},5000\n" for i in range(3000))

    def read_through_a_pipe():
        r, w = os.pipe()
        os.write(w, text.encode())
        os.close(w)
        try:
            return load_outcome(load_trace, f"/dev/fd/{r}")
        finally:
            os.close(r)

    with line_iterated():
        expected = read_through_a_pipe()
    calls = record_parses(monkeypatch)
    assert read_through_a_pipe() == expected
    assert expected == repr((list(map(float, range(3000))), [5000.0] * 3000))
    assert calls == [("file", None)]


def test_load_reads_from_the_handle_without_a_working_directory(tmp_path, monkeypatch):
    # numpy's opener needs the working directory; without one the body is
    # parsed from the open handle
    path = _write(tmp_path, ["0,5000", "1,8000", "2,inf"])
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    with line_iterated():
        expected = load_outcome(load_trace, path)
    calls = record_parses(monkeypatch)
    assert load_outcome(load_trace, path) == expected == f"{path}: line 4: non-finite sample (2.0, inf)"
    assert calls == [("file", None)]


@pytest.mark.parametrize("row", ["1,nan", "nan,8000", "1,inf", "inf,8000", "1,-inf"])
def test_load_rejects_non_finite_row(tmp_path, row):
    # the blank line is skipped, so the bad row is on line 5
    path = _write(tmp_path, ["0,5000", "", "0.5,6000", row, "2,9000"])
    with pytest.raises(TraceError, match=f"{path}: line 5: non-finite"):
        load_trace(path)


@pytest.mark.parametrize(
    "rows, expected",
    [
        (["0,5000", '1,"6000', '"', "2,7000", "3,abc"], "line 6: cannot parse row ['3', 'abc']"),
        (["0,5000", '1,"6000', '"', "2,7000", "3,inf"], "line 6: non-finite sample (3.0, inf)"),
        (["0,5000", '1,"abc', '"', "2,7000"], "line 4: cannot parse row ['1', 'abc\\n']"),
    ],
    ids=["unparseable-after", "non-finite-after", "the-spanning-row"],
)
def test_load_counts_a_quoted_line_break_as_csv_does(tmp_path, rows, expected):
    # a quoted field that spans a line break keeps its row whole; a row is
    # named by the line it ends on, as csv.reader counts lines
    path = _write(tmp_path, rows)
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: {expected}"


@pytest.mark.parametrize("name", ["trace.csv", "trace.csv.gz"], ids=["by-name", "from-the-handle"])
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize(
    "rows, expected",
    [
        (["0,5000", "1,6000"], repr(([0.0, 1.0], [5000.0, 6000.0]))),
        (["0,5000", "1,abc"], "{name}: line 4: cannot parse row ['1', 'abc']"),
        (["0,5000", "", "1,inf"], "{name}: line 5: non-finite sample (1.0, inf)"),
    ],
    ids=["good", "unparseable", "non-finite"],
)
def test_load_reads_a_header_quoted_across_a_line_break_as_csv_does(tmp_path, monkeypatch, name, newline,
                                                                    rows, expected):
    # csv reads the header's last name, quoted across a line break, as one
    # header row on lines 1 and 2: the body starts on line 3, whether it is
    # parsed from the file's name or from the open handle
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(newline.join(['timestamp_s,"throughput_kbps', '"', *rows, ""]), newline="")
    assert load_outcome(load_trace, name) == load_outcome(reference_load_trace, name) == expected.format(name=name)


def test_load_reports_a_bad_row_before_one_with_a_nul_byte(tmp_path):
    # the failure path counts the rows of the whole file with csv, which
    # reads a NUL byte as an ordinary character
    path = _write(tmp_path, ["0,5000", "1,inf", "2,6\x000"])
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: line 3: non-finite sample (1.0, inf)"


@pytest.mark.parametrize(
    "rows, expected",
    [
        (["0,5000", "1," + "x" * 200_000],
         "line 3: cannot parse row ['1', '" + "x" * 32 + "'... (200000 characters)]"),
        # numpy parses a row with a long third field, which csv still splits
        # for the row count: the bad row after it is the one named
        (["0,5000," + "y" * 200_000, "1,6000", "2,abc"], "line 4: cannot parse row ['2', 'abc']"),
    ],
    ids=["bad-row", "before-a-bad-row"],
)
def test_load_describes_a_row_with_a_field_past_csv_limit(tmp_path, rows, expected):
    # csv's field limit once escaped the failure path as a csv.Error; the
    # message quotes a long field by its start and its length, and the limit
    # is restored
    limit = csv.field_size_limit()
    path = _write(tmp_path, rows)
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: {expected}"
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize(
    "rows, header, expected",
    [
        (["0,5000", "1,6\x000"], "timestamp_s,throughput_kbps", "line 3: cannot parse row ['1', '6\\x000']"),
        (["0,5000", "1,6000"], "timestamp_s,through\x00put_kbps", "expected header timestamp_s,throughput_kbps"),
    ],
    ids=["row", "header"],
)
def test_load_describes_a_nul_byte_on_every_python(tmp_path, rows, header, expected):
    # csv reads NUL as an ordinary character: the message keeps it
    path = _write(tmp_path, rows, header=header)
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: {expected}"


@pytest.mark.parametrize("row, expected", [("2,inf", "line 4: non-finite sample (2.0, inf)"),
                                           ("1,6000", "line 4: timestamps not increasing at sample 3")],
                         ids=["inf", "not-increasing"])
def test_load_does_not_bisect_a_file_that_parsed(tmp_path, monkeypatch, row, expected):
    # a row that parses but breaks a rule is found in the parsed table: the
    # whole-file parse, from the file's name, is the only one
    path = _write(tmp_path, ["0,5000", "1,6000", row, "3,7000"])
    calls = record_parses(monkeypatch)
    with pytest.raises(TraceError) as info:
        load_trace(path)
    assert str(info.value) == f"{path}: {expected}"
    assert calls == [("path", None)]


def test_load_reports_the_first_bad_row_and_reads_the_file_once(tmp_path, monkeypatch):
    # a non-finite row before an unparseable one: rows are checked as they are read
    path = _write(tmp_path, ["0,5000", "1,inf", "2,abc"])
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    with pytest.raises(TraceError, match=f"{path}: line 3: non-finite sample"):
        load_trace(path)
    assert opened == [path]


def reference_load_trace(path):
    """The row loop ``load_trace`` ran before it parsed with ``np.loadtxt``:
    ``csv.reader`` and ``float()``, each row checked as it is read."""
    ts, tp = [], []
    prev = -math.inf
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["timestamp_s", "throughput_kbps"]:
            raise TraceError(f"{path}: expected header timestamp_s,throughput_kbps")
        for row in reader:
            if not row:
                continue
            try:
                t, c = float(row[0]), float(row[1])
            except (ValueError, IndexError) as exc:
                raise TraceError(f"{path}: line {reader.line_num}: cannot parse row {row!r}") from exc
            if not (math.isfinite(t) and math.isfinite(c)):
                raise TraceError(f"{path}: line {reader.line_num}: non-finite sample {(t, c)!r}")
            if t <= prev:
                raise TraceError(f"{path}: line {reader.line_num}: "
                                 f"timestamps not increasing at sample {len(ts) + 1}")
            ts.append(t)
            tp.append(c)
            prev = t
    if not ts:
        raise TraceError(f"{path}: need at least 1 sample, got 0")
    return ChannelTrace(np.subtract(ts, ts[0]), np.maximum(tp, FLOOR_KBPS))


FAULTS = {
    "unparseable": lambda t, c: [t, "abc"],
    "empty": lambda t, c: ["", c],
    "short": lambda t, c: [t],
    "nan": lambda t, c: [t, "nan"],
    "inf": lambda t, c: ["inf", c],
    "-inf": lambda t, c: [t, "-inf"],
}


# a trace header read as timestamp_s,throughput_kbps, and one that is not
TRACE_HEADERS = ["timestamp_s,throughput_kbps", " timestamp_s , throughput_kbps ",
                 '"timestamp_s","throughput_kbps"', "timestamp_s,throughput_kbps,x"]


@st.composite
def trace_files(draw):
    """The text of a trace file: a header spelt several ways (one of them
    with a third name), a third column, numbers written several ways, at
    most two faults (a bad field, a short row, a NaN or inf, a timestamp that
    does not increase), so that the first one in file order must be the one
    named, and the layout of ``csv_text``, quoting only rows without
    surrounding spaces."""
    n = draw(st.integers(0, 12))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    rates = draw(st.lists(st.floats(0.0, 1e5), min_size=n, max_size=n))
    start = draw(st.floats(0.0, 1e6))
    times = np.cumsum([start, *steps])[1:].tolist() if n else []
    spell = st.sampled_from([repr, lambda x: f"{x:.6g}", lambda x: f"{x:.3e}",
                             lambda x: f"{x:.1f}", lambda x: f" {x!r} "])
    spelt = [(draw(spell)(t), draw(spell)(c)) for t, c in zip(times, rates)]
    rows = [list(fields) for fields in spelt]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from([*FAULTS, "not-increasing"]))
        if kind == "not-increasing":
            if i > 0:
                rows[i][0] = draw(spell)(times[i - 1] - draw(st.sampled_from([0.0, 0.5])))
        else:
            rows[i] = FAULTS[kind](*spelt[i])
    for fields in rows:
        if len(fields) == 2 and draw(st.booleans()):
            fields.append(draw(st.sampled_from(["x", "", "1e5", "a b"])))
    text, _ = csv_text(draw, draw(st.sampled_from(TRACE_HEADERS)), rows,
                       quotable=lambda fields: all(f.strip() == f for f in fields))
    return text


@settings(max_examples=300, deadline=None)
@given(text=trace_files())
def test_load_matches_the_row_loop_oracle(tmp_path_factory, text):
    # the text reads as the row loop reads it, and parsing the body from the
    # file's name gives the table or the message that parsing it line by
    # line from the open handle gave
    path = tmp_path_factory.getbasetemp() / "oracle_trace.csv"
    path.write_bytes(text.encode())
    outcome = load_outcome(load_trace, path)
    assert outcome == load_outcome(reference_load_trace, path)
    with line_iterated():
        assert load_outcome(load_trace, path) == outcome


@settings(max_examples=300, deadline=None)
@given(text=trace_files(), at=st.floats(0.0, 1.0))
def test_load_matches_the_line_iterated_oracle(tmp_path_factory, text, at):
    # a file with a byte that cannot be decoded, which only the
    # line-iterated reader reads as the package does: the same table or
    # the same message
    path = tmp_path_factory.getbasetemp() / "chunked_trace.csv"
    path.write_bytes(with_a_bad_byte(text.encode(), at))
    with line_iterated():
        expected = load_outcome(load_trace, path)
    assert load_outcome(load_trace, path) == expected


@pytest.mark.parametrize("field", ["timestamps_s", "throughputs_kbps"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_trace_rejects_non_finite_samples(field, value):
    arrays = {"timestamps_s": np.array([0.0, 1.0, 2.0]), "throughputs_kbps": np.array([5.0, 6.0, 7.0])}
    arrays[field][2] = value
    with pytest.raises(TraceError, match=rf"{field}\[2\] is {value!r}"):
        ChannelTrace(**arrays)


def test_trace_invariants():
    with pytest.raises(TraceError):
        ChannelTrace(np.array([1.0, 2.0]), np.array([5.0, 5.0]))  # must start at 0
    with pytest.raises(TraceError):
        ChannelTrace(np.array([0.0, 1.0]), np.array([5.0, -1.0]))


# ---------------------------------------------------------------------------
# markovian generator


def test_markovian_paper_parameters():
    tr = generate_markovian(1200, 750, 23000, 0.05, 1.0, seed=4)
    assert tr.num_samples == 1200
    assert set(np.unique(tr.throughputs_kbps)) <= {750.0, 23000.0}
    assert tr.throughputs_kbps[0] == 23000.0  # starts high


def test_markovian_deterministic():
    a = generate_markovian(500, 750, 23000, 0.05, seed=9)
    b = generate_markovian(500, 750, 23000, 0.05, seed=9)
    assert np.array_equal(a.throughputs_kbps, b.throughputs_kbps)
    assert np.array_equal(a.timestamps_s, b.timestamps_s)


def test_markovian_state_occupancy_symmetric():
    # the 2-state chain with equal flip probability spends half its time in
    # each state; check empirically over a long horizon
    tr = generate_markovian(40000, 750, 23000, 0.05, 1.0, seed=1)
    frac_high = float(np.mean(tr.throughputs_kbps == 23000.0))
    assert abs(frac_high - 0.5) < 0.05


def test_markovian_validation():
    with pytest.raises(ValueError):
        generate_markovian(100, 750, 23000, 0.0)
    with pytest.raises(ValueError):
        generate_markovian(100, 750, 23000, 1.0)
    with pytest.raises(ValueError, match="^low_kbps must be below high_kbps, got 23000 and 750$"):
        generate_markovian(100, 23000, 750, 0.05)
    with pytest.raises(ValueError):
        generate_markovian(100, 750, 23000, 0.05, step_s=0.0)
    with pytest.raises(ValueError, match="^high_kbps must be positive and finite, got inf$"):
        generate_markovian(100, 750, np.inf, 0.05)
    # True once built a trace whose low state was 1 kbps
    with pytest.raises(ValueError, match="^low_kbps must be positive and finite, got True$"):
        generate_markovian(10, True, 23000, 0.05)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=rf"duration_s must be positive and finite, got {bad!r}"):
            generate_markovian(bad, 750, 23000, 0.05)
        with pytest.raises(ValueError, match=rf"step_s must be positive and finite, got {bad!r}"):
            generate_markovian(100, 750, 23000, 0.05, step_s=bad)
    # a sample count that overflows once ended in math.ceil's OverflowError
    with pytest.raises(ValueError, match=r"^duration_s / step_s must be finite, got 10 / 1e-320$"):
        generate_markovian(10, 750, 23000, 0.05, step_s=1e-320)
    # a bool is not a length of time: True once built a one-sample trace
    with pytest.raises(ValueError, match="^duration_s must be positive and finite, got True$"):
        generate_markovian(True, 750, 23000, 0.05, step_s=True)
    # a string once ended in a TypeError from the comparison, and True was 1
    for bad in ("0.5", True):
        with pytest.raises(ValueError, match=f"^{re.escape(f'p_transition must be in (0, 1), got {bad!r}')}$"):
            generate_markovian(10, 750, 23000, bad)


def test_an_int_past_the_float_range_is_not_finite():
    # each passed 0 < value < inf, exact for an int, and then ended in an
    # OverflowError, or (the session's buffer bound) in scoring
    huge = 10**400

    def rejects(name, build):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be positive and finite, got {huge!r}')}$"):
            build()

    for name, args in (("duration_s", (huge, 750, 23000, 0.05)), ("low_kbps", (10, huge, 23000, 0.05)),
                       ("high_kbps", (10, 750, huge, 0.05)), ("step_s", (10, 750, 23000, 0.05, huge))):
        rejects(name, lambda: generate_markovian(*args))
    rejects("segment_duration_s", lambda: slot_clock(generate_markovian(10, 750, 23000, 0.3), huge, 3))
    rejects("b_max_s", lambda: L2APolicy((1000.0, 2000.0), 2.0, huge, 10))
    rejects("b_max_s", lambda: SessionConfig(b_max_s=huge))


# ---------------------------------------------------------------------------
# fluid downloads


def test_download_constant_rate():
    res = download(constant_trace(5000.0), 0.0, 10000.0)
    assert res.duration_s == pytest.approx(2.0, abs=1e-12)
    assert res.effective_rate_kbps == pytest.approx(5000.0, abs=1e-9)


def test_download_two_piece_profile():
    # 1 s at 1000 kbps (1000 kbit) + 0.5 s at 3000 kbps (1500 kbit) = 1.5 s
    tr = ChannelTrace(np.array([0.0, 1.0]), np.array([1000.0, 3000.0]))
    res = download(tr, 0.0, 2500.0)
    assert res.duration_s == pytest.approx(1.5, abs=1e-12)
    assert res.effective_rate_kbps == pytest.approx(2500.0 / 1.5, abs=1e-9)


def test_download_beyond_last_sample():
    tr = ChannelTrace(np.array([0.0, 1.0]), np.array([1000.0, 4000.0]))
    res = download(tr, 10.0, 8000.0)
    assert res.duration_s == pytest.approx(2.0, abs=1e-12)


def test_download_mid_interval_start():
    tr = ChannelTrace(np.array([0.0, 2.0]), np.array([1000.0, 3000.0]))
    # 1 s at 1000 then 1 s at 3000
    res = download(tr, 1.0, 4000.0)
    assert res.duration_s == pytest.approx(2.0, abs=1e-12)


def test_download_validation():
    tr = constant_trace(1000.0)
    with pytest.raises(ValueError):
        download(tr, -1.0, 100.0)
    with pytest.raises(ValueError):
        download(tr, 0.0, 0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="size_kbit"):
            download(tr, 0.0, bad)
        with pytest.raises(ValueError, match="start_time_s"):
            download(tr, bad, 100.0)


def reference_cum_kbit(trace):
    """kbit delivered from t=0 up to each sample timestamp."""
    tp = trace.throughputs_kbps
    return np.concatenate(([0.0], np.cumsum(tp[:-1] * np.diff(trace.timestamps_s))))


def reference_download(trace, start_time_s, size_kbit):
    """The numpy formulas ``download`` ran before its scalar rewrite, as a
    bitwise oracle: (duration_s, effective_rate_kbps)."""
    ts = trace.timestamps_s
    tp = trace.throughputs_kbps
    cum = reference_cum_kbit(trace)
    last = ts.size - 1
    i = min(int(np.searchsorted(ts, start_time_s, side="right")) - 1, last)
    if i == last or size_kbit <= tp[i] * (ts[i + 1] - start_time_s):
        duration = float(size_kbit) / float(tp[i])
    else:
        start_kbit = cum[i] + tp[i] * (start_time_s - ts[i])
        target = start_kbit + size_kbit
        j = int(np.searchsorted(cum, target, side="left"))
        if j > last:
            end = ts[last] + (target - cum[last]) / tp[last]
        else:
            end = ts[j - 1] + (target - cum[j - 1]) / tp[j - 1]
        duration = float(end - start_time_s)
    return duration, float(size_kbit) / duration


ORACLE_TRACES = [
    generate_markovian(60, 750, 23000, 0.3, step, seed=seed)
    for step in (1.0, 0.1)
    for seed in range(3)
]


@st.composite
def download_cases(draw):
    """A trace, a start (inside it, exactly on a sample, or past its end) and
    a size (arbitrary, or ending exactly on a later sample's cumulative kbit)."""
    trace = draw(st.sampled_from(ORACLE_TRACES))
    ts = trace.timestamps_s
    tp = trace.throughputs_kbps
    last = ts.size - 1
    start = draw(
        st.one_of(
            st.floats(0.0, float(ts[-1])),
            st.integers(0, last).map(lambda i: float(ts[i])),
            st.floats(0.0, 100.0).map(lambda extra: float(ts[-1]) + extra),
        )
    )
    i = bisect.bisect_right(ts.tolist(), start) - 1
    if i < last and draw(st.booleans()):
        cum = reference_cum_kbit(trace)
        j = draw(st.integers(i + 1, last))
        size = float(cum[j] - (cum[i] + tp[i] * (start - ts[i])))
        if size > 0:
            return trace, start, size
    return trace, start, draw(st.floats(1e-3, 2e6))


@settings(max_examples=400, deadline=None)
@given(download_cases())
def test_download_matches_numpy_reference_bitwise(case):
    trace, start, size = case
    res = download(trace, start, size)
    got = (res.duration_s, res.effective_rate_kbps)
    assert [x.hex() for x in got] == [x.hex() for x in reference_download(trace, start, size)]


@settings(max_examples=60, deadline=None)
@given(
    start=st.floats(0.0, 50.0),
    size_a=st.floats(1.0, 50000.0),
    size_b=st.floats(1.0, 50000.0),
    seed=st.integers(0, 100),
)
def test_download_additive(start, size_a, size_b, seed):
    tr = generate_markovian(60, 750, 23000, 0.2, 1.0, seed=seed)
    first = download(tr, start, size_a)
    second = download(tr, start + first.duration_s, size_b)
    combined = download(tr, start, size_a + size_b)
    assert combined.duration_s == pytest.approx(
        first.duration_s + second.duration_s, abs=1e-9
    )


def test_effective_rate_within_trace_range():
    rng = np.random.default_rng(0)
    tr = generate_markovian(200, 750, 23000, 0.1, 1.0, seed=3)
    for _ in range(200):
        res = download(tr, float(rng.uniform(0, 300)), float(rng.uniform(10, 60000)))
        assert res.effective_rate_kbps >= tr.throughputs_kbps.min() * (1 - 1e-12)
        assert res.effective_rate_kbps <= tr.throughputs_kbps.max() * (1 + 1e-12)


# ---------------------------------------------------------------------------
# the slot clock


def test_slot_clock_gives_a_slot_inside_one_sample_its_rate_exactly():
    # slots of V=0.1 s: the cumulative kbit at their edges, differenced and
    # divided by V, would miss most of these rates in the last bits
    trace = ChannelTrace([0.0, 0.5, 0.7], [0.3, 7.7, 1234.5678])
    got = slot_clock(trace, 0.1, 12)
    assert got[:5].tolist() == [0.3] * 5
    # [0.5, 0.6) lies inside sample 1; the edge 0.7 is 7 * 0.1 rounded up,
    # so [0.6, 0.7000000000000001) spans samples 1 and 2
    assert got[5] == 7.7
    assert got[6] == pytest.approx((7.7 * 0.1 + 1234.5678 * (7 * 0.1 - 0.7)) / 0.1, rel=1e-12)
    # slots past the last sample take its rate, which lasts forever
    assert got[7:].tolist() == [1234.5678] * 5


def test_slot_clock_past_the_trace_end_takes_the_last_rate():
    trace = generate_markovian(30, 750, 23000, 0.3, 1.0, seed=4)
    got = slot_clock(trace, 2.0, 40)
    assert got.shape == (40,)
    assert got[15:].tolist() == [float(trace.throughputs_kbps[-1])] * 25
    assert slot_clock(trace, 2.0, 0).shape == (0,)


@pytest.mark.parametrize("v, slots, expected", [
    (0.0, 5, "segment_duration_s must be positive and finite, got 0.0"),
    (math.nan, 5, "segment_duration_s must be positive and finite, got nan"),
    (2.0, -1, "num_slots must be an integer >= 0, got -1"),
    (2.0, 2.5, "num_slots must be an integer >= 0, got 2.5"),
    (True, 3, "segment_duration_s must be positive and finite, got True"),
])
def test_slot_clock_rejects_a_bad_slot_duration_or_count(v, slots, expected):
    with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
        slot_clock(generate_markovian(10, 750, 23000, 0.3, seed=0), v, slots)


def exact_slot_rate(ts, tp, start, end):
    """The mean rate of the piecewise-constant profile (``ts``, ``tp``, the
    last rate lasting forever) over [start, end), in exact arithmetic."""
    bounds = [*ts[1:], max(end, ts[-1])]
    kbit = sum(rate * max(Fraction(0), min(end, hi) - max(start, lo))
               for lo, hi, rate in zip(ts, bounds, tp))
    return kbit / (end - start)


@settings(max_examples=300, deadline=None)
@given(
    steps=st.lists(st.floats(1e-3, 10.0), min_size=0, max_size=8),
    rates=st.lists(st.floats(1.0, 1e5), min_size=9, max_size=9),
    v=st.floats(0.05, 10.0),
    slots=st.integers(0, 40),
)
def test_slot_clock_matches_the_exact_integral_of_the_trace(steps, rates, v, slots):
    trace = ChannelTrace(np.concatenate(([0.0], np.cumsum(steps))), rates[:len(steps) + 1])
    got = slot_clock(trace, v, slots)
    ts = [Fraction(t) for t in trace.timestamps_s.tolist()]
    tp = [Fraction(r) for r in trace.throughputs_kbps.tolist()]
    # rounding: each slot edge, and each sample's kbit in the cumulative sum,
    # is off by a few ulps of the kbit delivered up to the slot's end
    eps = 2.0**-52
    for t in range(1, slots + 1):
        exact = exact_slot_rate(ts, tp, (t - 1) * Fraction(v), t * Fraction(v))
        bound = 8 * (len(ts) + 2) * eps * max(rates) * (t * v) / v
        assert abs(got[t - 1] - exact) <= bound


# ---------------------------------------------------------------------------
# concatenation and round trips


def test_concat_traces_monotone_and_preserving():
    a = generate_markovian(100, 750, 23000, 0.05, 1.0, seed=0)
    b = generate_markovian(50, 750, 23000, 0.05, 1.0, seed=1)
    cat = concat_traces([a, b])
    assert cat.num_samples == 150
    assert np.all(np.diff(cat.timestamps_s) > 0)
    assert np.array_equal(cat.throughputs_kbps[:100], a.throughputs_kbps)
    assert np.array_equal(cat.throughputs_kbps[100:], b.throughputs_kbps)
    # second trace starts one sample step after the first one's end
    assert cat.timestamps_s[100] == pytest.approx(a.timestamps_s[-1] + 1.0)


def test_concat_continues_a_one_sample_trace_after_one_second():
    # a single sample has no interval to repeat, so its trace lasts 1 s
    one = ChannelTrace([0.0], [500.0])
    b = generate_markovian(5, 750, 23000, 0.5, 0.5, seed=1)
    cat = concat_traces([one, b])
    assert cat.timestamps_s.tolist() == [0.0] + (1.0 + b.timestamps_s).tolist()
    assert cat.timestamps_s[1] == 1.0
    assert cat.throughputs_kbps.tolist() == [500.0] + b.throughputs_kbps.tolist()


def test_trace_roundtrip(tmp_path):
    tr = generate_markovian(50, 750.5, 23000.25, 0.3, 0.5, seed=2)
    path = tmp_path / "t.csv"
    write_trace(tr, path)
    back = load_trace(path)
    assert np.array_equal(back.timestamps_s, tr.timestamps_s)
    assert np.array_equal(back.throughputs_kbps, tr.throughputs_kbps)


@pytest.mark.parametrize("rows_per_write", [65536, 3000, 7])
def test_written_trace_has_pinned_bytes(tmp_path, monkeypatch, rows_per_write):
    # 0.1 s steps, so that many timestamps need all 17 digits; the trace has
    # 3000 samples, so it is written in one piece, in one full piece, or in
    # pieces with a short last one
    monkeypatch.setattr("abrsim.channel._WRITE_ROWS", rows_per_write)
    path = tmp_path / "t.csv"
    write_trace(generate_markovian(300, 750.5, 23000.25, 0.3, 0.1, seed=3), path)
    assert path.read_bytes().startswith(
        b"timestamp_s,throughput_kbps\r\n0.0,23000.25\r\n0.1,750.5\r\n0.2,23000.25\r\n"
        b"0.30000000000000004,23000.25\r\n")
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "b1cda5fcc25c50c51c39873af9045cd3e9585c18825ef66b6e5ea7a9d5166c93")
