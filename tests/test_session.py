import bisect
import csv
import dataclasses
import gc
import hashlib
import itertools
import math
import platform
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abrsim import (
    BBPolicy,
    ChannelTrace,
    EpochFeedback,
    EpochRecord,
    L2APolicy,
    Manifest,
    RBPolicy,
    ScriptedPolicy,
    SessionConfig,
    SessionLog,
    export_log_csv,
    generate_markovian,
    read_log_csv,
    run_session,
    synthesize_manifest,
)

from abrsim.session import LOG_COLUMNS, _check_replay, _columns, _startup_pause

from conftest import assert_buffer_law, constant_trace, csv_text, read_outcome, record_parses, with_a_bad_byte
from csv_oracle import line_iterated
from session_oracle import DownloadResult, OracleState, run_oracle, step


PAPER_LADDER = (370.0, 750.0, 1500.0, 3000.0, 5800.0, 12000.0, 17000.0, 20000.0)


def cbr_manifest(num_segments, bitrates=(1000.0, 2000.0), v=2.0):
    return synthesize_manifest(num_segments, bitrates, v, vbr_jitter=0.0, seed=0)


# ---------------------------------------------------------------------------
# single-step buffer law


def test_step_plain_drain():
    # buffer 10, download 3 s, V = 2: no delay, new buffer 9
    man = Manifest(2.0, (1500.0, 3000.0), [[3000.0, 6000.0]])
    state = OracleState(buffer_s=10.0)
    fb = step(state, SessionConfig(b_max_s=120.0), man, constant_trace(1000.0), 1)
    rec = state.history[0]
    assert rec.download_s == pytest.approx(3.0, abs=1e-12)
    assert rec.delta_s == 0.0
    assert rec.buffer_after_s == pytest.approx(9.0, abs=1e-12)
    assert not rec.stall
    assert fb.buffer_s == rec.buffer_after_s
    assert fb.realized_rate_kbps == pytest.approx(1000.0, abs=1e-9)


def test_step_overflow_delay():
    # buffer 119, download 0.5 s, V = 2, cap 120: delay 0.5, buffer exactly 120
    man = Manifest(2.0, (250.0, 500.0), [[500.0, 1000.0]])
    state = OracleState(buffer_s=119.0)
    step(state, SessionConfig(b_max_s=120.0), man, constant_trace(1000.0), 1)
    rec = state.history[0]
    assert rec.delta_s == pytest.approx(0.5, abs=1e-12)
    assert rec.buffer_after_s == 120.0
    assert state.wall_clock_s == pytest.approx(1.0, abs=1e-12)


def test_stall_and_resume_walkthrough():
    # V = 2, tau = 2, C = 1000 constant; sizes chosen so epoch 1 stalls with
    # an empty buffer, epoch 2 append resumes play-out, epoch 3 drains again
    sizes = [[3000.0, 6000.0], [1000.0, 6000.0], [1000.0, 6000.0]]
    man = Manifest(2.0, (500.0, 3000.0), sizes)
    cfg = SessionConfig(b_max_s=120.0, tau_resume=2)
    tr = constant_trace(1000.0)
    state = OracleState()

    step(state, cfg, man, tr, 1)  # d = 3 > buffer 0: stall begins
    rec = state.history[-1]
    assert rec.stall and rec.stall_s == pytest.approx(3.0)
    assert rec.buffer_after_s == pytest.approx(2.0)
    assert state.stalled and state.segments_since_stall == 1

    step(state, cfg, man, tr, 1)  # paused; second append resumes
    rec = state.history[-1]
    assert not rec.stall  # indicator is about underflow, not the pause
    assert rec.stall_s == pytest.approx(1.0)  # whole download spent paused
    assert rec.buffer_after_s == pytest.approx(4.0)  # no drain while paused
    assert not state.stalled

    step(state, cfg, man, tr, 1)  # playing again: drains normally
    rec = state.history[-1]
    assert rec.stall_s == 0.0
    assert rec.buffer_after_s == pytest.approx(5.0)


def test_tau_one_resumes_immediately():
    man = Manifest(2.0, (500.0, 3000.0), [[3000.0, 6000.0], [1000.0, 6000.0]])
    cfg = SessionConfig(b_max_s=120.0, tau_resume=1)
    state = OracleState()
    step(state, cfg, man, constant_trace(1000.0), 1)
    assert not state.stalled
    step(state, cfg, man, constant_trace(1000.0), 1)
    assert state.history[-1].stall_s == 0.0


def test_step_validation():
    man = cbr_manifest(2)
    cfg = SessionConfig(b_max_s=120.0)
    tr = constant_trace(1000.0)
    with pytest.raises(ValueError, match="quality index"):
        step(OracleState(), cfg, man, tr, 0)
    with pytest.raises(ValueError, match="quality index"):
        step(OracleState(), cfg, man, tr, 3)
    state = OracleState()
    step(state, cfg, man, tr, 1)
    step(state, cfg, man, tr, 1)
    with pytest.raises(ValueError, match="^epoch 3 beyond horizon 2$"):
        step(state, cfg, man, tr, 1)
    with pytest.raises(ValueError, match="segment duration"):
        step(OracleState(), SessionConfig(b_max_s=1.0), man, tr, 1)


def test_config_validation():
    # a bool is not a time: True once ran as a 1 s bound
    for bad in (math.nan, math.inf, 0.0, -1.0, True):
        with pytest.raises(ValueError) as info:
            SessionConfig(b_max_s=bad)
        assert str(info.value) == f"b_max_s must be positive and finite, got {bad!r}"
    # with a tau_resume of nan or inf, playback would never resume after a stall
    for bad in (math.nan, math.inf, 1.5, 0, True):
        with pytest.raises(ValueError) as info:
            SessionConfig(b_max_s=10.0, tau_resume=bad)
        assert str(info.value) == f"tau_resume must be an integer >= 1, got {bad!r}"
    assert SessionConfig(b_max_s=10.0, tau_resume=np.int64(3)).tau_resume == 3


# ---------------------------------------------------------------------------
# whole sessions


def test_sawtooth_under_constant_channel():
    # level 1 always: d = 1 s, V = 2 s: starting warm with 2 s buffered, the
    # buffer climbs by 1 per epoch, hits the 6 s cap, then every epoch is
    # delayed by exactly 1 s
    man = cbr_manifest(12, bitrates=(500.0, 2000.0))  # sizes 1000, 4000
    cfg = SessionConfig(b_max_s=6.0)
    state = OracleState(buffer_s=2.0)
    for _ in range(12):
        step(state, cfg, man, constant_trace(1000.0), 1)
    buffers = [r.buffer_after_s for r in state.history]
    assert buffers[:6] == pytest.approx([3.0, 4.0, 5.0, 6.0, 6.0, 6.0])
    deltas = [r.delta_s for r in state.history]
    assert deltas[:3] == pytest.approx([0.0, 0.0, 0.0])
    assert all(d == pytest.approx(1.0) for d in deltas[4:])
    assert not any(r.stall for r in state.history)
    assert_buffer_law(state.history, cfg.b_max_s)
    assert state.wall_clock_s == sum(r.download_s + r.delta_s for r in state.history)


def test_starvation_stalls_almost_every_epoch():
    man = cbr_manifest(20, bitrates=(1000.0, 20000.0))  # top size 40000 kbit
    cfg = SessionConfig(b_max_s=120.0, tau_resume=2)
    state = run_session(ScriptedPolicy([2] * 20), cfg, man, constant_trace(500.0))
    stalls = sum(r.stall for r in state.history)
    assert stalls >= 18
    assert_buffer_law(state.history, cfg.b_max_s)


def test_a_session_returns_its_records_and_its_wall_clock():
    man = cbr_manifest(3)
    state = run_session(ScriptedPolicy([1, 2, 1]), SessionConfig(b_max_s=20.0), man, constant_trace(1000.0))
    assert [f.name for f in dataclasses.fields(state)] == ["wall_clock_s", "history"]
    assert [r.x for r in state.history] == [1, 2, 1]
    assert state.wall_clock_s == sum(r.download_s + r.delta_s for r in state.history)
    # the final buffer is the last record's; there is no second copy to set
    with pytest.raises(AttributeError):
        state.buffer_s = 0.0


def test_a_script_that_ends_before_the_manifest_is_a_value_error():
    man, trace, cfg = cbr_manifest(5), constant_trace(5000.0), SessionConfig(b_max_s=20.0)
    with pytest.raises(ValueError, match="^ScriptedPolicy: the script ended after 0 indices$"):
        ScriptedPolicy([]).decide(None)
    with pytest.raises(ValueError, match="^ScriptedPolicy: the script ended after 2 indices$"):
        run_session(ScriptedPolicy([1, 2]), cfg, man, trace)
    # inside map, a StopIteration would end the iteration after the first
    # session and drop the second without an error
    with pytest.raises(ValueError, match="^ScriptedPolicy: the script ended after 2 indices$"):
        list(map(lambda policy: run_session(policy, cfg, man, trace),
                 [ScriptedPolicy([1] * 5), ScriptedPolicy([1, 2])]))


def test_empty_horizon():
    # a manifest holds at least one segment, so no session has an empty horizon
    with pytest.raises(ValueError, match="^num_segments must be an integer >= 1, got 0"):
        cbr_manifest(0)


def test_a_download_that_never_ends_stops_the_session():
    # 1e10 kbit at 1e-300 kbps overflows to an infinite download time
    man = Manifest(2.0, (1000.0, 2000.0), [[1e10, 2e10]] * 3)
    trace = ChannelTrace(np.array([0.0, 1.0]), np.array([1e-300, 1e-300]))
    with pytest.raises(ValueError, match=r"^epoch 2: download start time must be finite, got inf$"):
        run_session(ScriptedPolicy([1, 1, 1]), SessionConfig(b_max_s=20.0), man, trace)


@pytest.mark.parametrize("segments", [1, 2], ids=["one-segment", "two-segments"])
def test_bmax_below_segment_duration_is_rejected_before_any_decision(segments):
    decided = []

    class Recording:
        def decide(self, feedback):
            decided.append(feedback)
            return 1

    with pytest.raises(ValueError, match="^b_max_s smaller than the segment duration$"):
        run_session(Recording(), SessionConfig(b_max_s=1.0), cbr_manifest(segments), constant_trace(1000.0))
    assert decided == []


def test_each_feedback_carries_the_manifest_row_of_its_segment():
    man = synthesize_manifest(30, PAPER_LADDER, 2.0, vbr_jitter=0.2, seed=2)
    feedbacks = []

    class Recording:
        def decide(self, feedback):
            feedbacks.append(feedback)
            return 3

    history = run_session(Recording(), SessionConfig(b_max_s=20.0), man, constant_trace(4000.0)).history
    assert feedbacks[0] is None and len(feedbacks) == man.num_segments
    # epoch t's feedback reaches decision t + 1 as a plain tuple in
    # EpochFeedback's order, carrying the row itself: the rows are built
    # once by the manifest and shared, not rebuilt
    for t, (feedback, rec) in enumerate(zip(feedbacks[1:], history), 1):
        assert type(feedback) is tuple and len(feedback) == 3
        assert feedback[0] == rec.rate_kbps and feedback[2] == rec.buffer_after_s
        assert feedback[1] is man.rows[t - 1]


def test_a_policy_without_omega_when_the_session_starts_logs_none():
    # omega is looked for once, before the first decide: one set later is not read
    class LateOmega:
        def decide(self, feedback):
            self.omega = (1.0, 0.0)
            return 1

    history = run_session(LateOmega(), SessionConfig(b_max_s=20.0), cbr_manifest(5), constant_trace(1000.0)).history
    assert [rec.omega for rec in history] == [None] * 5


def test_an_attribute_error_inside_omega_mid_session_propagates():
    class LosesOmega:
        decided = 0

        def decide(self, feedback):
            self.decided += 1
            return 1

        @property
        def omega(self):
            if self.decided == 3:
                raise AttributeError("omega lost at decision 3")
            return (1.0, 0.0)

    with pytest.raises(AttributeError, match="^omega lost at decision 3$"):
        run_session(LosesOmega(), SessionConfig(b_max_s=20.0), cbr_manifest(5), constant_trace(1000.0))


def test_wall_clock_identity_on_markovian():
    man = synthesize_manifest(80, (370, 750, 1500, 3000), 2.0, vbr_jitter=0.1, seed=1)
    trace = generate_markovian(2000, 750, 23000, 0.05, 1.0, seed=5)
    cfg = SessionConfig(b_max_s=20.0, tau_resume=2)
    policy = L2APolicy(man.bitrates_kbps, 2.0, 20.0, 80)
    state = run_session(policy, cfg, man, trace)
    total = 0.0
    for rec in state.history:
        total += rec.download_s + rec.delta_s
    assert state.wall_clock_s == total
    assert_buffer_law(state.history, cfg.b_max_s)


def test_records_are_immutable():
    record = EpochRecord(1, 2, 750.0, 1500.0, 3000.0, 0.5, 0.0, 0.0, 2.0, True, 0.5)
    assert record.omega is None
    assert record == EpochRecord(
        t=1, x=2, bitrate_kbps=750.0, size_kbit=1500.0, rate_kbps=3000.0, download_s=0.5,
        delta_s=0.0, buffer_before_s=0.0, buffer_after_s=2.0, stall=True, stall_s=0.5,
    )
    feedback = EpochFeedback(3000.0, (1000.0, 1500.0), 2.0)
    result = DownloadResult(0.5, 3000.0)
    for rec in (record, feedback, result):
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))


def test_replay_reproduces_log():
    man = synthesize_manifest(60, (370, 750, 1500, 3000), 2.0, vbr_jitter=0.1, seed=2)
    trace = generate_markovian(1500, 750, 23000, 0.05, 1.0, seed=6)
    cfg = SessionConfig(b_max_s=120.0, tau_resume=2)
    first = run_session(L2APolicy(man.bitrates_kbps, 2.0, 120.0, 60), cfg, man, trace)
    replay = run_session(ScriptedPolicy([r.x for r in first.history]), cfg, man, trace)
    for a, b in zip(first.history, replay.history):
        assert a._replace(omega=None) == b._replace(omega=None)
    assert replay.wall_clock_s == first.wall_clock_s


@settings(max_examples=200, deadline=None)
@given(tau=st.integers(1, 5), segments=st.integers(1, 8), levels=st.integers(2, 3), data=st.data())
def test_a_log_replays_to_itself_under_the_tau_of_its_startup_pause(tau, segments, levels, data):
    # T <= tau included: a session that never leaves its pause reads as tau = T
    v = data.draw(st.sampled_from([0.5, 2.0]))
    b_max = v * data.draw(st.sampled_from([1.0, 1.5, 4.0, 60.0]))
    sizes = np.sort(data.draw(arrays(float, (segments, levels), elements=st.floats(1.0, 1e4))), axis=1)
    man = Manifest(v, tuple(1000.0 * level for level in range(1, levels + 1)), sizes)
    steps = data.draw(st.lists(st.floats(0.1, 10.0), max_size=5))
    rates = data.draw(st.lists(st.floats(1.0, 1e4), min_size=len(steps) + 1, max_size=len(steps) + 1))
    trace = ChannelTrace(np.cumsum([0.0, *steps]), np.array(rates))
    script = data.draw(st.lists(st.integers(1, levels), min_size=segments, max_size=segments))
    log = run_session(ScriptedPolicy(script), SessionConfig(b_max, tau), man, trace).history
    assert _startup_pause(log) == min(tau, segments)
    _check_replay(log, man, trace, b_max, "log")


def test_log_csv_roundtrip(tmp_path):
    man = synthesize_manifest(30, (370, 750, 1500), 2.0, vbr_jitter=0.1, seed=3)
    trace = generate_markovian(800, 750, 23000, 0.05, 1.0, seed=7)
    cfg = SessionConfig(b_max_s=120.0)
    state = run_session(ScriptedPolicy([1, 2, 3] * 10), cfg, man, trace)
    path = tmp_path / "log.csv"
    export_log_csv(state.history, path)
    back = read_log_csv(path)
    assert len(back) == 30
    for a, b in zip(state.history, back):
        assert a._replace(omega=None) == b


@pytest.mark.parametrize(
    "header, expected",
    [
        (",".join(f'"{name}"' for name in LOG_COLUMNS), None),
        (",".join(LOG_COLUMNS[:-1]) + ',"stall_s\r\n"', "expected header"),
        (",".join(LOG_COLUMNS[:-1]) + ',"stall_s\r\n0,1"', "expected header"),
    ],
    ids=["quoted-names", "name-across-a-line-break", "name-across-the-first-row"],
)
def test_log_csv_reads_the_header_as_csv_does(tmp_path, header, expected):
    # each name is read as csv reads the header row, which may span lines: a
    # name quoted across a line break holds the line break, so it is not a
    # log column's name, and no row is parsed from inside the header
    path = tmp_path / "log.csv"
    export_log_csv(closed_form_history("rb")[:3], path)
    body = path.read_bytes().decode().split("\r\n", 1)[1]
    path.write_text(header + "\r\n" + body, newline="")
    outcome = read_outcome(read_log_csv, path)
    assert outcome == read_outcome(reference_read_log_csv, path)
    if expected is None:
        assert outcome == [tuple(map(repr, rec._replace(omega=None))) for rec in closed_form_history("rb")[:3]]
    else:
        assert outcome == f"{path}: {expected} {','.join(LOG_COLUMNS)}"


def closed_form_history(abr):
    """A session on inputs from exact arithmetic on small integers (no RNG, no
    libm), so every platform and Python version builds the same records;
    both policies switch and stall in it."""
    ladder, horizon, v, b_max = (370.0, 750.0, 1500.0, 3000.0, 5800.0), 240, 2.0, 20.0
    sizes = [[r * v * (1.0 + ((7 * t + 3 * n) % 11 - 5) / 100.0) for n, r in enumerate(ladder)]
             for t in range(horizon)]
    rates = [(900.0 if (i // 40) % 3 == 0 else 23000.0) + 100.0 * (i % 7) for i in range(2000)]
    policy = RBPolicy(ladder) if abr == "rb" else L2APolicy(ladder, v, b_max, horizon, beta=0.5)
    return run_session(policy, SessionConfig(b_max_s=b_max, tau_resume=2), Manifest(v, ladder, sizes),
                       ChannelTrace(np.arange(2000.0), rates)).history


@pytest.mark.parametrize("abr, digest", [
    ("rb", "d2b61450a1554e1f8534518bff13f0a5cb1a6fb48c2be9d4029bb9b2cfb468de"),
    ("l2a", "a41f1e6825ac38d4ba37a967bb6b29c929dfa74d23eff88a17e2890eeedb34bc"),
], ids=["rb", "l2a"])
def test_exported_log_has_pinned_bytes(tmp_path, abr, digest):
    history = closed_form_history(abr)
    assert len({r.x for r in history}) > 1 and any(r.stall for r in history)
    path = tmp_path / "log.csv"
    export_log_csv(history, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def live_session(abr):
    """A seeded live session (b_max 20 s) on a 0.1 s trace that ends before
    the session does."""
    man = synthesize_manifest(300, PAPER_LADDER, 2.0, vbr_jitter=0.1, seed=16)
    trace = generate_markovian(450, 750, 23000, 0.01, 0.1, seed=16)
    policy = RBPolicy(man.bitrates_kbps) if abr == "rb" else BBPolicy(man, 20.0)
    return run_session(policy, SessionConfig(b_max_s=20.0, tau_resume=2), man, trace), trace


def download_kinds(history, trace):
    """How many downloads end inside their start sample, cross into a later
    sample, and start past the last sample."""
    ts = trace.timestamps_s.tolist()
    kinds = {"inside": 0, "cross": 0, "past": 0}
    clock = 0.0
    for rec in history:
        i = bisect.bisect_right(ts, clock) - 1
        kind = "past" if i == len(ts) - 1 else "cross" if clock + rec.download_s > ts[i + 1] else "inside"
        kinds[kind] += 1
        clock += rec.download_s + rec.delta_s
    return kinds


def state_bytes(state):
    """Every field of every record, then the wall clock, as <f8; ω, None in
    an rb or bb session, is left out."""
    return (np.array([rec[:-1] for rec in state.history], dtype="<f8").tobytes()
            + np.array([state.wall_clock_s], dtype="<f8").tobytes())


@pytest.mark.parametrize("abr, digest", [
    ("rb", "d0210a47e21d2c40ae48a56e30d51d74f1b0ab5f43ebb63e5124b42ef91a7821"),
    ("bb", "87b05de135e039691e428582ab5edc03ed64ffbe8c39d315f0be0866dd1a82d9"),
], ids=["rb", "bb"])
def test_live_session_has_pinned_bytes(abr, digest):
    # numpy's Generator streams and the elementwise arithmetic of the
    # generators are the same on every platform, so the inputs are too
    state, trace = live_session(abr)
    kinds = download_kinds(state.history, trace)
    assert any(r.stall for r in state.history)
    assert all(r.omega is None for r in state.history)
    assert min(kinds.values()) > 0, kinds
    assert hashlib.sha256(state_bytes(state)).hexdigest() == digest


def test_log_text_of_numpy_scalars_and_extreme_floats(tmp_path):
    plain = EpochRecord(1, 3, 1e16, 0.30000000000000004, 5e-324, 1e-05, 0.0, 0.0, 123456789.125, True, 2.5)
    second = plain._replace(t=2, stall=False, delta_s=1.7976931348623157e308)
    expected = (b"t,x_t,r_kbps,size_kbit,C_kbps,download_s,delta_s,buffer_s,stall,stall_s\r\n"
                b"1,3,1e+16,0.30000000000000004,5e-324,1e-05,0.0,123456789.125,1,2.5\r\n"
                b"2,3,1e+16,0.30000000000000004,5e-324,1e-05,1.7976931348623157e+308,123456789.125,0,2.5\r\n")

    def numpy_scalars(rec):
        return EpochRecord(*(np.bool_(v) if isinstance(v, bool) else np.int64(v) if isinstance(v, int)
                             else np.float64(v) for v in rec[:-1]))

    assert [type(v) for v in numpy_scalars(plain)[:3]] == [np.int64, np.int64, np.float64]
    assert type(numpy_scalars(plain).stall) is np.bool_
    path = tmp_path / "log.csv"
    for history in ([plain, second], [numpy_scalars(plain), numpy_scalars(second)]):
        export_log_csv(history, path)
        assert path.read_bytes() == expected


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("x", 2.7, "epoch 2: x is 2.7, not an integer"),
        ("bitrate_kbps", "370", "epoch 2: bitrate_kbps is '370', not a real number"),
        ("t", 2 ** 63, "epoch 2: t is out of the int64 range"),
        ("rate_kbps", 10 ** 400, "epoch 2: rate_kbps is out of the float range"),
        ("stall", 1, "epoch 2: stall is 1, not a bool"),
        # the reader's rules: each once wrote a log that read_log_csv refused
        ("download_s", math.nan, "epoch 2: download_s is nan; values must be finite"),
        ("t", 5, "epoch 2: t is 5; expected epoch 2"),
    ],
    ids=["float-x", "text-bitrate", "huge-t", "huge-rate", "int-stall", "nan-download", "t-out-of-sequence"],
)
def test_log_writer_refuses_a_value_of_the_wrong_kind(tmp_path, field, value, message):
    # int() and float() once wrote x=2.7 as 2 and the bitrate "370" as 370.0,
    # a log that read back and scored although the history itself did not
    history = closed_form_history("rb")[:3]
    history[1] = history[1]._replace(**{field: value})
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError) as info:
        export_log_csv(history, path)
    assert str(info.value) == message
    assert not path.exists()


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda f: f[:7], "column buffer_s missing; expected 10 fields, got 7"),
        (lambda f: f + ["0.0"], "fields after column stall_s; expected 10 fields, got 11"),
        (lambda f: f[:5] + ["nan"] + f[6:], "column download_s is 'nan'; values must be finite"),
        (lambda f: f[:4] + ["-inf"] + f[5:], "column C_kbps is '-inf'; values must be finite"),
        (lambda f: ["2.5"] + f[1:], "column t: '2.5' is not an integer"),
        (lambda f: f[:8] + ["true"] + f[9:], "column stall: 'true' is not an integer"),
        (lambda f: f[:8] + ["2"] + f[9:], "column stall is '2'; expected 0 or 1"),
        (lambda f: ["3"] + f[1:], "column t is '3'; expected epoch 2"),
        # several faults in one row: the first column in column order is named
        (lambda f: ["3"] + f[1:5] + ["nan"] + f[6:], "column t is '3'; expected epoch 2"),
        (lambda f: f[:4] + ["x"] + f[5:8] + ["2", "inf"], "column C_kbps: 'x' is not a number"),
        (lambda f: f[:8] + ["2", "inf"], "column stall is '2'; expected 0 or 1"),
        # a digit separator, which Python's float() reads and numpy's grammar does not
        (lambda f: f[:3] + ["1_000"] + f[4:], "column size_kbit: '1_000' is not a number"),
    ],
    ids=["short", "long", "nan", "inf", "float-t", "word-stall", "stall-2", "skipped-t",
         "skipped-t-and-nan", "word-rate-and-stall-2", "stall-2-and-inf", "digit-separator"],
)
def test_log_csv_rejects_malformed_row(tmp_path, edit, message):
    man = synthesize_manifest(3, (370, 750), 2.0, vbr_jitter=0.1, seed=3)
    state = run_session(ScriptedPolicy([1, 2, 1]), SessionConfig(b_max_s=120.0), man,
                        constant_trace(1000.0))
    path = tmp_path / "log.csv"
    export_log_csv(state.history, path)
    header, first, second, third = path.read_text().splitlines()
    # a blank line before the bad row: the line number counts it
    bad = ",".join(edit(second.split(",")))
    path.write_text("\n".join([header, first, "", bad, third]) + "\n")
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value) == f"{path}: line 4: {message}"


@pytest.mark.parametrize(
    "column, text",
    [(0, "2.5"), (1, "1e20"), (8, "1.9")],
    ids=["t", "x_t", "stall"],
)
def test_log_csv_rejects_an_integer_read_through_a_float(tmp_path, monkeypatch, column, text):
    # from numpy 1.23 until the deprecation expires, loadtxt reads an integer
    # field such as '2.5' through a float, truncates it and only warns; when
    # that warning is an error, the conversion fails with a ValueError.  This
    # loadtxt does the same on a numpy whose deprecation has expired.
    loadtxt = np.loadtxt

    def loadtxt_via_float(lines, dtype=float, **options):
        lines = list(lines)
        try:
            return loadtxt(lines, dtype=dtype, **options)
        except ValueError as exc:
            as_float = [(name, np.float64) for name in dtype.names] if dtype.names else np.float64
            try:
                table = loadtxt(lines, dtype=as_float, **options)
            except ValueError:
                raise exc from None
        try:
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        except DeprecationWarning as warning:
            raise ValueError("could not convert string to int64") from warning
        return table.astype(dtype)

    monkeypatch.setattr(np, "loadtxt", loadtxt_via_float)
    path = tmp_path / "log.csv"
    export_log_csv(closed_form_history("rb")[:3], path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(_put(lines[2].split(","), column, text))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value) == f"{path}: line 3: column {LOG_COLUMNS[column]}: {text!r} is not an integer"


@pytest.mark.parametrize("spanning, bad, line", [(1, 3, 5), (2, 2, 4)],
                         ids=["bad-row-after", "the-spanning-row"])
def test_log_csv_counts_a_quoted_line_break_as_csv_does(tmp_path, spanning, bad, line):
    # a quoted field that spans a line break keeps its row whole; a row is
    # named by the line it ends on, as csv.reader counts lines
    path = tmp_path / "log.csv"
    export_log_csv(closed_form_history("rb")[:3], path)
    lines = path.read_text().splitlines()
    lines[bad] = ",".join(_put(lines[bad].split(","), 8, "2"))
    stall_s = lines[spanning].rindex(",") + 1
    lines[spanning] = lines[spanning][:stall_s] + '"' + lines[spanning][stall_s:] + '\n"'
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value) == f"{path}: line {line}: column stall is '2'; expected 0 or 1"


def test_log_csv_reports_the_first_bad_row_and_reads_the_file_once(tmp_path, monkeypatch):
    # a row that breaks a rule before one that cannot be parsed: the rows
    # before the unparseable one are checked first, from the open handle
    path = tmp_path / "log.csv"
    export_log_csv(closed_form_history("rb")[:6], path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3][:lines[3].rindex(",")] + ",inf"
    lines[5] = lines[5].replace(",", ",abc,", 1)
    path.write_text("\n".join(lines) + "\n")
    opened = []
    real_open = open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value) == f"{path}: line 4: column stall_s is 'inf'; values must be finite"
    assert opened == [path]


def test_log_csv_describes_a_nul_byte_on_every_python(tmp_path):
    # csv reads NUL as an ordinary character: the message keeps it
    path = tmp_path / "log.csv"
    export_log_csv(closed_form_history("rb")[:3], path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(_put(lines[2].split(","), 3, "2\x000"))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value) == f"{path}: line 3: column size_kbit: '2\\x000' is not a number"


def test_log_csv_describes_a_field_past_csv_limit(tmp_path):
    # csv's field limit once escaped the failure path as a csv.Error; the
    # message quotes a long field by its start and its length, and the limit
    # is restored
    limit = csv.field_size_limit()
    path = tmp_path / "log.csv"
    export_log_csv(closed_form_history("rb")[:3], path)
    lines = path.read_text().splitlines()
    lines[2] = ",".join(_put(lines[2].split(","), 3, "x" * 200_000))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert (str(info.value) == f"{path}: line 3: column size_kbit: '{'x' * 32}'... (200000 characters)"
            " is not a number")
    assert csv.field_size_limit() == limit


@pytest.mark.parametrize("column, text", [(8, "2"), (9, "inf")], ids=["stall-2", "inf"])
def test_log_csv_does_not_bisect_a_file_that_parsed(tmp_path, monkeypatch, column, text):
    # a row that parses but breaks a rule is found in the parsed table: the
    # whole-file parse, from the file's name, is the only one of the table,
    # and only the bad row's fields are parsed again, each alone, to name the
    # column
    path = tmp_path / "log.csv"
    export_log_csv(closed_form_history("rb")[:6], path)
    lines = path.read_text().splitlines()
    lines[4] = ",".join(_put(lines[4].split(","), column, text))
    path.write_text("\n".join(lines) + "\n")
    calls = record_parses(monkeypatch)
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value).startswith(f"{path}: line 5: column {LOG_COLUMNS[column]} is {text!r}")
    assert calls[0] == ("path", None)
    assert calls[1:] == [([lines[4] + "\n"], None)] * (column + 1)


def test_log_csv_names_the_line_of_an_undecodable_byte(tmp_path):
    man = synthesize_manifest(3, (370, 750), 2.0, vbr_jitter=0.1, seed=3)
    state = run_session(ScriptedPolicy([1, 2, 1]), SessionConfig(b_max_s=120.0), man,
                        constant_trace(1000.0))
    path = tmp_path / "log.csv"
    export_log_csv(state.history, path)
    data = path.read_bytes()
    third = data.index(b"\n3,")
    path.write_bytes(data[:third] + b"\n3,\xff" + data[third + 3:])
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value).startswith(f"{path}: line 4: 'utf-8' codec can't decode byte 0xff ")


@pytest.mark.parametrize(
    "bad, byte, expected",
    [
        (4, 2501, "line 4: column stall is '2'; expected 0 or 1"),
        (2502, 2501, "line 2501: 'utf-8' codec can't decode byte 0xff "),
        (3, 5, "line 3: column stall is '2'; expected 0 or 1"),
        (None, 1, "line 1: 'utf-8' codec can't decode byte 0xff "),
    ],
    ids=["row-before-a-later-byte", "row-after-the-byte", "both-in-the-first-chunk", "byte-in-the-header"],
)
def test_log_csv_reports_a_bad_row_and_an_undecodable_byte_in_file_order(tmp_path, bad, byte, expected):
    lines = [",".join(LOG_COLUMNS).encode()]
    lines += [f"{t},1,1000.0,2000.0,1000.0,2.0,0.0,2.0,0,0.0".encode() for t in range(1, 3001)]
    if bad is not None:
        lines[bad - 1] = lines[bad - 1][:-5] + b"2,0.0"
    lines[byte - 1] = lines[byte - 1].replace(b",", b",\xff", 1)
    path = tmp_path / "log.csv"
    path.write_bytes(b"\r\n".join(lines) + b"\r\n")
    with pytest.raises(ValueError) as info:
        read_log_csv(path)
    assert str(info.value).startswith(f"{path}: {expected}")


def reference_read_log_csv(path):
    """The row loop ``read_log_csv`` ran before it parsed with ``np.loadtxt``:
    ``csv.reader``, then ``int()`` or ``float()`` per field in column order,
    each field checked as it is parsed."""
    types = (int, int, float, float, float, float, float, float, int, float)
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != LOG_COLUMNS:
            raise ValueError(f"{path}: expected header {','.join(LOG_COLUMNS)}")

        def bad_row(message):
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
            for name, parse, text in zip(LOG_COLUMNS, types, row):
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
            records.append(EpochRecord(t, x, bitrate, size, rate, download, delta,
                                       buffer_before, buffer_after, bool(stall), stall_s))
            buffer_before = buffer_after
    return records


INT_COLUMNS = (0, 1, 8)  # t, x_t, stall
FLOAT_COLUMNS = (2, 3, 4, 5, 6, 7, 9)
# faults that both readers name alike: each takes the row's fields, its
# epoch and a column index drawn at random, and returns the bad row
LOG_FAULTS = {
    "short": lambda f, t, j: f[:j],
    # a field of the row repeated; after "short" the row may hold fewer than j
    "long": lambda f, t, j: [*f, f[j % len(f)] if f else "1"],
    "nan": lambda f, t, j: _put(f, FLOAT_COLUMNS[j % 7], "nan"),
    "inf": lambda f, t, j: _put(f, FLOAT_COLUMNS[j % 7], "-inf" if j % 2 else "Infinity"),
    "float-in-int": lambda f, t, j: _put(f, INT_COLUMNS[j % 3], "1.0" if j % 2 else "2.5"),
    "word": lambda f, t, j: _put(f, j, ["abc", "true", "", "1e"][j % 4]),
    "skipped-t": lambda f, t, j: _put(f, 0, str(t + 1)),
    "stall-2": lambda f, t, j: _put(f, 8, "2" if j % 2 else "-1"),
}
# faults only numpy's grammar rejects (int() and float() accept them): a
# digit separator, a non-ASCII digit, an integer beyond int64.  The reader
# names the field as one it cannot parse; the oracle reads the file.
ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
GRAMMAR_FAULTS = {
    "underscore": lambda f, t, j: (FLOAT_COLUMNS[j % 7], "1_" + f[FLOAT_COLUMNS[j % 7]].strip()),
    "arabic-indic-t": lambda f, t, j: (0, str(t).translate(ARABIC_INDIC)),
    "int64-overflow-x": lambda f, t, j: (1, "1" + "0" * 20),
}


def _put(fields, j, text):
    return [*fields[:j], text, *fields[j + 1:]]



def test_log_faults_compose_on_one_row():
    # two faults may land on one row, in either order and at any column
    row = [str(j) for j in range(len(LOG_COLUMNS))]
    for first, second in itertools.product(LOG_FAULTS.values(), repeat=2):
        for j, k in itertools.product(range(10), repeat=2):
            assert isinstance(second(first(row, 1, j), 1, k), list)

# the record fields the log writes as floats
_FLOAT_FIELDS = ("bitrate_kbps", "size_kbit", "rate_kbps", "download_s", "delta_s", "buffer_after_s", "stall_s")


@settings(max_examples=200, deadline=None)
@given(length=st.integers(1, 12), data=st.data())
def test_the_log_writer_writes_only_what_the_reader_reads(tmp_path_factory, length, data):
    # a history with one float set to NaN or +-inf, or one t moved: the
    # writer refuses it, or the reader reads back every field it wrote
    history = list(closed_form_history(data.draw(st.sampled_from(["rb", "l2a"]))))[:length]
    i = data.draw(st.integers(0, length - 1))
    if data.draw(st.booleans()):
        field = data.draw(st.sampled_from(_FLOAT_FIELDS))
        value = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    else:
        field, value = "t", data.draw(st.integers(-3, length + 3))
    history[i] = history[i]._replace(**{field: value})
    path = tmp_path_factory.getbasetemp() / "written_log.csv"
    path.unlink(missing_ok=True)
    try:
        export_log_csv(history, path)
    except ValueError:
        assert not path.exists()
        return
    assert read_log_csv(path) == [rec._replace(omega=None) for rec in history]


@st.composite
def log_files(draw):
    """The text of a session log: numbers written several ways, either up
    to two faults that both readers report alike (so that the first one in
    file order must be the one named; a row with an extra field is one) or
    one fault only numpy's grammar rejects, and the layout of ``csv_text``,
    which keeps a grammar fault's row on one line.  Returns the text and,
    for a grammar fault, its line and message."""
    n = draw(st.integers(0, 10))
    number = st.floats(0.0, 1e6) | st.sampled_from([0.0, 1e-05, 1e16, 5e-324, 0.30000000000000004])
    spell = st.sampled_from([repr, lambda v: f"{v:.6g}", lambda v: f"{v:.3e}", lambda v: f" {v!r} "])
    int_spell = st.sampled_from([str, lambda v: f" {v} ", lambda v: f"+{v}", lambda v: f"0{v}"])
    rows = []
    for t in range(1, n + 1):
        values = [t, draw(st.integers(1, 8)), *draw(st.lists(number, min_size=6, max_size=6)),
                  draw(st.integers(0, 1)), draw(number)]
        rows.append([draw(int_spell)(v) if j in INT_COLUMNS else draw(spell)(v)
                     for j, v in enumerate(values)])
    grammar = None
    if n and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(sorted(GRAMMAR_FAULTS)))
        j, text = GRAMMAR_FAULTS[kind](rows[i], i + 1, draw(st.integers(0, 9)))
        rows[i] = _put(rows[i], j, text)
        grammar = (i, f"column {LOG_COLUMNS[j]}: {text!r} is not "
                      f"{'an integer' if j in INT_COLUMNS else 'a number'}")
    elif n:
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, n - 1))
            kind = draw(st.sampled_from(sorted(LOG_FAULTS)))
            rows[i] = LOG_FAULTS[kind](rows[i], i + 1, draw(st.integers(0, 9)))
    text, line_of = csv_text(draw, ",".join(LOG_COLUMNS), rows,
                             breakable=lambda i: grammar is None or i != grammar[0])
    return text, grammar and (line_of[grammar[0]], grammar[1])


@settings(max_examples=300, deadline=None)
@given(case=log_files())
def test_read_log_matches_the_row_loop_oracle(tmp_path_factory, case):
    # the text reads as the row loop reads it, but for a fault only numpy's
    # grammar rejects; parsing the body from the file's name gives the
    # records or the message that parsing it line by line from the open
    # handle gave, grammar faults included
    text, grammar = case
    path = tmp_path_factory.getbasetemp() / "oracle_log.csv"
    path.write_bytes(text.encode())
    outcome = read_outcome(read_log_csv, path)
    expected = read_outcome(reference_read_log_csv, path)
    if grammar is None:
        assert outcome == expected
    else:
        line, message = grammar
        assert isinstance(expected, list)
        assert outcome == f"{path}: line {line}: {message}"
    with line_iterated():
        assert read_outcome(read_log_csv, path) == outcome


@settings(max_examples=300, deadline=None)
@given(case=log_files(), at=st.floats(0.0, 1.0))
def test_read_log_matches_the_line_iterated_oracle(tmp_path_factory, case, at):
    # a file with a byte that cannot be decoded, which only the
    # line-iterated reader reads as the package does: the same records or
    # the same message
    path = tmp_path_factory.getbasetemp() / "chunked_log.csv"
    path.write_bytes(with_a_bad_byte(case[0].encode(), at))
    with line_iterated():
        expected = read_outcome(read_log_csv, path)
    assert read_outcome(read_log_csv, path) == expected


# ---------------------------------------------------------------------------
# properties on random traces and manifests


@st.composite
def session_cases(draw):
    """A random manifest, trace and config, and a way to build a fresh policy
    of one of two kinds, L2A or a random script (so that each loop gets its
    own).  The trace is either up to 20 samples 0.05 s to 5 s apart, or 65
    to 2,000 samples as little as 1 ms apart, drawn from a seed: longer than
    the window ``run_session`` searches first, with downloads and delays that
    cross more samples than it, and often ending before the session does."""
    n_levels = draw(st.integers(2, 5))
    n_segments = draw(st.integers(1, 40))
    v = draw(st.floats(0.25, 8.0))
    if draw(st.booleans()):
        steps = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=20))
        throughputs = draw(st.lists(st.floats(10.0, 5e4), min_size=len(steps), max_size=len(steps)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n_samples = draw(st.integers(65, 2000))
        steps = draw(st.sampled_from([0.001, 0.01, 0.1, 1.0])) * rng.uniform(0.5, 2.0, n_samples)
        throughputs = rng.uniform(10.0, 5e4, n_samples)
    trace = ChannelTrace(np.concatenate(([0.0], np.cumsum(steps[:-1]))), np.array(throughputs))
    first_rate = draw(st.floats(50.0, 5000.0))
    ratios = draw(st.lists(st.floats(1.01, 4.0), min_size=n_levels - 1, max_size=n_levels - 1))
    rates = tuple(np.cumprod([first_rate, *ratios]).tolist())
    sizes = draw(arrays(float, (n_segments, n_levels), elements=st.floats(1.0, 1e5)))
    man = Manifest(v, rates, np.sort(sizes, axis=1))
    cfg = SessionConfig(b_max_s=draw(st.floats(v, 8.0 * v)), tau_resume=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        beta = draw(st.sampled_from([1.0, 0.3]))
        make = lambda: L2APolicy(rates, v, cfg.b_max_s, n_segments, beta=beta)  # noqa: E731
    else:
        script = draw(st.lists(st.integers(1, n_levels), min_size=n_segments, max_size=n_segments))
        make = lambda: ScriptedPolicy(script)  # noqa: E731
    return man, trace, cfg, make


# ---------------------------------------------------------------------------
# run_session against the loop of the oracle's step and download


class OmegaRecorder:
    """Delegates to ``policy`` and keeps the ``omega`` it exposes after each
    ``decide``, which is what the epoch's record must hold."""

    def __init__(self, policy):
        self.policy = policy
        self.seen = []

    def decide(self, feedback):
        x = self.policy.decide(feedback)
        self.seen.append(getattr(self.policy, "omega", None))
        return x

    @property
    def omega(self):
        return getattr(self.policy, "omega", None)


@st.composite
def oracle_cases(draw):
    """A VBR manifest with 2 to 8 levels, a two-state trace with 1 s or 0.1 s
    steps that may end before the session does, a b_max from V to 120 s, a
    tau from 1 to 3, and a way to build a fresh policy of one of the four
    kinds (so that each loop gets its own)."""
    n_levels = draw(st.integers(2, 8))
    horizon = draw(st.integers(1, 60))
    v = draw(st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.5, 6.0))
    ratios = draw(st.lists(st.floats(1.05, 3.0), min_size=n_levels - 1, max_size=n_levels - 1))
    rates = tuple(np.cumprod([draw(st.floats(100.0, 2000.0)), *ratios]).tolist())
    man = synthesize_manifest(horizon, rates, v, vbr_jitter=draw(st.floats(0.0, 0.45)),
                              seed=draw(st.integers(0, 2**16)))
    step_s = draw(st.sampled_from([1.0, 0.1]))
    duration = draw(st.floats(2 * step_s, max(2 * step_s, 2.0 * horizon * v)))
    low = draw(st.floats(50.0, 3000.0))
    trace = generate_markovian(duration, low, low * draw(st.floats(1.5, 40.0)),
                               draw(st.floats(0.01, 0.5)), step_s, seed=draw(st.integers(0, 2**16)))
    cfg = SessionConfig(b_max_s=draw(st.floats(v, 120.0)), tau_resume=draw(st.integers(1, 3)))
    kind = draw(st.sampled_from(["scripted", "rb", "bb", "l2a"]))
    if kind == "scripted":
        script = draw(st.lists(st.integers(1, n_levels), min_size=horizon, max_size=horizon))
        make = lambda: ScriptedPolicy(script)  # noqa: E731
    elif kind == "rb":
        make = lambda: RBPolicy(rates)  # noqa: E731
    elif kind == "bb":
        make = lambda: BBPolicy(man, cfg.b_max_s)  # noqa: E731
    else:
        beta = draw(st.sampled_from([1.0, 0.3]))
        make = lambda: L2APolicy(rates, v, cfg.b_max_s, horizon, beta=beta)  # noqa: E731
    return man, trace, cfg, make


def record_hex(rec):
    """Every field of a record, floats by ``float.hex``; ω as its float.hex
    tuple, or None."""
    t, x, *floats, stall, stall_s, omega = rec
    return (t, x, *map(float.hex, floats), stall, float.hex(stall_s),
            None if omega is None else tuple(map(float.hex, omega)))


def check_session(case, tmp_path_factory):
    """Run ``case`` through ``run_session`` and check it against the step
    oracle bit for bit and against the session's laws."""
    man, trace, cfg, make = case
    policy = OmegaRecorder(make())
    state = run_session(policy, cfg, man, trace)
    history = state.history
    oracle = run_oracle(make(), cfg, man, trace)
    assert [record_hex(r) for r in history] == [record_hex(r) for r in oracle.history]
    assert [type(r.stall) for r in history] == [bool] * man.num_segments
    # each record holds the very tuple the policy exposed after that epoch's decide
    assert len(policy.seen) == man.num_segments
    assert all(rec.omega is omega for rec, omega in zip(history, policy.seen))
    assert type(state.wall_clock_s) is type(oracle.wall_clock_s) is float
    assert state.wall_clock_s.hex() == oracle.wall_clock_s.hex()
    # the buffer stays in [0, b_max] at every boundary, and the delay law holds
    assert_buffer_law(history, cfg.b_max_s)
    assert state.wall_clock_s == sum(r.download_s + r.delta_s for r in history)
    for rec in history:
        assert rec.stall == (rec.buffer_before_s < rec.download_s)
    # replaying the logged choices reproduces every record but the distribution
    replay = run_session(ScriptedPolicy([r.x for r in history]), cfg, man, trace)
    assert replay.history == [r._replace(omega=None) for r in history]
    assert replay.wall_clock_s == state.wall_clock_s
    # the CSV log reads back every field it carries exactly
    path = tmp_path_factory.getbasetemp() / "property_log.csv"
    export_log_csv(history, path)
    assert read_log_csv(path) == replay.history


@settings(max_examples=400, deadline=None)
@given(oracle_cases())
def test_run_session_matches_the_step_oracle_bit_for_bit(tmp_path_factory, case):
    check_session(case, tmp_path_factory)


@settings(max_examples=200, deadline=None)
@given(session_cases())
def test_session_properties_on_random_inputs(tmp_path_factory, case):
    # the odd manifests and traces of session_cases, under the same checks
    check_session(case, tmp_path_factory)


@settings(max_examples=50, deadline=None)
@given(n_levels=st.integers(2, 8), horizon=st.integers(1, 12), data=st.data())
def test_run_session_rejects_an_index_off_the_ladder_as_the_oracle_does(n_levels, horizon, data):
    man = synthesize_manifest(horizon, np.cumprod([300.0] + [2.0] * (n_levels - 1)).tolist(), 2.0,
                              vbr_jitter=0.1, seed=horizon)
    trace = generate_markovian(60, 750, 23000, 0.1, 0.1, seed=n_levels)
    bad_at = data.draw(st.integers(0, horizon - 1))
    script = [1] * bad_at + [data.draw(st.sampled_from([0, n_levels + 1]))]
    messages = []
    for run in (run_session, run_oracle):
        with pytest.raises(ValueError, match=r"^epoch \d+: quality index -?\d+ outside 1\.\.\d+$") as info:
            run(ScriptedPolicy(script), SessionConfig(b_max_s=20.0), man, trace)
        messages.append(str(info.value))
    assert messages[0] == messages[1] == f"epoch {bad_at + 1}: quality index {script[-1]} outside 1..{n_levels}"


@pytest.mark.parametrize("x", [2.0, 1.5, np.float64(2.0), "2", None], ids=["2.0", "1.5", "float64", "str", "None"])
def test_run_session_rejects_an_index_that_is_not_an_integer(x):
    # 2.0 once ended in memoryview's TypeError, and "2" or None in the
    # comparison's; an integer of any integral type plays as that integer
    man, trace, config = cbr_manifest(5), constant_trace(5000.0), SessionConfig(b_max_s=20.0)
    with pytest.raises(ValueError, match=f"^epoch 3: quality index {re.escape(repr(x))} is not an integer$"):
        run_session(ScriptedPolicy([1, 2, x, 1, 2]), config, man, trace)
    played = run_session(ScriptedPolicy([True, np.int64(2), 1, np.int8(1), 2]), config, man, trace).history
    plain = run_session(ScriptedPolicy([1, 2, 1, 1, 2]), config, man, trace).history
    assert played == plain


# ---------------------------------------------------------------------------
# SessionLog, the history that run_session and read_log_csv return


def short_history(source, tmp_path):
    """A 50-epoch live history: a session of l2a (beta 1), rb or bb, or the rb
    session's exported log as ``read_log_csv`` reads it back."""
    man = synthesize_manifest(50, PAPER_LADDER, 2.0, vbr_jitter=0.1, seed=4)
    trace = generate_markovian(300, 750, 23000, 0.05, 0.1, seed=4)
    policy = {
        "l2a": lambda: L2APolicy(man.bitrates_kbps, 2.0, 20.0, 50, beta=1.0),
        "bb": lambda: BBPolicy(man, 20.0),
    }.get(source, lambda: RBPolicy(man.bitrates_kbps))()
    history = run_session(policy, SessionConfig(b_max_s=20.0, tau_resume=2), man, trace).history
    if source != "read_log_csv":
        return history
    path = tmp_path / f"{source}.csv"
    export_log_csv(history, path)
    return read_log_csv(path)


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="gc.is_tracked and the untracking of exact tuples by the collector are CPython's")
@pytest.mark.parametrize("source", ["l2a", "rb", "bb", "read_log_csv"])
def test_no_row_of_a_history_stays_tracked_by_the_gc(tmp_path, source):
    # an object the collector keeps tracked is walked by every full
    # collection for as long as the history lives; a field that is not an
    # atom or an exact tuple of atoms (a list, a NamedTuple) would stay tracked
    history = short_history(source, tmp_path)
    assert len({rec.x for rec in history}) > 1 and (source == "l2a") == (history[0].omega is not None)
    # the history holds one object, its flat list of fields, and no row
    flat = history._flat
    width = len(EpochRecord._fields)
    held = [obj for obj in gc.get_referents(history) if obj is not SessionLog]
    assert len(held) == 1 and held[0] is flat and len(flat) == width * len(history)
    # a collection untracks an exact tuple once it finds every item
    # untracked, so a tuple examined before a tuple it holds needs a second
    gc.collect()
    gc.collect()
    assert [i // width + 1 for i, value in enumerate(flat) if gc.is_tracked(value)] == []


@pytest.mark.skipif(platform.python_implementation() != "CPython",
                    reason="the generation-0 count of allocations less deallocations is CPython's")
@pytest.mark.parametrize("method", ["rb", "bb"])
def test_a_baseline_session_starts_no_young_collection(method):
    # a session that keeps nothing GC-tracked per epoch leaves the young
    # generation's count where it was: the objects of an epoch die with it
    man = synthesize_manifest(3000, PAPER_LADDER, 2.0, vbr_jitter=0.1, seed=4)
    trace = generate_markovian(12000, 750, 23000, 0.05, 0.1, seed=4)
    policy = BBPolicy(man, 20.0) if method == "bb" else RBPolicy(man.bitrates_kbps)
    config = SessionConfig(b_max_s=20.0)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.callbacks.append(count)
    try:
        history = run_session(policy, config, man, trace).history
    finally:
        gc.callbacks.remove(count)
    assert len(history) == 3000 and any(rec.stall for rec in history)
    assert started == []


@pytest.mark.parametrize("source", ["l2a", "read_log_csv", "empty"])
def test_a_session_log_keeps_the_list_contract(tmp_path, source):
    log = SessionLog() if source == "empty" else short_history(source, tmp_path)
    again = SessionLog() if source == "empty" else short_history(source, tmp_path)
    records = list(log)
    assert len(log) == len(records) == (0 if source == "empty" else 50)
    assert bool(log) is (source != "empty")
    assert all(type(rec) is EpochRecord for rec in records)
    if records:
        assert type(log[0]) is type(log[-1]) is EpochRecord
        assert (log[0], log[-1]) == (records[0], records[-1])
        assert log != records[:-1] and records[:-1] != log
    else:
        with pytest.raises(IndexError):
            log[0]
    sliced = log[1:-1:2]
    assert type(sliced) is list and sliced == records[1:-1:2]
    assert all(type(rec) is EpochRecord for rec in sliced)
    assert log == records and records == log
    assert log == again and again == log
    export_log_csv(log, tmp_path / "log.csv")
    export_log_csv(records, tmp_path / "list.csv")
    assert (tmp_path / "log.csv").read_bytes() == (tmp_path / "list.csv").read_bytes()


@pytest.fixture(scope="module")
def contract_logs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("contract")
    return {"l2a": short_history("l2a", tmp_path), "read_log_csv": short_history("read_log_csv", tmp_path),
            "empty": SessionLog()}


def read_or_refuse(sequence, key):
    """``sequence[key]``, or IndexError if that raises it."""
    try:
        return sequence[key]
    except IndexError:
        return IndexError


@settings(max_examples=100, deadline=None)
@pytest.mark.parametrize("source", ["l2a", "read_log_csv", "empty"])
@given(data=st.data())
def test_a_session_log_indexes_and_slices_as_a_list(contract_logs, source, data):
    # the flat store computes each record's place itself; a list of the
    # same records is what it must read as
    log = contract_logs[source]
    records = list(log)
    n = len(records)
    for index in range(-n - 1, n + 1):
        got = read_or_refuse(log, index)
        assert got == read_or_refuse(records, index)
        assert got is IndexError or type(got) is EpochRecord
    bound = st.none() | st.integers(-n - 3, n + 3)
    key = slice(data.draw(bound), data.draw(bound), data.draw(st.none() | st.integers(-4, 4).filter(bool)))
    sliced = log[key]
    assert type(sliced) is list and sliced == records[key]
    assert all(type(rec) is EpochRecord for rec in sliced)
    # field i of the store, read without a record, is field i of each record
    columns = _columns(log)
    for name, column in _columns(records).items():
        assert columns[name] == list(column) == [getattr(rec, name) for rec in records]
