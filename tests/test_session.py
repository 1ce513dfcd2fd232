import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from abrsim import (
    ChannelTrace,
    DownloadResult,
    EpochFeedback,
    EpochRecord,
    L2APolicy,
    Manifest,
    ScriptedPolicy,
    SessionConfig,
    SessionState,
    export_log_csv,
    generate_markovian,
    read_log_csv,
    run_session,
    step,
    synthesize_manifest,
)

from conftest import assert_buffer_law, constant_trace


def cbr_manifest(num_segments, bitrates=(1000.0, 2000.0), v=2.0):
    return synthesize_manifest(num_segments, bitrates, v, vbr_jitter=0.0, seed=0)


# ---------------------------------------------------------------------------
# single-step buffer law


def test_step_plain_drain():
    # buffer 10, download 3 s, V = 2: no delay, new buffer 9
    man = Manifest(2.0, (1500.0, 3000.0), [[3000.0, 6000.0]])
    state = SessionState(buffer_s=10.0)
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
    state = SessionState(buffer_s=119.0)
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
    state = SessionState()

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
    state = SessionState()
    step(state, cfg, man, constant_trace(1000.0), 1)
    assert not state.stalled
    step(state, cfg, man, constant_trace(1000.0), 1)
    assert state.history[-1].stall_s == 0.0


def test_step_validation():
    man = cbr_manifest(2)
    cfg = SessionConfig(b_max_s=120.0)
    tr = constant_trace(1000.0)
    with pytest.raises(ValueError, match="quality index"):
        step(SessionState(), cfg, man, tr, 0)
    with pytest.raises(ValueError, match="quality index"):
        step(SessionState(), cfg, man, tr, 3)
    state = SessionState(epoch_t=3)
    with pytest.raises(ValueError, match="beyond horizon"):
        step(state, cfg, man, tr, 1)
    with pytest.raises(ValueError, match="segment duration"):
        step(SessionState(), SessionConfig(b_max_s=1.0), man, tr, 1)


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(b_max_s=0.0)
    with pytest.raises(ValueError):
        SessionConfig(b_max_s=10.0, tau_resume=0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="SessionConfig.b_max_s must be a finite number"):
            SessionConfig(b_max_s=bad)


# ---------------------------------------------------------------------------
# whole sessions


def test_sawtooth_under_constant_channel():
    # level 1 always: d = 1 s, V = 2 s: starting warm with 2 s buffered, the
    # buffer climbs by 1 per epoch, hits the 6 s cap, then every epoch is
    # delayed by exactly 1 s
    man = cbr_manifest(12, bitrates=(500.0, 2000.0))  # sizes 1000, 4000
    cfg = SessionConfig(b_max_s=6.0)
    state = SessionState(buffer_s=2.0)
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


def test_empty_horizon():
    man = cbr_manifest(0)
    state = run_session(ScriptedPolicy([]), SessionConfig(b_max_s=120.0), man, constant_trace(1000.0))
    assert state.history == []
    assert state.wall_clock_s == 0.0


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
    ],
    ids=["short", "long", "nan", "inf", "float-t", "word-stall", "stall-2", "skipped-t",
         "skipped-t-and-nan", "word-rate-and-stall-2", "stall-2-and-inf"],
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


# ---------------------------------------------------------------------------
# properties on random traces and manifests


@st.composite
def session_cases(draw):
    """A random manifest, trace and config, and the quality choices of either
    L2A or a random script."""
    n_levels = draw(st.integers(2, 5))
    n_segments = draw(st.integers(1, 40))
    v = draw(st.floats(0.25, 8.0))
    steps = draw(st.lists(st.floats(0.05, 5.0), min_size=1, max_size=20))
    throughputs = draw(st.lists(st.floats(10.0, 5e4), min_size=len(steps), max_size=len(steps)))
    trace = ChannelTrace(np.concatenate(([0.0], np.cumsum(steps[:-1]))), np.array(throughputs))
    first_rate = draw(st.floats(50.0, 5000.0))
    ratios = draw(st.lists(st.floats(1.01, 4.0), min_size=n_levels - 1, max_size=n_levels - 1))
    rates = tuple(np.cumprod([first_rate, *ratios]).tolist())
    sizes = draw(arrays(float, (n_segments, n_levels), elements=st.floats(1.0, 1e5)))
    man = Manifest(v, rates, np.sort(sizes, axis=1))
    cfg = SessionConfig(b_max_s=draw(st.floats(v, 8.0 * v)), tau_resume=draw(st.integers(1, 3)))
    if draw(st.booleans()):
        policy = L2APolicy(rates, v, cfg.b_max_s, n_segments, beta=draw(st.sampled_from([1.0, 0.3])))
    else:
        policy = ScriptedPolicy(draw(st.lists(
            st.integers(1, n_levels), min_size=n_segments, max_size=n_segments)))
    return man, trace, cfg, policy


@settings(max_examples=100, deadline=None)
@given(session_cases())
def test_session_properties_on_random_inputs(tmp_path_factory, case):
    man, trace, cfg, policy = case
    state = run_session(policy, cfg, man, trace)
    history = state.history
    assert len(history) == man.num_segments
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
