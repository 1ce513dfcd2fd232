import hashlib
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim import (
    BBPolicy,
    BBState,
    EpochFeedback,
    L2APolicy,
    Manifest,
    ManifestError,
    RBPolicy,
    RBState,
    SessionConfig,
    bb_decide,
    derive_bb_parameters,
    generate_markovian,
    run_session,
    synthesize_manifest,
)
from abrsim import baselines
from abrsim.baselines import RB_DEADZONE, RB_EWMA_WEIGHT, RB_KAPPA, RB_PROBE_KBPS

LADDER3 = (1000.0, 2000.0, 4000.0)
PAPER_LADDER = (370.0, 750.0, 1500.0, 3000.0, 5800.0, 12000.0, 17000.0, 20000.0)


def fb(rate, buffer_s=10.0, sizes=(2000.0, 4000.0, 8000.0)):
    return EpochFeedback(
        realized_rate_kbps=float(rate),
        row_sizes_kbit=tuple(float(s) for s in sizes),
        buffer_s=float(buffer_s),
    )


# ---------------------------------------------------------------------------
# RB


def test_rb_cold_start_is_lowest():
    policy = RBPolicy(LADDER3)
    assert policy.decide(None) == 1


def test_rb_converges_at_hysteresis_fixed_point():
    # constant channel just above the up-switch threshold of level 2:
    # the probe's fixed point is the observed rate, so the index locks at 2
    rate = 2000.0 * 1.15 + 1.0
    policy = RBPolicy(LADDER3)
    policy.decide(None)
    picks = [policy.decide(fb(rate)) for _ in range(60)]
    assert picks[-1] == 2
    assert all(p == 2 for p in picks[5:])
    assert policy.state.bw_probe_kbps == pytest.approx(rate, rel=1e-6)
    assert policy.state.bw_smooth_kbps == pytest.approx(rate, rel=1e-6)


def test_rb_floor_on_slow_channel():
    policy = RBPolicy(LADDER3)
    policy.decide(None)
    for _ in range(5):
        pick = policy.decide(fb(800.0))
    assert pick == 1


def test_rb_step_drop_response_matches_filter_recurrences():
    # start settled at 23000 on the big ladder, then the channel drops to 750;
    # replay the probe/EWMA recurrences independently and require the first
    # down-switch within ceil(1/ewma_weight) = 5 epochs of the drop
    policy = RBPolicy(PAPER_LADDER)
    policy.decide(None)
    policy.decide(fb(23000.0))  # initializes probe = smooth = 23000
    assert policy.state.last_index == 8

    probe, smooth = 23000.0, 23000.0
    drop_epoch = None
    for epoch in range(1, 11):
        pick = policy.decide(fb(750.0))
        overshoot = max(probe - 750.0 + RB_PROBE_KBPS, 0.0)
        probe = probe + RB_KAPPA * (RB_PROBE_KBPS - overshoot)
        smooth = smooth + RB_EWMA_WEIGHT * (probe - smooth)
        assert policy.state.bw_probe_kbps == pytest.approx(probe, abs=1e-9)
        assert policy.state.bw_smooth_kbps == pytest.approx(smooth, abs=1e-9)
        if drop_epoch is None and pick < 8:
            drop_epoch = epoch
    assert drop_epoch is not None
    assert drop_epoch <= math.ceil(1.0 / RB_EWMA_WEIGHT)


def test_rb_depends_only_on_throughput_sequence():
    rng = np.random.default_rng(0)
    rates = rng.uniform(500, 23000, 40)
    picks_a, picks_b = [], []
    pol_a, pol_b = RBPolicy(LADDER3), RBPolicy(LADDER3)
    pol_a.decide(None)
    pol_b.decide(None)
    for i, rate in enumerate(rates):
        picks_a.append(pol_a.decide(fb(rate, buffer_s=5.0, sizes=(1.0, 2.0, 3.0))))
        picks_b.append(pol_b.decide(fb(rate, buffer_s=90.0, sizes=(7.0, 8.0, 9.0))))
    assert picks_a == picks_b


def test_rb_decisions_in_range_and_deterministic():
    rng = np.random.default_rng(1)
    rates = rng.uniform(100, 30000, 100)
    results = []
    for _ in range(2):
        policy = RBPolicy(LADDER3)
        picks = [policy.decide(None)]
        picks += [policy.decide(fb(rate)) for rate in rates]
        results.append(picks)
        assert all(1 <= p <= 3 for p in picks)
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "ladder, message",
    [
        ((1000.0, 1000.0, 4000.0), "bitrate ladder not strictly increasing at level 2 (1000 kbps after 1000 kbps)"),
        ((1000.0, 4000.0, 2000.0), "bitrate ladder not strictly increasing at level 3 (2000 kbps after 4000 kbps)"),
        ((4000.0, 1000.0), "bitrate ladder not strictly increasing at level 2 (1000 kbps after 4000 kbps)"),
        # L2A's first omega, all mass on the 3000 kbps rung, once mapped to 3
        ((3000.0, 1000.0, 2000.0), "bitrate ladder not strictly increasing at level 2 (1000 kbps after 3000 kbps)"),
        ((1000.0, 0.0), "bitrates_kbps: level 2 is 0.0; rates must be positive and finite"),
        ((0.0, 1000.0), "bitrates_kbps: level 1 is 0.0; rates must be positive and finite"),
        ((math.nan, 1000.0), "bitrates_kbps: level 1 is nan; rates must be positive and finite"),
        ((1000.0, math.inf), "bitrates_kbps: level 2 is inf; rates must be positive and finite"),
        # an empty or one-rung ladder once ended in an IndexError in L2A and bb
        ((), "need at least two quality levels"),
        ((1000.0,), "need at least two quality levels"),
        # float() once read True as 1 kbps and "370" as 370 kbps
        ((True, 2000.0), "bitrates_kbps must be a list of numbers: level 1 is True"),
        (("370", "750"), "bitrates_kbps must be a list of numbers: level 1 is '370'"),
        # each iterates as a list would: bytes once read as 49 and 50 kbps,
        # a string as its characters, and a mapping as its keys
        (b"12", "bitrates_kbps must be a list of numbers, got b'12'"),
        ("12", "bitrates_kbps must be a list of numbers, got '12'"),
        ({1000.0: "a", 2000.0: "b"}, "bitrates_kbps must be a list of numbers, got {1000.0: 'a', 2000.0: 'b'}"),
    ],
    ids=[f"ladder{i}" for i in range(15)],
)
def test_rb_rejects_a_ladder_that_is_not_strictly_increasing(ladder, message):
    # rb_decide, bb's cap and L2A's map to a quality all bisect the ladder,
    # so each takes only a manifest's ladder, and rejects any other with the
    # manifest's message
    builds = (RBPolicy, lambda rates: L2APolicy(rates, 2.0, 20.0, 100),
              lambda rates: derive_bb_parameters(rates, 2.0, 20.0),
              lambda rates: synthesize_manifest(1, rates, 2.0))
    for build in builds:
        with pytest.raises(ManifestError, match=f"^{re.escape(message)}$"):
            build(ladder)


@pytest.mark.parametrize("bad", [0.0, -500.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "build",
    [lambda man: L2APolicy(man.bitrates_kbps, 2.0, 20.0, man.num_segments),
     lambda man: RBPolicy(man.bitrates_kbps),
     lambda man: BBPolicy(man, 20.0)],
    ids=["l2a", "rb", "bb"],
)
def test_every_policy_rejects_a_rate_that_is_not_positive_and_finite(build, bad):
    # L2A divided by the rate unchecked: 0 was a ZeroDivisionError, -500 and
    # inf moved omega silently, and nan failed only on a step epoch
    man = synthesize_manifest(10, LADDER3, 2.0)
    policy = build(man)
    policy.decide(None)
    message = f"^{re.escape(f'realized_rate_kbps must be positive and finite, got {bad!r}')}$"
    with pytest.raises(ValueError, match=message):
        policy.decide(EpochFeedback(bad, man.rows[0], 5.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -400.0])
def test_a_rate_that_is_not_positive_and_finite_is_an_error(bad):
    # one NaN rate once locked rb to the top rung: on this ladder 800, NaN,
    # 500 and 400 kbps picked 1, 8, 8 and 8, as a NaN estimate fits every
    # up-switch threshold
    message = f"^{re.escape(f'realized_rate_kbps must be positive and finite, got {bad!r}')}$"
    rb = RBPolicy(PAPER_LADDER)
    assert [rb.decide(None), rb.decide(fb(800.0))] == [1, 1]
    with pytest.raises(ValueError, match=message):
        rb.decide(fb(bad))
    # bb reads the rate when it would switch up, as on a full buffer
    v_b, gamma_p = derive_bb_parameters(LADDER3, 2.0, 120.0)
    state = BBState(v_b=v_b, gamma_p=gamma_p, last_index=1)
    assert bb_decide(state, fb(25000.0, buffer_s=120.0), LADDER3, (2000.0, 4000.0, 8000.0), 2.0) == 3
    state.last_index = 1
    with pytest.raises(ValueError, match=message):
        bb_decide(state, fb(bad, buffer_s=120.0), LADDER3, (2000.0, 4000.0, 8000.0), 2.0)


def reference_rb_decide(state, feedback, bitrates_kbps):
    """``rb_decide`` as it ran before it bisected the ladder: its two
    searches are loops over every level.  The up-switch loop compares as
    ``bisect_right`` does, ``not smooth < threshold``, which is
    ``threshold <= smooth`` except on a NaN estimate, which fits every
    threshold.  A rate that is not positive and finite raises before the
    state changes."""
    if feedback is None:
        state.last_index = 1
        return 1

    observed = float(feedback.realized_rate_kbps)
    if not (observed > 0.0 and math.isfinite(observed)):
        raise ValueError(f"realized_rate_kbps must be positive and finite, got {observed!r}")
    if not state.initialized:
        state.bw_probe_kbps = observed
        state.bw_smooth_kbps = observed
        state.initialized = True
    else:
        overshoot = max(state.bw_probe_kbps - observed + RB_PROBE_KBPS, 0.0)
        state.bw_probe_kbps = max(state.bw_probe_kbps + RB_KAPPA * (RB_PROBE_KBPS - overshoot), 0.0)
        state.bw_smooth_kbps += RB_EWMA_WEIGHT * (state.bw_probe_kbps - state.bw_smooth_kbps)

    smooth = state.bw_smooth_kbps
    up = 0
    for n, r in enumerate(bitrates_kbps, start=1):
        if not smooth < (1.0 + RB_DEADZONE) * r:
            up = n
    cur = state.last_index
    if up > cur:
        new = up
    elif bitrates_kbps[cur - 1] > smooth:
        new = 1
        for n, r in enumerate(bitrates_kbps, start=1):
            if r <= smooth:
                new = n
    else:
        new = cur
    state.last_index = new
    return new


def state_bits(state):
    """The fields of a policy state, each float as its exact bits, so that a
    NaN or a -0.0 compares as itself."""
    return [x.hex() if isinstance(x, float) else x for x in astuple(state)]


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1), decisions=st.integers(1, 40))
def test_rb_decide_matches_the_loop_oracle(seed, decisions):
    # through the session adapter, which builds the up-switch thresholds; the
    # observed rates include each rung and each up-switch threshold, hit
    # exactly when the state is not initialized yet, their neighbours, and
    # the odd floats: zero of either sign, a negative rate, an infinity and
    # a NaN, which both reject with the same error and the state untouched
    rng = np.random.default_rng(seed)
    n_levels = int(rng.integers(2, 10))
    ladder = tuple(np.cumsum(rng.uniform(50.0, 5000.0, size=n_levels)).tolist())
    edges = [e for r in ladder for e in (r, (1.0 + RB_DEADZONE) * r)]
    edges += [math.nextafter(e, d) for e in edges for d in (0.0, math.inf)]
    edges += [0.0, -0.0, -ladder[0], math.inf, math.nan]
    rb = RBPolicy(ladder)
    for _ in range(decisions):
        last = int(rng.integers(1, n_levels + 1))
        probe, smooth = (float(v) for v in rng.uniform(0.0, 1.2 * ladder[-1], 2))
        initialized = bool(rng.random() < 0.5)
        if rng.random() < 0.5:
            rate = edges[int(rng.integers(len(edges)))]
        else:
            rate = float(np.exp(rng.uniform(np.log(ladder[0] / 4), np.log(ladder[-1] * 4))))
        feedback = None if rng.random() < 0.05 else fb(rate)
        # half the feedbacks as the session loop gives them, a plain tuple
        given = feedback if feedback is None or rng.random() < 0.5 else tuple(feedback)
        rb.state, ref = (RBState(probe, smooth, last, initialized) for _ in range(2))
        try:
            expected = reference_rb_decide(ref, feedback, ladder)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                rb.decide(given)
        else:
            assert rb.decide(given) == expected
        assert state_bits(rb.state) == state_bits(ref)


# ---------------------------------------------------------------------------
# BB


def vod_bb(manifest):
    return BBPolicy(manifest, 120.0)


def test_bb_cold_start_is_lowest():
    man = synthesize_manifest(10, PAPER_LADDER, 2.0, seed=0)
    assert vod_bb(man).decide(None) == 1


def test_bb_empty_buffer_picks_lowest():
    man = synthesize_manifest(10, PAPER_LADDER, 2.0, seed=0)
    policy = vod_bb(man)
    policy.decide(None)
    assert policy.decide(fb(25000.0, buffer_s=0.0)) == 1


def test_bb_full_buffer_picks_top():
    man = synthesize_manifest(10, PAPER_LADDER, 2.0, seed=0)
    policy = vod_bb(man)
    policy.decide(None)
    policy.state.last_index = len(PAPER_LADDER)  # no up-switch cap in play
    assert policy.decide(fb(25000.0, buffer_s=120.0)) == len(PAPER_LADDER)


def test_bb_monotone_in_buffer_level():
    man = synthesize_manifest(300, PAPER_LADDER, 2.0, seed=0)
    v_b, gamma_p = derive_bb_parameters(PAPER_LADDER, 2.0, 120.0)
    last = 0
    for buffer_s in np.arange(0.0, 120.5, 0.5):
        state = BBState(v_b=v_b, gamma_p=gamma_p, last_index=len(PAPER_LADDER))
        pick = bb_decide(
            state, fb(25000.0, buffer_s=float(buffer_s)), PAPER_LADDER,
            man.rows[0], 2.0,
        )
        assert pick >= last
        last = pick
    assert last == len(PAPER_LADDER)


def test_bb_up_switch_capped_by_recent_throughput():
    man = synthesize_manifest(10, PAPER_LADDER, 2.0, seed=0)
    policy = vod_bb(man)
    policy.decide(None)
    # a nearly full buffer wants the top, but the last observed rate only
    # sustains level 3 (1500 kbps)
    pick = policy.decide(fb(1600.0, buffer_s=110.0))
    assert pick == 3
    # and the cap never forces a drop below the current level
    policy.state.last_index = 5
    pick = policy.decide(fb(1600.0, buffer_s=110.0))
    assert pick == 5


def test_bb_depends_only_on_buffer_and_last_rate():
    man = synthesize_manifest(40, PAPER_LADDER, 2.0, seed=0)
    pol_a, pol_b = vod_bb(man), vod_bb(man)
    pol_a.decide(None)
    pol_b.decide(None)
    rng = np.random.default_rng(2)
    for _ in range(30):
        rate = float(rng.uniform(500, 25000))
        buf = float(rng.uniform(0, 120))
        a = pol_a.decide(fb(rate, buffer_s=buf))
        b = pol_b.decide(fb(rate, buffer_s=buf, sizes=(9.0, 10.0, 11.0)))
        assert a == b


def test_bb_threshold_design_spans_buffer_range():
    for ladder, b_max in ((PAPER_LADDER, 120.0), (PAPER_LADDER, 20.0), (LADDER3, 120.0)):
        v_b, gamma_p = derive_bb_parameters(ladder, 2.0, b_max)
        assert v_b > 0 and gamma_p > 0
        sizes = np.asarray(ladder) * 2.0
        util = np.log(sizes / sizes[0])
        a = (sizes[1:] * util[:-1] - sizes[:-1] * util[1:]) / (sizes[1:] - sizes[:-1])
        thresholds = v_b * (gamma_p + a)
        assert thresholds[0] == pytest.approx(1.0, abs=1e-9)
        assert thresholds[-1] == pytest.approx(max(b_max / 2.0 - 1.0, 2.0), abs=1e-9)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -5.0, "20", True])
def test_bb_rejects_a_buffer_bound_that_is_not_positive_and_finite(bad):
    # derive_bb_parameters checks both of its durations, as BBPolicy relies
    # on: True was once read as V = 1 s, and "20" ended in a TypeError
    man = synthesize_manifest(3, PAPER_LADDER, 2.0, vbr_jitter=0.0, seed=0)
    for name, build in (("b_max_s", lambda: BBPolicy(man, bad)),
                        ("b_max_s", lambda: derive_bb_parameters(PAPER_LADDER, 2.0, bad)),
                        ("segment_duration_s", lambda: derive_bb_parameters(PAPER_LADDER, bad, 20.0))):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be positive and finite, got {bad!r}')}$"):
            build()


def test_bb_two_level_fallback():
    v_b, gamma_p = derive_bb_parameters((1000.0, 3000.0), 2.0, 120.0)
    assert v_b > 0 and gamma_p > 0
    state = BBState(v_b=v_b, gamma_p=gamma_p, last_index=2)
    low = bb_decide(state, fb(25000.0, buffer_s=0.0), (1000.0, 3000.0), (2000.0, 6000.0), 2.0)
    assert low == 1
    state = BBState(v_b=v_b, gamma_p=gamma_p, last_index=2)
    high = bb_decide(state, fb(25000.0, buffer_s=120.0), (1000.0, 3000.0), (2000.0, 6000.0), 2.0)
    assert high == 2


def test_bb_equal_sizes_tie_goes_to_the_lowest_level():
    # equal sizes score equally at every buffer level
    v_b, gamma_p = derive_bb_parameters(LADDER3, 2.0, 120.0)
    for buffer_s in (0.0, 60.0, 120.0):
        state = BBState(v_b=v_b, gamma_p=gamma_p, last_index=3)
        pick = bb_decide(state, fb(25000.0, buffer_s), LADDER3, (4000.0,) * 3, 2.0)
        assert pick == 1


def reference_bb_decide(state, feedback, bitrates_kbps, sizes_row_kbit, segment_duration_s):
    """``bb_decide`` as it ran when it scored the rungs into a list, scanned
    it with ``max`` and then ``index``, and found the level sustainable at the
    last observed rate with a loop over the ladder."""
    if feedback is None:
        state.last_index = 1
        return 1
    s1 = sizes_row_kbit[0]
    buffer_segments = feedback.buffer_s / segment_duration_s
    score = [(state.v_b * (math.log(s / s1) + state.gamma_p) - buffer_segments) / s for s in sizes_row_kbit]
    m = score.index(max(score)) + 1
    if m > state.last_index:
        sustainable = 1
        for n, r in enumerate(bitrates_kbps, start=1):
            if r <= feedback.realized_rate_kbps:
                sustainable = n
        if m > sustainable:
            m = max(sustainable, state.last_index)
    state.last_index = m
    return m


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:  # math.log of a size ratio that underflows to 0.0
        return str(exc)


# a decision: the ladder, the segment duration, the state's fields, the row
# of sizes, the feedback (or None) and whether the session loop's plain tuple
# carries it
scored_rows = st.builds(
    lambda rows, buffer_s, v_b, gamma_p: [
        # from the top level no switch is up, so the cap never applies
        (tuple(float(k) for k in range(1, len(rows) + 1)), 2.0, (v_b, gamma_p, len(rows)),
         tuple(rows), fb(1000.0, buffer_s, rows), False)],
    # rows from a pool of a few sizes, so that levels tie; drawn in any order
    st.lists(st.floats(1e-300, 1e300) | st.sampled_from([5e-324, 1.0, 2000.0]), min_size=1, max_size=4)
    .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=10)),
    st.floats(0.0, 240.0) | st.floats(),
    st.floats(1e-3, 1e3),
    st.floats(-10.0, 10.0),
)


def capped_decisions(seed, decisions):
    """Decisions of a session's policy: a random ladder and manifest rows, the
    state's parameters as ``BBPolicy`` derives them, any last level, and a
    rate that is at times a rung, the edge of the sustainable level."""
    rng = np.random.default_rng(seed)
    n_levels = int(rng.integers(2, 10))
    ladder = tuple(np.cumsum(rng.uniform(50.0, 5000.0, size=n_levels)).tolist())
    v = float(rng.uniform(0.5, 8.0))
    b_max = float(rng.uniform(v, 60.0 * v))
    v_b, gamma_p = derive_bb_parameters(ladder, v, b_max)
    sizes = np.asarray(ladder) * v * rng.uniform(0.5, 1.5, size=(decisions, n_levels))
    man = Manifest(v, ladder, np.sort(sizes, axis=1))
    cases = []
    for row in man.rows:
        last = int(rng.integers(1, n_levels + 1))
        rate = float(np.exp(rng.uniform(np.log(ladder[0] / 4), np.log(ladder[-1] * 4))))
        if rng.random() < 0.3:
            rate = ladder[int(rng.integers(n_levels))]
        feedback = None if rng.random() < 0.05 else EpochFeedback(rate, row, float(rng.uniform(0.0, b_max)))
        cases.append((ladder, v, (v_b, gamma_p, last), row, feedback, rng.random() < 0.5))
    return cases


@settings(max_examples=1000)
@given(scored_rows | st.builds(capped_decisions, st.integers(0, 2**32 - 1), st.integers(1, 40)))
def test_bb_picks_the_first_level_of_highest_score(cases):
    for ladder, v, fields, row, feedback, as_tuple in cases:
        state, ref = BBState(*fields), BBState(*fields)
        given = tuple(feedback) if as_tuple and feedback else feedback
        got = outcome(bb_decide, state, given, ladder, row, v)
        assert got == outcome(reference_bb_decide, ref, feedback, ladder, row, v)
        assert state_bits(state) == state_bits(ref)
        if len(set(row)) == 1 and isinstance(got, int):
            assert got == 1


def test_bb_scores_the_row_of_segment_t_and_refuses_one_past_the_last(monkeypatch):
    man = Manifest(2.0, (1000.0, 3000.0), [[2000.0, 6000.0], [1900.0, 5800.0]])
    bb = BBPolicy(man, 20.0)
    assert state_bits(bb.state) == state_bits(BBState(*derive_bb_parameters((1000.0, 3000.0), 2.0, 20.0)))
    rows = []
    real = baselines.bb_decide
    monkeypatch.setattr(baselines, "bb_decide",
                        lambda state, fb, ladder, row, v: rows.append(row) or real(state, fb, ladder, row, v))
    bb.decide(None)
    bb.decide(EpochFeedback(5000.0, man.rows[0], 20.0))
    with pytest.raises(IndexError, match=re.escape("segment 3 outside 1..2")):
        bb.decide(EpochFeedback(5000.0, man.rows[1], 20.0))
    # the manifest's own rows, not copies
    assert len(rows) == 2 and rows[0] is man.rows[0] and rows[1] is man.rows[1]


# ---------------------------------------------------------------------------
# pinned sessions


@pytest.mark.parametrize("abr, digest", [
    ("rb", "ee37c184a3333f8115609d157090a0b139b73c6e7b37dc73fc01d1d583c3506c"),
    # bb scores the ladder with math.log, so its pin holds for the libm it was
    # taken on: glibc 2.36 (x86-64), Python 3.11.7, numpy 2.4.6
    ("bb", "83805f00451c33f06c6e2e846ceee1d3db301950dfb7f7f3ef690e8afe20a736"),
], ids=["rb", "bb"])
def test_a_seeded_live_session_has_pinned_records(abr, digest):
    # a live buffer (b_max 20 s) on a 0.1 s trace: the session stalls, the
    # buffer bound delays requests, and every field of every record is pinned
    horizon = 300
    man = synthesize_manifest(horizon, PAPER_LADDER, 2.0, vbr_jitter=0.1, seed=22)
    trace = generate_markovian(900, 750, 23000, 0.01, 0.1, seed=22)
    policy = RBPolicy(PAPER_LADDER) if abr == "rb" else BBPolicy(man, 20.0)
    history = run_session(policy, SessionConfig(b_max_s=20.0, tau_resume=2), man, trace).history
    assert any(r.stall for r in history) and any(r.delta_s > 0 for r in history)
    assert len({r.x for r in history}) > 2
    records = np.array([rec[:-1] for rec in history], dtype="<f8").tobytes()
    assert hashlib.sha256(records).hexdigest() == digest
