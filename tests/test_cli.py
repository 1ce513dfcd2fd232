import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tomllib
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim import channel, cli, generate_markovian, load_manifest, load_trace, media, metrics, session, slot_clock
from abrsim.cli import main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def assets(tmp_path):
    trace = tmp_path / "trace.csv"
    manifest = tmp_path / "manifest.json"
    assert run_cli("gen", "trace", "--duration", 900, "--seed", 7, "--out", trace) == 0
    assert (
        run_cli(
            "gen", "manifest", "--segments", 60, "--jitter", "0.1",
            "--seed", 100, "--out", manifest,
        )
        == 0
    )
    return manifest, trace


def test_gen_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("gen", "trace", "--duration", 600, "--seed", 3, "--out", a)
    run_cli("gen", "trace", "--duration", 600, "--seed", 3, "--out", b)
    assert a.read_bytes() == b.read_bytes()
    ma, mb = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("gen", "manifest", "--segments", 40, "--jitter", "0.2", "--seed", 5, "--out", ma)
    run_cli("gen", "manifest", "--segments", 40, "--jitter", "0.2", "--seed", 5, "--out", mb)
    assert ma.read_bytes() == mb.read_bytes()


def test_gen_assets_parse_back(assets):
    manifest, trace = assets
    man = load_manifest(manifest)
    assert man.num_segments == 60
    tr = load_trace(trace)
    assert tr.num_samples == 900
    assert set(np.unique(tr.throughputs_kbps)) <= {750.0, 23000.0}


def test_run_single_session(assets, tmp_path, capsys):
    manifest, trace = assets
    out = tmp_path / "out"
    code = run_cli(
        "run", "--manifest", manifest, "--trace", trace, "--abr", "l2a",
        "--beta", "0.3", "--out", out,
    )
    assert code == 0
    log = out / "session_l2a-beta0.3.csv"
    report_path = out / "report_l2a-beta0.3.json"
    assert log.exists() and report_path.exists()
    report = json.loads(report_path.read_text())
    assert report["normalized_avg_bitrate"] == 1.0
    assert len(report["series"]["regret_rate"]) == 60
    assert "benchmark" in report
    printed = capsys.readouterr().out
    assert "avg_bitrate" in printed


def test_run_rb_and_bb(assets, tmp_path):
    manifest, trace = assets
    for abr in ("rb", "bb"):
        out = tmp_path / f"out-{abr}"
        assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", abr, "--out", out) == 0
        assert (out / f"report_{abr}.json").exists()


def test_run_flags_one_hot_series_only_for_index_policies(assets, tmp_path):
    # rb exposes no decision distribution, so its series use one-hot choices
    manifest, trace = assets
    flags = {}
    for abr in ("rb", "l2a"):
        out = tmp_path / f"out-{abr}"
        assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", abr, "--out", out) == 0
        (report,) = out.glob("report_*.json")
        flags[abr] = json.loads(report.read_text())["flags"]
    assert "one-hot-omega" in flags["rb"]
    assert "one-hot-omega" not in flags["l2a"]


def test_run_live_scenario_bmax(assets, tmp_path, capsys):
    manifest, trace = assets
    out = tmp_path / "live"
    assert (
        run_cli(
            "run", "--manifest", manifest, "--trace", trace, "--abr", "bb",
            "--scenario", "live", "--out", out,
        )
        == 0
    )
    records = session.read_log_csv(out / "session_bb.csv")
    assert len(records) == 60
    assert all(rec.buffer_after_s <= 20.0 for rec in records)
    # a segment longer than the live bound cannot be buffered: rejected
    # before the session starts and before any output, named as compare
    # names a failed session
    long_segments = tmp_path / "manifest-v30.json"
    assert run_cli("gen", "manifest", "--segments", 10, "--segment-duration", 30, "--out", long_segments) == 0
    capsys.readouterr()
    out = tmp_path / "live-v30"
    assert run_cli("run", "--manifest", long_segments, "--trace", trace, "--scenario", "live", "--out", out) == 1
    assert capsys.readouterr().err == (
        "abrsim: error: session failed for method 'l2a-beta1' on trace 'trace':"
        " b_max_s smaller than the segment duration\n"
    )
    assert not out.exists()


def test_run_rejects_another_policys_flags(assets, tmp_path, capsys):
    manifest, trace = assets
    for abr, flags in (("rb", ("--beta", "0.3")), ("bb", ("--beta", "0.3"))):
        out = tmp_path / abr
        assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", abr, "--out", out, *flags) == 1
        assert f"{flags[0]} not used by --abr {abr}" in capsys.readouterr().err
        assert not out.exists()


def _count_sessions(monkeypatch):
    """Wrap ``session.run_session`` (which the CLI looks up at call time) to
    record each call."""
    calls = []
    real = session.run_session

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(session, "run_session", counting)
    return calls


def test_removed_evaluation_flags_are_rejected(assets, tmp_path):
    manifest, trace = assets
    with pytest.raises(SystemExit):
        run_cli("run", "--manifest", manifest, "--trace", trace, "--out", tmp_path, "--k-exponent", "0.5")
    with pytest.raises(SystemExit):
        run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", "session.csv", "--disjoint-windows")
    # the session log has one format, the CSV that `benchmark` reads
    with pytest.raises(SystemExit):
        run_cli("run", "--manifest", manifest, "--trace", trace, "--out", tmp_path, "--format", "json")
    # beta is the one policy setting; the tuning overrides are gone
    for flag in ("--epsilon", "--alpha", "--rb.kappa", "--bb.vb", "--vl-exponent"):
        with pytest.raises(SystemExit):
            run_cli("run", "--manifest", manifest, "--trace", trace, "--out", tmp_path, flag, "0.5")
    # the scenario alone sets the buffer bound, and K is always ceil(T^0.9)
    for flag, value in (("--bmax", "20"), ("--k", "5")):
        with pytest.raises(SystemExit):
            run_cli("run", "--manifest", manifest, "--trace", trace, "--out", tmp_path, flag, value)
        with pytest.raises(SystemExit):
            run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", "session.csv", flag, value)


def test_the_workflow_calls_the_cli_with_options_it_has(tmp_path):
    # CI runs the installed abrsim script once per subcommand; a renamed flag
    # or a config rule that its compare.json breaks would fail that step
    # without failing any test here, so each of its abrsim calls is parsed by
    # the CLI's own parser and then run in process, in order, with
    # $RUNNER_TEMP as tmp_path and its heredoc compare.json written first
    root = Path(__file__).resolve().parents[1]
    text = (root / ".github" / "workflows" / "tests.yml").read_text()
    step = text.split("- name: Installed console script", 1)[1].split("\n      - ", 1)[0]
    temp = step.replace("$RUNNER_TEMP", str(tmp_path))
    ((target, body),) = re.findall(r'cat > "([^"]+)" <<EOF\n(.*?)\n *EOF\n', temp, re.S)
    Path(target).write_text(body)
    calls = [line.strip() for line in temp.replace("\\\n", " ").splitlines()
             if line.strip().startswith("abrsim ")]
    assert [shlex.split(call)[1] for call in calls] == ["gen", "gen", "run", "benchmark", "compare", "run",
                                                        "benchmark"]
    for call in calls:
        # an unknown or missing option exits through argparse
        cli.build_parser().parse_args(shlex.split(call)[1:])
    for call in calls:
        assert main(shlex.split(call)[1:]) == 0, call


def test_concat_traces(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_cli("gen", "trace", "--duration", 100, "--seed", 1, "--out", a)
    run_cli("gen", "trace", "--duration", 100, "--seed", 2, "--out", b)
    cat = tmp_path / "cat.csv"
    assert run_cli("concat-traces", a, b, "--out", cat) == 0
    tr = load_trace(cat)
    assert tr.num_samples == 200
    assert np.all(np.diff(tr.timestamps_s) > 0)


def test_a_one_sample_trace_from_gen_is_read_by_every_subcommand(assets, tmp_path):
    # gen trace --duration 0.5 writes one sample, which run, benchmark and
    # concat-traces once refused with "need at least 2 samples, got 1"
    manifest, _ = assets
    trace, out = tmp_path / "one.csv", tmp_path / "out"
    assert run_cli("gen", "trace", "--duration", 0.5, "--seed", 7, "--out", trace) == 0
    assert load_trace(trace).num_samples == 1
    assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", "rb", "--out", out) == 0
    assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", out / "session_rb.csv") == 0
    cat = tmp_path / "cat.csv"
    assert run_cli("concat-traces", trace, trace, "--out", cat) == 0
    assert load_trace(cat).timestamps_s.tolist() == [0.0, 1.0]


def test_benchmark_subcommand(assets, tmp_path, capsys):
    manifest, trace = assets
    out = tmp_path / "out"
    run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", "rb", "--out", out)
    bench_json = tmp_path / "bench.json"
    series_csv = tmp_path / "series.csv"
    code = run_cli(
        "benchmark", "--manifest", manifest, "--trace", trace, "--log", out / "session_rb.csv",
        "--out", bench_json, "--series", series_csv,
    )
    assert code == 0
    doc = json.loads(bench_json.read_text())
    assert len(doc["omega_star"]) == 8
    assert abs(sum(doc["omega_star"]) - 1.0) < 1e-9
    lines = series_csv.read_text().splitlines()
    assert lines[0] == "t,regret_rate,residual1_rate,residual2_rate"
    assert len(lines) == 61
    captured = capsys.readouterr()
    assert "one-hot" in captured.err
    # the yardstick is the slot clock of the session's trace, so the trace is required
    with pytest.raises(SystemExit):
        run_cli("benchmark", "--manifest", manifest, "--log", out / "session_rb.csv")
    assert "the following arguments are required: --trace" in capsys.readouterr().err
    # the log is replayed through --trace and must give itself back exactly:
    # epoch 5's download stretched by 1e-12 or 1e-6 is refused (a relative
    # 1e-9 once passed), and so is the log on another trace; the error names
    # the log, the first epoch and column that differ and both values
    fine = tmp_path / "fine.csv"
    assert run_cli("gen", "trace", "--duration", 900, "--step", 0.1, "--seed", 7, "--out", fine) == 0
    records = session.read_log_csv(out / "session_rb.csv")
    log = tmp_path / "stretched.csv"
    for gap, on, epoch, column in [(1e-12, trace, "5", "download_s"), (1e-6, trace, "5", "download_s"),
                                   (0.0, fine, r"\d+", r"\w+")]:
        stretched = records[4]._replace(download_s=records[4].download_s * (1 + gap))
        session.export_log_csv([*records[:4], stretched, *records[5:]], log)
        capsys.readouterr()
        assert run_cli("benchmark", "--manifest", manifest, "--trace", on, "--log", log) == 1
        assert re.fullmatch(
            rf"abrsim: error: {re.escape(str(log))}: epoch {epoch}: {column} is \S+, but its replay"
            r" at b_max 120\.0 s and tau 2 gives \S+\n",
            capsys.readouterr().err)


def truncated_log(manifest, trace, tmp_path):
    """An rb log of a run on ``trace`` that ends inside its 30th row, after
    its C_kbps field."""
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", "rb", "--out", out) == 0
    lines = (out / "session_rb.csv").read_text().splitlines()
    log = tmp_path / "truncated.csv"
    log.write_text("\n".join(lines[:30]) + "\n" + ",".join(lines[30].split(",")[:5]))
    return log


def test_benchmark_rejects_a_truncated_log(assets, tmp_path, capsys):
    manifest, trace = assets
    log = truncated_log(manifest, trace, tmp_path)
    capsys.readouterr()
    assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", log) == 1
    assert capsys.readouterr().err == (
        f"abrsim: error: {log}: line 31: column download_s missing; expected 10 fields, got 5\n"
    )


def test_the_entry_point_is_main_and_a_process_fails_with_one_line(assets, tmp_path):
    # the installed abrsim script calls the [project.scripts] entry point;
    # in a process of its own, main's exit status is the process's, and an
    # input error is one line of stderr with no traceback
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"abrsim": "abrsim.cli:main"}
    manifest, trace = assets
    log = truncated_log(manifest, trace, tmp_path)
    path = os.pathsep.join([str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-m", "abrsim.cli", "benchmark", "--manifest", str(manifest), "--trace", str(trace),
         "--log", str(log)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stderr == f"abrsim: error: {log}: line 31: column download_s missing; expected 10 fields, got 5\n"


def test_benchmark_rejects_a_log_longer_than_its_manifest(assets, tmp_path, capsys):
    # once "more realized rates than manifest segments", naming no file
    manifest, trace = assets
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", "rb", "--out", out) == 0
    short = tmp_path / "short.json"
    assert run_cli("gen", "manifest", "--segments", 10, "--out", short) == 0
    capsys.readouterr()
    log = out / "session_rb.csv"
    assert run_cli("benchmark", "--manifest", short, "--trace", trace, "--log", log) == 1
    assert capsys.readouterr().err == (
        f"abrsim: error: {log}: 60 records, more than the 10 segments of manifest {short}\n"
    )


def test_benchmark_rejects_a_log_whose_buffer_passes_the_scenario_bound(assets, tmp_path, capsys):
    # a vod log scored with --scenario live, and a live log scored with
    # --scenario vod, once printed a benchmark and its series and exited 0;
    # replayed under the other bound, each is refused at the first epoch
    # where that bound moves the delay: the vod log's first buffer above
    # 20 s, and the live log's first delay
    manifest, trace = assets
    out = tmp_path / "out"
    for scenario in ("vod", "live"):
        assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", "l2a", "--beta", "0.3",
                       "--scenario", scenario, "--out", out / scenario) == 0
    vod_log, live_log = (out / scenario / "session_l2a-beta0.3.csv" for scenario in ("vod", "live"))
    buffers = [float(rec.buffer_after_s) for rec in session.read_log_csv(vod_log)]
    first = next(i for i, buffer in enumerate(buffers) if buffer > 20.0)
    live = session.read_log_csv(live_log)
    assert max(live, key=lambda rec: rec.buffer_after_s).buffer_after_s == 20.0
    delayed = next(rec for rec in live if rec.delta_s > 0)
    capsys.readouterr()
    for log, scenario in ((vod_log, "vod"), (live_log, "live")):
        assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", log,
                       "--scenario", scenario) == 0
    capsys.readouterr()
    series = tmp_path / "series.csv"
    assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", vod_log,
                   "--scenario", "live", "--series", series) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(rf"abrsim: error: {re.escape(str(vod_log))}: epoch {first + 1}: delta_s is 0\.0,"
                        r" but its replay at b_max 20\.0 s and tau 2 gives \S+\n", captured.err)
    assert not series.exists()
    assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", live_log,
                   "--scenario", "vod", "--series", series) == 1
    assert capsys.readouterr() == ("", (
        f"abrsim: error: {live_log}: epoch {delayed.t}: delta_s is {delayed.delta_s!r}, but its replay"
        f" at b_max 120.0 s and tau 2 gives 0.0\n"
    ))
    assert not series.exists()


@pytest.mark.parametrize("column, value", [
    ("C_kbps", "-5"), ("C_kbps", "1e308"), ("C_kbps", "1e-320"),
    ("buffer_s", "-5"), ("buffer_s", "-1e308"),
    ("stall_s", "-5"), ("stall_s", "1e308"),
    ("delta_s", "1e-320"),
    ("download_s", "1e308"), ("download_s", "-1e308"),
])
def test_benchmark_refuses_a_log_edited_at_one_field(assets, tmp_path, capsys, monkeypatch, column, value):
    # each edit was once scored (exit 0) or refused after numpy warned of an
    # overflow; the replay names the edited field before any benchmark is solved
    manifest, trace = assets
    short = tmp_path / "short.json"
    assert run_cli("gen", "manifest", "--segments", 40, "--out", short) == 0
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", short, "--trace", trace, "--out", out) == 0
    header, *rows = (out / "session_l2a-beta1.csv").read_text().splitlines()
    fields = rows[3].split(",")
    assert fields[0] == "4"
    fields[session.LOG_COLUMNS.index(column)] = value
    rows[3] = ",".join(fields)
    log = tmp_path / "edited.csv"
    log.write_text("\n".join([header, *rows]) + "\n")
    capsys.readouterr()

    def no_solve(*args, **kwargs):
        raise AssertionError("benchmark solved for an edited log")

    monkeypatch.setattr(metrics, "solve_benchmark", no_solve)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli("benchmark", "--manifest", short, "--trace", trace, "--log", log) == 1
    assert caught == []
    assert re.fullmatch(rf"abrsim: error: {re.escape(str(log))}: epoch 4: {column} is {re.escape(repr(float(value)))},"
                        r" but its replay at b_max 120\.0 s and tau 2 gives \S+\n", capsys.readouterr().err)


def test_benchmark_rejects_a_scenario_whose_bound_is_below_the_segment_duration(assets, tmp_path, capsys):
    # the replay's own "b_max_s smaller than the segment duration" named no input
    _, trace = assets
    manifest, out = tmp_path / "long.json", tmp_path / "out"
    assert run_cli("gen", "manifest", "--segments", 10, "--segment-duration", 30, "--out", manifest) == 0
    assert run_cli("run", "--manifest", manifest, "--trace", trace, "--out", out) == 0
    capsys.readouterr()
    assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", out / "session_l2a-beta1.csv",
                   "--scenario", "live") == 1
    assert capsys.readouterr() == ("", f"abrsim: error: the 20.0 s b_max of scenario live is below the 30.0 s"
                                       f" segments of manifest {manifest}\n")


@pytest.mark.parametrize("which", ["zero", "above-top"])
def test_benchmark_rejects_a_quality_index_off_the_ladder(assets, tmp_path, capsys, which):
    manifest, trace = assets
    n = len(load_manifest(manifest).bitrates_kbps)
    bad_x = 0 if which == "zero" else n + 1
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", "rb", "--out", out) == 0
    lines = (out / "session_rb.csv").read_text().splitlines()
    fields = lines[5].split(",")
    assert fields[0] == "5"
    lines[5] = ",".join([fields[0], str(bad_x), *fields[2:]])
    log = tmp_path / "bad_x.csv"
    log.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    # x_t=0 once scored as the top quality and x_t=N+1 raised an IndexError traceback
    assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", log) == 1
    assert capsys.readouterr().err == f"abrsim: error: {log}: epoch 5: quality index {bad_x} outside 1..{n}\n"


@pytest.mark.parametrize("column", ["x_t", "size_kbit", "size_kbit-before-x_t-0"])
def test_benchmark_rejects_a_row_that_disagrees_with_the_manifest(assets, tmp_path, capsys, column):
    manifest, trace = assets
    out = tmp_path / "out"
    assert run_cli("run", "--manifest", manifest, "--trace", trace, "--out", out) == 0
    log = next(out.glob("session_*.csv"))
    lines = log.read_text().splitlines()
    fields = lines[5].split(",")
    assert fields[0] == "5"
    ladder = load_manifest(manifest)
    if column == "x_t":
        # another level on the ladder, with r_kbps and size_kbit left as they are
        fields[1] = "7" if fields[1] != "7" else "3"
        expected = f"r_kbps is {float(fields[2])!r}, but its replay at b_max 120.0 s and tau 2 gives" \
                   f" {ladder.bitrates_kbps[int(fields[1]) - 1]!r}"
    else:
        size = float(ladder.segment_sizes_kbit[4, int(fields[1]) - 1])
        assert float(fields[3]) == size
        fields[3] = repr(size + 1.0)
        expected = f"size_kbit is {fields[3]}, but its replay at b_max 120.0 s and tau 2 gives {size!r}"
    lines[5] = ",".join(fields)
    if column == "size_kbit-before-x_t-0":
        # a quality index off the ladder at epoch 9 too: the first fault in
        # epoch order is the one named
        later = lines[9].split(",")
        lines[9] = ",".join([later[0], "0", *later[2:]])
    bad = tmp_path / "mismatch.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    # such a row was once scored without a word, its regret read from x_t
    assert run_cli("benchmark", "--manifest", manifest, "--trace", trace, "--log", bad) == 1
    assert capsys.readouterr().err == f"abrsim: error: {bad}: epoch 5: {expected}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen", "trace", "--duration", "inf"], "duration_s must be positive and finite, got inf"),
        (["gen", "trace", "--duration", "60", "--step", "nan"], "step_s must be positive and finite, got nan"),
        (["gen", "trace", "--duration", "60", "--step", "inf"], "step_s must be positive and finite, got inf"),
        # numpy's own "expected non-negative integer" named no flag
        (["gen", "trace", "--duration", "60", "--seed", "-1"], "seed must be an integer >= 0, got -1"),
    ],
    ids=["duration-inf", "step-nan", "step-inf", "seed-negative"],
)
def test_non_finite_arguments_are_input_errors(tmp_path, capsys, argv, message):
    assert run_cli(*argv, "--out", tmp_path / "trace.csv") == 1
    assert capsys.readouterr().err == f"abrsim: error: {message}\n"


@pytest.mark.parametrize("tau", [1, 2, 3])
@pytest.mark.parametrize("scenario", ["vod", "live"])
@pytest.mark.parametrize("method", [["l2a", "--beta", "1"], ["l2a", "--beta", "0.3"], ["rb"], ["bb"]],
                         ids=["l2a-beta1", "l2a-beta0.3", "rb", "bb"])
def test_run_and_benchmark_agree_for_one_hot_policy(assets, tmp_path, monkeypatch, capsys, method, scenario, tau):
    # benchmark runs the benchmark and series stages only: it never scores
    # the session metrics, and its benchmark is the one run reports, and
    # its series too for a policy with no decision distribution; it reads
    # tau from the log, whose replay under --scenario is the log
    manifest, trace = assets
    out = tmp_path / "out"
    abr, *beta = method
    assert run_cli("run", "--manifest", manifest, "--trace", trace, "--abr", *method, "--scenario", scenario,
                   "--tau", tau, "--out", out) == 0
    name = abr if not beta else f"l2a-beta{beta[1]}"
    capsys.readouterr()

    def no_metrics(*args, **kwargs):
        raise AssertionError("benchmark called qoe_metrics")

    monkeypatch.setattr(metrics, "qoe_metrics", no_metrics)
    bench_json, series_csv = tmp_path / "bench.json", tmp_path / "series.csv"
    assert (
        run_cli(
            "benchmark", "--manifest", manifest, "--trace", trace, "--log", out / f"session_{name}.csv",
            "--scenario", scenario, "--out", bench_json, "--series", series_csv,
        )
        == 0
    )
    assert capsys.readouterr().err == "note: log carries no decision distributions; using one-hot choices\n"
    report = json.loads((out / f"report_{name}.json").read_text())
    # both solve against the trace's slot clock, so the benchmark is the same object
    assert json.loads(bench_json.read_text()) == {"k": metrics.benchmark_window(60), **report["benchmark"]}
    if abr == "l2a":
        return
    assert report["flags"][-1] == "one-hot-omega"
    header, *rows = series_csv.read_text().splitlines()
    keys = header.split(",")[1:]
    for t, row in enumerate(rows):
        values = row.split(",")[1:]
        assert values == [f"{report['series'][key][t]:.6g}" for key in keys]


def _compare_config(tmp_path, segments=50, count=2):
    cfg = {
        "scenario": "vod",
        "tau": 2,
        "seed": 0,
        "manifest": {
            "generate": {
                "num_segments": segments,
                "bitrates_kbps": [370, 750, 1500, 3000, 5800, 12000, 17000, 20000],
                "segment_duration_s": 2.0,
                "vbr_jitter": 0.1,
                "seed": 100,
            }
        },
        "traces": {
            "generate": {
                "count": count,
                "duration_s": 600,
                "low_kbps": 750,
                "high_kbps": 23000,
                "p_transition": 0.05,
            }
        },
        "methods": [
            {"abr": "l2a", "beta": 1.0},
            {"abr": "l2a", "beta": 0.3},
            {"abr": "rb"},
            {"abr": "bb"},
        ],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_compare_grid(tmp_path):
    cfg = _compare_config(tmp_path)
    out = tmp_path / "cmp"
    assert run_cli("compare", "--config", cfg, "--out", out) == 0
    lines = (out / "comparison.csv").read_text().splitlines()
    assert lines[0] == "method,avg_bitrate_kbps,normalized_avg_bitrate,stability,smoothness,consistency,continuity"
    assert len(lines) == 5  # header + 4 methods
    methods = sorted(line.split(",")[0] for line in lines[1:])
    assert methods == ["bb", "l2a-beta0.3", "l2a-beta1", "rb"]
    for method in methods:
        assert (out / f"convergence_{method}.csv").exists()
        for i in range(2):
            assert (out / "sessions" / f"{method}__markovian-{i:04d}.json").exists()
    # every metric column populated
    for line in lines[1:]:
        assert len(line.split(",")) == 7



def test_compare_solves_one_benchmark_per_trace_for_every_method(tmp_path, monkeypatch):
    # the yardstick is each trace's slot clock, which no method changes, so
    # one solve per trace serves every session on it
    calls = []
    real = metrics.solve_benchmark

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(metrics, "solve_benchmark", counting)
    out = tmp_path / "cmp"
    assert run_cli("compare", "--config", _compare_config(tmp_path, count=3), "--out", out) == 0
    assert len(calls) == 3
    for i, args in enumerate(calls):
        trace = generate_markovian(600, 750, 23000, 0.05, seed=i)
        assert np.array_equal(args[1], slot_clock(trace, 2.0, 50))
        docs = [json.loads(p.read_text()) for p in sorted((out / "sessions").glob(f"*__markovian-{i:04d}.json"))]
        assert len(docs) == 4
        assert all(doc["benchmark"] == docs[0]["benchmark"] for doc in docs)


def test_convergence_rows_are_written_as_fmt_writes_them(tmp_path):
    # the one-call writer against the row loop it replaced, over doubles of
    # every kind, given as numpy arrays (compare and benchmark) or as lists
    rng = np.random.default_rng(18)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2250738585072014e-308, 1e16, 0.1, 123456.5]
    series = [np.concatenate([special, rng.standard_normal(40) * 10.0 ** rng.integers(-300, 300, 40)])
              for _ in range(3)]
    path = tmp_path / "convergence.csv"
    for given in (series, [values.tolist() for values in series]):
        cli._write_convergence(path, given)
        rows = ([str(t + 1)] + [cli._fmt(values[t]) for values in series] for t in range(len(series[0])))
        expected = "".join(",".join(row) + "\n" for row in [list(cli.CONVERGENCE_COLUMNS), *rows])
        assert path.read_bytes() == expected.encode()

def test_compare_deterministic(tmp_path):
    cfg = _compare_config(tmp_path, segments=40)
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    assert run_cli("compare", "--config", cfg, "--out", out1) == 0
    assert run_cli("compare", "--config", cfg, "--out", out2) == 0
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


@pytest.mark.parametrize("spec, scenario", [
    ({"abr": "l2a", "beta": 0.3}, "vod"),
    ({"abr": "rb"}, "live"),
    ({"abr": "bb"}, "vod"),
], ids=["l2a", "rb-live", "bb"])
def test_run_is_the_one_cell_of_a_compare(assets, tmp_path, capsys, spec, scenario):
    # run and compare share one session pipeline: run's report is the session
    # JSON of a one-method compare of the same manifest and trace, and both
    # print the same metrics line
    manifest, trace = assets
    flags = [arg for key, value in spec.items() for arg in (f"--{key}", value)]
    assert run_cli("run", "--manifest", manifest, "--trace", trace, *flags, "--scenario", scenario,
                   "--out", tmp_path / "run") == 0
    ran = capsys.readouterr().out
    name = cli.method_name(spec)
    report = tmp_path / "run" / f"report_{name}.json"
    cfg_path = tmp_path / "one.json"
    cfg_path.write_text(json.dumps({"scenario": scenario, "manifest": {"path": str(manifest)},
                                    "traces": [str(trace)], "methods": [spec]}))
    assert run_cli("compare", "--config", cfg_path, "--out", tmp_path / "cmp") == 0
    assert capsys.readouterr().out == ran
    assert ran.startswith(f"{name}: avg_bitrate_kbps=")
    assert report.read_bytes() == (tmp_path / "cmp" / "sessions" / f"{name}__trace.json").read_bytes()


def test_a_compare_whose_session_fails_writes_nothing(assets, tmp_path, capsys):
    # a V=30 s manifest cannot be buffered under the live 20 s bound; the
    # session fails after every policy is built and every benchmark solved,
    # and once left an empty sessions/ directory behind
    _, trace = assets
    manifest = tmp_path / "manifest-v30.json"
    assert run_cli("gen", "manifest", "--segments", 10, "--segment-duration", 30, "--out", manifest) == 0
    cfg_path = tmp_path / "live.json"
    cfg_path.write_text(json.dumps({"scenario": "live", "manifest": {"path": str(manifest)},
                                    "traces": [str(trace)], "methods": [{"abr": "rb"}, {"abr": "l2a"}]}))
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == (
        "abrsim: error: session failed for method 'l2a-beta1' on trace 'trace':"
        " b_max_s smaller than the segment duration\n"
    )
    assert not out.exists()


@pytest.fixture(scope="module")
def pinned_compare(tmp_path_factory):
    """The artifacts of a compare of the four methods on two 600 s traces
    and a 50-segment manifest, all generated from ``_compare_config``."""
    tmp = tmp_path_factory.mktemp("pinned")
    out = tmp / "out"
    assert run_cli("compare", "--config", _compare_config(tmp), "--out", out) == 0
    return out


# printed to 6 significant digits, these files hash the same under each
# OpenBLAS kernel tried (SkylakeX, Haswell, Sandybridge, Nehalem, and Katmai,
# which OPENBLAS_CORETYPE=Prescott selects on scipy-openblas 0.3.31); the
# session JSONs, which print every bit, do not yet (ROADMAP item 13)
PINNED_CSVS = {
    "comparison.csv": "49fd1e8912cf2a4c21efb5e7d7a4db1fbd4c4a391ea73af4f6968fb4d1316759",
    "convergence_bb.csv": "2884a7c83f4fde48213542a018d89d1cd005d356d532de87c0c9fcd15583a3d5",
    "convergence_l2a-beta0.3.csv": "f97a8d9d395d0267f431dd003e37d06c88288bc7ac7adb1c28db22a46be6b25c",
    "convergence_l2a-beta1.csv": "786ac86bf196d2d8450837d3cdc35efceb915bb8552fb38f57c5d2b065caa717",
    "convergence_rb.csv": "b9b4aa43bedf54044513f0a9b81539a017062e34c40841904c67be20f2d10426",
}


@pytest.mark.parametrize("name, digest", PINNED_CSVS.items(), ids=list(PINNED_CSVS))
def test_compare_csvs_are_pinned(pinned_compare, name, digest):
    assert hashlib.sha256((pinned_compare / name).read_bytes()).hexdigest() == digest


def test_compare_writes_exactly_the_pinned_csvs(pinned_compare):
    assert sorted(p.name for p in pinned_compare.glob("*.csv")) == sorted(PINNED_CSVS)


def test_compare_unknown_method_fails_with_name(tmp_path, capsys):
    cfg_path = _compare_config(tmp_path)
    cfg = json.loads(cfg_path.read_text())
    cfg["methods"] = [{"abr": "nope"}]
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("compare", "--config", cfg_path, "--out", tmp_path / "x") == 1
    # a method with no policy has no name yet, so it is named by its spec
    assert capsys.readouterr().err == (
        "abrsim: error: unknown abr 'nope' in method {'abr': 'nope'} (expected l2a, rb, or bb)\n")


@pytest.mark.parametrize(
    "abr, name, keys",
    [
        # average_blocked_grads is a removed ablation switch; epsilon, v_l and
        # alpha are removed tuning overrides, as are kappa and v_b; a name is
        # derived from the spec, never set
        ("l2a", "l2a-beta1",
         ("betta", "vl_exponent", "average_blocked_grads", "epsilon", "v_l", "alpha", "name")),
        ("rb", "rb", ("kappa", "name")),
        ("bb", "bb", ("v_b", "name")),
    ],
    ids=["l2a", "rb", "bb"],
)
def test_compare_rejects_unknown_method_key(tmp_path, capsys, abr, name, keys):
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    for key in keys:
        cfg["methods"] = [{"abr": abr, key: 0.3}]
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / key
        assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
        assert capsys.readouterr().err == (f"abrsim: error: unknown key {key!r} in method {name!r}"
                                           f" (expected abr{', beta' if abr == 'l2a' else ''})\n")
        assert not out.exists()


def test_compare_bad_last_method_runs_no_session(tmp_path, capsys, monkeypatch):
    cfg_path = _compare_config(tmp_path, segments=10, count=2)
    cfg = json.loads(cfg_path.read_text())
    cfg["methods"].append({"abr": "rb", "kapa": 0.3})
    cfg_path.write_text(json.dumps(cfg))
    calls = _count_sessions(monkeypatch)
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == "abrsim: error: unknown key 'kapa' in method 'rb' (expected abr)\n"
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("inputs", ["manifest-path", "manifest-generate"])
@pytest.mark.parametrize(
    "spec, expected",
    [
        ({"abr": "nope"}, "unknown abr 'nope' in method {'abr': 'nope'} (expected l2a, rb, or bb)"),
        ({"abr": "l2a", "beta": 0.5, "kapa": 0.3},
         "unknown key 'kapa' in method 'l2a-beta0.5' (expected abr, beta)"),
        ({"abr": "l2a", "beta": 1.5},
         "key 'beta' in method {'abr': 'l2a', 'beta': 1.5} must be a number in (0, 1], got 1.5"),
        ({"abr": "rb", "name": "zz/last"}, "unknown key 'name' in method 'rb' (expected abr)"),
    ],
    ids=["abr", "key", "beta", "name"],
)
def test_a_bad_method_is_refused_before_any_input_loads(assets, tmp_path, capsys, monkeypatch,
                                                        inputs, spec, expected):
    # a method spec is checked once, right after the methods are read: a
    # bad last method was once reported after the manifest and every trace
    # had loaded, as "cannot build method 'zz-last' for trace 'markovian-0000'"
    loads = []

    def recording(name, real):
        def wrapper(*args, **kwargs):
            loads.append(name)
            return real(*args, **kwargs)
        return wrapper

    for module, name in ((media, "load_manifest"), (media, "synthesize_manifest"),
                         (channel, "load_trace"), (channel, "generate_markovian")):
        monkeypatch.setattr(module, name, recording(name, getattr(module, name)))
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    if inputs == "manifest-path":
        cfg = {**cfg, "manifest": {"path": str(assets[0])}}
    else:
        cfg = {**cfg, "traces": [str(assets[1])]}
    cfg["methods"].append(spec)
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == f"abrsim: error: {expected}\n"
    assert loads == []
    assert not out.exists()


def test_compare_rejects_unknown_config_key(tmp_path, capsys):
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    # floor_kbps once set the trace outage floor, now the constant channel.FLOOR_KBPS
    # b_max_s once overrode the scenario's buffer bound, now SCENARIO_BMAX[scenario]
    for key, value in (("normalize_after_average", True), ("b_max", 20), ("floor_kbps", 10),
                       ("b_max_s", 20)):
        cfg_path.write_text(json.dumps({**cfg, key: value}))
        out = tmp_path / key
        assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
        err = capsys.readouterr().err
        assert f"unknown key {key!r} in the config (expected scenario, tau, seed," in err
        assert not out.exists()


def test_compare_rejects_unknown_or_missing_generate_key(tmp_path, capsys):
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    misspelt = json.loads(json.dumps(cfg))
    misspelt["manifest"]["generate"]["vbr_jiter"] = 0.3
    missing = json.loads(json.dumps(cfg))
    del missing["traces"]["generate"]["low_kbps"]
    endless = json.loads(json.dumps(cfg))
    endless["traces"]["generate"]["duration_s"] = float("inf")  # the JSON token Infinity
    for name, bad, expected in (("misspelt", misspelt, "unknown key 'vbr_jiter'"),
                                ("missing", missing, "missing key 'low_kbps'"),
                                ("number", {**cfg, "traces": {"generate": 5}},
                                 "the traces 'generate' block must be a JSON object, got 5"),
                                ("inf", endless, "duration_s must be positive and finite, got inf")):
        cfg_path.write_text(json.dumps(bad))
        out = tmp_path / name
        assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "block, key, value, expected",
    [
        (None, "tau", 2.7, "key 'tau' in the config must be an integer, got 2.7"),
        (None, "tau", True, "key 'tau' in the config must be a number, got True"),
        (None, "seed", 1.9, "key 'seed' in the config must be an integer, got 1.9"),
        (None, "seed", "x", "key 'seed' in the config must be a number, got 'x'"),
        ("manifest", "num_segments", 20.7,
         "key 'num_segments' in the manifest 'generate' block must be an integer, got 20.7"),
        ("manifest", "vbr_jitter", False,
         "key 'vbr_jitter' in the manifest 'generate' block must be a number, got False"),
        ("traces", "duration_s", "abc",
         "key 'duration_s' in the traces 'generate' block must be a number, got 'abc'"),
        ("traces", "duration_s", 10**400,
         "key 'duration_s' in the traces 'generate' block is out of the float range"),
        ("traces", "count", float("inf"),
         "key 'count' in the traces 'generate' block must be an integer, got inf"),
        # the first trace's seed, and the manifest's
        (None, "seed", -1, "key 'seed' in the config must be an integer >= 0, got -1"),
        ("manifest", "seed", -1, "key 'seed' in the manifest 'generate' block must be an integer >= 0, got -1"),
    ],
    ids=["tau-fraction", "tau-bool", "seed-fraction", "seed-string",
         "segments-fraction", "jitter-bool", "duration-string", "duration-huge", "count-inf",
         "seed-negative", "manifest-seed-negative"],
)
def test_compare_config_numbers_are_checked(tmp_path, capsys, block, key, value, expected):
    # each was once truncated, read as 1 or 0, or failed with a message that named no field
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    (cfg if block is None else cfg[block]["generate"])[key] = value
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == f"abrsim: error: {expected}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "kind, edit, expected",
    [
        # a key stated twice once ran its last value: live, l2a-beta1, V = 4 s
        ("config", lambda text: text.replace('"scenario": "vod"', '"scenario": "vod", "scenario": "live"'),
         "cannot read config INPUT: key 'scenario' is stated twice in one object"),
        ("config", lambda text: text.replace('"beta": 0.3', '"beta": 0.3, "beta": 1.0'),
         "cannot read config INPUT: key 'beta' is stated twice in one object"),
        ("manifest", '{"segment_duration_s": 2.0, "segment_duration_s": 4.0, "bitrates_kbps": [1000, 3000],'
                     ' "segment_sizes_kbit": [[2000, 6000]]}',
         "cannot read manifest INPUT: key 'segment_duration_s' is stated twice in one object"),
        # a config that did not parse was once reported without its file
        ("config", lambda text: '{"scenario": "vod",',
         "cannot read config INPUT: Expecting property name enclosed in double quotes: line 1 column 20 (char 19)"),
        # an integer below its least value was once reported under another name, or under none
        ("config", lambda text: text.replace('"tau": 2', '"tau": 0'),
         "key 'tau' in the config must be an integer >= 1, got 0"),
        ("run", ["--tau", "0"], "--tau must be an integer >= 1, got 0"),
        # a bad beta once named neither its flag nor its method
        ("run", ["--beta", "0"], "--beta must be a number in (0, 1], got 0.0"),
        ("config", lambda text: text.replace('"count": 1', '"count": 0'),
         "key 'count' in the traces 'generate' block must be an integer >= 1, got 0"),
        ("config", lambda text: text.replace('"num_segments": 10', '"num_segments": 0'),
         "key 'num_segments' in the manifest 'generate' block must be an integer >= 1, got 0"),
    ],
    ids=["config-repeated-key", "method-repeated-key", "manifest-repeated-key", "config-unparsed",
         "tau-zero", "run-tau-zero", "run-beta-zero", "count-zero", "segments-zero"],
)
def test_an_input_is_read_as_written_or_refused_by_name(assets, tmp_path, capsys, kind, edit, expected):
    manifest, trace = assets
    path = _compare_config(tmp_path, segments=10, count=1)
    argv = ["compare", "--config", path]
    if kind == "config":
        path.write_text(edit(path.read_text()))
    elif kind == "manifest":
        path = tmp_path / "repeated.json"
        path.write_text(edit)
        argv = ["run", "--manifest", path, "--trace", trace]
    else:
        argv = ["run", "--manifest", manifest, "--trace", trace, *edit]
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", out) == 1
    assert capsys.readouterr().err == f"abrsim: error: {expected.replace('INPUT', str(path))}\n"
    assert not out.exists()


@pytest.mark.parametrize("scenario", [["live"], {"a": 1}, 3, None, "LIVE"],
                         ids=["list", "object", "number", "null", "upper-case"])
def test_compare_rejects_a_scenario_that_is_not_a_scenario_name(tmp_path, capsys, scenario):
    # a list or an object once ended in "TypeError: unhashable type" with a traceback
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    cfg_path.write_text(json.dumps({**cfg, "scenario": scenario}))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"abrsim: error: key 'scenario' in the config must be one of 'vod', 'live', got {scenario!r}\n"
    )
    assert not out.exists()


def test_compare_needs_a_manifest_and_trace_paths(tmp_path, capsys):
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    no_manifest = {key: value for key, value in cfg.items() if key != "manifest"}
    no_path = {**cfg, "traces": [{"file": "trace.csv"}]}
    for name, bad, expected in (("manifest", no_manifest, "manifest spec needs"),
                                ("path", no_path, "unknown key 'file' in trace entry {'file': 'trace.csv'}"
                                                  " (expected path)")):
        cfg_path.write_text(json.dumps(bad))
        out = tmp_path / name
        assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
        assert expected in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "bad, expected",
    [
        (lambda cfg, manifest, trace: [], "the config must be a JSON object, got []"),
        (lambda cfg, manifest, trace: 5, "the config must be a JSON object, got 5"),
        (lambda cfg, manifest, trace: None, "the config must be a JSON object, got None"),
        (lambda cfg, manifest, trace: "x", "the config must be a JSON object, got 'x'"),
        (lambda cfg, manifest, trace: {**cfg, "manifest": {**cfg["manifest"], "seed": 1}},
         "unknown key 'seed' in the manifest spec (expected generate)"),
        (lambda cfg, manifest, trace: {**cfg, "manifest": {**cfg["manifest"], "path": manifest}},
         "unknown key 'generate' in the manifest spec (expected path)"),
        (lambda cfg, manifest, trace: {**cfg, "traces": {**cfg["traces"], "count": 3}},
         "unknown key 'count' in the traces spec (expected generate)"),
        (lambda cfg, manifest, trace: {**cfg, "traces": [{"name": "x", "path": trace}]},
         "unknown key 'name' in trace entry {'name': 'x', 'path': TRACE} (expected path)"),
        (lambda cfg, manifest, trace: {**cfg, "traces": {"generate": {**cfg["traces"]["generate"],
                                                                       "kind": "markovian"}}},
         "unknown key 'kind' in the traces 'generate' block"
         " (expected duration_s, low_kbps, high_kbps, p_transition, count, step_s)"),
    ],
    ids=["config-list", "config-number", "config-null", "config-string", "manifest-extra-key",
         "manifest-path-and-generate", "traces-count-beside-generate", "trace-entry-name", "traces-kind"],
)
def test_every_config_object_follows_one_key_rule(assets, tmp_path, capsys, bad, expected):
    # the config and each of its objects is a JSON object with its required
    # keys and no other key: a config of [], 5 or null once ended in a
    # traceback, "x" in "unknown config keys 'x'", and each misplaced key here
    # was once ignored (a "count" beside the traces' generate block ran one
    # trace, not three)
    manifest, trace = str(assets[0]), str(assets[1])
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg_path.write_text(json.dumps(bad(json.loads(cfg_path.read_text()), manifest, trace)))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"abrsim: error: {expected.replace('TRACE', repr(trace))}\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_the_default_tau_is_stated_once():
    args = cli.build_parser().parse_args(["run", "--manifest", "m.json", "--trace", "t.csv"])
    assert args.tau == session.SessionConfig(b_max_s=20.0).tau_resume == session.DEFAULT_TAU_RESUME == 2


def test_a_bare_manifest_path_is_not_a_manifest_spec(assets, tmp_path, capsys):
    # a manifest is {"path": ...} or {"generate": ...}; a bare string, once
    # read as a path, is rejected before anything is written, while a trace
    # entry may still be one
    manifest, trace = assets
    cfg_path = tmp_path / "bare.json"
    cfg_path.write_text(json.dumps({
        "manifest": str(manifest),
        "traces": [str(trace)],
        "methods": [{"abr": "rb"}],
    }))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == "abrsim: error: manifest spec needs 'path' or 'generate'\n"
    assert not out.exists()
    cfg_path.write_text(json.dumps({
        "manifest": {"path": str(manifest)},
        "traces": [str(trace)],
        "methods": [{"abr": "rb"}],
    }))
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 0


def test_compare_rejects_two_traces_of_one_name(assets, tmp_path, capsys):
    # sessions are keyed by trace name, the file stem: two trace files named
    # trace.csv once failed with a KeyError after --out was created
    manifest, trace = assets
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        (tmp_path / sub / "trace.csv").write_bytes(trace.read_bytes())
    cfg_path = tmp_path / "dup.json"
    cfg_path.write_text(json.dumps({
        "manifest": {"path": str(manifest)},
        "traces": [str(tmp_path / "a" / "trace.csv"), {"path": str(tmp_path / "b" / "trace.csv")}],
        "methods": [{"abr": "rb"}],
    }))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == (
        "abrsim: error: duplicate trace name 'trace' in config: trace files need distinct file names\n"
    )
    assert not out.exists()


# method specs of every policy, l2a at any beta in (0, 1]
METHOD_SPECS = st.sampled_from([{"abr": "rb"}, {"abr": "bb"}]) | st.builds(
    lambda beta: {"abr": "l2a", "beta": beta}, st.floats(0.0, 1.0, exclude_min=True))
# trace file stems with "_" and "__" anywhere, at either end included
TRACE_STEMS = st.sampled_from(["_", "__", "_a", "a_", "a__b", "__a__"]) | st.text("ab_", min_size=1, max_size=6)


@settings(max_examples=50, deadline=None)
@given(specs=st.lists(METHOD_SPECS, min_size=1, max_size=3, unique_by=cli.method_name),
       stems=st.lists(TRACE_STEMS, min_size=1, max_size=3, unique=True))
def test_every_session_of_a_compare_writes_its_own_report(tmp_path_factory, specs, stems):
    # a method name is derived from its spec and holds no "_", so the report
    # sessions/{method}__{trace}.json of one pair is never that of another
    # (a hand-set name "a__b" on trace "c" once wrote the report of "a" on "b__c")
    tmp = tmp_path_factory.mktemp("pairs")
    manifest = tmp / "manifest.json"
    assert run_cli("gen", "manifest", "--segments", 6, "--out", manifest) == 0
    for i, stem in enumerate(stems):
        assert run_cli("gen", "trace", "--duration", 30, "--seed", i, "--out", tmp / f"{stem}.csv") == 0
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps({"manifest": {"path": str(manifest)},
                               "traces": [str(tmp / f"{stem}.csv") for stem in stems], "methods": specs}))
    assert run_cli("compare", "--config", cfg, "--out", tmp / "out") == 0
    reports = {}
    for path in (tmp / "out" / "sessions").iterdir():
        method, _, rest = path.name.partition("_")
        assert rest.startswith("_") and rest.endswith(".json")
        doc = json.loads(path.read_text())
        assert (doc["method"], doc["trace"]) == (method, rest[1:-len(".json")])
        reports[path.name] = (method, doc["trace"])
    assert sorted(reports.values()) == sorted((cli.method_name(spec), stem) for spec in specs for stem in stems)


def test_a_manifest_with_no_segments_is_an_input_error(assets, tmp_path, capsys):
    # such a manifest once loaded, and run or compare then failed scoring it
    # with "window k=1 outside 1..0", compare after --out was created
    _, trace = assets
    manifest = tmp_path / "empty.json"
    manifest.write_text(json.dumps({"segment_duration_s": 2.0, "bitrates_kbps": [1000, 3000],
                                    "segment_sizes_kbit": []}))
    cfg_path = tmp_path / "empty-config.json"
    cfg_path.write_text(json.dumps({"manifest": {"path": str(manifest)}, "traces": [str(trace)],
                                    "methods": [{"abr": "rb"}]}))
    expected = f"abrsim: error: manifest {manifest}: segment_sizes_kbit holds no segments;"
    for argv in (("run", "--manifest", manifest, "--trace", trace), ("compare", "--config", cfg_path)):
        out = tmp_path / f"out-{argv[0]}"
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(expected) and err.count("\n") == 1
        assert not out.exists()


def test_compare_rejects_removed_utility_rate_scale(tmp_path, capsys):
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    cfg["methods"] = [{"abr": "l2a", "utility_rate_scale": 1.5e-5}]
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("compare", "--config", cfg_path, "--out", tmp_path / "x") == 1
    assert "'utility_rate_scale'" in capsys.readouterr().err


def test_compare_non_numeric_beta_gets_the_parameter_error(tmp_path, capsys):
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    for beta in ("0.3", float("nan"), float("inf"), 0, 1.5, True):
        cfg["methods"] = [{"abr": "l2a", "beta": beta}]
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "x"
        assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
        err = capsys.readouterr().err
        # a method without a name is named by its spec
        assert err == (f"abrsim: error: key 'beta' in method {cfg['methods'][0]!r}"
                       f" must be a number in (0, 1], got {beta!r}\n")
        assert not out.exists()


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("methods", ["l2a"], "key 'methods' in the config must be a list of method objects, got ['l2a']"),
        ("methods", {"abr": "rb"},
         "key 'methods' in the config must be a list of method objects, got {'abr': 'rb'}"),
        ("traces", [{"path": 5}], "trace entry {'path': 5}: the path must be a string"),
        ("manifest", {"path": 0}, "manifest 'path' must be a string, got 0"),
        # the generate block's ladder follows a manifest's ladder rule
        ("bitrates_kbps", "12", "bitrates_kbps must be a list of numbers, got '12'"),
        ("bitrates_kbps", [370, 10**400],
         "bitrates_kbps must be a list of numbers: int too large to convert to float"),
    ],
    ids=["method-string", "methods-object", "trace-path-number", "manifest-path-number",
         "bitrates-string", "bitrates-huge"],
)
def test_compare_rejects_config_entries_of_the_wrong_shape(tmp_path, capsys, key, value, expected):
    # each once ended in a traceback, or (manifest path 0) read the manifest from stdin
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    if key == "bitrates_kbps":
        cfg["manifest"]["generate"][key] = value
    else:
        cfg[key] = value
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"abrsim: error: {expected}\n"
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["../esc", "a/b", "a\\b", "", 5])
def test_compare_rejects_a_method_name_that_is_not_a_file_name(tmp_path, capsys, name):
    # "../esc" once wrote OUT/esc__<trace>.json outside sessions/ and a partial
    # comparison.csv, then failed on convergence_../esc.csv; a name is
    # derived from the spec, so a name key is refused as any unknown key
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    cfg["methods"] = [{"abr": "rb", "name": name}]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out" / "cmp"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    err = capsys.readouterr().err
    assert err == "abrsim: error: unknown key 'name' in method 'rb' (expected abr)\n"
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["x,y\nz", 'x"y', "x\ry", "x\ny"], ids=["comma-lf", "quote", "cr", "lf"])
def test_compare_rejects_a_method_name_that_is_not_a_csv_field(tmp_path, capsys, name):
    # "x,y\nz" once wrote comparison.csv rows "x,y" and "z,811.333,..." of the wrong width
    cfg_path = _compare_config(tmp_path, segments=10, count=1)
    cfg = json.loads(cfg_path.read_text())
    cfg["methods"] = [{"abr": "rb", "name": name}]
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out" / "cmp"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 1
    assert capsys.readouterr().err == "abrsim: error: unknown key 'name' in method 'rb' (expected abr)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "message, expected",
    [("Unable to allocate 58.2 TiB for an array", "Unable to allocate 58.2 TiB for an array"),
     ("", "out of memory")],
    ids=["numpy", "bare"],
)
def test_memory_error_is_an_input_error(tmp_path, capsys, monkeypatch, message, expected):
    # a huge "num_segments" once ended in numpy's _ArrayMemoryError traceback;
    # the allocation is simulated, never attempted
    def no_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(media, "synthesize_manifest", no_memory)
    out = tmp_path / "out"
    assert run_cli("compare", "--config", _compare_config(tmp_path), "--out", out) == 1
    err = capsys.readouterr().err
    assert err == f"abrsim: error: {expected}\n"
    assert "Traceback" not in err
    assert not out.exists()


def test_compare_scenario_override(tmp_path, monkeypatch):
    # the config's "scenario" overrides the vod default: every session runs
    # under the live 20 s bound, and a session fills its buffer up to it
    cfg_path = _compare_config(tmp_path, segments=30, count=1)
    cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "scenario": "live"}))
    runs = []
    real_run_session = session.run_session

    def recording_run_session(policy, config, manifest, trace):
        state = real_run_session(policy, config, manifest, trace)
        runs.append((config.b_max_s, max(rec.buffer_after_s for rec in state.history)))
        return state

    monkeypatch.setattr(session, "run_session", recording_run_session)
    out = tmp_path / "live"
    assert run_cli("compare", "--config", cfg_path, "--out", out) == 0
    assert len(runs) == 4
    assert all(b_max == 20.0 and peak <= 20.0 for b_max, peak in runs)
    assert max(peak for _, peak in runs) == 20.0
    doc = json.loads((out / "sessions" / "rb__markovian-0000.json").read_text())
    assert doc["method"] == "rb"


@pytest.mark.parametrize(
    "command, options",
    [
        # a comparison is determined by its config: no flag overrides a config key
        ("compare", {"--config", "--out"}),
        # the trace outage floor is the constant channel.FLOOR_KBPS, the scenario
        # alone sets the buffer bound, and the benchmark window is ceil(T^0.9)
        ("run", {"--manifest", "--trace", "--scenario", "--tau", "--abr", "--beta", "--out"}),
        ("concat-traces", {"--out"}),
        ("benchmark", {"--manifest", "--log", "--trace", "--scenario", "--out", "--series"}),
    ],
)
def test_subcommand_options(capsys, command, options):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out)) == options | {"--help"}


@pytest.mark.parametrize("argv", [
    ["run", "--manifest", "m.json", "--trace", "t.csv", "--out", "out", "--sc", "live"],
    ["gen", "trace", "--duration", "10", "--out", "t.csv", "--see", "3"],
])
def test_an_option_is_spelled_out(argv, tmp_path, monkeypatch, capsys):
    # argparse's default takes a unique prefix for the whole option, so
    # "--sc live" once ran the live scenario
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.endswith(f"abrsim: error: unrecognized arguments: {' '.join(argv[-2:])}\n")
    assert not any(tmp_path.iterdir())


def test_undecodable_trace_is_an_input_error(assets, tmp_path, capsys):
    manifest, trace = assets
    bad = tmp_path / "bad.csv"
    bad.write_bytes(trace.read_bytes().replace(b"\n", b"\n\xff", 1))
    assert run_cli("run", "--manifest", manifest, "--trace", bad) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"abrsim: error: {bad}: line 2: 'utf-8' codec can't decode byte 0xff ")
    assert "Traceback" not in err


def test_missing_file_is_error(tmp_path, capsys):
    assert run_cli("run", "--manifest", tmp_path / "no.json", "--trace", tmp_path / "no.csv") == 1
    assert "error" in capsys.readouterr().err
