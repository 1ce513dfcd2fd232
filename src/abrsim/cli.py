"""Experiment harness: asset generation, single runs, and method comparisons.

Subcommands: ``run``, ``compare``, ``gen trace``, ``gen manifest``,
``concat-traces``, ``benchmark``.  A comparison is driven by one JSON config,
which alone determines it, and emits a comparison CSV, one JSON report per
(method, trace), and a per-method convergence CSV, all byte-deterministic for
a fixed config.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import channel, media, metrics, session
from .baselines import BBPolicy, RBPolicy
from .l2a import L2APolicy, check_beta

SCENARIO_BMAX = {"vod": 120.0, "live": 20.0}

COMPARISON_COLUMNS = (
    "method",
    "avg_bitrate_kbps",
    "normalized_avg_bitrate",
    "stability",
    "smoothness",
    "consistency",
    "continuity",
)
CONVERGENCE_COLUMNS = ("t", "regret_rate", "residual1_rate", "residual2_rate")
SERIES_KEYS = CONVERGENCE_COLUMNS[1:]
# one row of each CSV: the epoch or the method, then each value as _fmt writes
# it ('%.6g' % v is f"{v:.6g}" for every double, non-finite ones included)
_CONVERGENCE_ROW = "%d,%.6g,%.6g,%.6g\n"
_COMPARISON_ROW = "%s" + ",%.6g" * (len(COMPARISON_COLUMNS) - 1) + "\n"
# β is the one policy setting; every other parameter is derived when the policy
# is built (L2A's v_l and alpha from T, bb's v_b and gamma_p from the ladder and
# the buffer) or a module constant (L2A's EPSILON, rb's RB_* constants)
POLICIES = ("l2a", "rb", "bb")
CONFIG_KEYS = ("scenario", "tau", "seed", "manifest", "traces", "methods")


class CliError(Exception):
    """Fatal harness error; message is printed and mapped to exit code 1."""


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _config_object(obj, what: str, required=(), optional=()) -> dict:
    """``obj``, one object of a ``compare`` config, named ``what`` in errors.

    The rule of every such object: it is a JSON object that holds each key
    of ``required`` and no key outside ``required`` and ``optional``.
    Anything else is a CliError naming ``what`` and, for a key, the key.
    """
    if not isinstance(obj, dict):
        raise CliError(f"{what} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise CliError(f"unknown key {key!r} in {what} (expected {', '.join(required + optional)})")
    for key in required:
        if key not in obj:
            raise CliError(f"missing key {key!r} in {what}")
    return obj


def _beta(value, what: str):
    """``value`` if ``check_beta`` takes it, else a CliError naming ``what``."""
    try:
        return check_beta(value)
    except ValueError:
        raise CliError(f"{what} must be a number in (0, 1], got {value!r}") from None


def method_name(spec: dict) -> str:
    """The name of the method ``spec``, derived from it: ``l2a-beta<beta>``
    for ``l2a`` and the ``abr`` value for the others, so a name holds no
    underscore, comma, quote, path separator or line break.  β is written
    with ``:g`` when that text reads back as β, and as its ``repr``
    otherwise, so two distinct β never share a name.  The rule of a method
    spec: ``abr`` is held and is one of POLICIES, ``beta`` (``l2a`` only,
    default 1) passes ``check_beta``, and no other key is held.  Each fault
    is a CliError naming the method, by its spec while it has no name (no
    or an unknown ``abr``, a bad ``beta``)."""
    if "abr" not in spec:
        raise CliError(f"missing key 'abr' in method {spec!r}")
    abr = spec["abr"]
    if abr not in POLICIES:
        raise CliError(f"unknown abr {abr!r} in method {spec!r} (expected l2a, rb, or bb)")
    if abr != "l2a":
        _config_object(spec, f"method {abr!r}", ("abr",))
        return abr
    beta = _beta(spec.get("beta", 1.0), f"key 'beta' in method {spec!r}")
    text = f"{beta:g}"
    name = f"l2a-beta{text if float(text) == beta else repr(beta)}"
    _config_object(spec, f"method {name!r}", ("abr",), ("beta",))
    return name


def build_policy(spec: dict, manifest: media.Manifest, b_max_s: float, horizon_t: int):
    """Instantiate the policy of a method spec, which ``method_name`` checks."""
    method_name(spec)
    if spec["abr"] == "l2a":
        return L2APolicy(manifest.bitrates_kbps, manifest.segment_duration_s, b_max_s, horizon_t,
                         beta=spec.get("beta", 1.0))
    if spec["abr"] == "rb":
        return RBPolicy(manifest.bitrates_kbps)
    return BBPolicy(manifest, b_max_s)


# `generate` block keys: (required, optional), for the manifest and the traces
GENERATE_KEYS = {
    "manifest": (("num_segments", "bitrates_kbps", "segment_duration_s"), ("vbr_jitter", "seed")),
    "traces": (("duration_s", "low_kbps", "high_kbps", "p_transition"), ("count", "step_s")),
}


def _number(block: dict, key: str, default=None, *, least: int | None = None,
            where: str = "the config"):
    """``block[key]`` (or ``default``) as a float or, given ``least``, as an
    int of at least ``least``.

    A bool, a non-number or, for an integer field, a value that is not
    integral or is below ``least`` is a CliError naming the key and ``where``.
    """
    value = block.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise CliError(f"key {key!r} in {where} must be a number, got {value!r}")
    if least is None:
        try:
            return float(value)
        except OverflowError:  # an int past the float range
            raise CliError(f"key {key!r} in {where} is out of the float range") from None
    if isinstance(value, float) and not value.is_integer():
        raise CliError(f"key {key!r} in {where} must be an integer, got {value!r}")
    if value < least:
        raise CliError(f"key {key!r} in {where} must be an integer >= {least}, got {value!r}")
    return int(value)


def _resolve_manifest(spec, seed: int) -> media.Manifest:
    if isinstance(spec, dict) and "path" in spec:
        path = _config_object(spec, "the manifest spec", ("path",))["path"]
        if not isinstance(path, str):
            raise CliError(f"manifest 'path' must be a string, got {path!r}")
        return media.load_manifest(path)
    if isinstance(spec, dict) and "generate" in spec:
        where = "the manifest 'generate' block"
        g = _config_object(_config_object(spec, "the manifest spec", ("generate",))["generate"],
                           where, *GENERATE_KEYS["manifest"])
        # the ladder's rule, media.require_ladder, checks bitrates_kbps
        return media.synthesize_manifest(
            _number(g, "num_segments", least=1, where=where),
            g["bitrates_kbps"],
            _number(g, "segment_duration_s", where=where),
            vbr_jitter=_number(g, "vbr_jitter", 0.0, where=where),
            seed=_number(g, "seed", seed, least=0, where=where),
        )
    raise CliError("manifest spec needs 'path' or 'generate'")


def _resolve_traces(spec, seed: int) -> list[tuple[str, channel.ChannelTrace]]:
    out: list[tuple[str, channel.ChannelTrace]] = []
    if isinstance(spec, dict) and "generate" in spec:
        where = "the traces 'generate' block"
        g = _config_object(_config_object(spec, "the traces spec", ("generate",))["generate"],
                           where, *GENERATE_KEYS["traces"])
        count = _number(g, "count", 1, least=1, where=where)
        args = [_number(g, key, where=where)
                for key in ("duration_s", "low_kbps", "high_kbps", "p_transition")]
        step_s = _number(g, "step_s", 1.0, where=where)
        for i in range(count):
            tr = channel.generate_markovian(*args, step_s=step_s, seed=seed + i)
            out.append((f"markovian-{seed + i:04d}", tr))
        return out
    if isinstance(spec, list):
        for entry in spec:
            path = entry
            if isinstance(entry, dict):
                path = _config_object(entry, f"trace entry {entry!r}", ("path",))["path"]
            if not isinstance(path, str):
                raise CliError(f"trace entry {entry!r}: the path must be a string")
            out.append((Path(path).stem, channel.load_trace(path)))
        return out
    raise CliError("traces spec needs a list of paths or a 'generate' block")


def _benchmark_dict(bench: metrics.BenchmarkSolution) -> dict:
    return {
        "omega_star": [float(w) for w in bench.omega_star],
        "objective_kbps": float(bench.objective),
        "max_window_violation": float(bench.max_window_violation),
        "slack_used": float(bench.slack_used),
        "binding_windows": int(bench.binding_windows),
    }


def _report_dict(name: str, trace_name: str, report: metrics.SessionReport,
                 bench: metrics.BenchmarkSolution, series: metrics.ConvergenceSeries) -> dict:
    return {
        "method": name,
        "trace": trace_name,
        **{c: float(getattr(report, c)) for c in COMPARISON_COLUMNS[1:]},
        "flags": report.flags + (["one-hot-omega"] if series.one_hot_fallback else []),
        "series": {key: getattr(series, key).tolist() for key in SERIES_KEYS},
        "benchmark": _benchmark_dict(bench),
    }


def _write_json(doc, path: Path) -> None:
    with open(path, "w") as fh:
        # json.dumps uses the C encoder; json.dump always runs the pure-Python one
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        fh.write("\n")


def _write_csv(path: Path, columns, row_format: str, rows) -> None:
    """The header ``columns``, then each of ``rows`` formatted by the ``%``
    template ``row_format``, written in one call."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n" + "".join(map(row_format.__mod__, rows)))


def _write_convergence(path: Path, series) -> None:
    """One row per epoch of the three rate series, in SERIES_KEYS order,
    formatted as ``_fmt`` formats them."""
    columns = [np.asarray(values, dtype=float).tolist() for values in series]
    _write_csv(path, CONVERGENCE_COLUMNS, _CONVERGENCE_ROW, zip(range(1, len(columns[0]) + 1), *columns))


def _print_metrics(name: str, report: metrics.SessionReport) -> None:
    """One line of ``report``'s metrics, named as the comparison CSV's columns."""
    print(f"{name}: " + " ".join(f"{c}={_fmt(getattr(report, c))}" for c in COMPARISON_COLUMNS[1:]))


# ---------------------------------------------------------------------------
# the evaluation pipeline shared by run and compare


def _sessions(manifest: media.Manifest, traces, specs: dict, cfg: session.SessionConfig):
    """Every session of each method of ``specs`` (name -> method spec, as
    ``method_name`` checked it, in order) on each of ``traces`` ((name,
    trace) pairs), yielded one at a time, trace by trace, as ``(name,
    trace_name, history, report, bench, series)``: the session's log, its
    metrics (not yet normalized), its trace's benchmark and its regret and
    residual series against it.

    Each trace's benchmark is solved once, before its sessions, and each
    session runs a fresh policy.  Each failure is a CliError naming the
    trace and, for a session, the method.  Only the session being scored
    holds a log, so a caller that keeps the other fields keeps no log.
    """
    b_max = cfg.b_max_s
    for trace_name, trace in traces:
        try:
            bench = metrics.hindsight_benchmark(manifest, trace, manifest.num_segments, b_max)
        except Exception as exc:
            raise CliError(f"benchmark failed on trace {trace_name!r}: {exc}") from exc
        for name, spec in specs.items():
            try:
                policy = build_policy(spec, manifest, b_max, manifest.num_segments)
                history = session.run_session(policy, cfg, manifest, trace).history
                series = metrics.regret_and_residuals(history, manifest, bench, manifest.segment_duration_s, b_max)
                report = metrics.qoe_metrics(history, manifest, cfg.tau_resume, manifest.duration_s)
            except Exception as exc:
                raise CliError(f"session failed for method {name!r} on trace {trace_name!r}: {exc}") from exc
            yield name, trace_name, history, report, bench, series


def run_compare(config: dict, out_dir: Path) -> None:
    """Run every (method x trace) session, aggregate, and write artifacts.

    The config and each object in it are read under ``_config_object``'s
    rule, and each method spec under ``method_name``'s before any manifest
    or trace is loaded.  Nothing is written to ``out_dir`` unless every
    session is scored.
    """
    _config_object(config, "the config", optional=CONFIG_KEYS)
    scenario = config.get("scenario", "vod")
    if not isinstance(scenario, str) or scenario not in SCENARIO_BMAX:
        raise CliError(f"key 'scenario' in the config must be one of"
                       f" {', '.join(map(repr, SCENARIO_BMAX))}, got {scenario!r}")
    b_max = SCENARIO_BMAX[scenario]
    tau = _number(config, "tau", session.DEFAULT_TAU_RESUME, least=1)
    seed = _number(config, "seed", 0, least=0)
    methods = config.get("methods") or []
    if not isinstance(methods, list) or not all(isinstance(spec, dict) for spec in methods):
        raise CliError(f"key 'methods' in the config must be a list of method objects, got {methods!r}")
    if not methods:
        raise CliError("config needs at least one method")
    names = [method_name(m) for m in methods]
    if len(set(names)) != len(names):
        raise CliError(f"duplicate method names in config: {sorted(names)}")
    specs = dict(sorted(zip(names, methods)))

    manifest = _resolve_manifest(config.get("manifest"), seed)
    traces = _resolve_traces(config.get("traces"), seed)
    if not traces:
        raise CliError("config needs at least one trace")
    traces.sort(key=lambda item: item[0])
    # a session is keyed by its trace's name, the file stem for a trace file;
    # a method name holds no "_", so sessions/{method}__{trace}.json names one pair
    for (trace_name, _), (next_name, _) in zip(traces, traces[1:]):
        if trace_name == next_name:
            raise CliError(f"duplicate trace name {trace_name!r} in config:"
                           " trace files need distinct file names")

    sess_cfg = session.SessionConfig(b_max_s=b_max, tau_resume=tau)
    # by_method[name] = list of (trace_name, report, benchmark, series), in trace order
    by_method: dict[str, list] = {name: [] for name in specs}
    for name, trace_name, _, report, bench, series in _sessions(manifest, traces, specs, sess_cfg):
        by_method[name].append((trace_name, report, bench, series))
    # bitrates are normalized per trace across methods, then averaged
    for cells in zip(*by_method.values()):
        metrics.normalize_avg_bitrate([report for _, report, _, _ in cells])
    means = {
        name: metrics.SessionReport(**{c: float(np.mean([getattr(report, c) for _, report, _, _ in cells]))
                                       for c in COMPARISON_COLUMNS[1:]})
        for name, cells in by_method.items()
    }

    sessions_dir = out_dir / "sessions"
    sessions_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "comparison.csv", COMPARISON_COLUMNS, _COMPARISON_ROW,
               [(name, *(getattr(report, c) for c in COMPARISON_COLUMNS[1:])) for name, report in means.items()])
    for name, cells in by_method.items():
        for trace_name, report, bench, series in cells:
            _write_json(_report_dict(name, trace_name, report, bench, series),
                        sessions_dir / f"{name}__{trace_name}.json")
        _write_convergence(out_dir / f"convergence_{name}.csv",
                           [np.mean([getattr(s, key) for *_, s in cells], axis=0) for key in SERIES_KEYS])
    for name, report in means.items():
        _print_metrics(name, report)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_run(args) -> int:
    if args.beta is not None:
        if args.abr != "l2a":
            raise CliError(f"--beta not used by --abr {args.abr}")
        _beta(args.beta, "--beta")
    channel.require_count("--tau", args.tau)
    spec = {"abr": args.abr} if args.beta is None else {"abr": args.abr, "beta": args.beta}
    name = method_name(spec)
    manifest = media.load_manifest(args.manifest)
    trace = channel.load_trace(args.trace)
    cfg = session.SessionConfig(b_max_s=SCENARIO_BMAX[args.scenario], tau_resume=args.tau)
    # compare's pipeline on one method and one trace: its one cell
    ((_, trace_name, history, report, bench, series),) = _sessions(
        manifest, [(Path(args.trace).stem, trace)], {name: spec}, cfg)
    metrics.normalize_avg_bitrate([report])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    session.export_log_csv(history, out / f"session_{name}.csv")
    _write_json(_report_dict(name, trace_name, report, bench, series), out / f"report_{name}.json")
    _print_metrics(name, report)
    return 0


def _cmd_compare(args) -> int:
    run_compare(media.read_json(args.config, "config"), Path(args.out))
    return 0


def _cmd_gen(args) -> int:
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.kind == "trace":
        trace = channel.generate_markovian(
            args.duration, args.low, args.high, args.p_transition, step_s=args.step, seed=args.seed
        )
        channel.write_trace(trace, out)
    else:
        manifest = media.synthesize_manifest(
            args.segments, _parse_bitrates(args.bitrates), args.segment_duration,
            vbr_jitter=args.jitter, seed=args.seed,
        )
        media.write_manifest(manifest, out)
    print(out)
    return 0


def _cmd_concat(args) -> int:
    traces = [channel.load_trace(p) for p in args.traces]
    channel.write_trace(channel.concat_traces(traces), Path(args.out))
    print(args.out)
    return 0


def _cmd_benchmark(args) -> int:
    manifest = media.load_manifest(args.manifest)
    history = session.read_log_csv(args.log)
    if not history:
        raise CliError(f"{args.log}: empty session log")
    if len(history) > manifest.num_segments:
        raise CliError(f"{args.log}: {len(history)} records, more than the {manifest.num_segments}"
                       f" segments of manifest {args.manifest}")
    b_max = SCENARIO_BMAX[args.scenario]
    if b_max < manifest.segment_duration_s:
        raise CliError(f"the {b_max!r} s b_max of scenario {args.scenario} is below the"
                       f" {manifest.segment_duration_s!r} s segments of manifest {args.manifest}")
    trace = channel.load_trace(args.trace)
    # a log is scored only if it is the session that its decisions replay to
    try:
        history = session.replay_log(history, manifest, trace, b_max)
    except ValueError as exc:
        raise CliError(f"{args.log}: {exc}") from None
    bench = metrics.hindsight_benchmark(manifest, trace, len(history), b_max)
    series = metrics.regret_and_residuals(history, manifest, bench, manifest.segment_duration_s, b_max)
    k = metrics.benchmark_window(len(history))
    if series.one_hot_fallback:
        print("note: log carries no decision distributions; using one-hot choices", file=sys.stderr)
    if args.out:
        _write_json({"k": k, **_benchmark_dict(bench)}, Path(args.out))
    if args.series:
        _write_convergence(Path(args.series), [getattr(series, key) for key in SERIES_KEYS])
    print(
        f"k={k} objective={_fmt(bench.objective)} kbps"
        f" omega_star=[{', '.join(_fmt(w) for w in bench.omega_star)}]"
        f" slack={_fmt(bench.slack_used)} max_violation={_fmt(bench.max_window_violation)}"
    )
    return 0


def _parse_bitrates(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(f"cannot parse bitrate list {text!r}") from exc


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    # whole option names only: argparse's default accepts any unique prefix
    # (``--sc`` for ``--scenario``), so a renamed flag kept its old spelling
    parser = argparse.ArgumentParser(prog="abrsim", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one session and write its log and report", allow_abbrev=False)
    p_run.add_argument("--manifest", required=True)
    p_run.add_argument("--trace", required=True)
    p_run.add_argument("--scenario", choices=tuple(SCENARIO_BMAX), default="vod")
    p_run.add_argument("--tau", type=int, default=session.DEFAULT_TAU_RESUME)
    p_run.add_argument("--abr", choices=POLICIES, default="l2a")
    p_run.add_argument("--beta", type=float, help="l2a switch-rate budget in (0, 1]")
    p_run.add_argument("--out", default="out")
    p_run.set_defaults(fn=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run a method x trace grid from a JSON config", allow_abbrev=False)
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default="out")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_gen = sub.add_parser("gen", help="generate synthetic assets", allow_abbrev=False)
    gen_sub = p_gen.add_subparsers(dest="kind", required=True)
    g_trace = gen_sub.add_parser("trace", help="two-state markovian trace CSV", allow_abbrev=False)
    g_trace.add_argument("--duration", type=float, required=True)
    g_trace.add_argument("--low", type=float, default=750.0)
    g_trace.add_argument("--high", type=float, default=23000.0)
    g_trace.add_argument("--p-transition", dest="p_transition", type=float, default=0.05)
    g_trace.add_argument("--step", type=float, default=1.0)
    g_trace.add_argument("--seed", type=int, default=0)
    g_trace.add_argument("--out", required=True)
    g_trace.set_defaults(fn=_cmd_gen)
    g_man = gen_sub.add_parser("manifest", help="synthetic ladder manifest JSON", allow_abbrev=False)
    g_man.add_argument("--segments", type=int, required=True)
    g_man.add_argument("--bitrates", default="370,750,1500,3000,5800,12000,17000,20000")
    g_man.add_argument("--segment-duration", dest="segment_duration", type=float, default=2.0)
    g_man.add_argument("--jitter", type=float, default=0.0)
    g_man.add_argument("--seed", type=int, default=0)
    g_man.add_argument("--out", required=True)
    g_man.set_defaults(fn=_cmd_gen)

    p_cat = sub.add_parser("concat-traces", help="splice trace CSVs end to end", allow_abbrev=False)
    p_cat.add_argument("traces", nargs="+")
    p_cat.add_argument("--out", required=True)
    p_cat.set_defaults(fn=_cmd_concat)

    p_bench = sub.add_parser("benchmark", help="hindsight benchmark for an exported session log", allow_abbrev=False)
    p_bench.add_argument("--manifest", required=True)
    p_bench.add_argument("--log", required=True)
    p_bench.add_argument("--trace", required=True, help="the trace the session ran on: its slot clock is the yardstick")
    p_bench.add_argument("--scenario", choices=tuple(SCENARIO_BMAX), default="vod")
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--series", default=None, help="write the convergence CSV here")
    p_bench.set_defaults(fn=_cmd_benchmark)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"abrsim: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # an input that asks for more than the host has
        print(f"abrsim: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
