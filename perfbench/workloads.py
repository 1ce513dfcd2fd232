"""The three benchmark workloads: their inputs, one op each, and the checks
run on every op's outputs.

Every input is generated from the run's ``--seed``; the package receives only
those inputs.  Package functions are looked up on their modules at call time,
so the tracer's wrappers see every call an op makes.  Checks call the package
only through references taken when the workload is built, before any tracing
is installed, so they add no spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from abrsim import channel, cli, media, metrics, session

LADDER_KBPS = (370, 750, 1500, 3000, 5800, 12000, 17000, 20000)
SEGMENT_S = 2.0
TAU = 2
JITTER = 0.1
LOW_KBPS, HIGH_KBPS = 750.0, 23000.0
METHODS = (
    {"abr": "l2a", "beta": 1.0},
    {"abr": "l2a", "beta": 0.3},
    {"abr": "rb"},
    {"abr": "bb"},
)
# EpochRecord fields, in log order; buffer_before_s is the one read_log_csv
# reconstructs rather than reads.
RECORD_FIELDS = (
    "t", "x", "bitrate_kbps", "size_kbit", "rate_kbps", "download_s",
    "delta_s", "buffer_before_s", "buffer_after_s", "stall", "stall_s",
)
_COL = {name: i for i, name in enumerate(RECORD_FIELDS)}
SERIES_KEYS = ("regret_rate", "residual1_rate", "residual2_rate")


def derive_seed(seed: int, *labels) -> int:
    """A 32-bit generator seed for one input, derived from the run seed."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


def record_matrix(history) -> np.ndarray:
    """The per-epoch log as a float matrix, one column per RECORD_FIELDS entry
    (integers and flags are exact in float64)."""
    return np.array(
        [[float(getattr(rec, f)) for f in RECORD_FIELDS] for rec in history], dtype=np.float64
    ).reshape(len(history), len(RECORD_FIELDS))


def history_digest(h, history) -> None:
    """Feed one session log, including any decision distributions, to ``h``."""
    h.update(record_matrix(history).tobytes())
    omegas = [rec.omega for rec in history if getattr(rec, "omega", None) is not None]
    if omegas:
        h.update(np.asarray(omegas, dtype=np.float64).tobytes())


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def session_failures(label: str, spec: dict, policy, state, b_max: float) -> list[str]:
    """Buffer law, wall clock, stall flag and switch budget of one session."""
    m = record_matrix(state.history)
    fails = []
    for col in ("buffer_before_s", "buffer_after_s"):
        b = m[:, _COL[col]]
        if np.any(b < 0.0) or np.any(b > b_max):
            fails.append(f"{label}: {col} outside [0, {b_max:g}]")
    clock = 0.0
    for d, delta in zip(m[:, _COL["download_s"]], m[:, _COL["delta_s"]]):
        clock += d + delta
    if not math.isclose(state.wall_clock_s, clock, rel_tol=1e-12, abs_tol=1e-9):
        fails.append(f"{label}: wall clock {state.wall_clock_s!r} != sum of epochs {clock!r}")
    underflow = m[:, _COL["buffer_before_s"]] < m[:, _COL["download_s"]]
    if not np.array_equal(m[:, _COL["stall"]] == 1.0, underflow):
        fails.append(f"{label}: stall flag differs from buffer_before_s < download_s")
    if spec["abr"] == "l2a":
        st = policy.state
        if st.gamma > spec["beta"] * st.t + 1:
            fails.append(f"{label}: {st.gamma} switches > beta*t + 1 at t={st.t}")
    return fails


class Workload:
    """Interface the runner drives: ``setup`` once or more, then ops."""

    name = ""
    n_inputs = 1  # op i runs on input i mod n_inputs
    cycle = 1  # a worker runs a multiple of this many ops

    def __init__(self, seed: int, tiny: bool, work: Path):
        self.seed = seed
        self.work = work
        self.epochs_per_op = 0
        self.ops_started = 0  # op ids run on across the phases of one run

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> tuple[list[str], dict]:
        """Failed checks of op ``i`` and the known-defect counts it showed."""
        raise NotImplementedError

    def digest(self) -> dict[str, str]:
        """sha256 of the simulated session logs (and artifacts, if any); the
        workers of a run must agree on every key they share."""
        raise NotImplementedError

    def _seed(self, *labels) -> int:
        return derive_seed(self.seed, self.name, *labels)


class CompareVod(Workload):
    """The paper's comparison: op ``i`` is one ``cli.run_compare`` of the four
    methods on trace set ``i mod 2``, three traces each.  Solver time differs
    by up to 2x between traces, so a run of two workers covers both sets, six
    traces, to keep that from dominating the seed-to-seed spread."""

    name = "compare_vod"
    b_max = 120.0
    n_inputs = 2

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.segments = 40 if tiny else 600
        self.trace_s = 200.0 if tiny else 4000.0
        self.per_set = 1 if tiny else 3
        self.epochs_per_op = len(METHODS) * self.per_set * self.segments
        self.first_pass: dict[int, dict[str, str]] = {}
        self._load_manifest = media.load_manifest
        self._load_trace = channel.load_trace
        self._build_policy = cli.build_policy
        self._run_session = session.run_session

    def setup(self):
        assets = fresh_dir(self.work / "assets")
        manifest = media.synthesize_manifest(
            self.segments, LADDER_KBPS, SEGMENT_S, vbr_jitter=JITTER, seed=self._seed("manifest")
        )
        self.manifest_path = assets / "manifest.json"
        media.write_manifest(manifest, self.manifest_path)
        self.trace_paths = []
        for i in range(self.n_inputs * self.per_set):
            trace = channel.generate_markovian(
                self.trace_s, LOW_KBPS, HIGH_KBPS, 0.05, seed=self._seed("trace", i)
            )
            path = assets / f"trace-{i}.csv"
            channel.write_trace(trace, path)
            self.trace_paths.append(path)
        self.configs = [
            {
                "scenario": "vod",
                "tau": TAU,
                "seed": self._seed("config"),
                "manifest": {"path": str(self.manifest_path)},
                "traces": [str(p) for p in self.trace_paths[k * self.per_set:(k + 1) * self.per_set]],
                "methods": [dict(m) for m in METHODS],
            }
            for k in range(self.n_inputs)
        ]

    def run_op(self, i):
        out = self.work / f"op{i}"
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_compare(self.configs[i % self.n_inputs], out)
        return out

    def check(self, i, out):
        # every pass over a trace set must write the same bytes: compared
        # within a worker here, and across workers through digest()
        fails = []
        files = sorted(p for p in out.rglob("*") if p.is_file())
        hashes = {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        if hashes != self.first_pass.setdefault(i % self.n_inputs, hashes):
            fails.append(f"op {i}: artifact bytes differ from the first pass over its traces")
        rows = (out / "comparison.csv").read_text().splitlines()[1:]
        if len(rows) != len(METHODS):
            fails.append(f"op {i}: comparison has {len(rows)} rows, expected {len(METHODS)}")
        reports = sorted((out / "sessions").glob("*.json"))
        if len(reports) != len(METHODS) * self.per_set:
            fails.append(f"op {i}: {len(reports)} session reports")
        for path in reports:
            doc = json.loads(path.read_text())
            series = doc.get("series") or {}
            for key in SERIES_KEYS:
                values = series.get(key)
                if not isinstance(values, list) or len(values) != self.segments:
                    fails.append(f"{path.name}: series {key} is not of length {self.segments}")
            bench = doc.get("benchmark") or {}
            omega = np.asarray(bench.get("omega_star", []), dtype=float)
            if omega.size != len(LADDER_KBPS) or np.any(omega < 0) or abs(omega.sum() - 1.0) > 1e-9:
                fails.append(f"{path.name}: omega_star is not a distribution: {omega.tolist()}")
            violation = bench.get("max_window_violation", math.inf)
            if not violation <= bench.get("slack_used", -math.inf) + 1e-9:
                fails.append(f"{path.name}: max_window_violation {violation} > slack_used")
        shutil.rmtree(out)
        return fails, {}

    def digest(self):
        h = hashlib.sha256()
        manifest = self._load_manifest(self.manifest_path)
        cfg = session.SessionConfig(b_max_s=self.b_max, tau_resume=TAU)
        for spec in METHODS:
            for path in self.trace_paths:
                trace = self._load_trace(path)
                policy = self._build_policy(spec, manifest, self.b_max, manifest.num_segments)
                history_digest(h, self._run_session(policy, cfg, manifest, trace).history)
        out = {"sessions": h.hexdigest()}
        for key, hashes in self.first_pass.items():
            blob = json.dumps(hashes, sort_keys=True).encode()
            out[f"artifacts.set-{key}"] = hashlib.sha256(blob).hexdigest()
        return out


class _Cycling(Workload):
    """Ops cycle through the traces; op ``i`` runs all four methods on trace
    ``i mod n``, so every op does the same mix of work."""

    n_traces = 0

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.n_inputs = self.cycle = self.n_traces
        self.digests: dict[int, str] = {}

    def _determinism(self, i: int, histories) -> list[str]:
        h = hashlib.sha256()
        for history in histories:
            history_digest(h, history)
        key = i % self.n_traces
        first = self.digests.setdefault(key, h.hexdigest())
        return [] if first == h.hexdigest() else [f"op {i}: sessions differ from op {key}"]

    def digest(self):
        h = hashlib.sha256()
        for key in sorted(self.digests):
            h.update(self.digests[key].encode())
        return {"sessions": h.hexdigest()}


class SessionsLive(_Cycling):
    """Long live sessions; the per-epoch loop without the benchmark solver."""

    name = "sessions_live"
    n_traces = 3
    b_max = 20.0

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.segments = 60 if tiny else 3000
        self.trace_s = 400.0 if tiny else 12000.0
        self.epochs_per_op = len(METHODS) * self.segments

    def setup(self):
        self.manifest = media.synthesize_manifest(
            self.segments, LADDER_KBPS, SEGMENT_S, vbr_jitter=JITTER, seed=self._seed("manifest")
        )
        self.traces = [
            channel.generate_markovian(
                self.trace_s, LOW_KBPS, HIGH_KBPS, 0.05, seed=self._seed("trace", i)
            )
            for i in range(self.n_traces)
        ]
        self.cfg = session.SessionConfig(b_max_s=self.b_max, tau_resume=TAU)

    def run_op(self, i):
        manifest, trace = self.manifest, self.traces[i % self.n_traces]
        out = []
        for spec in METHODS:
            policy = cli.build_policy(spec, manifest, self.b_max, manifest.num_segments)
            state = session.run_session(policy, self.cfg, manifest, trace)
            metrics.qoe_metrics(state.history, manifest, TAU, manifest.duration_s)
            metrics.regret_and_residuals(state.history, manifest, None, SEGMENT_S, self.b_max)
            out.append((spec, policy, state))
        return out

    def check(self, i, result):
        fails = self._determinism(i, [state.history for _, _, state in result])
        for spec, policy, state in result:
            label = f"op {i} {cli.method_name(spec)}"
            fails += session_failures(label, spec, policy, state, self.b_max)
        return fails, {}


class ReplayIO(_Cycling):
    """File-driven runs: load assets, simulate, write the log, read it back."""

    name = "replay_io"
    n_traces = 2
    b_max = 120.0

    def __init__(self, seed, tiny, work):
        super().__init__(seed, tiny, work)
        self.segments = 50 if tiny else 1000
        self.trace_s = 100.0 if tiny else 3000.0
        self.epochs_per_op = len(METHODS) * self.segments
        self._residuals = metrics.regret_and_residuals

    def setup(self):
        assets = fresh_dir(self.work / "assets")
        self.manifest_path = assets / "manifest.json"
        media.write_manifest(
            media.synthesize_manifest(
                self.segments, LADDER_KBPS, SEGMENT_S, vbr_jitter=JITTER,
                seed=self._seed("manifest"),
            ),
            self.manifest_path,
        )
        self.trace_paths = []
        for i in range(self.n_traces):
            trace = channel.generate_markovian(
                self.trace_s, LOW_KBPS, HIGH_KBPS, 0.3, step_s=0.1, seed=self._seed("trace", i)
            )
            path = assets / f"trace-{i}.csv"
            channel.write_trace(trace, path)
            self.trace_paths.append(path)
        self.logs = fresh_dir(self.work / "logs")
        self.cfg = session.SessionConfig(b_max_s=self.b_max, tau_resume=TAU)

    def run_op(self, i):
        trace_path = self.trace_paths[i % self.n_traces]
        out = []
        for j, spec in enumerate(METHODS):
            manifest = media.load_manifest(self.manifest_path)
            trace = channel.load_trace(trace_path)
            policy = cli.build_policy(spec, manifest, self.b_max, manifest.num_segments)
            state = session.run_session(policy, self.cfg, manifest, trace)
            log = self.logs / f"op{i}-{j}.csv"
            session.export_log_csv(state.history, log)
            records = session.read_log_csv(log)
            series = metrics.regret_and_residuals(
                records, manifest, None, manifest.segment_duration_s, self.b_max
            )
            metrics.qoe_metrics(records, manifest, TAU, manifest.duration_s)
            out.append((spec, manifest, state, records, series, log))
        return out

    def check(self, i, result):
        fails = self._determinism(i, [item[2].history for item in result])
        mismatch = 0
        for spec, manifest, state, records, series, log in result:
            label = f"op {i} {cli.method_name(spec)}"
            log.unlink()
            written, read = record_matrix(state.history), record_matrix(records)
            if written.shape != read.shape:
                fails.append(f"{label}: {read.shape[0]} records read back, {written.shape[0]} written")
                continue
            for name, col in _COL.items():
                if not np.array_equal(written[:, col], read[:, col]):
                    fails.append(f"{label}: field {name} does not read back exactly")
            in_process = self._residuals(
                state.history, manifest, None, manifest.segment_duration_s, self.b_max
            )
            same = all(
                np.array_equal(getattr(in_process, key), getattr(series, key))
                for key in ("residual1_rate", "residual2_rate")
            )
            if same:
                continue
            if spec["abr"] == "l2a":
                mismatch += 1  # known defect: the log does not carry omega
            else:
                fails.append(f"{label}: residual series from the read-back log differ")
        return fails, {"log_series_mismatch": mismatch}


WORKLOADS = {w.name: w for w in (CompareVod, SessionsLive, ReplayIO)}
