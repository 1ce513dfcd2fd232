"""Trace-driven adaptive-bitrate streaming simulator and analysis toolkit.

Quality indices and epoch numbers are 1-based throughout the public API; the
underlying numpy matrices are plain 0-based arrays.
"""

from .baselines import (
    BBPolicy,
    BBState,
    RBPolicy,
    RBState,
    bb_decide,
    derive_bb_parameters,
    rb_decide,
)
from .channel import (
    ChannelTrace,
    TraceError,
    concat_traces,
    generate_markovian,
    load_trace,
    slot_clock,
    write_trace,
)
from .l2a import (
    L2APolicy,
    L2AState,
    l2a_decide,
    map_to_quality,
)
from .media import Manifest, ManifestError, load_manifest, synthesize_manifest, write_manifest
from .metrics import (
    BenchmarkSolution,
    ConvergenceSeries,
    SessionReport,
    hindsight_benchmark,
    normalize_avg_bitrate,
    qoe_metrics,
    regret_and_residuals,
    solve_benchmark,
)
from .session import (
    EpochFeedback,
    EpochRecord,
    ScriptedPolicy,
    SessionConfig,
    SessionLog,
    SessionState,
    export_log_csv,
    read_log_csv,
    run_session,
)
from .simplex import project_simplex

__version__ = "0.1.0"

__all__ = [
    "BBPolicy",
    "BBState",
    "BenchmarkSolution",
    "ChannelTrace",
    "ConvergenceSeries",
    "EpochFeedback",
    "EpochRecord",
    "L2APolicy",
    "L2AState",
    "Manifest",
    "ManifestError",
    "RBPolicy",
    "RBState",
    "ScriptedPolicy",
    "SessionConfig",
    "SessionLog",
    "SessionReport",
    "SessionState",
    "TraceError",
    "bb_decide",
    "concat_traces",
    "derive_bb_parameters",
    "export_log_csv",
    "generate_markovian",
    "hindsight_benchmark",
    "l2a_decide",
    "load_manifest",
    "load_trace",
    "map_to_quality",
    "normalize_avg_bitrate",
    "project_simplex",
    "qoe_metrics",
    "rb_decide",
    "read_log_csv",
    "regret_and_residuals",
    "run_session",
    "slot_clock",
    "solve_benchmark",
    "synthesize_manifest",
    "write_manifest",
    "write_trace",
]
