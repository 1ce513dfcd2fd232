"""Encoded video content: quality ladder and per-segment size matrix."""

from __future__ import annotations

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .channel import require_count

__all__ = [
    "Manifest",
    "ManifestError",
    "load_manifest",
    "synthesize_manifest",
    "write_manifest",
]


class ManifestError(ValueError):
    """Malformed manifest input or broken ladder invariant."""


def require_ladder(bitrates_kbps) -> tuple[float, ...]:
    """The ladder as a tuple of floats if it is a list (not a string, bytes or
    a mapping) of at least two levels, each a number, positive and finite, in
    strictly increasing order, else a ManifestError naming ``bitrates_kbps``
    and the level: the rule of every manifest's ladder, and the one a
    policy's search of its ladder rests on."""
    if isinstance(bitrates_kbps, (str, bytes, bytearray, Mapping)):
        raise ManifestError(f"bitrates_kbps must be a list of numbers, got {bitrates_kbps!r}")
    rates = _convert("bitrates_kbps", "a list of numbers", list, bitrates_kbps)
    if not _numbers(rates):
        n = next(n for n, rate in enumerate(rates) if not _is_number(type(rate)))
        raise ManifestError(f"bitrates_kbps must be a list of numbers: level {n + 1} is {rates[n]!r}")
    rates = _convert("bitrates_kbps", "a list of numbers", lambda rs: tuple(map(float, rs)), rates)
    if len(rates) < 2:
        raise ManifestError("need at least two quality levels")
    for n, rate in enumerate(rates):
        if not 0 < rate < math.inf:
            raise ManifestError(f"bitrates_kbps: level {n + 1} is {rate!r}; rates must be positive and finite")
        if n and rate <= rates[n - 1]:
            raise ManifestError(f"bitrate ladder not strictly increasing at level {n + 1}"
                                f" ({rate:g} kbps after {rates[n - 1]:g} kbps)")
    return rates


@dataclass
class Manifest:
    """Bitrate ladder plus the actual size of every segment at every level.

    Sizes are stored in kbit and bitrates in kbps, so size divided by rate is
    a duration in seconds with no conversion factor.  Rows of
    ``segment_sizes_kbit`` are segments (t = 1..T in the public API, T >= 1),
    columns are quality levels (n = 1..N, strictly increasing target bitrate),
    and every row is non-decreasing left to right.  The duration, every
    bitrate and every size must be a number: a string, a bool or a None
    where one belongs is an error that names the field and, for a bitrate,
    its level or, for a size, its segment and level.  Instances are treated
    as immutable after construction and are safe to share between sessions.
    """

    segment_duration_s: float
    bitrates_kbps: tuple[float, ...]
    segment_sizes_kbit: np.ndarray
    # read on every epoch, so set once here rather than computed per read
    num_segments: int = field(init=False, repr=False, compare=False)
    num_levels: int = field(init=False, repr=False, compare=False)
    # one flat memoryview of the size matrix, row after row: a row slice of
    # it indexes to Python floats without copying the matrix
    _sizes_view: memoryview = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.segment_duration_s = _require_duration(self.segment_duration_s)
        self.bitrates_kbps = rates = require_ladder(self.bitrates_kbps)

        # a numeric array passes on its dtype, and a field of another shape
        # than a list of rows is left to the shape check
        rows = self.segment_sizes_kbit
        if isinstance(rows, np.ndarray) and rows.dtype.kind not in "iuf":
            rows = rows.tolist()
        if (isinstance(rows, (list, tuple)) and set(map(type, rows)) <= {list, tuple, np.ndarray}
                and not _numbers(chain.from_iterable(rows))):
            t, n = next((t, n) for t, row in enumerate(rows) for n, size in enumerate(row)
                        if not _is_number(type(size)))
            raise ManifestError(f"segment_sizes_kbit must be a matrix of numbers:"
                                f" segment {t + 1}, level {n + 1} is {rows[t][n]!r}")
        sizes = _convert("segment_sizes_kbit", "a matrix of numbers",
                         lambda rows: np.array(rows, dtype=float), rows)
        if sizes.ndim and not len(sizes):
            raise ManifestError("segment_sizes_kbit holds no segments; a manifest needs at least one")
        if sizes.ndim != 2 or sizes.shape[1] != len(rates):
            raise ManifestError(
                f"segment size matrix must have {len(rates)} columns, got shape {sizes.shape}"
            )
        bad = np.argwhere(~((sizes > 0) & np.isfinite(sizes)))
        if bad.size:
            t, n = bad[0]
            raise ManifestError(
                f"segment_sizes_kbit: segment {t + 1}, level {n + 1} is {float(sizes[t, n])!r};"
                " sizes must be positive and finite"
            )
        dec = np.argwhere(np.diff(sizes, axis=1) < 0)
        if dec.size:
            t, n = dec[0]
            raise ManifestError(
                f"segment {t + 1}: size decreases from level {n + 1} to {n + 2}"
            )
        sizes.setflags(write=False)
        self.segment_sizes_kbit = sizes
        self.num_segments, self.num_levels = sizes.shape
        self._sizes_view = memoryview(sizes.reshape(-1))

    @property
    def duration_s(self) -> float:
        """Total playback duration of the content."""
        return self.num_segments * self.segment_duration_s

    def sizes_row(self, t: int) -> memoryview:
        """Sizes of segment ``t`` (1-based) across all quality levels.

        A read-only memoryview of the size matrix's row: indexing it gives
        Python floats, and ``np.asarray`` on it gives the row without a copy.
        """
        if not 1 <= t <= self.num_segments:
            raise IndexError(f"segment {t} outside 1..{self.num_segments}")
        n = self.num_levels
        return self._sizes_view[(t - 1) * n : t * n]


def _convert(name: str, kind: str, convert, value):
    """``convert(value)``, or a ManifestError naming the field ``name``."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past the float range
        raise ManifestError(f"{name} must be {kind}: {exc}") from exc


def _is_number(kind: type) -> bool:
    """Whether a value of type ``kind`` is a number; a bool is not one,
    though numpy reads it as 1 or 0."""
    return issubclass(kind, numbers.Real) and not issubclass(kind, bool)


def _numbers(values) -> bool:
    """Whether every one of ``values`` is a number.  The types are checked as
    a set, so values of a few types pass with no Python loop per value."""
    return all(map(_is_number, set(map(type, values))))


def _require_duration(segment_duration_s) -> float:
    """The segment duration as a float if it is a number, positive and
    finite, else a ManifestError naming ``segment_duration_s``."""
    if not _is_number(type(segment_duration_s)):
        raise ManifestError(f"segment_duration_s must be a number, got {segment_duration_s!r}")
    duration = _convert("segment_duration_s", "a number", float, segment_duration_s)
    if not 0 < duration < math.inf:
        raise ManifestError(f"segment_duration_s is {duration!r}; it must be positive and finite")
    return duration


def _one_value_per_key(pairs) -> dict:
    """A JSON object's pairs as a dict; a key stated twice is a ValueError."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is stated twice in one object")
        doc[key] = value
    return doc


def read_json(path: str | Path, what: str, error: type[ValueError] = ValueError):
    """The JSON document in the file at ``path``.  A file that cannot be read
    or parsed, or that holds an object stating a key twice (``json`` alone
    keeps the last value), is an ``error`` naming ``what`` and the file."""
    try:
        with open(path) as fh:
            return json.load(fh, object_pairs_hook=_one_value_per_key)
    except (OSError, ValueError) as exc:  # ValueError: a parse, decode or repeated-key fault
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_manifest(path: str | Path) -> Manifest:
    """Load a manifest JSON file and validate every ladder invariant.

    Every error is a ManifestError naming the file and the field.
    """
    doc = read_json(path, "manifest", ManifestError)
    try:
        return Manifest(
            segment_duration_s=doc["segment_duration_s"],
            bitrates_kbps=doc["bitrates_kbps"],
            segment_sizes_kbit=doc["segment_sizes_kbit"],
        )
    except (KeyError, TypeError) as exc:
        raise ManifestError(f"manifest {path}: missing or malformed field: {exc}") from exc
    except ManifestError as exc:
        raise ManifestError(f"manifest {path}: {exc}") from exc


def synthesize_manifest(
    num_segments: int,
    bitrates_kbps,
    segment_duration_s: float,
    vbr_jitter: float = 0.0,
    seed: int = 0,
) -> Manifest:
    """Generate a size matrix around the nominal per-segment size r_n * V.

    Every entry gets independent uniform multiplicative jitter in
    [-vbr_jitter, +vbr_jitter]; each row is then repaired to stay
    non-decreasing by clamping entries up to their left neighbour (the clamped
    value still lies within the jitter band of its own level).  Jitter 0
    yields an exact CBR matrix.  Deterministic for a fixed seed.
    """
    if not (_is_number(type(vbr_jitter)) and 0.0 <= vbr_jitter < 0.5):
        raise ValueError(f"vbr_jitter must be in [0, 0.5), got {vbr_jitter!r}")
    require_count("num_segments", num_segments, 0)
    require_count("seed", seed, 0)
    duration = _require_duration(segment_duration_s)
    ladder = require_ladder(bitrates_kbps)
    rates = np.asarray(ladder)
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-vbr_jitter, vbr_jitter, size=(num_segments, rates.size))
    sizes = rates * duration * (1.0 + noise)
    sizes = np.maximum.accumulate(sizes, axis=1)
    return Manifest(duration, ladder, sizes)


def write_manifest(manifest: Manifest, path: str | Path) -> None:
    """Serialize a manifest to its JSON file format."""
    doc = {
        "segment_duration_s": manifest.segment_duration_s,
        "bitrates_kbps": list(manifest.bitrates_kbps),
        "segment_sizes_kbit": manifest.segment_sizes_kbit.tolist(),
    }
    with open(path, "w") as fh:
        # json.dumps uses the C encoder; json.dump always runs the pure-Python one
        fh.write(json.dumps(doc, sort_keys=True))
        fh.write("\n")
