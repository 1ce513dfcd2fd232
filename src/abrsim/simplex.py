"""Exact Euclidean projection onto the probability simplex."""

from __future__ import annotations

import math

__all__ = ["project_simplex"]


def project_simplex(v) -> tuple[float, ...]:
    """Closest point (in l2) to ``v`` on the probability simplex.

    Sort-based exact algorithm: find the largest prefix of the descending
    sort whose running mean excess stays below its entries, derive the
    shift theta from it (``_shift``), and clip.  O(N log N), no iteration.
    Takes any sequence of numbers and returns a tuple of Python floats: on
    the short vectors L2A projects, numpy's per-call overhead costs more
    than the arithmetic.  L2A calls ``_shift`` itself; this public form stays
    because the acceptance test projects with it and perfbench's tracer names
    it, with this module as its owner.
    """
    try:
        values = list(map(float, v))
    except TypeError:
        raise ValueError("expected a non-empty 1-d vector") from None
    theta = _shift(values)
    return tuple([x - theta if x > theta else 0.0 for x in values])


def _shift(values: list[float]) -> float:
    """The shift theta that projects the Python floats ``values`` onto the
    simplex: entry ``x`` maps to ``x - theta`` if ``x > theta``, else to 0.0.
    The one shift of ``project_simplex`` and of L2A's gradient step, which
    clips as it takes its expectations.

    One pass on floats only, with the bits of the textbook ``u - shift > 0``
    over an int rank: IEEE subtraction underflows gradually, so
    ``u - shift > 0`` holds exactly when ``u > shift`` (both are false for a
    NaN), and a rank below 2**53 is a float exactly, so ``(total - 1.0) /
    rank`` divides the same two doubles."""
    if not values:
        raise ValueError("expected a non-empty 1-d vector")
    theta = None
    total = 0.0
    rank = 0.0
    for u in sorted(values, reverse=True):
        total += u
        rank += 1.0
        shift = (total - 1.0) / rank
        if u > shift:
            theta = shift
    # a nan or an infinity leaves the total non-finite, so finite entries need
    # no scan unless their sum overflowed
    if not math.isfinite(total):
        if not all(map(math.isfinite, values)):
            raise ValueError("entries must be finite")
        # finite entries whose sum overflowed: a shift from an infinite total
        # would put the point off the simplex, so theta comes from the ranks
        # whose running total is finite
        theta = None
        total = 0.0
        rank = 0.0
        for u in sorted(values, reverse=True):
            total += u
            if not math.isfinite(total):
                break
            rank += 1.0
            shift = (total - 1.0) / rank
            if u > shift:
                theta = shift
    if theta is None:
        # also when rounding swallows the 1.0, for entries beyond 2**53 in magnitude
        raise ValueError("entries too large to project")
    return theta
