import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abrsim import project_simplex
from abrsim.simplex import _shift

from simplex_grid import simplex_grid


def grid_project(v, resolution=1e-3):
    """Brute-force projection oracle: nearest point on a dense simplex grid."""
    v = np.asarray(v, dtype=float)
    grid = simplex_grid(v.size, resolution)
    d2 = np.square(grid - v).sum(axis=1)
    return grid[int(np.argmin(d2))]


def test_already_on_simplex_unchanged():
    v = np.array([0.2, 0.5, 0.3])
    assert np.allclose(project_simplex(v), v, atol=1e-12)


def test_uniform_shift_case():
    assert np.allclose(project_simplex([0.5, 0.7]), [0.4, 0.6], atol=1e-12)


def test_clipping_case():
    assert np.allclose(project_simplex([2.0, -1.0]), [1.0, 0.0], atol=1e-12)


def test_validation():
    with pytest.raises(ValueError, match="^expected a non-empty 1-d vector$"):
        project_simplex([])
    with pytest.raises(ValueError, match="^entries must be finite$"):
        project_simplex([np.inf, 0.0])
    with pytest.raises(ValueError, match="^expected a non-empty 1-d vector$"):
        project_simplex([[0.1, 0.9]])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=10))
def test_output_is_simplex_point(vals):
    w = np.asarray(project_simplex(vals))
    assert np.all(w >= 0)
    assert abs(w.sum() - 1.0) < 1e-9


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=8), st.integers(0, 7))
def test_projection_dominates_random_simplex_points(vals, seed):
    v = np.asarray(vals, dtype=float)
    w = project_simplex(v)
    rng = np.random.default_rng(seed)
    others = rng.dirichlet(np.ones(v.size), size=32)
    own = np.square(w - v).sum()
    for other in others:
        assert own <= np.square(other - v).sum() + 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_matches_grid_oracle(n):
    rng = np.random.default_rng(1234 + n)
    for _ in range(25):
        v = rng.uniform(-2.0, 2.0, size=n)
        exact = project_simplex(v)
        approx = grid_project(v)
        assert np.max(np.abs(exact - approx)) <= 1e-3


def reference_project(v):
    """The numpy formulas ``project_simplex`` ran before its scalar rewrite,
    as a bitwise oracle."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    excess = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    rho = np.nonzero(u - excess / ranks > 0)[0][-1]
    theta = excess[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


# entries of every scale whose running total stays finite: 50 of them at most
# 1e300 in magnitude, subnormals, and both zeros
oracle_entries = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e300, 1e300),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
)

oracle_vectors = st.one_of(
    st.lists(oracle_entries, min_size=1, max_size=50),
    # ties: entries drawn from a pool of a few values
    st.lists(st.floats(-3, 3) | oracle_entries, min_size=1, max_size=4).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=50)
    ),
    # all entries equal
    st.tuples(oracle_entries, st.integers(1, 50)).map(lambda p: [p[0]] * p[1]),
)


@settings(max_examples=1000, deadline=None)
@given(oracle_vectors)
def test_matches_numpy_reference_bitwise(vals):
    try:
        want = reference_project(vals)
    except IndexError:
        # no rank has a positive margin: the top entry swallows the 1.0
        with pytest.raises(ValueError, match="^entries too large to project$"):
            project_simplex(vals)
        return
    got = project_simplex(vals)
    assert type(got) is tuple and all(type(x) is float for x in got)
    assert np.array(got).tobytes() == want.tobytes()


def shift_with_int_ranks(values):
    """``simplex._shift`` as it was written with ``enumerate``'s int ranks and
    ``u - shift > 0``, as a bitwise oracle for its float-only pass."""
    if not values:
        raise ValueError("expected a non-empty 1-d vector")
    theta = None
    total = 0.0
    for rank, u in enumerate(sorted(values, reverse=True), start=1):
        total += u
        shift = (total - 1.0) / rank
        if u - shift > 0:
            theta = shift
    if not math.isfinite(total):
        if not all(map(math.isfinite, values)):
            raise ValueError("entries must be finite")
        theta = None
        total = 0.0
        for rank, u in enumerate(sorted(values, reverse=True), start=1):
            total += u
            if not math.isfinite(total):
                break
            shift = (total - 1.0) / rank
            if u - shift > 0:
                theta = shift
    if theta is None:
        raise ValueError("entries too large to project")
    return theta


def shift_outcome(shift, values):
    """The bits of the shift, or the error it raised."""
    try:
        return shift(list(values)).hex()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=2000, deadline=None)
@given(st.lists(st.floats()  # every float: subnormals, both zeros, infinities, NaN
                | st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308])  # totals that overflow
                | st.floats(-3, 3), max_size=12))
def test_shift_matches_the_int_rank_loop(vals):
    assert shift_outcome(_shift, vals) == shift_outcome(shift_with_int_ranks, vals)


def test_entries_too_large_to_project():
    # 2**60 - 1.0 rounds back to 2**60, so no rank has a positive margin
    with pytest.raises(ValueError, match="too large"):
        project_simplex([2.0**60, 0.0])


def exact_project(v):
    """The projection in exact rational arithmetic, as Fractions."""
    values = [Fraction(x) for x in v]
    total = Fraction(0)
    for rank, u in enumerate(sorted(values, reverse=True), start=1):
        total += u
        if u - (total - 1) / rank > 0:
            theta = (total - 1) / rank
    return [max(x - theta, Fraction(0)) for x in values]


def projection_outcome(project, v):
    """The bits of the projection, or the error it raised."""
    try:
        return [x.hex() for x in project(v)]
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_a_non_finite_entry_at_any_position_is_rejected(bad, n):
    for pos in range(n):
        v = [0.3 * i - 0.5 for i in range(n)]
        v[pos] = bad
        with pytest.raises(ValueError, match="^entries must be finite$"):
            project_simplex(v)


@pytest.mark.parametrize("v", [[math.inf, -math.inf], [-math.inf, 0.5, math.inf],
                               [math.inf, 1.0, -math.inf, math.nan], [1e308, math.inf, -1e308]])
def test_mixed_infinities_are_rejected(v):
    with pytest.raises(ValueError, match="^entries must be finite$"):
        project_simplex(v)


TOO_LARGE = "entries too large to project"


@pytest.mark.parametrize("v, want", [
    ([1e308, 1e308, -1.0], TOO_LARGE),
    ([-1e308, -1e308], TOO_LARGE),
    ([-1.5e308, -1.5e308, 5.0], (0.0, 0.0, 1.0)),
    ([1.7e308, 1.7e308, -1.7e308, -1.7e308], TOO_LARGE),
    ([1e308, 1e308, 1e308, -1e308, 0.25], TOO_LARGE),
    ([-1e308, -1e308, 0.5, 0.25], (0.0, 0.0, 0.625, 0.375)),
    ([0.5, 0.2, -1e308, -1e308], (0.65, 0.35000000000000003, 0.0, 0.0)),
], ids=[f"v{k}" for k in range(7)])
def test_finite_entries_whose_sum_overflows_behave_as_before(v, want):
    # the total is not finite here, so the entries are scanned and found
    # finite, and theta comes from the ranks whose running total is finite;
    # if none of them has a positive margin, the overflow is the
    # entries-too-large error (a shift from an infinite total gave
    # infinities: (inf, inf) for [-1e308, -1e308])
    outcome = projection_outcome(project_simplex, v)
    if want == TOO_LARGE:
        assert outcome == TOO_LARGE
    else:
        assert outcome == [x.hex() for x in want]
        assert all(math.isclose(x, e, rel_tol=0.0, abs_tol=1e-15) for x, e in zip(want, exact_project(v)))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([1e308, -1e308, 1.7e308, -1.7e308]), min_size=1, max_size=8))
def test_every_point_returned_is_finite_and_non_negative(vals):
    try:
        w = project_simplex(vals)
    except ValueError as exc:
        assert str(exc) == "entries too large to project"
        return
    assert all(math.isfinite(x) and x >= 0.0 for x in w)
