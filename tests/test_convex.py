"""Norm families: values, duals, subdifferentials, serialization."""

import math

import numpy as np
import pytest

from subfinsler import (
    AxisCornerNorm,
    CornerNorm,
    EuclideanNorm,
    MaxNorm,
    NormError,
    PolyhedralNorm,
    RootSumNorm,
    SumNorm,
    as_polyhedron,
    check_duality_inversion,
    dual_energy,
    energy,
    norm_from_json,
    regular_polygon_ball,
)
from subfinsler import convex
from subfinsler.convex import _sign_completions

from oracles import (
    active_coordinate_vertices,
    sampled_dual_energy,
    sampled_dual_norm_2d,
    sign_completion_vertices,
)

ALL_NORMS = [
    ("euclidean2", lambda: EuclideanNorm(2)),
    ("euclidean3", lambda: EuclideanNorm(3)),
    ("l1_2", lambda: SumNorm(2)),
    ("l1_3", lambda: SumNorm(3)),
    ("linf2", lambda: MaxNorm(2)),
    ("linf3", lambda: MaxNorm(3)),
    ("corner", CornerNorm),
    ("axis_corner", AxisCornerNorm),
    ("root_sum2", lambda: RootSumNorm(2)),
    ("root_sum3", lambda: RootSumNorm(3)),
    ("hexagon", lambda: PolyhedralNorm(regular_polygon_ball(6))),
]


@pytest.fixture(params=[mk for _, mk in ALL_NORMS],
                ids=[name for name, _ in ALL_NORMS])
def any_norm(request):
    return request.param()


def special_points(dim):
    """Points hitting the nonsmooth loci: origin, axes, zero coordinates."""
    pts = [np.zeros(dim)]
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.3
        pts.append(e)
        pts.append(-0.7 * e / 1.3)
    return pts


# -- frozen values -----------------------------------------------------


# (norm, vector, value, absolute tolerance)
FROZEN_VALUES = [
    (EuclideanNorm(2), [3.0, 4.0], 5.0, 0.0),
    (SumNorm(3), [1.0, -2.0, 3.0], 6.0, 0.0),
    (MaxNorm(3), [1.0, -2.0, 3.0], 3.0, 0.0),
    (CornerNorm(), [1.0, 0.0], 2.0, 0.0),
    (CornerNorm(), [0.0, 1.0], 1.0, 0.0),
    (CornerNorm(), [3.0, 4.0], 8.0, 0.0),
    (AxisCornerNorm(), [1.0, 0.0, 0.0], 1.0, 0.0),
    (AxisCornerNorm(), [0.0, 3.0, 4.0], 10.0, 0.0),
    (RootSumNorm(2), [1.0, 0.0], math.sqrt(2.0), 1e-15),
    (RootSumNorm(2), [1.0, 1.0], math.sqrt(6.0), 1e-15),
    (PolyhedralNorm(regular_polygon_ball(6)), [1.0, 0.0], 1.0, 1e-12),
    (PolyhedralNorm(regular_polygon_ball(6)), [0.0, 1.0],
     2.0 / math.sqrt(3.0), 1e-12),
]

FROZEN_DUAL_VALUES = [
    (EuclideanNorm(2), [3.0, 4.0], 5.0, 0.0),
    (SumNorm(3), [1.0, -2.0, 3.0], 3.0, 0.0),
    (MaxNorm(3), [1.0, -2.0, 3.0], 6.0, 0.0),
    # Corner norm: flat dual piece |eta_y| above the diagonal, parabolic
    # piece below it.
    (CornerNorm(), [0.5, 1.0], 1.0, 0.0),
    (CornerNorm(), [1.0, 0.5], 0.625, 0.0),
    (CornerNorm(), [2.0, 0.0], 1.0, 0.0),
    (AxisCornerNorm(), [1.0, 0.2, -0.3], 1.0, 0.0),
    (AxisCornerNorm(), [0.0, 3.0, 4.0], 2.5, 0.0),
    (RootSumNorm(3), [2.0, 0.3, 0.4], math.sqrt(2.0), 1e-15),
    (PolyhedralNorm(regular_polygon_ball(6)), [1.0, 0.0], 1.0, 1e-12),
    (PolyhedralNorm(regular_polygon_ball(6)), [0.0, 1.0],
     math.sqrt(3.0) / 2.0, 1e-12),
]


def _assert_frozen(gauge, v, expected, tol):
    """One vector gives the frozen float; a (2, 3, dim) stack of it gives
    the frozen value in every entry."""
    got = gauge(v)
    assert type(got) is float
    assert abs(got - expected) <= tol
    stacked = gauge(np.tile(v, (2, 3, 1)))
    assert stacked.shape == (2, 3)
    assert np.all(np.abs(stacked - expected) <= tol)


def test_values_frozen():
    for norm, v, expected, tol in FROZEN_VALUES:
        _assert_frozen(norm.value, v, expected, tol)


def test_dual_values_frozen():
    for norm, eta, expected, tol in FROZEN_DUAL_VALUES:
        _assert_frozen(norm.dual_value, eta, expected, tol)


@pytest.mark.parametrize("gauge", ["value", "dual_value"])
@pytest.mark.parametrize("shape", [(5,), (2, 4)])
def test_stacked_gauges_match_each_row(any_norm, rng, gauge, shape):
    fn = getattr(any_norm, gauge)
    stack = rng.standard_normal((*shape, any_norm.dim))
    stack *= 10.0 ** rng.uniform(-3.0, 3.0, (*shape, 1))
    out = fn(stack)
    assert isinstance(out, np.ndarray) and out.shape == shape
    for idx in np.ndindex(shape):
        row = fn(stack[idx])
        assert type(row) is float
        assert abs(out[idx] - row) <= 4.0 * np.finfo(float).eps * row
    # A NaN row spoils its own entry and no other.
    first = (0,) * len(shape)
    stack[first] = np.nan
    spoiled = fn(stack)
    assert math.isnan(spoiled[first])
    rest = np.ones(shape, dtype=bool)
    rest[first] = False
    assert np.array_equal(spoiled[rest], out[rest])
    # Stacks of no rows give empty arrays.
    assert fn(np.zeros((0, any_norm.dim))).shape == (0,)


@pytest.mark.parametrize("gauge", ["value", "dual_value"])
def test_one_nan_coordinate_gives_nan(any_norm, gauge):
    # Each coordinate alone, the others zero: the corner norms' dual
    # used to divide by the zero off-axis length.
    rows = np.where(np.eye(any_norm.dim) > 0.0, np.nan, 0.0)
    out = getattr(any_norm, gauge)(rows)
    assert np.all(np.isnan(out))
    # The gradient of the dual energy takes one row at a time.
    if gauge == "dual_value" and any_norm.convexity_class != "polyhedral":
        for row in rows:
            assert np.isnan(any_norm.grad_dual_energy(row)).any()


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("norm_cls, value_oracle, dual_oracle", [
    (SumNorm, np.sum, np.max),
    (MaxNorm, np.max, np.sum),
], ids=["l1", "linf"])
def test_sum_and_max_gauges_match_closed_forms(rng, dim, norm_cls,
                                               value_oracle, dual_oracle):
    # The polytope gauges equal the closed forms on |v| bit for bit, on
    # stacks and on single vectors, up to the dimensions the groups use.
    norm = norm_cls(dim)
    stack = rng.standard_normal((2, 5, dim))
    stack *= 10.0 ** rng.uniform(-3.0, 3.0, (2, 5, 1))
    for gauge, oracle in ((norm.value, value_oracle),
                          (norm.dual_value, dual_oracle)):
        want = oracle(np.abs(stack), axis=-1)
        assert gauge(stack).tobytes() == want.tobytes()
        for idx in np.ndindex(2, 5):
            got = gauge(stack[idx])
            assert type(got) is float
            assert np.float64(got).tobytes() == want[idx].tobytes()
        spoiled = stack.copy()
        spoiled[0, 0] = np.nan
        assert math.isnan(gauge(spoiled)[0, 0])
        assert math.isnan(gauge(spoiled[0, 0]))


def test_convexity_classes_frozen():
    tags = {name: mk().convexity_class for name, mk in ALL_NORMS}
    assert tags["euclidean2"] == "smooth-strongly-convex"
    for name in ("l1_2", "l1_3", "linf2", "linf3", "hexagon"):
        assert tags[name] == "polyhedral"
    for name in ("corner", "axis_corner", "root_sum2", "root_sum3"):
        assert tags[name] == "strongly-convex"


# -- dual values against independent search ----------------------------


def test_dual_energy_matches_search(any_norm, rng):
    for _ in range(2):
        eta = rng.standard_normal(any_norm.dim)
        sampled = sampled_dual_energy(any_norm.value, eta, rng)
        assert abs(sampled - dual_energy(any_norm, eta)) <= 1e-6


def test_dual_norm_matches_circle_search(rng):
    for norm in (CornerNorm(), SumNorm(2),
                 PolyhedralNorm(regular_polygon_ball(6))):
        for _ in range(4):
            eta = rng.standard_normal(2)
            assert norm.dual_value(eta) == pytest.approx(
                sampled_dual_norm_2d(norm.value, eta), abs=1e-9)


def test_axis_corner_dual_reduces_to_planar(rng):
    # By rotational symmetry about the first axis the dual value only
    # depends on (eta_1, hypot(eta_2, eta_3)), and in any plane through
    # the axis the norm restricts to the planar corner norm.
    axis = AxisCornerNorm()
    planar = CornerNorm()
    for _ in range(20):
        eta = rng.standard_normal(3)
        reduced = np.array([math.hypot(eta[1], eta[2]), eta[0]])
        assert axis.dual_value(eta) == pytest.approx(
            planar.dual_value(reduced), abs=1e-12)


# -- subdifferential membership ----------------------------------------


def test_subdiff_energy_membership(any_norm, rng):
    points = special_points(any_norm.dim)
    points += [rng.standard_normal(any_norm.dim) for _ in range(12)]
    for u in points:
        u = np.asarray(u, dtype=float)
        n = any_norm.value(u)
        sub = any_norm.subdiff_energy(u)
        for eta in sub.sample(rng, 6):
            assert sub.contains(eta)
            assert abs(any_norm.dual_value(eta) - n) <= 1e-9
            assert abs(float(eta @ u) - n * n) <= 1e-9


def test_subdiff_dual_energy_membership(any_norm, rng):
    for _ in range(12):
        eta = rng.standard_normal(any_norm.dim)
        nd = any_norm.dual_value(eta)
        sub = any_norm.subdiff_dual_energy(eta)
        for v in sub.sample(rng, 6):
            assert sub.contains(v)
            assert abs(any_norm.value(v) - nd) <= 1e-9
            assert abs(float(eta @ v) - nd * nd) <= 1e-9


def test_polytope_subdiff_dual_energy_at_zero_is_the_origin():
    # E*(0) = 0 is the minimum of E*, so its subdifferential is {0}.
    for norm in (MaxNorm(3), SumNorm(2),
                 PolyhedralNorm(regular_polygon_ball(6))):
        sub = norm.subdiff_dual_energy(np.zeros(norm.dim))
        assert sub.kind == "point"
        assert np.array_equal(sub.point, np.zeros(norm.dim))
        assert sub.contains(np.zeros(norm.dim))
        assert not sub.contains(np.full(norm.dim, 0.1))


def test_subdiff_scaling(any_norm, rng):
    # dE(t u) = t dE(u) for t > 0, by 2-homogeneity of the energy.
    for _ in range(6):
        u = rng.standard_normal(any_norm.dim)
        eta = any_norm.subdiff_energy(u).sample(rng, 1)[0]
        assert any_norm.subdiff_energy(2.0 * u).contains(2.0 * eta)


def test_membership_rejects_detuned(any_norm, rng):
    for _ in range(8):
        u = rng.standard_normal(any_norm.dim)
        if any_norm.value(u) < 1e-6:
            continue
        sub = any_norm.subdiff_energy(u)
        eta = sub.sample(rng, 1)[0]
        assert not sub.contains(1.001 * eta)


def test_subdiff_at_origin_is_zero(any_norm):
    sub = any_norm.subdiff_energy(np.zeros(any_norm.dim))
    assert sub.contains(np.zeros(any_norm.dim))
    probe = np.full(any_norm.dim, 0.1)
    assert not sub.contains(probe)


# -- the three equivalent optimality conditions -------------------------


def test_duality_inversion_agrees(any_norm, rng):
    for _ in range(10):
        u = rng.standard_normal(any_norm.dim)
        eta = any_norm.subdiff_energy(u).sample(rng, 1)[0]
        in_primal, fenchel, in_dual = check_duality_inversion(any_norm, u,
                                                              eta)
        assert in_primal and fenchel and in_dual


def test_duality_inversion_detects_mismatch(any_norm, rng):
    for _ in range(8):
        u = rng.standard_normal(any_norm.dim)
        if any_norm.value(u) < 1e-6:
            continue
        eta = any_norm.subdiff_energy(u).sample(rng, 1)[0]
        bad = eta - 0.25 * u
        flags = check_duality_inversion(any_norm, u, bad)
        assert not all(flags)


# -- family-specific structure ------------------------------------------


def test_corner_subdiff_is_segment_on_corner_ray(rng):
    norm = CornerNorm()
    sub = norm.subdiff_energy([0.0, 2.0])
    assert sub.kind == "polytope"
    assert sorted(map(tuple, sub.vertices)) == [(-2.0, 2.0), (2.0, 2.0)]
    for w in np.linspace(0.0, 1.0, 7):
        assert sub.contains([(2.0 * w - 1.0) * 2.0, 2.0])
    assert not sub.contains([2.5, 2.0])


def test_axis_corner_subdiff_is_disk(rng):
    norm = AxisCornerNorm()
    sub = norm.subdiff_energy([1.5, 0.0, 0.0])
    assert sub.kind == "support"
    assert sub.contains([1.5, 0.0, 0.0])
    assert sub.contains([1.5, 1.5, 0.0])
    assert sub.contains([1.5, 0.9, -1.2])
    assert not sub.contains([1.5, 1.6, 0.0])
    assert not sub.contains([1.6, 0.0, 0.0])
    for eta in sub.sample(rng, 40):
        assert eta[0] == 1.5
        assert math.hypot(eta[1], eta[2]) <= 1.5 + 1e-12


def test_root_sum_threshold_example(rng):
    norm = RootSumNorm(3)
    eta = np.array([2.0, 0.3, 0.4])
    assert norm._threshold(eta) == 1.0
    assert np.array_equal(norm.grad_dual_energy(eta), [1.0, 0.0, 0.0])
    # Independent check: the gradient of E* is the maximizer of
    # <eta, v> - E(v).
    assert sampled_dual_energy(norm.value, eta, rng) == pytest.approx(
        1.0, abs=1e-8)
    assert all(check_duality_inversion(norm, [1.0, 0.0, 0.0], eta))


def test_root_sum_subdiff_square(rng):
    # At u = e1 the sum-norm part contributes the full sign square.
    norm = RootSumNorm(2)
    sub = norm.subdiff_energy([1.0, 0.0])
    assert sub.kind == "polytope"
    assert sorted(map(tuple, sub.vertices)) == [(2.0, -1.0), (2.0, 1.0)]


# Points where the sum and max norms are not differentiable: zero
# coordinates and coordinates of equal absolute value.
TIE_POINTS = [
    [1.0, 0.0], [0.0, -2.0], [1.5, 1.5], [-0.5, 0.5], [2.0, -1.0],
    [2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [1.0, 1.0, 0.0], [1.0, -1.0, 1.0],
    [0.0, 0.75, -0.75], [-3.0, 0.0, 3.0], [0.5, 0.25, 0.5],
]


def _vertex_set(sub):
    rows = [sub.point] if sub.kind == "point" else list(sub.vertices)
    return {tuple(float(x) for x in np.round(row, 12)) for row in rows}


@pytest.mark.parametrize("x", TIE_POINTS, ids=str)
def test_sum_and_max_subdiffs_match_closed_forms(x):
    # The shared polytope subdifferentials, compared as vertex sets with
    # the coordinate-wise closed forms at the nonsmooth points.
    x = np.array(x)
    dim = len(x)
    cases = [
        (SumNorm(dim).subdiff_energy(x), sign_completion_vertices(x)),
        (SumNorm(dim).subdiff_dual_energy(x), active_coordinate_vertices(x)),
        (MaxNorm(dim).subdiff_energy(x), active_coordinate_vertices(x)),
        (MaxNorm(dim).subdiff_dual_energy(x), sign_completion_vertices(x)),
    ]
    for sub, expected in cases:
        assert _vertex_set(sub) == expected
        assert sub.kind == ("point" if len(expected) == 1 else "polytope")


def _directions(rows):
    rows = np.atleast_2d(np.array(list(rows), dtype=float))
    return {tuple(float(x) for x in np.round(row / np.max(np.abs(row)), 9))
            for row in rows}


@pytest.mark.parametrize("gap, energy_tied, dual_tied",
                         [(1e-13, True, True), (1e-10, False, True),
                          (1e-6, False, False)])
def test_sum_and_max_subdiffs_at_near_ties(gap, energy_tied, dual_tied):
    # Within the ball's relative tolerance of a tie (1e-12 on the active
    # functionals for dE, FACE_REL_TOL = 1e-9 on the exposed face for
    # dE*) the subdifferential is the one at the tie, rescaled; past it
    # the closed form at the point itself applies.
    near_zero, zero = np.array([1.0, gap]), np.array([1.0, 0.0])
    near_equal, equal = np.array([1.0, 1.0 - gap]), np.array([1.0, 1.0])
    cases = [
        (SumNorm(2).subdiff_energy(near_zero), sign_completion_vertices,
         near_zero, zero, energy_tied),
        (MaxNorm(2).subdiff_dual_energy(near_zero), sign_completion_vertices,
         near_zero, zero, dual_tied),
        (MaxNorm(2).subdiff_energy(near_equal), active_coordinate_vertices,
         near_equal, equal, energy_tied),
        (SumNorm(2).subdiff_dual_energy(near_equal),
         active_coordinate_vertices, near_equal, equal, dual_tied),
    ]
    for sub, closed_form, x, tie, tied in cases:
        rows = [sub.point] if sub.kind == "point" else sub.vertices
        assert _directions(rows) == _directions(
            closed_form(tie if tied else x))
        assert all(sub.contains(row) for row in rows)


def test_sum_and_max_norms_are_polytope_norms():
    for norm, family in ((SumNorm(3), "l1"), (MaxNorm(3), "linf")):
        assert as_polyhedron(norm) is as_polyhedron(norm)
        assert isinstance(norm, PolyhedralNorm)
        data = {"family": family, "dim": 3, "params": {}}
        assert norm_from_json(data).to_json_dict() == data


def test_regime_ids_frozen():
    corner = CornerNorm()
    assert corner.regime_id([0.5, 1.0]) == 0
    assert corner.regime_id([0.5, -1.0]) == 1
    assert corner.regime_id([1.0, 0.5]) == 2
    assert corner.regime_id([-1.0, 0.5]) == 3
    axis = AxisCornerNorm()
    assert axis.regime_id([1.0, 0.0, 0.0]) == 0
    assert axis.regime_id([-1.0, 0.0, 0.5]) == 1
    assert axis.regime_id([0.2, 1.0, 0.0]) == 2
    root = RootSumNorm(2)
    assert root.regime_id([2.0, 0.3]) == 7
    assert root.regime_id([1.1, 1.0]) == 8


def test_corner_cones_frozen():
    # Each cone maps the coefficients (a, b, c) of a held arc
    # xi = a + S b + C c to the rows (k0, k1, k2) of its forms.
    assert EuclideanNorm(2).corner_cone([0.0, 1.0]) is None
    assert MaxNorm(2).corner_cone([0.0, 1.0]) is None
    corner = CornerNorm()
    forms = corner.corner_cone([0.5, 1.0])
    # The planar cap |x| - |h|: +-x - |h|, with h held.
    arc = np.array([[0.5, -1.0], [0.25, 0.0], [2.0, 0.0]])
    assert np.array_equal(forms(*arc), [[-0.5, -1.5], [0.25, -0.25],
                                        [2.0, -2.0]])
    # The cap's edge belongs to the cap's regime, but not strictly.
    assert corner.corner_cone([1.0, 1.0]) is None
    assert corner.corner_cone([1.0, 0.5]) is None
    axis = AxisCornerNorm()
    forms = axis.corner_cone([-1.0, 0.3, 0.4])
    # |P xi|**2 - h**2: (|Pa|**2 - h**2, 2 Pa . Pb, 2 |Pb|**2 + 2 Pa . Pc).
    arc = np.array([[-1.0, 0.5, 0.0], [0.0, 0.25, 1.0], [0.0, 2.0, 0.0]])
    assert np.array_equal(forms(*arc), [[-0.75], [0.25], [4.125]])
    assert axis.corner_cone([0.5, 0.3, 0.4]) is None
    root = RootSumNorm(3)
    forms = root.corner_cone([2.0, 0.25, -0.5])
    # One active coordinate: +-xi_j - |xi_i| / 2 over the others.
    arc = np.array([[2.0, 0.25, -0.5], [0.0, 0.5, 0.125], [0.0, 0.0, 1.0]])
    assert np.array_equal(forms(*arc), [[-0.75, -1.5, -1.25, -0.5],
                                        [0.5, 0.125, -0.5, -0.125],
                                        [0.0, 1.0, 0.0, -1.0]])
    assert root.corner_cone([2.0, 1.0, 0.0]) is None
    assert root.corner_cone([1.0, 0.9, 0.0]) is None


def test_corner_cone_controls_are_corners(rng):
    # Inside a corner cone the gradient of E* is N*(eta) times a corner
    # +-e_i of the ball.
    for norm in (CornerNorm(), AxisCornerNorm(), RootSumNorm(2),
                 RootSumNorm(3)):
        inside = 0
        for _ in range(60):
            eta = rng.standard_normal(norm.dim)
            if norm.corner_cone(eta) is None:
                continue
            inside += 1
            grad = norm.grad_dual_energy(eta)
            assert len(np.flatnonzero(grad)) == 1
            assert norm.value(grad) == pytest.approx(norm.dual_value(eta),
                                                     rel=1e-14)
        assert inside > 0


def test_grad_dual_energy_properties(rng):
    for norm in (EuclideanNorm(3), CornerNorm(), AxisCornerNorm(),
                 RootSumNorm(3)):
        for _ in range(15):
            eta = rng.standard_normal(norm.dim)
            nd = norm.dual_value(eta)
            grad = norm.grad_dual_energy(eta)
            assert norm.value(grad) == pytest.approx(nd, abs=1e-9)
            assert float(eta @ grad) == pytest.approx(nd * nd, abs=1e-9)
        zero = np.zeros(norm.dim)
        assert np.array_equal(norm.grad_dual_energy(zero), zero)


def test_polyhedral_grad_dual_energy_raises():
    with pytest.raises(NormError):
        MaxNorm(2).grad_dual_energy([1.0, 0.0])
    with pytest.raises(NormError):
        SumNorm(2).grad_dual_energy([1.0, 0.0])


def test_sign_completions():
    assert _sign_completions(np.array([1.0, 0.0, -2.0])).shape == (2, 3)
    full = _sign_completions(np.zeros(2))
    assert sorted(map(tuple, full)) == [(-1.0, -1.0), (-1.0, 1.0),
                                        (1.0, -1.0), (1.0, 1.0)]


# -- constructors and serialization --------------------------------------


def test_energy_definitions():
    norm = SumNorm(2)
    assert energy(norm, [1.0, 1.0]) == 2.0
    assert dual_energy(norm, [1.0, 1.0]) == 0.5


def test_json_round_trip(any_norm, rng):
    data = any_norm.to_json_dict()
    clone = norm_from_json(data)
    assert clone.family == any_norm.family
    assert clone.dim == any_norm.dim
    for _ in range(5):
        v = rng.standard_normal(any_norm.dim)
        assert clone.value(v) == pytest.approx(any_norm.value(v), abs=1e-12)
        assert clone.dual_value(v) == pytest.approx(any_norm.dual_value(v),
                                                    abs=1e-12)


def test_every_norm_class_is_an_exact_serializable_family():
    # Each concrete Norm in the module is a registered family that the
    # fixture set above covers, so every norm's dual is checked against
    # the search oracle and round-trips through JSON.
    classes = {obj for obj in vars(convex).values()
               if isinstance(obj, type) and issubclass(obj, convex.Norm)
               and obj is not convex.Norm}
    covered = {type(mk()) for _, mk in ALL_NORMS}
    assert {cls.family for cls in classes} == set(convex._FAMILIES)
    assert classes == covered


def test_norm_from_json_errors():
    with pytest.raises(NormError):
        norm_from_json({"family": "unknown_family", "dim": 2})
    with pytest.raises(NormError):
        norm_from_json({"family": "corner", "dim": 3})
    with pytest.raises(NormError):
        norm_from_json({"family": "axis_corner", "dim": 2})


def test_as_polyhedron():
    square = as_polyhedron(MaxNorm(2))
    assert len(square.vertices) == 4
    diamond = as_polyhedron(SumNorm(2))
    assert len(diamond.vertices) == 4
    with pytest.raises(NormError):
        as_polyhedron(EuclideanNorm(2))
