"""Group charts: brackets, exponentials, adjoints, submetries."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from subfinsler import (
    AxisCornerNorm,
    GroupChartError,
    adjoint_matrix,
    affine_line_group,
    bracket,
    check_element,
    coadjoint_dual_point,
    group_by_name,
    heisenberg_abelianization,
    heisenberg_group,
    matrix_group,
    rotation_group,
    translation_group,
    variety_residual,
)
from subfinsler.groups import (
    _jacobi_residual,
    ad_matrix,
    exp as group_exp,
    from_matrix,
    to_matrix,
)

from oracles import adjoint_by_conjugation, adjoint_by_exp_ad

ALL_GROUPS = ["heisenberg", "affine_line", "rotation", "translation2",
              "translation3"]


@pytest.fixture(params=ALL_GROUPS)
def any_group(request):
    return group_by_name(request.param)


# -- structure constants -----------------------------------------------------


def test_structure_constants_frozen():
    heis = heisenberg_group()
    assert np.array_equal(heis.structure[0, 1], [0.0, 0.0, 1.0])
    assert np.array_equal(heis.structure[1, 0], [0.0, 0.0, -1.0])
    assert np.array_equal(heis.structure[2], np.zeros((3, 3)))
    aff = affine_line_group()
    assert np.array_equal(aff.structure[0, 1], [-1.0, 0.0])
    # Rotation constants come out of a least squares solve, so they sit
    # an ulp away from the exact integers.
    rot = rotation_group()
    assert np.allclose(rot.structure[0, 1], [0.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(rot.structure[0, 2], [0.0, 1.0, 0.0], atol=1e-14)
    assert np.allclose(rot.structure[1, 2], [-1.0, 0.0, 0.0], atol=1e-14)
    plane = translation_group(2)
    assert np.max(np.abs(plane.structure)) == 0.0


def test_structure_matches_matrix_commutators(any_group):
    basis = any_group.basis
    flat = basis.reshape(any_group.dim, -1).T
    for i in range(any_group.dim):
        for j in range(any_group.dim):
            comm = basis[i] @ basis[j] - basis[j] @ basis[i]
            coords, *_ = np.linalg.lstsq(flat, comm.ravel(), rcond=None)
            assert np.allclose(coords, any_group.structure[i, j], atol=1e-12)


def test_bracket_antisymmetry_and_jacobi(any_group, rng):
    assert _jacobi_residual(any_group.structure) <= 1e-12
    for _ in range(5):
        x = rng.standard_normal(any_group.dim)
        y = rng.standard_normal(any_group.dim)
        assert np.allclose(bracket(any_group, x, y),
                           -bracket(any_group, y, x), atol=1e-12)


def _placeholder(_):
    raise AssertionError("the closure check runs before any closed form")


def test_matrix_group_rejects_nonclosed_basis():
    basis = np.array([[[0.0, 1.0], [0.0, 0.0]],
                      [[0.0, 0.0], [1.0, 0.0]]])
    with pytest.raises(GroupChartError):
        matrix_group("sl2_partial", basis, exp_closed=_placeholder,
                     ad_pullback=_placeholder, variety=_placeholder)


def test_matrix_group_requires_closed_forms():
    basis = rotation_group().basis
    with pytest.raises(TypeError):
        matrix_group("no_closed_forms", basis)
    with pytest.raises(TypeError):
        matrix_group("no_adjoint", basis, exp_closed=_placeholder,
                     variety=_placeholder)


# Loads groups.py on its own file (it has no package imports), uses it,
# and prints the scipy modules that got imported.
STANDALONE_LOAD = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("groups", sys.argv[1])
module = sys.modules["groups"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
rot = module.rotation_group()
g = module.exp(rot, [0.1, 0.2, 0.3])
module.coadjoint_dual_point(rot, [1.0, 0.0, 0.0], g)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_groups_module_loads_without_scipy():
    path = Path(__file__).resolve().parents[1] / "src/subfinsler/groups.py"
    done = subprocess.run([sys.executable, "-c", STANDALONE_LOAD, str(path)],
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


# -- chart round trips ---------------------------------------------------------


def test_to_from_matrix_round_trip(any_group, rng):
    for _ in range(5):
        x = rng.standard_normal(any_group.dim)
        assert np.allclose(from_matrix(any_group, to_matrix(any_group, x)),
                           x, atol=1e-12)


def test_from_matrix_rejects_off_span():
    heis = heisenberg_group()
    bad = np.zeros((3, 3))
    bad[1, 0] = 1.0
    with pytest.raises(GroupChartError):
        from_matrix(heis, bad)
    rot = rotation_group()
    with pytest.raises(GroupChartError):
        from_matrix(rot, np.eye(3))


# -- exponentials ---------------------------------------------------------------


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(ALL_GROUPS), data=st.data())
def test_stacked_kernels_match_each_element(name, data):
    # Each stacked row also matches the independent generic path:
    # scipy's expm of the chart matrix, and explicit conjugation.
    spec = group_by_name(name)
    rows = data.draw(st.integers(1, 5))
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    x = np.array(data.draw(st.lists(entry, min_size=rows * spec.dim,
                                    max_size=rows * spec.dim)))
    x = x.reshape(rows, spec.dim)
    lam = np.array(data.draw(st.lists(entry, min_size=spec.dim,
                                      max_size=spec.dim)))
    size = spec.matrix_size
    gs = group_exp(spec, x)
    adj = adjoint_matrix(spec, gs)
    duals = coadjoint_dual_point(spec, lam, gs)
    assert gs.shape == (rows, size, size)
    assert adj.shape == (rows, spec.dim, spec.dim)
    assert duals.shape == (rows, len(spec.polarization))
    for i in range(rows):
        g = group_exp(spec, x[i])
        assert np.max(np.abs(gs[i] - g)) <= 1e-12
        assert np.max(np.abs(adj[i] - adjoint_matrix(spec, g))) <= 1e-12
        assert np.max(np.abs(duals[i] - coadjoint_dual_point(spec, lam, g))
                      ) <= 1e-12
        generic = expm(to_matrix(spec, x[i]))
        assert np.max(np.abs(gs[i] - generic)) <= 1e-9 * (
            1.0 + np.max(np.abs(generic)))
        for k in range(spec.dim):
            oracle = adjoint_by_conjugation(spec.basis, gs[i],
                                            np.eye(spec.dim)[k])
            assert np.max(np.abs(adj[i, :, k] - oracle)) <= 1e-9 * (
                1.0 + np.max(np.abs(oracle)))
    # A second stack axis is carried through as well.
    grid = group_exp(spec, x.reshape(1, rows, spec.dim))
    assert np.max(np.abs(grid[0] - gs)) <= 1e-12
    assert np.max(np.abs(coadjoint_dual_point(spec, lam, grid)[0] - duals)
                  ) <= 1e-12


def test_exp_closed_matches_expm(any_group, rng):
    for _ in range(8):
        x = rng.standard_normal(any_group.dim)
        closed = group_exp(any_group, x)
        generic = expm(to_matrix(any_group, x))
        assert np.max(np.abs(closed - generic)) <= 1e-9


def test_exp_values_frozen():
    heis = heisenberg_group()
    g = group_exp(heis, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(g, [[1.0, 1.0, 4.0], [0.0, 1.0, 2.0],
                              [0.0, 0.0, 1.0]])
    aff = affine_line_group()
    assert np.array_equal(group_exp(aff, np.array([1.0, 0.0])),
                          [[1.0, 1.0], [0.0, 1.0]])
    g = group_exp(aff, np.array([2.0, math.log(2.0)]))
    assert g[0, 0] == pytest.approx(2.0, abs=1e-15)
    assert g[0, 1] == pytest.approx(2.0 / math.log(2.0), abs=1e-12)
    rot = rotation_group()
    t = 0.7
    g = group_exp(rot, np.array([t, 0.0, 0.0]))
    expected = np.array([[math.cos(t), math.sin(t), 0.0],
                         [-math.sin(t), math.cos(t), 0.0],
                         [0.0, 0.0, 1.0]])
    assert np.max(np.abs(g - expected)) <= 1e-14


def test_exp_stays_on_variety(any_group, rng):
    for _ in range(5):
        g = group_exp(any_group, rng.standard_normal(any_group.dim))
        check_element(any_group, g)
    assert variety_residual(rotation_group(), 2.0 * np.eye(3)) > 1.0
    with pytest.raises(GroupChartError):
        check_element(rotation_group(), 2.0 * np.eye(3))


# -- adjoint action ---------------------------------------------------------------


def test_adjoint_matrix_matches_conjugation_oracle(any_group, rng):
    for _ in range(5):
        g = group_exp(any_group, rng.standard_normal(any_group.dim))
        adj = adjoint_matrix(any_group, g)
        for k in range(any_group.dim):
            e = np.zeros(any_group.dim)
            e[k] = 1.0
            oracle = adjoint_by_conjugation(any_group.basis, g, e)
            assert np.allclose(adj[:, k], oracle, atol=1e-9)


def test_adjoint_of_exp_matches_exp_of_ad(any_group, rng):
    for _ in range(5):
        x = rng.standard_normal(any_group.dim)
        route_a = adjoint_matrix(any_group, group_exp(any_group, x))
        for k in range(any_group.dim):
            e = np.zeros(any_group.dim)
            e[k] = 1.0
            route_b = adjoint_by_exp_ad(any_group.structure, x, e)
            assert np.allclose(route_a @ e, route_b, atol=1e-9)


def test_adjoint_is_homomorphism(any_group, rng):
    g = group_exp(any_group, rng.standard_normal(any_group.dim))
    h = group_exp(any_group, rng.standard_normal(any_group.dim))
    assert np.allclose(adjoint_matrix(any_group, g @ h),
                       adjoint_matrix(any_group, g)
                       @ adjoint_matrix(any_group, h), atol=1e-9)


def test_rotation_adjoint_about_first_axis(rng):
    # Conjugating the second and third basis rotations by exp(t B1)
    # mixes them with a minus sign on the upper right:
    #   Ad B2 = cos t B2 - sin t B3,  Ad B3 = sin t B2 + cos t B3.
    rot = rotation_group()
    for t in rng.uniform(-3.0, 3.0, size=12):
        g = group_exp(rot, np.array([t, 0.0, 0.0]))
        img2 = adjoint_matrix(rot, g) @ np.array([0.0, 1.0, 0.0])
        img3 = adjoint_matrix(rot, g) @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(img2, [0.0, math.cos(t), -math.sin(t)],
                           atol=1e-12)
        assert np.allclose(img3, [0.0, math.sin(t), math.cos(t)],
                           atol=1e-12)
        oracle2 = adjoint_by_conjugation(rot.basis, g,
                                         np.array([0.0, 1.0, 0.0]))
        assert np.allclose(img2, oracle2, atol=1e-12)
    # The adjoint image of the first axis is fixed.
    g = group_exp(rot, np.array([1.1, 0.0, 0.0]))
    assert np.allclose(adjoint_matrix(rot, g) @ np.array([1.0, 0.0, 0.0]),
                       [1.0, 0.0, 0.0], atol=1e-12)


def test_axis_corner_norm_invariant_under_first_axis_rotations(rng):
    rot = rotation_group()
    norm = AxisCornerNorm()
    for _ in range(10):
        t = rng.uniform(-3.0, 3.0)
        g = group_exp(rot, np.array([t, 0.0, 0.0]))
        y = rng.standard_normal(3)
        assert norm.value(adjoint_matrix(rot, g) @ y) == pytest.approx(
            norm.value(y), abs=1e-12)


def test_affine_adjoint_formula(rng):
    # Ad_{(x, t)}(a, b) = (t a - x b, b) in the chart [[t, x], [0, 1]].
    aff = affine_line_group()
    for _ in range(8):
        coords = rng.standard_normal(2)
        g = group_exp(aff, coords)
        t, x = g[0, 0], g[0, 1]
        a, b = rng.standard_normal(2)
        assert np.allclose(adjoint_matrix(aff, g) @ np.array([a, b]),
                           [t * a - x * b, b], atol=1e-12)


def test_heisenberg_coadjoint_witness(rng):
    # With the central covector, pairing against (-x2, x1, 1) yields
    # 1 + x1**2 + x2**2 at exp(x1, x2, x3).
    heis = heisenberg_group()
    lam = np.array([0.0, 0.0, 1.0])
    for _ in range(10):
        x = rng.standard_normal(3)
        g = group_exp(heis, x)
        xi = coadjoint_dual_point(heis, lam, g)
        y = np.array([-x[1], x[0], 1.0])
        assert float(xi @ y) == pytest.approx(1.0 + x[0] ** 2 + x[1] ** 2,
                                              abs=1e-12)


def test_affine_coadjoint_frozen():
    aff = affine_line_group()
    g = group_exp(aff, np.array([0.0, math.log(2.0)]))
    xi = coadjoint_dual_point(aff, np.array([0.5, 1.0]), g)
    assert np.allclose(xi, [1.0, 1.0], atol=1e-12)


def test_group_registry():
    assert group_by_name("heisenberg").name == "heisenberg"
    assert group_by_name("translation3").dim == 3
    with pytest.raises(GroupChartError):
        group_by_name("nilpotent7")


@pytest.mark.parametrize("name", ALL_GROUPS)
def test_registry_builds_each_group_once(name):
    assert group_by_name(name) is group_by_name(name)


def test_constructors_share_the_registry_specs():
    assert heisenberg_group() is group_by_name("heisenberg")
    assert translation_group(2) is group_by_name("translation2")
    quotient = heisenberg_abelianization()
    assert quotient.source is heisenberg_group()
    assert quotient.target is translation_group(2)


@pytest.mark.parametrize("field", ["basis", "structure", "_flat_pinv"])
def test_spec_arrays_are_read_only(any_group, field):
    array = getattr(any_group, field)
    with pytest.raises(ValueError):
        array[(0,) * array.ndim] = 1.0


def test_matrix_group_copies_the_basis():
    basis = np.array(heisenberg_group().basis)
    spec = matrix_group("copy", basis, exp_closed=_placeholder,
                        ad_pullback=_placeholder, variety=_placeholder)
    assert basis.flags.writeable
    basis[0, 0, 1] = 2.0
    assert spec.basis[0, 0, 1] == 1.0


def test_translation_group_is_additive(rng):
    plane = translation_group(2)
    x = rng.standard_normal(2)
    y = rng.standard_normal(2)
    assert np.allclose(group_exp(plane, x) @ group_exp(plane, y),
                       group_exp(plane, x + y), atol=1e-12)
    assert np.array_equal(adjoint_matrix(plane, group_exp(plane, x)),
                          np.eye(2))


def test_ad_matrix_definition(any_group, rng):
    x = rng.standard_normal(any_group.dim)
    y = rng.standard_normal(any_group.dim)
    assert np.allclose(ad_matrix(any_group, x) @ y, bracket(any_group, x, y),
                       atol=1e-12)


# -- submetries -------------------------------------------------------------------


def test_abelianization_shapes():
    sub = heisenberg_abelianization()
    assert sub.dpi.shape == (2, 3)
    assert np.array_equal(sub.dpi_on_polarization((0, 1)), np.eye(2))
