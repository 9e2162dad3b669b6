"""Polytope balls: construction, face lattice, star covering."""

import itertools
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from subfinsler import (
    PolyhedralNorm,
    Polyhedron,
    PolyhedronError,
    l1_ball,
    linf_ball,
    polyhedra,
    regular_polygon_ball,
    translation_group,
    verify_face_stability,
)
from subfinsler.cli import load_scenario
from subfinsler.convex import as_polyhedron
from subfinsler.flow import FaceEvent, Trajectory
from subfinsler.polyhedra import CoveringError, _polytope_pair_distance

from oracles import (
    face_lattice_bruteforce,
    faces_share_a_closed_face,
    maximal_disjoint_pairs,
    pair_distance_highs,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402
from reference import exhaustive_delta  # noqa: E402

BALLS = [
    ("diamond2", l1_ball, 2),
    ("cube3", linf_ball, 3),
    ("hexagon", lambda _: regular_polygon_ball(6), 2),
]


@pytest.fixture(params=[(mk, dim) for _, mk, dim in BALLS],
                ids=[name for name, _, _ in BALLS])
def any_ball(request):
    mk, dim = request.param
    return mk(dim)


# -- construction --------------------------------------------------------


def test_from_vertices_drops_interior_points():
    pts = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0],
                    [0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
    square = Polyhedron.from_vertices(pts)
    assert square.vertices.shape == (4, 2)
    assert square.functionals.shape == (4, 2)
    assert square.value([1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)
    assert square.value([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_from_functionals_square():
    square = Polyhedron.from_functionals(
        np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    assert sorted(map(tuple, square.vertices)) == [
        (-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_closed_form_balls_match_their_hulls(monkeypatch, dim):
    eye = np.eye(dim)
    corners = np.array(list(itertools.product((-1.0, 1.0), repeat=dim)))
    cross_hull = Polyhedron.from_vertices(np.vstack([eye, -eye]))
    cube_hull = Polyhedron.from_vertices(corners)

    def no_hull(points):
        raise AssertionError("ConvexHull called")

    monkeypatch.setattr(polyhedra, "ConvexHull", no_hull)
    cross, cube = l1_ball(dim), linf_ball(dim)
    for ball, hull in ((cross, cross_hull), (cube, cube_hull)):
        # Equal arrays: the hull's zeros carry Qhull's arbitrary signs.
        assert np.array_equal(ball.vertices, hull.vertices)
        assert np.array_equal(ball.functionals, hull.functionals)
        assert ball._facet_sets == hull._facet_sets
        assert ([(f.vertex_ids, f.facets) for f in ball.faces()]
                == [(f.vertex_ids, f.facets) for f in hull.faces()])
    # The two balls are polar: each one's vertices are the other's
    # functionals, bit for bit.
    assert cross.vertices.tobytes() == cube.functionals.tobytes()
    assert cube.vertices.tobytes() == cross.functionals.tobytes()


def test_canonical_vertex_order_is_input_independent(rng):
    base = linf_ball(3)
    perm = rng.permutation(len(base.vertices))
    again = Polyhedron.from_vertices(base.vertices[perm])
    assert np.array_equal(base.vertices, again.vertices)
    assert np.array_equal(base.functionals, again.functionals)


def test_validation_rejects_bad_input():
    with pytest.raises(PolyhedronError):
        Polyhedron.from_vertices(np.array([[1.0, 0.0], [0.0, 1.0],
                                           [-1.0, 0.0]]))  # not symmetric
    with pytest.raises(PolyhedronError):
        Polyhedron.from_vertices(np.array([[1.0, 0.0], [-1.0, 0.0]]))  # flat
    with pytest.raises(PolyhedronError):
        # Vertex beyond a functional.
        Polyhedron(np.array([[2.0, 0.0], [-2.0, 0.0],
                             [0.0, 1.0], [0.0, -1.0]]),
                   np.array([[1.0, 0.0], [-1.0, 0.0],
                             [0.0, 1.0], [0.0, -1.0]]))
    with pytest.raises(PolyhedronError):
        regular_polygon_ball(5)
    # Loose functionals touching no vertex or one corner: every functional
    # must be a facet, since the faces' ``facets`` are the polar lattice.
    square = linf_ball(2)
    for loose in (np.array([[0.5, 0.0]]), np.array([[0.5, 0.5]])):
        with pytest.raises(PolyhedronError, match="no facet"):
            Polyhedron(square.vertices,
                       np.vstack([square.functionals, loose, -loose]))


def test_symmetry_check_is_relative_to_the_row_size():
    # A thin diamond has functionals (+-1e4, +-1).  Negation that holds
    # to a relative 1e-12 is symmetric, though the absolute gap is 1e-8.
    vertices = np.array([[1e-4, 0.0], [-1e-4, 0.0], [0.0, 1.0], [0.0, -1.0]])
    functionals = np.array([[1e4, 1.0], [1e4, -1.0],
                            [-1e4, 1.0], [-1e4, -1.0]])
    near, far = functionals.copy(), functionals.copy()
    near[3, 0] *= 1.0 + 1e-12
    far[3, 0] *= 1.0 + 1e-6
    assert len(Polyhedron(vertices, near).functionals) == 4
    with pytest.raises(PolyhedronError, match="not symmetric"):
        Polyhedron(vertices, far)


def test_gauge_and_support_values():
    ball = l1_ball(2)
    assert ball.value([0.25, -0.25]) == pytest.approx(0.5, abs=1e-12)
    assert ball.dual_value([3.0, -1.0]) == pytest.approx(3.0, abs=1e-12)
    cube = linf_ball(3)
    assert cube.value([0.2, -0.9, 0.5]) == pytest.approx(0.9, abs=1e-12)
    assert cube.dual_value([1.0, 2.0, -3.0]) == pytest.approx(6.0, abs=1e-12)


# -- face lattice vs brute force ------------------------------------------


def test_face_lattice_matches_bruteforce(any_ball):
    ours = {f.vertex_set for f in any_ball.faces()}
    brute = face_lattice_bruteforce(any_ball.vertices)
    assert ours == brute


def test_face_counts_by_dimension():
    diamond = l1_ball(2)
    dims = sorted(f.dim for f in diamond.faces())
    assert dims == [0] * 4 + [1] * 4
    cube = linf_ball(3)
    dims = sorted(f.dim for f in cube.faces())
    assert dims == [0] * 8 + [1] * 12 + [2] * 6
    hexagon = regular_polygon_ball(6)
    dims = sorted(f.dim for f in hexagon.faces())
    assert dims == [0] * 6 + [1] * 6


def test_face_ids_are_stable_and_sorted(any_ball):
    faces = any_ball.faces()
    assert [f.fid for f in faces] == list(range(len(faces)))
    keys = [(f.dim, f.vertex_ids) for f in faces]
    assert keys == sorted(keys)


def test_face_of_exposes_argmax(any_ball, rng):
    for _ in range(40):
        eta = rng.standard_normal(any_ball.dim)
        face = any_ball.face_of(eta)
        vals = any_ball.vertices @ eta
        top = vals.max()
        active = set(np.nonzero(vals >= top - 1e-12 * abs(top))[0])
        assert active == set(face.vertex_ids)
        assert any_ball.face_of(3.0 * eta).fid == face.fid


def test_face_witness_exposes_its_face(any_ball):
    for face in any_ball.faces():
        assert any_ball.face_of(face.witness).fid == face.fid


def test_subface_follows_the_covector(any_ball, rng):
    for face in any_ball.faces():
        eta = rng.standard_normal(any_ball.dim)
        sub = any_ball.subface(face, eta)
        vals = any_ball.vertices[list(face.vertex_ids)] @ eta
        top = [i for i, v in zip(face.vertex_ids, vals)
               if v >= vals.max() - 1e-9]
        assert set(top) <= sub.vertex_set <= face.vertex_set
        assert any_ball.subface(face, np.zeros(any_ball.dim)) == face


def test_face_of_rejects_zero(any_ball):
    with pytest.raises(PolyhedronError):
        any_ball.face_of(np.zeros(any_ball.dim))


@pytest.mark.parametrize("eta", [[np.nan, 1.0], [np.inf, -np.inf],
                                 [np.inf, 1.0], [1e308, 1e308]],
                         ids=["nan", "inf_minus_inf", "inf", "overflow"])
def test_non_finite_support_values_raise(eta):
    square = linf_ball(2)
    with np.errstate(all="ignore"):
        with pytest.raises(PolyhedronError, match="not finite"):
            square.face_of(eta)
        with pytest.raises(PolyhedronError, match="not finite"):
            square.subface(square.faces()[-1], eta)


def test_face_of_snaps_glued_active_sets():
    # A covector within FACE_REL_TOL of the facet functional x0 = 1
    # activates three of the facet's four vertices, whose hull is not a
    # face; the smallest containing face, the facet, comes back instead
    # of an error.
    cube = linf_ball(3)
    eta = np.array([1.0, 4e-10, -4e-10])
    vals = cube.vertices @ eta
    top = vals.max() * (1.0 - polyhedra.FACE_REL_TOL)
    active = frozenset(np.nonzero(vals >= top)[0])
    assert len(active) == 3
    assert active not in {f.vertex_set for f in cube.faces()}
    face = cube.face_of(eta)
    assert set(face.vertex_ids) == {
        i for i, v in enumerate(cube.vertices) if v[0] == 1.0}


# -- face containment ------------------------------------------------------


def test_face_facets_are_the_facets_containing_it(any_ball):
    vals = any_ball.functionals @ any_ball.vertices.T
    for face in any_ball.faces():
        on_facet = vals[:, list(face.vertex_ids)] >= 1.0 - 1e-9
        expected = tuple(int(k) for k in np.nonzero(on_facet.all(axis=1))[0])
        assert face.facets == expected
        assert np.array_equal(
            face.witness, np.mean(any_ball.functionals[list(expected)],
                                  axis=0))
        if face.dim == any_ball.dim - 1:
            assert len(face.facets) == 1


def _face_walk(ball, fids):
    """A face history on ``ball`` visiting ``fids`` in turn on [0, 1].

    Only the face history matters to the window check; the chart points
    stay at the identity.
    """
    dim = ball.dim
    times = np.array([0.0, 1.0])
    events = [FaceEvent(k / len(fids), fids[k - 1], fids[k])
              for k in range(1, len(fids))]
    return Trajectory(
        group=translation_group(dim), norm=PolyhedralNorm(ball),
        polarization=tuple(range(dim)), lam=np.ones(dim), times=times,
        points=np.tile(np.eye(dim + 1), (2, 1, 1)),
        controls=np.zeros((2, dim)), duals=np.zeros((2, dim)),
        face_ids=np.array([fids[0], fids[-1]]), speed=1.0, events=events,
        rule="persistent", step=1.0)


def test_window_check_matches_the_union_rule(any_ball, rng):
    # One window spans the whole walk, so the verdict is the window
    # rule applied to the visited faces.
    lattice = face_lattice_bruteforce(any_ball.vertices)
    faces = any_ball.faces()
    verdicts = set()
    for _ in range(60):
        size = int(rng.integers(2, 4))
        fids = [int(f) for f in rng.choice(len(faces), size, replace=False)]
        verdict = not verify_face_stability(_face_walk(any_ball, fids),
                                            window=1.0)
        expected = faces_share_a_closed_face(
            lattice, [faces[f].vertex_set for f in fids])
        assert verdict == expected, fids
        verdicts.add(verdict)
    assert verdicts == {True, False}


# -- stars and the covering bound -----------------------------------------


def test_star_covering_deltas_frozen():
    assert l1_ball(2).star_covering().delta == pytest.approx(2.0, abs=1e-9)
    assert linf_ball(3).star_covering().delta == pytest.approx(2.0, abs=1e-9)
    assert regular_polygon_ball(6).star_covering().delta == pytest.approx(
        1.0, abs=1e-9)


def test_star_covering_delta_is_linear_invariant(any_ball, rng):
    # The covering bound is measured in the ball's own gauge, so an
    # invertible linear image of the ball has the same delta.
    mat = np.eye(any_ball.dim) + 0.3 * rng.standard_normal(
        (any_ball.dim, any_ball.dim))
    image = Polyhedron(any_ball.vertices @ mat.T,
                       any_ball.functionals @ np.linalg.inv(mat))
    assert image.star_covering().delta == pytest.approx(
        any_ball.star_covering().delta, abs=1e-12)


# LPs per covering; the full scan over disjoint dual-face pairs solves
# 16, 16, 48, 193 and 145.
LP_BALLS = [
    ("diamond2", lambda: l1_ball(2), 2),
    ("square", lambda: linf_ball(2), 2),
    ("hexagon", lambda: regular_polygon_ball(6), 9),
    ("cross3", lambda: l1_ball(3), 3),
    ("cube3", lambda: linf_ball(3), 4),
]


def _record_pair_lps(monkeypatch, ball) -> list:
    """Patch the pair-distance LP to log (gauge rows, functional ids,
    functional ids): the dual faces of ``ball`` whose distance it solves."""
    solved = []
    real = polyhedra._polytope_pair_distance
    index = {tuple(row): i for i, row in enumerate(ball.functionals)}

    def recording(gauge, pts_a, pts_b):
        solved.append((gauge, frozenset(index[tuple(r)] for r in pts_a),
                       frozenset(index[tuple(r)] for r in pts_b)))
        return real(gauge, pts_a, pts_b)

    monkeypatch.setattr(polyhedra, "_polytope_pair_distance", recording)
    return solved


@pytest.mark.parametrize("make, solves", [(mk, n) for _, mk, n in LP_BALLS],
                         ids=[name for name, _, _ in LP_BALLS])
def test_star_covering_lp_counts(monkeypatch, make, solves):
    ball = make()
    solved = _record_pair_lps(monkeypatch, ball)
    covering = ball.star_covering()
    assert len(solved) == solves
    assert covering.lp_solves == covering.to_json_dict()["lp_solves"] == solves


@pytest.mark.parametrize("make", [mk for _, mk, _ in LP_BALLS],
                         ids=[name for name, _, _ in LP_BALLS])
def test_solved_pairs_are_the_maximal_disjoint_pairs(monkeypatch, make):
    # The dual faces are the polar ball's faces, as functional-index
    # sets, and the dual gauge's rows are the primal vertices.
    ball = make()
    solved = _record_pair_lps(monkeypatch, ball)
    ball.star_covering()
    assert all(gauge is ball.vertices for gauge, _, _ in solved)
    pairs = [frozenset((a, b)) for _, a, b in solved]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == maximal_disjoint_pairs(
        face_lattice_bruteforce(ball.functionals))


def test_star_covering_builds_no_hull_and_one_lattice(monkeypatch):
    # The dual sphere's faces are read off ``Face.facets``: covering a
    # ball loaded from JSON builds no convex hull and one face lattice.
    ball = Polyhedron.from_json_dict(linf_ball(3).to_json_dict())
    calls = {"hull": 0, "lattice": 0}
    real_hull = polyhedra.ConvexHull
    real_build = Polyhedron._build_faces

    def hull(*args, **kwargs):
        calls["hull"] += 1
        return real_hull(*args, **kwargs)

    def build(self):
        calls["lattice"] += 1
        return real_build(self)

    monkeypatch.setattr(polyhedra, "ConvexHull", hull)
    monkeypatch.setattr(Polyhedron, "_build_faces", build)
    covering = ball.star_covering()
    assert covering.lp_solves == 4
    assert calls == {"hull": 0, "lattice": 1}


def _check_delta_is_exhaustive(points: np.ndarray) -> None:
    """delta of conv(points) against the exhaustive LP.  Balls are
    assumed away unless every vertex lies on a facet plane or clearly
    off it, so that no incidence tolerance decides the face lattice."""
    try:
        ball = Polyhedron.from_vertices(points)
    except PolyhedronError:
        assume(False)
    vals = ball.functionals @ ball.vertices.T
    assume(np.all((vals >= 1.0 - 1e-12) | (vals <= 1.0 - 1e-6)))
    assert ball.star_covering().delta == pytest.approx(
        exhaustive_delta(ball.vertices, ball.functionals), abs=1e-12)


@st.composite
def symmetric_polygons(draw) -> np.ndarray:
    pairs = draw(st.integers(2, 6))
    angles = np.array(draw(st.lists(st.floats(0.0, np.pi, exclude_max=True),
                                    min_size=pairs, max_size=pairs)))
    radii = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=pairs,
                                   max_size=pairs)))
    pts = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    return np.vstack([pts, -pts])


@st.composite
def ellipsoid_point_pairs(draw) -> np.ndarray:
    pairs = draw(st.integers(3, 5))
    axes = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=3,
                                  max_size=3)))
    dirs = np.array(draw(st.lists(
        st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
        min_size=pairs, max_size=pairs)))
    lengths = np.linalg.norm(dirs, axis=1)
    assume(np.all(lengths > 0.1))
    pts = axes * dirs / lengths[:, None]
    return np.vstack([pts, -pts])


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(symmetric_polygons())
def test_delta_matches_exhaustive_lp_on_polygons(points):
    _check_delta_is_exhaustive(points)


@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(ellipsoid_point_pairs())
def test_delta_matches_exhaustive_lp_on_ellipsoid_pairs(points):
    _check_delta_is_exhaustive(points)


def test_pair_distance_lp_frozen():
    # Two opposite vertices of the diamond at sum-norm distance 2,
    # measured in the gauge of the diamond itself (its functionals' rows).
    diamond = l1_ball(2)
    d = _polytope_pair_distance(diamond.functionals, np.array([[1.0, 0.0]]),
                                np.array([[-1.0, 0.0]]))
    assert d == pytest.approx(2.0, abs=1e-9)
    # A vertex against the opposite edge of the square, max-norm gauge.
    square = linf_ball(2)
    d = _polytope_pair_distance(square.functionals, np.array([[1.0, 1.0]]),
                                np.array([[-1.0, -1.0], [1.0, -1.0]]))
    assert d == pytest.approx(2.0, abs=1e-9)


# -- the face distance simplex ----------------------------------------------


def _bench_like_balls() -> list[tuple[str, Polyhedron]]:
    """Random polygons, and skewed cubes, cross-polytopes and
    ``random_ball3`` balls, drawn by the bench's own generators."""
    rng = np.random.default_rng(11)
    balls = [(f"polygon{2 * pairs}", workloads.symmetric_polygon(rng, pairs))
             for pairs in range(2, 8)]
    balls += [(f"{make.__name__}_{i}", make(rng))
              for make in (workloads.skewed_cube, workloads.skewed_cross,
                           workloads.random_ball3) for i in range(3)]
    return [(name, Polyhedron.from_json_dict(ball)) for name, ball in balls]


BENCH_LIKE_BALLS = _bench_like_balls()


@pytest.fixture(params=[ball for _, ball in BENCH_LIKE_BALLS],
                ids=[name for name, _ in BENCH_LIKE_BALLS])
def bench_ball(request):
    return request.param


def _exact_gauge_length(gauge, pts_a, w, pts_b, z) -> Fraction:
    """``max_k gauge_k . (x - y)`` in exact rationals, for the points
    ``x`` and ``y`` of conv(pts_a) and conv(pts_b) with weights
    proportional to ``w`` and ``z``."""
    def point(pts, weights):
        weights = [Fraction(v) for v in weights.tolist()]
        total = sum(weights)
        return [sum(wi * Fraction(p[d]) for wi, p in zip(weights, pts))
                / total for d in range(pts.shape[1])]

    diff = [x - y for x, y in zip(point(pts_a, w), point(pts_b, z))]
    return max(sum(Fraction(g) * u for g, u in zip(row, diff))
               for row in gauge.tolist())


def test_delta_matches_exhaustive_lp_on_bench_balls(bench_ball):
    assert bench_ball.star_covering().delta == pytest.approx(
        exhaustive_delta(bench_ball.vertices, bench_ball.functionals),
        abs=1e-12)


def _per_face_lattice(ball: Polyhedron) -> list[tuple]:
    """``(fid, vertex_ids, dim, facets, witness bytes)`` of every face,
    built one face at a time: one ``matrix_rank`` of its edges from its
    first vertex, its facets by subset tests, its witness by ``np.mean``."""
    facet_sets = [frozenset(np.flatnonzero(row)) for row in
                  ball.functionals @ ball.vertices.T >= 1.0 - 1e-9]
    seen, queue = set(facet_sets), list(facet_sets)
    while queue:
        current = queue.pop()
        for facet in facet_sets:
            inter = current & facet
            if inter and inter not in seen:
                seen.add(inter)
                queue.append(inter)
    faces = []
    for vset in seen:
        ids = tuple(sorted(int(i) for i in vset))
        pts = ball.vertices[list(ids)]
        fdim = (int(np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-9))
                if len(ids) > 1 else 0)
        facets = tuple(k for k, fs in enumerate(facet_sets) if vset <= fs)
        faces.append((fdim, ids, facets))
    faces.sort(key=lambda item: (item[0], item[1]))
    return [(fid, ids, fdim, facets,
             np.mean(ball.functionals[list(facets)], axis=0).tobytes())
            for fid, (fdim, ids, facets) in enumerate(faces)]


def _random_symmetric_ball(rng, dim: int, pairs: int) -> Polyhedron:
    points = rng.standard_normal((pairs, dim))
    return Polyhedron.from_vertices(np.vstack([points, -points]))


def test_stacked_lattice_matches_the_per_face_build():
    rng = np.random.default_rng(32)
    balls = [ball for _, ball in BENCH_LIKE_BALLS]
    balls += [_random_symmetric_ball(rng, dim, pairs)
              for dim in (2, 3) for pairs in (3, 5, 9, 14)]
    hexagon = load_scenario("hexagon_faces")
    balls.append(as_polyhedron(hexagon.build_norm_on(hexagon.build_group())))
    for ball in balls:
        stacked = [(f.fid, f.vertex_ids, f.dim, f.facets, f.witness.tobytes())
                   for f in ball.faces()]
        assert stacked == _per_face_lattice(ball)
        assert all(type(k) is int for f in ball.faces() for k in f.facets)


def test_pair_bounds_are_bracketed_by_the_solvers_primal_points(
        monkeypatch, bench_ball):
    # Each pair's bound sits below the exact length of the simplex's own
    # primal point, and within 1e-12 of it and of HiGHS's optimum.
    solved = _record_pair_lps(monkeypatch, bench_ball)
    bench_ball.star_covering()
    for gauge, ids_a, ids_b in solved:
        pts_a = bench_ball.functionals[sorted(ids_a)]
        pts_b = bench_ball.functionals[sorted(ids_b)]
        lower = _polytope_pair_distance(gauge, pts_a, pts_b)
        w, z, _ = polyhedra.linprog(gauge, pts_a, pts_b)
        upper = _exact_gauge_length(gauge, pts_a, w, pts_b, z)
        assert Fraction(lower) <= upper
        assert float(upper) - lower <= 1e-12 * lower
        assert lower == pytest.approx(
            pair_distance_highs(gauge, pts_a, pts_b), rel=1e-12)


def test_cross_polytope_and_cube_delta_never_exceeds_two():
    # The true distance is 2; a bound rounded toward -inf cannot pass it.
    for ball in (l1_ball(2), linf_ball(3)):
        delta = ball.star_covering().delta
        assert 2.0 - 1e-12 <= delta <= 2.0


def test_pivot_cap_raises_an_arithmetic_error(monkeypatch):
    # The pivot that brings t into the starting basis counts, so a cap
    # of 0 fails every LP.
    monkeypatch.setattr(polyhedra, "MAX_PIVOTS", 0)
    with pytest.raises(CoveringError, match="pivots") as info:
        l1_ball(2).star_covering()
    assert isinstance(info.value, ArithmeticError)
    assert not isinstance(info.value, ValueError)


def test_touching_faces_give_no_positive_bound():
    square = linf_ball(2)
    edge = np.array([[1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(CoveringError, match="no positive bound"):
        _polytope_pair_distance(square.functionals, edge, edge[:1])


def test_a_basis_with_no_finite_solve_is_singular():
    gauge = linf_ball(2).functionals.copy()
    gauge[0, 0] = np.inf
    edge = np.array([[1.0, 1.0], [1.0, -1.0]])
    with pytest.raises(CoveringError, match="singular basis"):
        polyhedra.linprog(gauge, edge, -edge)


def test_covering_stars_nonempty(any_ball, rng):
    covering = any_ball.star_covering()
    assert covering.delta > 0.0
    for _ in range(500):
        eta = rng.standard_normal(any_ball.dim)
        assert any_ball.face_of(eta).facets


def test_covering_stars_are_the_facet_stars_holding_the_face(any_ball, rng):
    # The definition by vertex sets: star ``idx`` contains ``xi`` when
    # the base facet ``idx`` contains the face ``xi`` exposes.
    covering = any_ball.star_covering()
    faces = any_ball.faces()
    probes = [rng.standard_normal(any_ball.dim) for _ in range(200)]
    probes += [face.witness for face in faces]
    for xi in probes:
        target = any_ball.face_of(xi).vertex_set
        expected = [idx for idx, fid in enumerate(covering.base_face_ids)
                    if target <= faces[fid].vertex_set]
        assert list(any_ball.face_of(xi).facets) == expected


def test_lebesgue_property(any_ball, rng):
    # Any two dual-sphere points closer than delta (in the dual gauge)
    # share a covering star.
    covering = any_ball.star_covering()
    delta = covering.delta
    checked = 0
    while checked < 200:
        a = rng.standard_normal(any_ball.dim)
        a /= any_ball.dual_value(a)
        b = a + 0.25 * rng.standard_normal(any_ball.dim)
        b /= any_ball.dual_value(b)
        if any_ball.dual_value(a - b) >= 0.999 * delta:
            continue
        assert set(any_ball.face_of(a).facets) & set(
            any_ball.face_of(b).facets)
        checked += 1


def test_covering_base_faces_are_facets(any_ball):
    covering = any_ball.star_covering()
    faces = any_ball.faces()
    top = any_ball.dim - 1
    for fid in covering.base_face_ids:
        assert faces[fid].dim == top


# -- serialization ---------------------------------------------------------


def test_json_round_trip(any_ball):
    clone = Polyhedron.from_json_dict(any_ball.to_json_dict())
    assert np.array_equal(clone.vertices, any_ball.vertices)
    assert np.array_equal(clone.functionals, any_ball.functionals)
