"""Stability certificates, adjoint bounds, and the vertical shortcut."""

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from scipy.special import lambertw

from oracles import (
    adjoint_bracket_max,
    cube_bracket_coordinates,
    dual_gauge_rates,
    face_lattice_bruteforce,
    faces_share_a_closed_face,
    qr_bracket_and_rate,
    sampled_adjoint_bracket_max,
    vertex_arc_bracket_max,
    window_vertex_sets,
    window_violation_starts,
)
from subfinsler import (
    MaxNorm,
    PolyhedralNorm,
    Polyhedron,
    abelianized_minimality,
    adjoint_bracket_bound,
    affine_line_group,
    ball_scale,
    certify_trajectory,
    finsler_short_bound,
    group_by_name,
    heisenberg_abelianization,
    heisenberg_group,
    integrate_polyhedral,
    linf_ball,
    rotation_group,
    stability_window,
    subgroup_trajectory,
    translation_group,
    verify_face_stability,
    vertical_shortcut,
)
from subfinsler.certify import MEstimate, lambert_w
from subfinsler.flow import FaceEvent, Trajectory
from subfinsler.groups import _REGISTRY as GROUPS, exp as group_exp


# -- the adjoint bracket bound ------------------------------------------------


def test_bound_abelian_is_zero():
    est = adjoint_bracket_bound(translation_group(3), radius=5.0,
                                ball=linf_ball(3))
    assert est.value == 0.0
    assert est.to_json_dict()["method"] == "closed-form"


def test_bound_heisenberg_maxnorm_is_two():
    est = adjoint_bracket_bound(heisenberg_group(), radius=3.0,
                                ball=linf_ball(3))
    assert est.to_json_dict()["method"] == "closed-form"
    assert est.value == 2.0
    # Independent brute force straight from the chart: commutators of
    # cube-vertex combinations, coordinates read off the chart entries.
    heis = heisenberg_group()
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * 3))).reshape(3, -1).T
    best = 0.0
    for x in corners:
        mx = np.einsum("i,iab->ab", x, heis.basis)
        for y in corners:
            my = np.einsum("i,iab->ab", y, heis.basis)
            comm = mx @ my - my @ mx
            coords = np.array([comm[0, 1], comm[1, 2], comm[0, 2]])
            best = max(best, float(np.max(np.abs(coords))))
    assert best == est.value


def test_bound_rotation_sampled_brackets():
    # ad is skew in rotation coordinates, so Ad_g is orthogonal and the
    # bound is the largest Euclidean bracket of two cube vertices, the
    # cross product (1, 1, 1) x (1, 1, -1) of length 2 sqrt 2, at any
    # radius.
    for radius in (0.5, 1.0, 3.0):
        est = adjoint_bracket_bound(rotation_group(), radius=radius,
                                    ball=linf_ball(3))
        assert est.rate == 0.0
        assert abs(est.value - 2.0 * math.sqrt(2.0)) <= 1e-12


def test_bound_covers_the_curves_own_ball():
    # The velocity ball sticks far out of the unit square along b, and
    # Ad_g scales the derived algebra span(B1) by exp(b), so the
    # supremum over the ball, 2 exp(3 rho), is attained by the arc
    # along (0.2, 3).  A bound over the unit square's ball gave 44.6
    # here, below what the curve itself reaches (601.9).
    ball = Polyhedron.from_vertices(np.array([
        [0.2, 3.0], [-0.2, 3.0], [0.2, -3.0], [-0.2, -3.0]]))
    spec = affine_line_group()
    traj = integrate_polyhedral(spec, PolyhedralNorm(ball), [0.05, 1.0],
                                1.0, 1e-3)
    brackets = cube_bracket_coordinates(spec.basis)
    own = max(adjoint_bracket_max(spec.basis, g, brackets)
              for g in traj.points)
    assert own == pytest.approx(601.9, abs=0.05)
    m = certify_trajectory(traj).m_estimate
    assert m.radius == pytest.approx(3.01, abs=1e-12)
    assert m.value == pytest.approx(2.0 * math.exp(3.0 * 3.01), rel=1e-12)
    assert m.value >= own
    assert m.value == pytest.approx(
        vertex_arc_bracket_max(spec.basis, ball.vertices, (0, 1),
                               m.radius), rel=1e-12)


def _test_ball(kind: str, dim: int, rng: np.random.Generator) -> Polyhedron:
    """The max-norm cube, a random symmetric polytope, or a box that
    sticks far out of the cube along the second axis."""
    if kind == "cube":
        return linf_ball(dim)
    if kind == "random":
        half = rng.standard_normal((4, dim))
        return Polyhedron.from_vertices(np.vstack([half, -half]))
    corners = np.array(list(product((-1.0, 1.0), repeat=dim)))
    return Polyhedron.from_vertices(corners * [0.2, 3.0, 1.0][:dim])


@pytest.mark.parametrize("ball_kind", ["cube", "random", "stretched"])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_bound_dominates_sampled_and_own_brackets(group, ball_kind):
    rng = np.random.default_rng(7)
    spec = group_by_name(group)
    pol = spec.polarization
    ball = _test_ball(ball_kind, len(pol), rng)
    lam = rng.uniform(-1.0, 1.0, spec.dim)
    traj = integrate_polyhedral(spec, PolyhedralNorm(ball), lam, 1.0, 1e-2)
    radius = traj.speed
    closed = adjoint_bracket_bound(spec, radius, ball, pol).value
    sampled = sampled_adjoint_bracket_max(spec.basis, ball.vertices, pol,
                                          radius, rng, n_group=64)
    assert sampled <= closed * (1.0 + 1e-12)
    brackets = cube_bracket_coordinates(spec.basis)
    for t, g in zip(traj.times, traj.points):
        m_t = adjoint_bracket_bound(spec, traj.speed * t, ball, pol).value
        assert adjoint_bracket_max(spec.basis, g, brackets) <= (
            m_t * (1.0 + 1e-9) + 1e-12)
    derived_dim = np.linalg.matrix_rank(spec.structure.reshape(-1, spec.dim))
    if derived_dim <= 1:
        arc = vertex_arc_bracket_max(spec.basis, ball.vertices, pol, radius)
        assert closed == pytest.approx(arc, rel=1e-12, abs=1e-12)
    else:
        assert group == "rotation"


@pytest.mark.parametrize("ball_kind", ["cube", "random", "stretched"])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_svd_derived_basis_gives_the_qr_estimate(group, ball_kind):
    # Every orthonormal basis of [g, g] gives the same bracket and rate,
    # so the SVD basis and scipy's pivoted QR agree to rounding.
    spec = group_by_name(group)
    pol = spec.polarization
    ball = _test_ball(ball_kind, len(pol), np.random.default_rng(3))
    velocities = np.zeros((len(ball.vertices), spec.dim))
    velocities[:, list(pol)] = ball.vertices
    bracket, rate = qr_bracket_and_rate(spec.structure, velocities)
    est = adjoint_bracket_bound(spec, 1.5, ball, pol)
    assert est.bracket == pytest.approx(bracket, rel=1e-12, abs=1e-15)
    assert est.rate == pytest.approx(rate, rel=1e-12, abs=1e-15)
    assert est.value == pytest.approx(bracket * math.exp(1.5 * rate),
                                      rel=1e-12, abs=1e-15)


def test_stability_window_algebra():
    assert stability_window(2.0, 1.0, 2.0, 1.0) == 1.0
    assert stability_window(2.0, 0.5, 2.0, 1.0) == 2.0
    # The ball scale enters squared: c = 2 quarters the window, c = 1/2
    # quadruples it.
    assert stability_window(2.0, 1.0, 2.0, 2.0) == 0.25
    assert stability_window(2.0, 1.0, 2.0, 0.5) == 4.0
    assert math.isinf(stability_window(2.0, 1.0, 0.0, 3.0))
    with pytest.raises(ValueError):
        stability_window(2.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        stability_window(2.0, 1.0, 1.0, 0.0)


def test_stability_window_rounds_down():
    # 1 / 5 rounds up to nearest; the window is the float just below
    # the exact quotient of its float inputs, never above it.
    assert 1.0 / (5.0 * 1.0) > Fraction(1, 5)
    assert stability_window(1.0, 5.0, 1.0, 1.0) == math.nextafter(0.2, 0.0)
    rng = np.random.default_rng(7)
    for delta, lam_dual, m, c in rng.uniform(0.1, 10.0, (300, 4)).tolist():
        window = stability_window(delta, lam_dual, m, c)
        exact = Fraction(delta) / (Fraction(lam_dual) * Fraction(m)
                                   * Fraction(c) ** 2)
        assert Fraction(window) <= exact < Fraction(
            math.nextafter(window, math.inf))


def test_finsler_short_bound_constant_m():
    # With M constant, L * M * c**2 = delta gives L = delta / (M c**2)
    # exactly.
    assert finsler_short_bound(2.0, 2.0, 0.0, 1.0) == 1.0
    assert finsler_short_bound(2.0, 2.0, 0.0, 2.0) == 0.25
    # With no bracket M vanishes and every length qualifies.
    assert finsler_short_bound(2.0, 0.0, 0.0, 1.0) == math.inf
    assert finsler_short_bound(2.0, 0.0, 3.0, 1.0) == math.inf


def test_finsler_short_bound_solves_the_growth_equation():
    for delta, bracket, rate, c in product((0.1, 2.0, 7.5),
                                           (0.5, 2.0, 2.0 * math.sqrt(2.0)),
                                           (1e-6, 0.3, 3.0, 40.0),
                                           (0.4, 1.0, 2.55)):
        length = finsler_short_bound(delta, bracket, rate, c)
        m = MEstimate(length, bracket, rate).value
        assert length > 0.0
        assert abs(length * m * c * c - delta) <= 1e-12 * delta, (
            delta, bracket, rate, c)


def test_lambert_w_matches_scipy_to_a_few_ulps():
    xs = np.logspace(-12.0, 12.0, 2401)
    ours = np.array([lambert_w(float(x)) for x in xs])
    theirs = lambertw(xs).real
    assert np.all(np.abs(ours - theirs) <= 4.0 * np.spacing(theirs))
    assert lambert_w(0.0) == 0.0
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            lambert_w(bad)


# -- windowed face checks ------------------------------------------------------


def test_certify_generic_heisenberg_run():
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.25, 0.3, 0.45],
                                3.0, 1e-2)
    cert = certify_trajectory(traj)
    assert cert.verdict
    with pytest.raises(dataclasses.FrozenInstanceError):
        cert.kind = "abelianized-minimality"
    assert cert.delta == pytest.approx(2.0, abs=1e-9)
    assert cert.m_estimate.value == 2.0
    assert cert.lam_reference_dual == pytest.approx(1.0, abs=1e-12)
    assert cert.window == pytest.approx(1.0, abs=1e-9)
    assert cert.violations == []
    payload = cert.to_json_dict()
    assert payload["verdict"] is True
    assert payload["kind"] == "face-stability"
    assert payload["m"]["method"] == "closed-form"


def test_verify_face_stability_negative_control():
    # A fabricated trajectory that jumps between opposite cube vertices
    # inside one window must be flagged, also by a window longer than
    # the run (M = 0 gives an infinite one), which checks the whole run.
    heis = heisenberg_group()
    norm = MaxNorm(3)
    ball = linf_ball(3)
    v_plus = ball.face_of(np.array([1.0, 1.0, 1.0]))
    v_minus = ball.face_of(np.array([-1.0, -1.0, -1.0]))
    times = np.linspace(0.0, 1.0, 11)
    chart = np.array([group_exp(heis, np.array([t, t, t]))
                      for t in times])
    fake = Trajectory(
        group=heis, norm=norm, polarization=(0, 1, 2),
        lam=np.array([1.0, 1.0, 1.0]), times=times, points=chart,
        controls=np.tile([1.0, 1.0, 1.0], (11, 1)),
        duals=np.tile([1.0, 1.0, 1.0], (11, 1)),
        face_ids=np.array([v_plus.fid] * 5 + [v_minus.fid] * 6),
        speed=3.0,
        events=[FaceEvent(0.45, v_plus.fid, v_minus.fid)],
        rule="persistent", step=0.1)
    for window in (0.5, 1.5, math.inf):
        violations = verify_face_stability(fake, window)
        assert len(violations) == 1, window
        first = violations[0]
        assert set(first["face_ids"]) == {v_plus.fid, v_minus.fid}
        assert first["t_start"] < 0.45 < first["t_end"]
        assert first["t_end"] - first["t_start"] == min(window, 1.0)


def _cube_walk(fids, switches, t_end=1.0):
    """A face history on the max-norm cube visiting ``fids`` in turn,
    switching at ``switches``, with grid nodes only at 0 and ``t_end``.

    Only the face history matters to the window check; the chart points
    stay at the identity.
    """
    return Trajectory(
        group=translation_group(3), norm=MaxNorm(3), polarization=(0, 1, 2),
        lam=np.ones(3), times=np.array([0.0, t_end]),
        points=np.tile(np.eye(4), (2, 1, 1)), controls=np.zeros((2, 3)),
        duals=np.zeros((2, 3)), face_ids=np.array([fids[0], fids[-1]]),
        speed=1.0, events=[FaceEvent(t, a, b) for t, a, b
                           in zip(switches, fids, fids[1:])],
        rule="persistent", step=t_end)


def _vertex_ids(*corners):
    ball = linf_ball(3)
    return [ball.face_of(np.array(c, dtype=float)).fid for c in corners]


def test_window_between_grid_nodes_is_checked():
    # Vertex, neighbouring vertex, then its opposite at t = 0.5.  No
    # grid node or switch starts a window of length 0.12 that meets both
    # opposite vertices, but the window [0.44, 0.56] does.
    fids = _vertex_ids((1, 1, 1), (1, 1, -1), (-1, -1, 1))
    violations = verify_face_stability(_cube_walk(fids, [0.25, 0.5]), 0.12)
    assert len(violations) == 1
    assert violations[0]["t_start"] == pytest.approx(0.44, abs=1e-15)
    assert violations[0]["t_end"] == pytest.approx(0.56, abs=1e-15)
    assert violations[0]["face_ids"] == sorted(fids[1:])


def test_one_violation_per_minimal_incompatible_run():
    # With window 0.3 both the whole walk and its last two vertices are
    # incompatible runs inside one window; only the minimal one counts.
    fids = _vertex_ids((1, 1, 1), (1, 1, -1), (-1, -1, 1))
    violations = verify_face_stability(_cube_walk(fids, [0.25, 0.5]), 0.3)
    assert [v["face_ids"] for v in violations] == [sorted(fids[1:])]


def test_window_check_matches_the_critical_point_oracle(rng):
    ball = linf_ball(3)
    faces = ball.faces()
    lattice = face_lattice_bruteforce(ball.vertices)
    verdicts = set()
    for trial in range(300):
        size = int(rng.integers(2, 7))
        fids = [int(f) for f in rng.integers(0, len(faces), size)]
        lengths = rng.uniform(0.0, 1.0, size)
        lengths[rng.random(size) < 0.15] = 0.0  # zero-length segments
        lengths[rng.integers(size)] += 0.1
        bounds = np.concatenate([[0.0], np.cumsum(lengths)])
        t_end = float(bounds[-1])
        window = (math.inf if trial % 10 == 0
                  else t_end * float(rng.uniform(0.02, 1.5)))
        segments = [(float(s), float(e), faces[f].vertex_set)
                    for s, e, f in zip(bounds, bounds[1:], fids)]
        bad = window_violation_starts(lattice, segments, t_end, window)
        violations = verify_face_stability(
            _cube_walk(fids, bounds[1:-1].tolist(), t_end), window)
        assert bool(violations) == bool(bad), (fids, lengths, window)
        span = min(window, t_end)
        for v in violations:
            assert 0.0 <= v["t_start"] <= t_end - span
            assert not faces_share_a_closed_face(
                lattice, window_vertex_sets(segments, v["t_start"], span))
        verdicts.add(not violations)
    assert verdicts == {True, False}


def test_adjacent_faces_within_window_are_fine():
    # Crossing from a vertex to a neighbouring vertex through their
    # common edge is not a violation.
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.5, 0.8],
                                0.5, 1e-2)
    assert traj.events  # the xi_1 sign change happens before t = 0.5
    # Window short enough to fit the run but long enough to straddle
    # the switch, so the compatibility logic is actually exercised.
    assert verify_face_stability(traj, window=0.3) == []


def test_abelianized_minimality_certificate():
    sub = heisenberg_abelianization()
    heis = sub.source
    traj = integrate_polyhedral(heis, MaxNorm(2), [0.3, 0.5, 0.8],
                                2.0, 1e-2, polarization=(0, 1))
    cert = abelianized_minimality(sub, traj)
    assert cert.kind == "abelianized-minimality"
    assert cert.verdict
    assert cert.delta == pytest.approx(2.0, abs=1e-9)
    assert cert.m_estimate.value == 2.0
    assert cert.lam_reference_dual == pytest.approx(1.6, abs=1e-12)
    assert cert.window == pytest.approx(2.0 / 2.0 / 1.6, abs=1e-9)


def test_abelianized_certificate_on_a_flattened_polygon():
    # A flattened hexagon: the covector (0.5, 0.4) exposes the vertex
    # (1, 0), not the vertex (0.5, 0.4), so faces read off the controls
    # as if they were covectors would be wrong.  The certificate must
    # follow the curve's own face history instead.
    ball = Polyhedron.from_vertices(np.array([
        [1.0, 0.0], [0.5, 0.4], [-0.5, 0.4],
        [-1.0, 0.0], [-0.5, -0.4], [0.5, -0.4]]))
    exposed = ball.face_of(np.array([0.5, 0.4]))
    assert ball.vertices[list(exposed.vertex_ids)].tolist() == [[1.0, 0.0]]
    sub = heisenberg_abelianization()
    traj = integrate_polyhedral(sub.source, PolyhedralNorm(ball),
                                [0.5, 0.5, 2.0], 2.0, 1e-2,
                                polarization=(0, 1))
    assert len(traj.events) >= 2
    cert = abelianized_minimality(sub, traj)
    assert cert.kind == "abelianized-minimality"
    assert cert.verdict
    assert cert.violations == []
    assert cert.delta == pytest.approx(ball.star_covering().delta,
                                       abs=1e-12)
    # M(1) = 2 and the max-norm dual of the covector is 3.
    assert cert.window == pytest.approx(cert.delta / 2.0 / 3.0, abs=1e-12)
    assert cert.lam.tolist() == [0.5, 0.5]
    assert cert.speed == pytest.approx(0.5, abs=1e-12)


def _scaled_square(c: float) -> Polyhedron:
    corners = c * np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0],
                            [1.0, -1.0]])
    return Polyhedron(corners, np.array([[1.0, 0.0], [0.0, 1.0],
                                         [-1.0, 0.0], [0.0, -1.0]]) / c)


@pytest.mark.parametrize("c", [3.0, 10.0])
@pytest.mark.parametrize("kind", ["face-stability", "abelianized-minimality"])
def test_window_scales_with_the_ball(c, kind):
    # The square c [-1, 1]^2 has the delta and M of the unit square, but
    # its controls and test directions are c times longer, so the dual
    # point moves c**2 times faster in the ball's dual gauge.
    sub = heisenberg_abelianization()
    traj = integrate_polyhedral(sub.source, PolyhedralNorm(_scaled_square(c)),
                                [0.3, 0.2, 1.0], 2.0, 1e-3,
                                polarization=(0, 1))
    cert = (certify_trajectory(traj) if kind == "face-stability"
            else abelianized_minimality(sub, traj))
    assert cert.kind == kind
    assert cert.ball_scale == c
    assert cert.to_json_dict()["ball_scale"] == c
    assert cert.verdict, cert.violations
    unscaled = stability_window(cert.delta, cert.lam_reference_dual,
                                cert.m_estimate.value, 1.0)
    assert cert.window == stability_window(
        cert.delta, cert.lam_reference_dual, cert.m_estimate.value, c)
    # The window without c**2 meets incompatible faces.
    assert verify_face_stability(traj, unscaled)


def test_window_of_a_random_ball_wider_than_unit():
    # A skewed 3-D ball with c = 2.55 and a covector mostly along the
    # center; without c**2 its window (1.103) meets incompatible faces.
    half = np.array([
        [-2.552293127925773, -0.7174076287663835, 0.04788597986230259],
        [-0.08883433363660434, 1.4238389367462856, -1.2380834570843666],
        [1.4346366944045355, -0.9866796377642469, 1.1900084323808504],
        [-1.708423285804966, -1.0241372712444663, 1.5304396025087337]])
    functionals = np.array([
        [0.25075949412076665, -2.4190036064913314, -1.9922304603147933],
        [0.17861856475558097, 0.7621826598830105, 0.05602036476799994],
        [-0.14719685051819262, -0.968052801614167, -1.4655223754086875],
        [-0.07037949951766412, 0.1469852870952966, -0.6336119788006344],
        [-0.1786185647555809, -0.7621826598830104, -0.056020364767999896],
        [-0.25075949412076665, 2.4190036064913314, 1.9922304603147933],
        [-0.5920080566026181, 0.7450374762034949, 0.4911139892994013],
        [-0.5230281319614006, 1.746311828019362, 1.2381472535143327],
        [0.14719685051819262, 0.968052801614167, 1.4655223754086875],
        [0.07037949951766412, -0.1469852870952966, 0.6336119788006344],
        [0.5920080566026181, -0.7450374762034954, -0.49111398929940175],
        [0.5230281319614005, -1.7463118280193604, -1.2381472535143319]])
    ball = Polyhedron(np.vstack([half, -half]), functionals)
    traj = integrate_polyhedral(
        heisenberg_group(), PolyhedralNorm(ball),
        [-0.019738371155615053, -0.06617356857159229, 0.30332843121151454],
        2.0, 1e-2)
    cert = certify_trajectory(traj)
    assert cert.ball_scale == 2.552293127925773
    assert cert.verdict, cert.violations
    unscaled = stability_window(cert.delta, cert.lam_reference_dual,
                                cert.m_estimate.value, 1.0)
    assert 1.1 < unscaled and cert.window < 0.17
    assert verify_face_stability(traj, unscaled)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_dual_point_rate_is_within_the_scaled_bound(group):
    # xi / r moves at most N*(lam) M(r t) c**2 in the ball's dual gauge,
    # on random balls with c in [0.5, 3]; M grows with the radius, so the
    # step ending at t is bounded with M(r t).  Without c**2 the bound
    # fails on every non-abelian group.
    rng = np.random.default_rng(11)
    spec = group_by_name(group)
    pol = spec.polarization
    worst_scaled = worst_unscaled = 0.0
    for c in (0.5, 1.0, 2.0, 3.0):
        half = rng.standard_normal((4, len(pol)))
        ball = Polyhedron.from_vertices(
            np.vstack([half, -half]) * (c / np.max(np.abs(half))))
        assert ball_scale(ball.vertices) == pytest.approx(c, rel=1e-15)
        lam = rng.uniform(-1.0, 1.0, spec.dim)
        traj = integrate_polyhedral(spec, PolyhedralNorm(ball), lam, 1.0,
                                    1e-3)
        rates = dual_gauge_rates(spec.basis, lam, traj.points,
                                 ball.vertices, pol, 1e-3) / traj.speed
        est = adjoint_bracket_bound(spec, 0.0, ball, pol)
        unscaled = np.sum(np.abs(lam)) * est.bracket * np.exp(
            traj.speed * traj.times[1:] * est.rate)
        assert np.all(rates <= unscaled * c * c * (1.0 + 1e-9) + 1e-12), c
        if est.bracket > 0.0:
            ratio = np.max(rates / unscaled)
            worst_scaled = max(worst_scaled, ratio / (c * c))
            worst_unscaled = max(worst_unscaled, ratio)
    if group.startswith("translation"):
        assert worst_unscaled == 0.0
    else:
        assert worst_scaled <= 1.0 < worst_unscaled


def test_abelianized_rejects_a_non_invertible_differential():
    # On the full polarization dpi is 2 x 3, so the projected faces do
    # not correspond to the curve's own faces.
    sub = heisenberg_abelianization()
    traj = integrate_polyhedral(sub.source, MaxNorm(3), [0.0, 0.0, 1.0],
                                1.0, 1e-2)
    with pytest.raises(ValueError, match="not invertible"):
        abelianized_minimality(sub, traj)


def test_abelianized_rejects_a_curve_on_another_group():
    # M is read off the curve's own group, so it must be the source.
    sub = heisenberg_abelianization()
    traj = integrate_polyhedral(sub.target, MaxNorm(2), [1.0, 0.25],
                                1.0, 1e-2)
    with pytest.raises(ValueError, match="source group"):
        abelianized_minimality(sub, traj)


def test_certify_needs_a_face_history():
    # A subgroup run has face ids -1 and no events, yet its dual points
    # expose faces 0, 2 and 3, which share no facet: reading facets[-1]
    # used to pass it.
    traj = subgroup_trajectory(heisenberg_group(), MaxNorm(2),
                               [-0.8, -0.5, 2.4], [0.2, -0.8], 2.0, 0.01,
                               polarization=(0, 1))
    ball = linf_ball(2)
    exposed = {ball.face_of(xi).fid for xi in traj.duals}
    assert {0, 2, 3} <= exposed
    assert not frozenset.intersection(
        *(frozenset(ball.faces()[f].facets) for f in (0, 2, 3)))
    with pytest.raises(ValueError, match="no face history"):
        certify_trajectory(traj, window=2.0)
    with pytest.raises(ValueError, match="no face history"):
        abelianized_minimality(heisenberg_abelianization(), traj)


# -- the vertical shortcut -------------------------------------------------------


def test_shortcut_beta_solves_quartic():
    for eps in (0.1, 1.0, 5.0):
        path = vertical_shortcut(eps)
        beta = path.beta
        assert abs(4.0 * beta + beta * beta - eps) <= 1e-12
        assert path.length == 4.0 * beta
        assert path.length < eps
    # Far from eps = 1 the leg time keeps its digits: sqrt(4 + eps) - 2
    # cancels to a length above eps at 1e-12.
    for eps in (1e-12, 1e-6, 1e6, 1e12):
        path = vertical_shortcut(eps)
        beta = path.beta
        assert abs(4.0 * beta + beta * beta - eps) <= 1e-14 * eps
        assert path.length == 4.0 * beta
        assert 0.0 < path.length <= eps
        assert path.endpoint_gap <= 1e-12 * eps


def test_shortcut_eps_five_frozen():
    path = vertical_shortcut(5.0)
    assert path.beta == pytest.approx(1.0, abs=1e-12)
    assert path.length == pytest.approx(4.0, abs=1e-12)
    assert path.endpoint_gap <= 1e-10
    assert np.max(np.abs(path.endpoint - path.target)) <= 1e-10
    # The endpoint is purely central: top-right chart entry eps.
    assert path.target[0, 2] == 5.0


def test_shortcut_planar_loop_area():
    # The planar projection closes up and encloses area beta**2.
    path = vertical_shortcut(5.0, samples_per_leg=64)
    loop = path.planar_loop()
    assert np.allclose(loop[0], loop[-1], atol=1e-12)
    x, y = loop[:, 0], loop[:, 1]
    area = 0.5 * float(np.sum(x[:-1] * y[1:] - x[1:] * y[:-1]))
    assert abs(abs(area) - path.beta ** 2) <= 1e-12


def test_shortcut_controls_have_unit_max_norm():
    path = vertical_shortcut(2.0)
    norm = MaxNorm(3)
    for u in path.controls:
        assert norm.value(u) == 1.0
    with pytest.raises(ValueError):
        vertical_shortcut(0.0)


def test_certificate_json_schema():
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.25, 0.3, 0.45],
                                1.0, 1e-2)
    payload = certify_trajectory(traj).to_json_dict()
    assert set(payload) == {"kind", "verdict", "window", "delta",
                            "lp_solves", "m", "ball_scale",
                            "covector", "covector_reference_dual", "speed",
                            "violations"}
    assert set(payload["m"]) == {"value", "radius", "method", "bracket",
                                 "rate"}
    m = payload["m"]
    assert m["value"] == m["bracket"] * math.exp(m["radius"] * m["rate"])
