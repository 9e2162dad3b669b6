"""Normal-flow integrators, branch detection, serialization."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import expm

from subfinsler import (
    AxisCornerNorm,
    CornerNorm,
    EuclideanNorm,
    FaceThrashError,
    FlowError,
    IntegrationError,
    MaxNorm,
    PolyhedralNorm,
    RootSumNorm,
    SumNorm,
    affine_line_group,
    arc_terms,
    check_constant_speed,
    detect_branching,
    coadjoint_dual_point,
    heisenberg_group,
    integrate_polyhedral,
    integrate_smooth,
    read_trajectory_csv,
    rotation_group,
    subgroup_trajectory,
    translation_group,
    write_trajectory_csv,
)
from subfinsler import flow, groups
from subfinsler.cli import load_scenario
from subfinsler.groups import exp as group_exp
from subfinsler.polyhedra import Polyhedron, linf_ball, regular_polygon_ball

from oracles import dual_point_by_conjugation, speed_deviations_by_node

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from reference import corner_exit_time, isoperimetrix_switches  # noqa: E402


# -- smooth integrator -----------------------------------------------------


def test_affine_corner_switch_times():
    spec = affine_line_group()
    norm = CornerNorm()
    traj = integrate_smooth(spec, norm, [0.5, 1.0], 1.0, 1e-3)
    assert traj.speed == 1.0
    assert np.array_equal(traj.controls[0], [0.0, 1.0])
    assert len(traj.events) == 1
    assert abs(traj.events[0].t - math.log(2.0)) <= 1e-12
    second = integrate_smooth(spec, norm, [1.0 / 3.0, 1.0], 1.2, 1e-3)
    assert len(second.events) == 1
    assert abs(second.events[0].t - math.log(3.0)) <= 1e-12


def test_affine_coincides_with_subgroup_until_switch():
    spec = affine_line_group()
    norm = CornerNorm()
    traj = integrate_smooth(spec, norm, [0.5, 1.0], 1.0, 1e-3)
    ref = subgroup_trajectory(spec, norm, [0.5, 1.0], [0.0, 1.0], 1.0, 1e-3)
    report = detect_branching(traj, ref, agree_tol=1e-9, split_tol=1e-4)
    assert report.branched
    assert abs(report.coincidence_time - math.log(2.0)) <= 5e-3


def test_rotation_axis_curve_is_subgroup():
    spec = rotation_group()
    norm = AxisCornerNorm()
    traj = integrate_smooth(spec, norm, [1.0, 0.2, -0.3], 3.0, 5e-3)
    assert traj.speed == 1.0
    assert traj.events == []
    gap = 0.0
    for t, g in zip(traj.times, traj.points):
        ref = group_exp(spec, np.array([t, 0.0, 0.0]))
        gap = max(gap, float(np.max(np.abs(g - ref))))
    assert gap <= 1e-9
    assert np.allclose(traj.controls, np.tile([1.0, 0.0, 0.0],
                                              (len(traj.times), 1)),
                       atol=1e-12)


def rk4_nodes(spec, norm, lam, t_end, step, pol):
    """Chart points of plain RK4 on the chart matrix, with the control
    ``grad_dual_energy`` at every stage and no corner cone walked."""
    basis = spec.basis[list(pol)]

    def rhs(g):
        xi = coadjoint_dual_point(spec, lam, g, pol)
        return g @ np.einsum("i,iab->ab", norm.grad_dual_energy(xi), basis)

    g = spec.identity()
    nodes = [g]
    for _ in range(flow.whole_steps(t_end, step)):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * step * k1)
        k3 = rhs(g + 0.5 * step * k2)
        k4 = rhs(g + step * k3)
        g = g + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        nodes.append(g)
    return np.array(nodes)


def test_affine_cap_exits_of_the_acceptance_runs(affine_runs):
    # Along exp(t B2) the dual point is (exp(t) l1, 1): the cap is left
    # at ln(1/l1), root-solved on the arc.
    for key, l1, exact in (("half", 0.5, math.log(2.0)),
                           ("third", 1.0 / 3.0, math.log(3.0))):
        [event] = affine_runs[key].events
        assert (event.from_face, event.to_face) == (0, 2)
        assert abs(event.t - exact) <= 1e-12
        assert abs(event.t - corner_exit_time([l1, 1.0])) <= 1e-12


def test_root_sum_pair_exits_at_the_linear_root():
    # One active coordinate holds u = (1, 0, 0), so xi2 = 0.3 + 0.4 t
    # meets xi1 / 2 = 1 at t = 0.7 / 0.4, the ratio read off the arc's
    # start, which rounds below grid node 1750 (t = 1.75).
    traj = integrate_smooth(heisenberg_group(), RootSumNorm(3),
                            [2.0, 0.3, 0.4], 3.0, 1e-3)
    [event] = traj.events
    # Node 1750 is on the cone's edge, in the cone's regime; the exit is
    # still the event, to the regime of node 1751.
    assert event.t == 0.7 / 0.4
    assert (event.from_face, event.to_face) == (22, 25)


def test_gap_that_rounds_to_zero_is_no_face_switch():
    # The outsider gap is negative at first and rounds to exactly 0 from
    # node 70 (t = 3.5) on; only a gap above 0 is a switch, so the face
    # and its control hold to the horizon.
    traj = integrate_polyhedral(affine_line_group(), MaxNorm(2),
                                [1.0559317189966513, -8.893457116714849],
                                17.75, 0.05)
    assert traj.events == []
    assert np.array_equal(traj.controls,
                          np.tile(traj.controls[0], (len(traj.times), 1)))


@pytest.mark.parametrize("lam", [[1.0, 0.2, -0.3], [1.0, -0.25, 0.1]])
def test_rotation_cap_arc_matches_fine_rk4(lam):
    spec, norm = rotation_group(), AxisCornerNorm()
    traj = integrate_smooth(spec, norm, lam, 0.5, 1e-3)
    assert traj.events == []
    fine = rk4_nodes(spec, norm, np.asarray(lam), 0.5, 1e-4,
                     spec.polarization)
    assert np.max(np.abs(traj.points - fine[::10])) <= 1e-12


def _corner_bound(xi):
    # The planar cap |xi2| > |xi1|: xi2 is fixed, xi1 moves.
    return 0, abs(xi[1])


def _root_sum_bound(xi):
    # One active coordinate i: xi_i is fixed, the other reaches |xi_i|/2.
    i = int(np.argmax(np.abs(xi)))
    return 1 - i, 0.5 * abs(xi[i])


@pytest.mark.parametrize("norm, lam, bound, entries", [
    (CornerNorm(), [0.3, 1.0, 2.0], _corner_bound, 1),
    (RootSumNorm(2), [1.0, 0.3, 2.0], _root_sum_bound, 3),
], ids=["corner", "root_sum"])
def test_cone_exits_after_a_lap_are_linear_roots(norm, lam, bound, entries):
    # On the Heisenberg group a held control moves the dual point on a
    # line, so each exit is the linear root from its arc's first node.
    spec, pol = heisenberg_group(), (0, 1)
    traj = integrate_smooth(spec, norm, lam, 6.0, 1e-3, polarization=pol)
    inside = [norm.corner_cone(xi) is not None for xi in traj.duals]
    starts = []
    for event in traj.events:
        before = int(np.searchsorted(traj.times, event.t)) - 1
        if not inside[before]:
            continue  # an entry, which is bisected
        k = before
        while k > 0 and inside[k - 1]:
            k -= 1
        starts.append(k)
        xi = traj.duals[k]
        rate = arc_terms(spec, np.asarray(lam), traj.points[k],
                         traj.controls[k], pol)[0]
        j, edge = bound(xi)
        to_go = math.copysign(edge, rate[j]) - xi[j]
        root = traj.times[k] + to_go / rate[j]
        assert abs(event.t - root) <= 1e-12
    assert starts[0] == 0
    assert len(starts) == entries + 1 and min(starts[1:]) > 0


@pytest.mark.parametrize("spec, lam, pol", [
    (heisenberg_group(), [0.25, 0.3, 0.45], (0, 1)),
    (rotation_group(), [0.3, 1.0, -0.5], (0, 1, 2)),
], ids=["heisenberg", "rotation"])
def test_euclidean_runs_are_plain_rk4(spec, lam, pol):
    norm = EuclideanNorm(len(pol))
    traj = integrate_smooth(spec, norm, lam, 1.0, 1e-2, polarization=pol)
    assert np.array_equal(traj.points,
                          rk4_nodes(spec, norm, np.asarray(lam), 1.0, 1e-2,
                                    pol))


@pytest.mark.parametrize("spec, norm, lam, pol", [
    (affine_line_group(), CornerNorm(), [0.5, 1.0], None),
    (rotation_group(), AxisCornerNorm(), [0.3, 1.0, -0.5], None),
    (heisenberg_group(), RootSumNorm(3), [1.0, 0.8, 0.6], None),
    (heisenberg_group(), EuclideanNorm(2), [0.25, 0.3, 0.45], (0, 1)),
], ids=["corner", "axis_corner", "root_sum", "euclidean"])
def test_smooth_control_is_the_dual_energy_gradient(spec, norm, lam, pol):
    traj = integrate_smooth(spec, norm, lam, 1.0, 1e-2, polarization=pol)
    for u, xi in zip(traj.controls, traj.duals):
        assert np.array_equal(u, norm.grad_dual_energy(xi))


@pytest.mark.parametrize("spec, norm, pol, lam_dim", [
    (affine_line_group(), CornerNorm(), None, 2),
    (heisenberg_group(), CornerNorm(), (0, 1), 3),
    (heisenberg_group(), AxisCornerNorm(), None, 3),
    (heisenberg_group(), RootSumNorm(2), (0, 1), 3),
    (rotation_group(), RootSumNorm(3), None, 3),
], ids=["corner_affine", "corner_heisenberg", "axis_corner_heisenberg",
        "root_sum2_heisenberg", "root_sum3_rotation"])
def test_smooth_events_agree_with_node_regimes(spec, norm, pol, lam_dim):
    # Each event, bisected or a cone exit, sits between a node of its
    # from-regime and the next node, of its to-regime.  (On the rotation
    # group an axis_corner curve keeps its regime, so it has no events.)
    rng = np.random.default_rng(5)
    seen = 0
    for _ in range(12):
        lam = rng.standard_normal(lam_dim)
        traj = integrate_smooth(spec, norm, lam, 3.0, 1e-2, polarization=pol)
        for event in traj.events:
            k = int(np.searchsorted(traj.times, event.t, side="right")) - 1
            assert norm.regime_id(traj.duals[k]) == event.from_face
            assert norm.regime_id(traj.duals[k + 1]) == event.to_face
        seen += len(traj.events)
    assert seen


def test_smooth_rejects_polyhedral_norm():
    with pytest.raises(FlowError):
        integrate_smooth(translation_group(2), SumNorm(2), [1.0, 0.0],
                         1.0, 1e-2)


def test_degenerate_covector_raises():
    heis = heisenberg_group()
    with pytest.raises(IntegrationError):
        integrate_smooth(heis, EuclideanNorm(2), [0.0, 0.0, 1.0], 1.0, 1e-2,
                         polarization=(0, 1))
    with pytest.raises(IntegrationError):
        integrate_polyhedral(heis, MaxNorm(2), [0.0, 0.0, 1.0], 1.0, 1e-2,
                             polarization=(0, 1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec, norm, lam, t_end, step, pol, message", [
    # Each run used to return non-finite nodes.
    (heisenberg_group(), EuclideanNorm(2), [0.3, 0.5, 1e308], 0.1, 0.01,
     (0, 1), "dual point is not finite"),
    # The edge's control is a pure dilation that holds xi = (0, 1000):
    # exp(1000 t B2) overflows from t = 0.71 on, and t = 1 is a node.
    (affine_line_group(), MaxNorm(2), [0.0, 1000.0], 2.0, 0.5, None,
     "dual point is not finite at t=1"),
    # Only the chart overflows; the dual point stays put.
    (heisenberg_group(), CornerNorm(), [0.0, 0.0, 1e308], 10.0, 1.0,
     (0, 2), "chart point is not finite"),
    (translation_group(2), MaxNorm(2), [1e307, 0.0], 20.0, 1.0, None,
     "chart point is not finite"),
    # The cap arc exp(1000 t B2) overflows from t = 0.71 on, where the
    # dual point 0 * e^(1000 t) turns NaN; RK4 at this step stays finite
    # and wrong.
    (affine_line_group(), CornerNorm(), [0.0, 1000.0], 1.0, 0.01, None,
     "dual point is not finite at t=0.71"),
    # The same on a vertex of an octagon: its arc stays finite to
    # t = 3.6, and t = 3.7 is the first node that overflows.
    (affine_line_group(),
     PolyhedralNorm(regular_polygon_ball(8, 0.9669719061665745)),
     [0.0, 199.19178435750567], 37.7, 0.1, None,
     "dual point is not finite at t=3.7"),
])
def test_overflowing_run_raises(spec, norm, lam, t_end, step, pol,
                                message):
    with pytest.raises(IntegrationError, match=message):
        flow.integrate(spec, norm, lam, t_end, step, polarization=pol)


@pytest.mark.parametrize("ball, lam, first", [
    (linf_ball(2), [7.8, 26445.6], math.log(1.0 + 26445.6 / 7.8) / 26453.4),
    (regular_polygon_ball(8, 0.9669719061665745),
     [93.88052906289462, 199.19178435750567], None),
], ids=["square", "octagon"])
def test_switches_before_an_overflowing_node_are_solved(ball, lam, first):
    # Each run switches within its first step onto a vertex whose arc
    # contracts.  A node scan needed the first node, where the arc it
    # left had overflowed; the closed form needs only the arc's start,
    # so the run is finite and its events are those of a fine grid.
    runs = [integrate_polyhedral(affine_line_group(), PolyhedralNorm(ball),
                                 lam, 2.0, step) for step in (0.5, 1e-3)]
    assert runs[0].events == runs[1].events
    assert runs[0].events[-1].t < 0.5
    if first is not None:
        assert runs[0].events[0].t == pytest.approx(first, rel=1e-12)
    assert np.isfinite(runs[0].duals).all()


def test_speed_check_fails_on_nan_nodes():
    traj = integrate_smooth(heisenberg_group(), EuclideanNorm(2),
                            [0.3, 0.5, 0.8], 0.1, 0.01, polarization=(0, 1))
    assert check_constant_speed(traj)["ok"]
    traj.controls[3] = np.nan
    traj.duals[5] = np.nan
    check = check_constant_speed(traj)
    assert math.isnan(check["control_deviation"])
    assert math.isnan(check["dual_deviation"])
    assert not check["ok"]


# -- polyhedral integrator ---------------------------------------------------


def test_heisenberg_vertical_is_exact():
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.0, 0.0, 1.0], 5.0, 1e-2)
    assert traj.speed == 1.0
    assert traj.events == []
    for t, g in zip(traj.times, traj.points):
        ref = group_exp(heis, np.array([0.0, 0.0, t]))
        assert np.max(np.abs(g - ref)) <= 1e-12
    assert np.allclose(traj.controls,
                       np.tile([0.0, 0.0, 1.0], (len(traj.times), 1)),
                       atol=1e-12)


def test_generic_heisenberg_invariants():
    heis = heisenberg_group()
    lam = np.array([0.3, 0.5, 0.8])
    traj = integrate_polyhedral(heis, MaxNorm(3), lam, 3.0, 1e-2)
    assert traj.speed == pytest.approx(1.6, abs=1e-12)
    check = check_constant_speed(traj)
    assert check["ok"]
    assert check["control_deviation"] <= 1e-12
    assert check["dual_deviation"] <= 10.0 * traj.step
    # Dual points must match the coadjoint formula at every node.
    for i in (0, 50, 150, 300):
        xi = coadjoint_dual_point(heis, lam, traj.points[i])
        assert np.allclose(xi, traj.duals[i], atol=1e-12)
    # The control maximizes the dual point at every node.
    pairing = np.einsum("ij,ij->i", traj.duals, traj.controls)
    assert np.max(np.abs(pairing - traj.speed ** 2)) <= 1e-12
    assert all(0.0 < e.t < 3.0 for e in traj.events)
    assert all(traj.events[i].t < traj.events[i + 1].t
               for i in range(len(traj.events) - 1))


def test_first_event_time_frozen():
    # xi_1(t) = 0.3 - 0.8 * x2(t) with x2 = 1.6 t, so the first face
    # change happens at t = 0.3 / 1.28.
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.5, 0.8], 1.0, 1e-2)
    assert traj.events
    assert traj.events[0].t == pytest.approx(0.3 / 1.28, abs=1e-12)


def test_selection_rules_deterministic_and_valid():
    heis = heisenberg_group()
    lam = [0.3, 0.5, 0.8]
    one = integrate_polyhedral(heis, MaxNorm(3), lam, 2.0, 1e-2)
    two = integrate_polyhedral(heis, MaxNorm(3), lam, 2.0, 1e-2)
    assert np.array_equal(one.points, two.points)
    assert np.array_equal(one.controls, two.controls)
    assert check_constant_speed(one)["control_deviation"] <= 1e-12


def test_face_thrash_guard(monkeypatch):
    heis = heisenberg_group()
    monkeypatch.setattr(flow, "MAX_SWITCHES", 0)
    with pytest.raises(FaceThrashError) as info:
        integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.5, 0.8], 1.0, 1e-2)
    assert len(info.value.events) == 1


# -- exact face events ---------------------------------------------------------


def _random_polygon(rng: np.random.Generator, pairs: int) -> Polyhedron:
    """A symmetric polygon with vertices on a random ellipse."""
    spacing = math.pi / pairs
    theta = (rng.uniform(0.0, 2.0 * math.pi)
             + spacing * (np.arange(pairs) + rng.uniform(-0.3, 0.3, pairs)))
    half = np.column_stack([np.cos(theta),
                            rng.uniform(0.5, 1.0) * np.sin(theta)])
    return Polyhedron.from_vertices(np.vstack([half, -half]))


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(2, 6),
       lam3=st.floats(0.5, 4.0), flip=st.booleans())
def test_polygon_events_match_the_isoperimetrix(seed, pairs, lam3, flip):
    rng = np.random.default_rng(seed)
    poly = _random_polygon(rng, pairs)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    lam = [math.cos(angle), math.sin(angle), -lam3 if flip else lam3]
    t_end = 3.0
    exact = isoperimetrix_switches(poly.vertices, lam, t_end + 1e-6)
    # Generic data only: one vertex exposed at t = 0, no switch within
    # rounding of the horizon.
    support = np.sort(poly.vertices @ lam[:2])
    assume(support[-1] - support[-2] > 1e-6)
    assume(all(abs(t - t_end) > 1e-9 for t, _, _ in exact))
    exact = [e for e in exact if e[0] < t_end]
    traj = integrate_polyhedral(heisenberg_group(), PolyhedralNorm(poly),
                                lam, t_end, 1e-2, polarization=(0, 1))
    # Vertex faces come first, with the vertex index as id, so every
    # event is one vertex-to-vertex switch.
    got = [(e.t, e.from_face, e.to_face) for e in traj.events]
    assert len(got) == len(exact)
    for (t, a, b), (t_ref, a_ref, b_ref) in zip(got, exact):
        assert (a, b) == (a_ref, b_ref)
        assert abs(t - t_ref) <= 1e-12


def test_carnot_square_logs_one_event_per_switch():
    # The bundled heisenberg_carnot curve: each axis crossing of the
    # dual point is an instant pass through an edge of the square.
    traj = integrate_polyhedral(heisenberg_group(), MaxNorm(2),
                                [0.3, 0.5, 0.8], 3.0, 1e-2,
                                polarization=(0, 1))
    poly = MaxNorm(2).poly
    assert [e.t for e in traj.events] == pytest.approx(
        [0.46875, 1.71875, 2.96875], abs=1e-12)
    assert all(poly.faces()[e.from_face].dim == 0
               and poly.faces()[e.to_face].dim == 0 for e in traj.events)
    exact = isoperimetrix_switches(poly.vertices, [0.3, 0.5, 0.8], 3.0)
    assert [(e.from_face, e.to_face) for e in traj.events] == [
        (a, b) for _, a, b in exact]


# Event times of the bisecting integrator this one replaced, which
# located each switch to EVENT_WIDTH_FACTOR * step = 1e-5.  Affine and
# rotation arcs have exponential and trigonometric gaps.
BISECTED_EVENTS = {
    "affine_hexagon": (affine_line_group, regular_polygon_ball(6, 0.1),
                       [0.4, 0.7], 3.0,
                       [(0.863359375, 3, 5), (2.31099609375, 5, 4)]),
    "affine_hexagon_back": (affine_line_group, regular_polygon_ball(6, 0.1),
                            [-0.6, 0.3], 3.0,
                            [(0.085263671875, 1, 0), (2.0414453125, 0, 2)]),
    "rotation_skew_cube": (rotation_group, Polyhedron.from_vertices(
        linf_ball(3).vertices @ np.array([[1.0, 0.2, 0.0], [0.0, 1.0, 0.3],
                                          [0.1, 0.0, 1.0]]).T),
                           [0.8, -0.5, 0.3], 1.0,
                           [(0.39229492187500004, 5, 7),
                            (0.697861328125, 7, 6)]),
}


@pytest.mark.parametrize("name", BISECTED_EVENTS)
def test_nonlinear_gap_events_are_exact_ties(name):
    make, poly, lam, t_end, bisected = BISECTED_EVENTS[name]
    spec = make()
    traj = integrate_polyhedral(spec, PolyhedralNorm(poly), lam, t_end,
                                1e-2)
    assert [(e.from_face, e.to_face) for e in traj.events] == [
        (a, b) for _, a, b in bisected]
    for e, (t_old, _, _) in zip(traj.events, bisected):
        assert abs(e.t - t_old) <= flow.EVENT_WIDTH_FACTOR * 1e-2
        # The left and the entered vertex support the dual point equally
        # at the event: the chart point is rebuilt from the next node by
        # scipy's expm, the dual point by explicit conjugation.
        k = int(np.searchsorted(traj.times, e.t, side="right"))
        u = np.einsum("i,iab->ab", traj.controls[k], spec.basis)
        g = traj.points[k] @ expm(-(traj.times[k] - e.t) * u)
        xi = dual_point_by_conjugation(spec.basis, lam, g,
                                       spec.polarization)
        for fid in (e.from_face, e.to_face):
            vertex = poly.vertices[poly.faces()[fid].vertex_ids[0]]
            assert vertex @ xi == pytest.approx(traj.speed, abs=1e-12)


def _skewed_cube(rng: np.random.Generator) -> Polyhedron:
    """The cube under a random linear map near the identity."""
    skew = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3))
    return Polyhedron.from_vertices(linf_ball(3).vertices @ skew.T)


def _duals_by_expm(spec, lam, g, u, s):
    """Dual points of ``g exp(s u)`` for a stack of offsets ``s``, by
    scipy's expm and explicit conjugation solved by least squares, on
    the full polarization."""
    pts = g @ expm(np.multiply.outer(s, np.einsum("i,iab->ab", u,
                                                  spec.basis)))
    conj = (pts[:, None] @ spec.basis[None]) @ np.linalg.inv(pts)[:, None]
    flat = spec.basis.reshape(spec.dim, -1).T
    coords = np.linalg.lstsq(flat, conj.reshape(-1, flat.shape[0]).T,
                             rcond=None)[0]
    # coords[k, n * dim + j] is coordinate k of Ad_{g_n} B_j.
    adj = coords.reshape(spec.dim, len(s), spec.dim).transpose(1, 0, 2)
    return np.einsum("k,nkj->nj", lam, adj), pts[-1]


EXPONENTIAL_RUNS = (
    [("affine", seed) for seed in (0, 6, 30)]
    + [("rotation", seed) for seed in (3, 6, 17)])


@pytest.mark.parametrize("kind, seed", EXPONENTIAL_RUNS,
                         ids=[f"{k}{s}" for k, s in EXPONENTIAL_RUNS])
def test_exponential_arc_events_are_exact_ties_on_any_step(kind, seed):
    # On affine_line and rotation each switch is solved in closed form
    # from the previous exit, so no event time depends on the grid, by
    # one bit.  Rebuilt by scipy's expm and explicit conjugation, each
    # event is a tie between the vertex left and the vertex entered, and
    # the held vertex is the best one at every 1e-4 between events.
    rng = np.random.default_rng(seed)
    if kind == "affine":
        spec, ball = affine_line_group(), _random_polygon(rng, 4)
    else:
        spec, ball = rotation_group(), _skewed_cube(rng)
    lam = rng.standard_normal(spec.dim)
    runs = [integrate_polyhedral(spec, PolyhedralNorm(ball), lam, 2.0, step)
            for step in (1e-1, 1e-2, 1e-3)]
    events = [[(e.t, e.from_face, e.to_face) for e in run.events]
              for run in runs]
    assert events[0] == events[1] == events[2] != []
    traj = runs[1]
    vertex = [ball.vertices[f.vertex_ids[0]] if f.dim == 0 else None
              for f in ball.faces()]
    g, t_prev, u = spec.identity(), 0.0, traj.controls[0]
    held = traj.face_ids[0]
    for e in [*traj.events, None]:
        t_next = 2.0 if e is None else e.t
        s = np.append(np.arange(0.0, t_next - t_prev, 1e-4), t_next - t_prev)
        xis, g = _duals_by_expm(spec, lam, g, u, s)
        gaps = xis @ ball.vertices.T - (xis @ vertex[held])[:, None]
        assert np.max(gaps) <= 1e-12
        if e is None:
            break
        assert e.from_face == held
        tie = xis[-1] @ (vertex[e.from_face] - vertex[e.to_face])
        assert abs(tie) <= 1e-12
        t_prev, held, u = e.t, e.to_face, traj.speed * vertex[e.to_face]


@pytest.mark.parametrize("norm, lam, pol", [
    (PolyhedralNorm(regular_polygon_ball(6, 0.1)), [0.4, 0.7, 1.3], (0, 1)),
    (MaxNorm(3), [0.3, -0.2, 1.7], None),
], ids=["hexagon", "cube"])
def test_linear_arc_events_do_not_depend_on_the_step(monkeypatch, norm, lam,
                                                     pol):
    # On the Heisenberg group each switch is a least ratio of linear
    # supports, read off the previous exit alone, so the grid changes
    # which nodes are filled but not one bit of an event time.  Each
    # node after t = 0 is one exp row and each switch one more; nothing
    # is scanned.
    rows = []
    original = groups.exp

    def counting_exp(spec, coords):
        rows.append(int(np.prod(np.shape(coords)[:-1])))
        return original(spec, coords)

    monkeypatch.setattr(groups, "exp", counting_exp)
    times = []
    for step in (1e-1, 1e-2, 1e-3):
        rows.clear()
        traj = integrate_polyhedral(heisenberg_group(), norm, lam, 3.0, step,
                                    polarization=pol)
        assert len(traj.events) >= 3
        assert sum(rows) == len(traj.times) - 1 + len(traj.events)
        times.append([e.t for e in traj.events])
    assert times[0] == times[1] == times[2]


def test_vanishing_center_covector_needs_no_root_solve():
    # lam3 = 0: the dual point is constant, so every outsider's form is
    # a constant, and the face never changes.
    traj = integrate_polyhedral(heisenberg_group(), MaxNorm(2),
                                [0.3, -0.5, 0.0], 3.0, 1e-2,
                                polarization=(0, 1))
    assert traj.events == []
    assert np.array_equal(traj.controls,
                          np.tile([0.8, -0.8], (len(traj.times), 1)))
    assert len(set(traj.face_ids.tolist())) == 1


def test_start_face_that_splits_at_once_is_an_event_at_zero():
    # xi(0) = (0.3, 0, 0.8) exposes the edge of the cube between
    # (1, -1, 1) and (1, 1, 1); under the edge's barycentric control
    # xi_2' = 0.8 u_1 > 0, so the curve leaves on the vertex (1, 1, 1).
    heis = heisenberg_group()
    cube = MaxNorm(3).poly
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.0, 0.8], 2.0,
                                1e-2)
    first = traj.events[0]
    assert first.t == 0.0
    assert cube.faces()[first.from_face].dim == 1
    assert traj.face_ids[0] == first.from_face
    assert np.array_equal(cube.vertices[cube.faces()[first.to_face]
                                        .vertex_ids[0]], [1.0, 1.0, 1.0])
    assert np.array_equal(traj.controls[0], [1.1, 1.1, 1.1])
    # xi_1 = 0.3 - 0.8 * 1.1 t crosses zero next.
    assert traj.events[1].t == pytest.approx(0.3 / 0.88, abs=1e-12)
    assert all(a.t < b.t for a, b in zip(traj.events, traj.events[1:]))


@pytest.mark.parametrize("lam, norm, pol, switches", [
    # xi_1 = 0.25 - 0.5 t vanishes at t = 0.5, which is node 50; the
    # dual point then turns a corner every 1.0.
    ([0.25, 0.25, 0.5], MaxNorm(3), None, [0.5, 1.5, 2.5, 3.5]),
    ([0.3, -0.3, 0.4], MaxNorm(3), None, [0.75, 2.25, 3.75]),
    ([0.5, 0.1, 0.4], MaxNorm(3), None, [1.25, 2.75]),
    ([0.6, -0.2, 0.75], MaxNorm(2), (0, 1), [1.0 / 3.0, 5.0 / 3.0, 3.0]),
], ids=["one", "three", "two", "square"])
def test_switches_on_grid_nodes_are_solved(lam, norm, pol, switches):
    # A switch on a grid node leaves that node within rounding of the
    # tie, where the gap may read positive before it has been negative:
    # that is no switch, and no root solve is attempted.
    traj = integrate_polyhedral(heisenberg_group(), norm, lam, 4.0, 1e-2,
                                polarization=pol)
    assert [e.t for e in traj.events] == pytest.approx(switches, abs=1e-12)


def _touching_ball(lift: float) -> tuple[Polyhedron, np.ndarray]:
    """The cube plus a vertex pair +-w whose gap to the first vertex
    along the rotation arc of lam = (0.8, -0.5, 0.3) peaks at ``lift``
    at s = 0.255, midway between two nodes."""
    rot = rotation_group()
    lam = np.array([0.8, -0.5, 0.3])
    u = np.array([1.6, -1.6, 1.6])

    def xi(s):
        return coadjoint_dual_point(rot, lam, group_exp(rot, s * u))

    s_t, h = 0.255, 1e-4
    xi_t = xi(s_t)
    d = arc_terms(rot, lam, group_exp(rot, s_t * u), u)[0]
    n = np.cross(xi_t, d)
    n /= np.linalg.norm(n)
    curve = (xi(s_t + h) - 2.0 * xi(s_t) + xi(s_t - h)) / h ** 2
    w = u / 1.6 - 0.4 * np.sign(n @ curve) * n + lift * xi_t / (xi_t @ xi_t)
    cube = linf_ball(3).vertices
    return Polyhedron.from_vertices(np.vstack([cube, w, -w])), lam


@pytest.mark.parametrize("lift", [0.0, 1e-9], ids=["touch", "short_visit"])
def test_visits_within_one_step_are_seen(lift):
    # Each switch is solved from the arc's start, not from grid nodes: a
    # visit to w that starts and ends between two nodes logs both its
    # events, on any step, and a tangential touch, which crosses
    # nowhere, logs none.
    ball, lam = _touching_ball(lift)
    assert len(ball.vertices) == 10
    runs = [integrate_polyhedral(rotation_group(), PolyhedralNorm(ball), lam,
                                 0.5, step) for step in (1e-2, 1e-3)]
    assert runs[0].events == runs[1].events
    assert runs[0].speed == pytest.approx(1.6, abs=1e-12)
    if lift == 0.0:
        assert runs[0].events == []
        return
    there, back = runs[0].events
    assert ball.faces()[there.to_face].dim == 0
    assert (back.from_face, back.to_face) == (there.to_face, there.from_face)
    assert 0.25 < there.t < back.t < 0.26


def test_segment_windows_stay_linear(monkeypatch):
    # Work per segment tracks the nodes it covers: the stacked arcs of a
    # run with tens of switches evaluate a few times the grid.
    rows = []
    original = groups.exp

    def counting_exp(spec, coords):
        rows.append(int(np.prod(np.shape(coords)[:-1])))
        return original(spec, coords)

    monkeypatch.setattr(groups, "exp", counting_exp)
    traj = integrate_polyhedral(heisenberg_group(), MaxNorm(2),
                                [0.3, 0.5, 6.0], 6.0, 1e-2,
                                polarization=(0, 1))
    assert len(traj.events) >= 30
    assert sum(rows) <= 3 * len(traj.times) + 10 * len(traj.events)


# -- abelian degeneration ----------------------------------------------------


def test_abelian_curves_are_straight():
    plane = translation_group(2)
    poly_traj = integrate_polyhedral(plane, SumNorm(2), [1.0, 0.25],
                                     1.0, 1e-2)
    smooth_traj = integrate_smooth(plane, EuclideanNorm(2), [0.6, -0.8],
                                   1.0, 1e-2)
    for traj in (poly_traj, smooth_traj):
        assert traj.events == []
        u0 = traj.controls[0]
        assert np.allclose(traj.controls, np.tile(u0, (len(traj.times), 1)),
                           atol=1e-12)
        for t, g in zip(traj.times, traj.points):
            ref = group_exp(plane, t * u0)
            assert np.max(np.abs(g - ref)) <= 1e-12
    assert np.array_equal(poly_traj.controls[0], [1.0, 0.0])
    assert np.allclose(smooth_traj.controls[0], [0.6, -0.8], atol=1e-12)


# -- arc terms ---------------------------------------------------------------


def _random_specs():
    return [heisenberg_group(), affine_line_group(), rotation_group(),
            translation_group(2), translation_group(3)]


def _kernels(q, s):
    """S_q and C_q at the offsets s, written out per sign of q."""
    if q > 0.0:
        r = math.sqrt(q)
        return np.sinh(r * s) / r, (np.cosh(r * s) - 1.0) / q
    if q < 0.0:
        w = math.sqrt(-q)
        return np.sin(w * s) / w, (1.0 - np.cos(w * s)) / -q
    return s, 0.5 * s * s


@pytest.mark.parametrize("spec", _random_specs(), ids=lambda s: s.name)
def test_arc_terms_close_the_dual_point(spec, rng):
    # A = ad_U^T has A^3 = q A on every registry group, with q = 0 on the
    # nilpotent and abelian ones, b**2 on affine_line and -|U|**2 on
    # rotation; so flow.arc's dual points are xi0 + S_q b + C_q c.
    s = np.linspace(0.0, 1.5, 16)
    worst = 0.0
    for _ in range(200):
        lam = rng.standard_normal(spec.dim)
        u = rng.standard_normal(spec.dim)
        g = group_exp(spec, rng.standard_normal(spec.dim))
        b, c, q = arc_terms(spec, lam, g, u)
        a = groups.ad_matrix(spec, u).T
        a3 = a @ a @ a
        assert np.max(np.abs(a3 - q * a)) <= 1e-14 * np.max(np.abs(a3))
        expected = {"affine_line": u[1] ** 2, "rotation": -(u @ u)}
        assert q == pytest.approx(expected.get(spec.name, 0.0), rel=1e-14)
        if spec.name not in expected:
            assert not c.any()
        xi0 = coadjoint_dual_point(spec, lam, g)
        big_s, big_c = _kernels(q, s)
        closed = xi0 + np.outer(big_s, b) + np.outer(big_c, c)
        xis = flow.arc(spec, lam, u, s, spec.polarization, g)[1]
        scale = np.max(np.abs(xis))
        worst = max(worst, float(np.max(np.abs(closed - xis))) / scale)
    assert worst <= 1.6e-12


@pytest.mark.parametrize("spec", [heisenberg_group(), translation_group(3),
                                  rotation_group()], ids=lambda s: s.name)
def test_axis_corner_cap_drops_only_vanishing_terms(spec, rng):
    # On the cap the control is h e_1, and |P xi(s)|**2 - h**2 has two
    # terms beyond AxisCornerNorm's form: S C with coefficient
    # 2 Pb . Pc, and C**2 with q |Pb|**2 + |Pc|**2.  Both vanish exactly
    # where A**2 p = 0, and on rotation, where Pb and Pc are Pa turned
    # and scaled, to rounding.
    norm = AxisCornerNorm()
    seen = 0
    for _ in range(200):
        lam = rng.standard_normal(3)
        g = group_exp(spec, rng.standard_normal(3))
        xi0 = coadjoint_dual_point(spec, lam, g)
        if norm.corner_cone(xi0) is None:
            continue
        seen += 1
        b, c, q = arc_terms(spec, lam, g, norm.grad_dual_energy(xi0))
        pb, pc = b[1:], c[1:]
        cross, square = 2.0 * (pb @ pc), q * (pb @ pb) + pc @ pc
        if spec.name != "rotation":
            assert cross == 0.0 and square == 0.0
            continue
        scale = abs(q) * (pb @ pb) + pc @ pc + 2.0 * np.linalg.norm(pb) * \
            np.linalg.norm(pc)
        assert abs(cross) <= 7e-15 * scale
        assert abs(square) <= 7e-15 * scale
    assert seen > 20


def test_dual_derivative_matches_finite_differences(rng):
    for spec in (heisenberg_group(), rotation_group(), affine_line_group()):
        lam = rng.standard_normal(spec.dim)
        x = rng.standard_normal(spec.dim)
        u = rng.standard_normal(spec.dim)
        g = group_exp(spec, x)
        eps = 1e-5
        plus = coadjoint_dual_point(spec, lam, g @ group_exp(spec, eps * u))
        minus = coadjoint_dual_point(spec, lam, g @ group_exp(spec, -eps * u))
        numeric = (plus - minus) / (2.0 * eps)
        analytic = arc_terms(spec, lam, g, u)[0]
        assert np.max(np.abs(numeric - analytic)) <= 1e-7


# -- branch detection --------------------------------------------------------


def test_detect_branching_identical_curves():
    plane = translation_group(2)
    one = subgroup_trajectory(plane, SumNorm(2), [1.0, 0.0], [1.0, 0.0],
                              1.0, 1e-2)
    two = subgroup_trajectory(plane, SumNorm(2), [1.0, 0.0], [1.0, 0.0],
                              1.0, 1e-2)
    report = detect_branching(one, two)
    assert not report.branched
    assert report.coincidence_time == 1.0
    assert report.witness_time is None


def test_detect_branching_linear_split():
    plane = translation_group(2)
    one = subgroup_trajectory(plane, SumNorm(2), [1.0, 0.0], [1.0, 0.0],
                              1.0, 1e-2)
    two = subgroup_trajectory(plane, SumNorm(2), [1.0, 0.0], [1.0, 0.01],
                              1.0, 1e-2)
    report = detect_branching(one, two)
    assert report.branched
    assert report.coincidence_time == 0.0
    assert 0.05 <= report.witness_time <= 0.2
    assert report.witness_gap > report.split_tol


def test_detect_branching_rejects_mismatched_grids():
    plane = translation_group(2)
    one = subgroup_trajectory(plane, SumNorm(2), [1.0, 0.0], [1.0, 0.0],
                              1.0, 1e-2)
    two = subgroup_trajectory(plane, SumNorm(2), [1.0, 0.0], [1.0, 0.0],
                              1.0, 8e-3)
    with pytest.raises(FlowError):
        detect_branching(one, two)


def test_root_sum_pair_branches_at_known_time():
    heis = heisenberg_group()
    norm = RootSumNorm(3)
    first = integrate_smooth(heis, norm, [2.0, 0.3, 0.4], 2.2, 5e-3)
    second = integrate_smooth(heis, norm, [2.0, 0.0, 0.0], 2.2, 5e-3)
    # Both start with the same soft-threshold control; the first
    # covector leaves its regime when xi_2(t) = 0.3 + 0.4 t crosses the
    # threshold s = 1, at t = 1.75.
    assert np.array_equal(first.controls[0], second.controls[0])
    assert first.events
    assert first.events[0].t == pytest.approx(1.75, abs=1e-3)
    report = detect_branching(first, second)
    assert report.branched
    assert report.coincidence_time == pytest.approx(1.75, abs=5e-2)


# -- conserved quantity check -------------------------------------------------


def test_check_constant_speed_flags_drift():
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.5, 0.8], 1.0, 1e-2)
    assert check_constant_speed(traj)["ok"]
    traj.controls[3] = traj.controls[3] * 1.5
    spoiled = check_constant_speed(traj)
    assert not spoiled["ok"]
    assert spoiled["control_deviation"] >= 0.4


def _assert_speed_check_matches_the_nodes(traj):
    control, dual = speed_deviations_by_node(traj)
    check = check_constant_speed(traj)
    tol = 4.0 * np.finfo(float).eps * traj.speed
    assert abs(check["control_deviation"] - control) <= tol
    assert abs(check["dual_deviation"] - dual) <= tol


@pytest.mark.parametrize("name", ["heisenberg_vertical", "abelian_l1",
                                  "abelian_euclidean"])
def test_speed_check_matches_the_node_oracle_on_bundled_runs(name):
    cfg = load_scenario(name)
    spec = cfg.build_group()
    traj = flow.integrate(spec, cfg.build_norm(), cfg.covector, cfg.t_end,
                          cfg.step, polarization=cfg.pol(spec))
    _assert_speed_check_matches_the_nodes(traj)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), pairs=st.integers(2, 6),
       lam3=st.floats(0.5, 4.0))
def test_speed_check_matches_the_node_oracle_on_polygons(seed, pairs, lam3):
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    traj = integrate_polyhedral(
        heisenberg_group(), PolyhedralNorm(_random_polygon(rng, pairs)),
        [math.cos(angle), math.sin(angle), lam3], 2.0, 1e-2,
        polarization=(0, 1))
    _assert_speed_check_matches_the_nodes(traj)


@pytest.mark.parametrize("norm", [MaxNorm(2), SumNorm(2),
                                  PolyhedralNorm(regular_polygon_ball(6))],
                         ids=["linf", "l1", "hexagon"])
def test_speed_check_calls_each_gauge_once(monkeypatch, norm):
    traj = integrate_polyhedral(heisenberg_group(), norm, [0.3, 0.5, 0.8],
                                3.0, 1e-2, polarization=(0, 1))
    calls = {"value": 0, "dual_value": 0}
    for name in calls:
        method = getattr(type(norm), name)

        def counted(self, v, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, v)

        monkeypatch.setattr(type(norm), name, counted)
    assert check_constant_speed(traj)["ok"]
    assert calls == {"value": 1, "dual_value": 1}


# -- CSV round trip ------------------------------------------------------------


def test_trajectory_csv_round_trip(tmp_path):
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.5, 0.8], 1.0, 1e-2)
    path = tmp_path / "run.csv"
    write_trajectory_csv(traj, path)
    data = read_trajectory_csv(path)
    assert np.array_equal(data["t"], traj.times)
    n = len(traj.times)
    chart = np.column_stack([data[f"g{i}{j}"] for i in range(3)
                             for j in range(3)]).reshape(n, 3, 3)
    assert np.array_equal(chart, traj.points)
    controls = np.column_stack([data[f"u{k}"] for k in range(3)])
    assert np.array_equal(controls, traj.controls)
    duals = np.column_stack([data[f"xi{k}"] for k in range(3)])
    assert np.array_equal(duals, traj.duals)
    assert np.array_equal(data["face_id"].astype(int), traj.face_ids)


def test_subgroup_trajectory_nodes_exact():
    heis = heisenberg_group()
    traj = subgroup_trajectory(heis, MaxNorm(3), [0.0, 0.0, 1.0],
                               [1.0, 1.0, 0.0], 1.0, 0.125)
    assert traj.rule == "subgroup"
    for t, g in zip(traj.times, traj.points):
        ref = group_exp(heis, np.array([t, t, 0.0]))
        assert np.max(np.abs(g - ref)) <= 1e-12


def test_subgroup_nodes_are_closed_form_exp():
    # The nodes used to be products of one hop, which drift from the
    # closed form along a long affine subgroup.  They are compared as
    # bytes: a product with the identity would turn the -0.0 of
    # exp(0 * (-1, 0)) into 0.0 and change the CSV.
    aff = affine_line_group()
    for direction in ([0.0, 1.0], [-1.0, 0.0]):
        traj = subgroup_trajectory(aff, CornerNorm(), [0.5, 1.0], direction,
                                   2.2, 1e-3)
        for t, g in zip(traj.times, traj.points):
            ref = group_exp(aff, t * np.array(direction))
            assert g.tobytes() == ref.tobytes()


WHOLE_STEP_RUNS = {
    "smooth": lambda t_end, step: integrate_smooth(
        heisenberg_group(), EuclideanNorm(2), [0.25, 0.3, 0.45], t_end, step,
        polarization=(0, 1)),
    "polyhedral": lambda t_end, step: integrate_polyhedral(
        heisenberg_group(), MaxNorm(3), [0.25, 0.3, 0.45], t_end, step),
    "subgroup": lambda t_end, step: subgroup_trajectory(
        heisenberg_group(), MaxNorm(3), [0.0, 0.0, 1.0], [1.0, 1.0, 0.0],
        t_end, step),
}


@pytest.mark.parametrize("run", WHOLE_STEP_RUNS.values(),
                         ids=WHOLE_STEP_RUNS.keys())
def test_integrators_need_a_whole_number_of_steps(run):
    # round(0.1 / 0.03) steps would end the curve at 0.09.
    for t_end, step in ((0.1, 0.03), (0.1, 0.3)):
        with pytest.raises(ValueError, match="whole number of steps"):
            run(t_end, step)
    traj = run(0.09, 0.03)
    assert len(traj.times) == 4
    assert traj.meta_dict()["t_end"] == pytest.approx(0.09, rel=1e-12)


@pytest.mark.parametrize("run", WHOLE_STEP_RUNS.values(),
                         ids=WHOLE_STEP_RUNS.keys())
def test_integrators_refuse_grids_numpy_cannot_allocate(run):
    # 5e17 nodes of 3 x 3 chart points are 3.6e19 bytes, past the
    # np.intp limit, while their times alone (4e18 bytes) are not; the
    # refusal comes before any node array is allocated.
    assert flow.whole_steps(5e17, 1.0) == 5 * 10**17
    with pytest.raises(ValueError, match="more nodes than numpy can"):
        flow.whole_steps(5e17, 1.0, heisenberg_group().matrix_size)
    with pytest.raises(ValueError, match="more nodes than numpy can"):
        run(5e17, 1.0)
