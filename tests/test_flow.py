"""Normal-flow integrators, branch detection, lifting, serialization."""

import math

import numpy as np
import pytest

from subfinsler import (
    AxisCornerNorm,
    CornerNorm,
    EuclideanNorm,
    FaceThrashError,
    FlowError,
    IntegrationError,
    MaxNorm,
    RootSumNorm,
    SELECTION_RULES,
    SumNorm,
    affine_line_group,
    check_constant_speed,
    detect_branching,
    coadjoint_dual_point,
    dual_derivative,
    heisenberg_abelianization,
    heisenberg_group,
    integrate_polyhedral,
    integrate_smooth,
    lift_curve,
    read_trajectory_csv,
    rotation_group,
    subgroup_trajectory,
    translation_group,
    write_trajectory_csv,
)
from subfinsler.groups import exp as group_exp


# -- smooth integrator -----------------------------------------------------


def test_affine_corner_switch_times():
    spec = affine_line_group()
    norm = CornerNorm()
    traj = integrate_smooth(spec, norm, [0.5, 1.0], 1.0, 1e-3)
    assert traj.speed == 1.0
    assert np.array_equal(traj.controls[0], [0.0, 1.0])
    assert len(traj.events) == 1
    assert abs(traj.events[0].t - math.log(2.0)) <= 1e-5
    second = integrate_smooth(spec, norm, [1.0 / 3.0, 1.0], 1.2, 1e-3)
    assert len(second.events) == 1
    assert abs(second.events[0].t - math.log(3.0)) <= 1e-5


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
    # The control maximizes the dual point away from the event widths.
    pairing = np.einsum("ij,ij->i", traj.duals, traj.controls)
    assert np.max(np.abs(pairing - traj.speed ** 2)) <= 1e-3
    assert all(0.0 < e.t < 3.0 for e in traj.events)
    assert all(traj.events[i].t < traj.events[i + 1].t
               for i in range(len(traj.events) - 1))


def test_first_event_time_frozen():
    # xi_1(t) = 0.3 - 0.8 * x2(t) with x2 = 1.6 t, so the first face
    # change happens at t = 0.3 / 1.28.
    heis = heisenberg_group()
    traj = integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.5, 0.8], 1.0, 1e-2)
    assert traj.events
    assert traj.events[0].t == pytest.approx(0.3 / 1.28, abs=1e-4)


def test_selection_rules_deterministic_and_valid():
    heis = heisenberg_group()
    lam = [0.3, 0.5, 0.8]
    for rule in SELECTION_RULES:
        one = integrate_polyhedral(heis, MaxNorm(3), lam, 2.0, 1e-2,
                                   rule=rule)
        two = integrate_polyhedral(heis, MaxNorm(3), lam, 2.0, 1e-2,
                                   rule=rule)
        assert np.array_equal(one.points, two.points)
        assert np.array_equal(one.controls, two.controls)
        assert check_constant_speed(one)["control_deviation"] <= 1e-12
        if rule == "min_vertex":
            assert np.allclose(np.abs(one.controls), one.speed, atol=1e-12)
    with pytest.raises(FlowError):
        integrate_polyhedral(heis, MaxNorm(3), lam, 1.0, 1e-2, rule="greedy")


def test_start_control_validation():
    heis = heisenberg_group()
    lam = np.array([0.3, 0.5, 0.8])
    speed = 1.6
    good = integrate_polyhedral(heis, MaxNorm(3), lam, 0.5, 1e-2,
                                start_control=speed * np.array([1.0, 1, 1]))
    assert np.array_equal(good.controls[0], speed * np.array([1.0, 1, 1]))
    with pytest.raises(FlowError):
        integrate_polyhedral(heis, MaxNorm(3), lam, 0.5, 1e-2,
                             start_control=speed * np.array([1.0, 1, -1]))
    with pytest.raises(FlowError):
        integrate_polyhedral(heis, MaxNorm(3), lam, 0.5, 1e-2,
                             start_control=2 * speed * np.array([1.0, 1, 1]))


def test_face_thrash_guard():
    heis = heisenberg_group()
    with pytest.raises(FaceThrashError) as info:
        integrate_polyhedral(heis, MaxNorm(3), [0.3, 0.5, 0.8], 1.0, 1e-2,
                             max_switches=0)
    assert len(info.value.events) == 1


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


# -- dual derivative ---------------------------------------------------------


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
        analytic = dual_derivative(spec, lam, g, u)
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


# -- lifting through the abelianization ---------------------------------------


def test_lift_curve_projects_back():
    sub = heisenberg_abelianization()
    plane = sub.target
    traj = integrate_polyhedral(plane, MaxNorm(2), [1.0, 0.25], 1.0, 1e-2)
    lifted = lift_curve(sub, traj, MaxNorm(3))
    assert np.array_equal(lifted.lam, [1.0, 0.25, 0.0])
    assert lifted.speed == pytest.approx(traj.speed, abs=1e-9)
    for g_src, g_tgt in zip(lifted.points, traj.points):
        assert np.max(np.abs(sub.group_map(g_src) - g_tgt)) <= 1e-9
    for u in lifted.controls:
        assert MaxNorm(3).value(u) == pytest.approx(traj.speed, abs=1e-9)


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
