"""Acceptance gate: ten numbered criteria with pinned tolerances.

Each test carries an ``acceptance(num, name)`` marker and the terminal
summary prints one PASS/FAIL line per criterion.  Criterion 4 pins the
conjugation action on the rotation group,

    Ad_{exp(t B1)} B2 = cos t B2 - sin t B3,
    Ad_{exp(t B1)} B3 = sin t B2 + cos t B3,

which follows from the brackets [B1, B2] = -B3 and [B1, B3] = B2.  An
earlier statement put +sin t on the first image; that pair acts on
span(B2, B3) with determinant cos(2t), whereas conjugation along a
one-parameter subgroup acts there with determinant exp(t tr ad_B1) = 1,
so no adjoint map could satisfy it.
"""

import math
import time

import numpy as np
import pytest

from subfinsler import (
    AxisCornerNorm,
    CornerNorm,
    EuclideanNorm,
    MaxNorm,
    PolyhedralNorm,
    RootSumNorm,
    SumNorm,
    adjoint_matrix,
    check_constant_speed,
    check_duality_inversion,
    detect_branching,
    heisenberg_group,
    integrate,
    integrate_polyhedral,
    integrate_smooth,
    l1_ball,
    linf_ball,
    regular_polygon_ball,
    rotation_group,
    translation_group,
    verify_face_stability,
    vertical_shortcut,
)
from subfinsler.cli import load_scenario, main as cli_main
from subfinsler.groups import exp as group_exp

from oracles import adjoint_by_conjugation, face_lattice_bruteforce

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# -- criteria 1 and 2 share the fine-step affine runs (conftest.py) --------


@pytest.mark.acceptance(1, "affine branching times")
def test_branching_times_match_logarithms(affine_runs):
    t0 = time.perf_counter()
    half = affine_runs["half"]
    third = affine_runs["third"]
    vertical = affine_runs["vertical"]
    # The curves separate quadratically out of the switch, so the
    # agreement tolerance must sit near sqrt-of-step scale squared;
    # 1e-9 localizes the time to ~5e-5.
    first = detect_branching(half, vertical, agree_tol=1e-9)
    assert abs(first.coincidence_time - LN2) <= 1e-3
    second = detect_branching(third, vertical, agree_tol=1e-9)
    assert abs(second.coincidence_time - LN3) <= 1e-3
    # The bisected switch events land on the same times.
    assert len(half.events) == 1
    assert abs(half.events[0].t - LN2) <= 1e-3
    assert len(third.events) == 1
    assert abs(third.events[0].t - LN3) <= 1e-3
    elapsed = affine_runs["build_seconds"] + time.perf_counter() - t0
    assert elapsed < 5.0


@pytest.mark.acceptance(2, "branch report")
def test_branch_report_for_the_affine_pair(affine_runs):
    t0 = time.perf_counter()
    half = affine_runs["half"]
    third = affine_runs["third"]
    n = len(half.times)
    gaps = np.linalg.norm(
        (half.points - third.points).reshape(n, -1), axis=1)
    times = half.times
    early = times <= LN2 - 0.01
    assert float(np.max(gaps[early])) <= 1e-6
    window = (times > LN2) & (times <= LN3 + 1.0)
    assert float(np.max(gaps[window])) > 1e-4
    report = detect_branching(half, third)
    assert report.branched
    assert LN2 < report.witness_time <= LN3 + 1.0
    elapsed = affine_runs["build_seconds"] + time.perf_counter() - t0
    assert elapsed < 5.0


@pytest.mark.acceptance(3, "heisenberg vertical shortcut")
def test_square_loop_reaches_central_target():
    t0 = time.perf_counter()
    heis = heisenberg_group()
    path = vertical_shortcut(5.0)
    target = group_exp(heis, np.array([0.0, 0.0, 5.0]))
    assert float(np.max(np.abs(path.endpoint - target))) <= 1e-10
    assert path.length == 4.0
    assert path.length < 5.0
    for eps in (0.1, 1.0, 5.0):
        p = vertical_shortcut(eps)
        assert p.length == 4.0 * p.beta
        assert abs(4.0 * p.beta + p.beta * p.beta - eps) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(4, "rotation adjoint identities")
def test_rotation_adjoint_images_as_stated():
    # On span(B2, B3) the brackets [B1, B2] = -B3 and [B1, B3] = B2 give
    # ad_B1 = [[0, 1], [-1, 0]], whose exponential sends B2 to
    # cos t B2 - sin t B3 and B3 to sin t B2 + cos t B3.  Putting +sin t
    # on the first image would act there with determinant cos(2t), but
    # ad_B1 is traceless, so the block has determinant one; that is
    # checked too.  Both images are also matched against explicit
    # matrix conjugation g B g^{-1}, which does not use the program.
    t0 = time.perf_counter()
    rot = rotation_group()
    rng = np.random.default_rng(404)
    e2 = np.array([0.0, 1.0, 0.0])
    e3 = np.array([0.0, 0.0, 1.0])
    dev_second = 0.0
    dev_first = 0.0
    dev_oracle = 0.0
    dev_det = 0.0
    for t in rng.uniform(-math.pi, math.pi, 100):
        g = group_exp(rot, np.array([t, 0.0, 0.0]))
        adj = adjoint_matrix(rot, g)
        image_e2 = adj @ e2
        image_e3 = adj @ e3
        stated_e2 = np.array([0.0, math.cos(t), -math.sin(t)])
        stated_e3 = np.array([0.0, math.sin(t), math.cos(t)])
        dev_first = max(dev_first, float(np.max(np.abs(image_e2 - stated_e2))))
        dev_second = max(dev_second,
                         float(np.max(np.abs(image_e3 - stated_e3))))
        for e, image in ((e2, image_e2), (e3, image_e3)):
            oracle = adjoint_by_conjugation(rot.basis, g, e)
            dev_oracle = max(dev_oracle,
                             float(np.max(np.abs(image - oracle))))
        dev_det = max(dev_det,
                      abs(float(np.linalg.det(adj[1:, 1:])) - 1.0))
    assert time.perf_counter() - t0 < 1.0
    assert dev_second <= 1e-12
    assert dev_first <= 1e-12
    assert dev_oracle <= 1e-12
    assert dev_det <= 1e-12


@pytest.mark.acceptance(4, "rotation adjoint identities")
def test_rotation_exposing_covector_family():
    t0 = time.perf_counter()
    norm = AxisCornerNorm()
    e1 = np.array([1.0, 0.0, 0.0])
    rng = np.random.default_rng(405)
    for _ in range(100):
        alpha, beta = rng.uniform(-0.5, 0.5, 2)
        lam = np.array([1.0, alpha, beta])
        assert abs(norm.dual_value(lam) - 1.0) <= 1e-12
        assert float(lam @ e1) == 1.0
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.acceptance(5, "duality property suite")
def test_subgradients_satisfy_both_equalities():
    t0 = time.perf_counter()
    families = [
        (EuclideanNorm(2), 2), (EuclideanNorm(3), 3),
        (SumNorm(2), 2), (SumNorm(3), 3),
        (MaxNorm(2), 2), (MaxNorm(3), 3),
        (CornerNorm(), 2), (AxisCornerNorm(), 3),
        (RootSumNorm(2), 2), (RootSumNorm(3), 3),
        (PolyhedralNorm(regular_polygon_ball(6)), 2),
    ]
    rng = np.random.default_rng(505)
    for k in range(1000):
        norm, dim = families[k % len(families)]
        u = rng.standard_normal(dim)
        if k % 5 == 3:
            u[rng.integers(dim)] = 0.0  # land on kinks now and then
        if k % 5 == 4:
            u = np.sign(u) * np.max(np.abs(u))
        eta = norm.subdiff_energy(u).sample(rng, 1)[0]
        nu = norm.value(u)
        assert abs(norm.dual_value(eta) - nu) <= 1e-9
        assert abs(float(eta @ u) - nu * nu) <= 1e-9
        assert check_duality_inversion(norm, u, eta, 1e-9) == (
            True, True, True)
    assert time.perf_counter() - t0 < 10.0


CURVE_SCENARIOS = (
    "abelian_euclidean",
    "abelian_l1",
    "affine_corner_half",
    "affine_corner_pair",
    "heisenberg_carnot",
    "heisenberg_finsler_certify",
    "heisenberg_rootsum_pair",
    "heisenberg_vertical",
    "rotation_axis_pair",
)


@pytest.mark.acceptance(6, "constant speed and dual sphere invariants")
def test_shipped_scenarios_conserve_speed():
    t0 = time.perf_counter()
    for name in CURVE_SCENARIOS:
        cfg = load_scenario(name)
        spec = cfg.build_group()
        norm = cfg.build_norm()
        covectors = [cfg.covector]
        if cfg.covector_b is not None:
            covectors.append(cfg.covector_b)
        for lam in covectors:
            traj = integrate(spec, norm, lam, cfg.t_end, cfg.step,
                             polarization=cfg.pol(spec))
            report = check_constant_speed(traj)  # slack is 10 * step
            assert report["control_deviation"] <= 10.0 * cfg.step, name
            assert report["dual_deviation"] <= 10.0 * cfg.step, name
            assert report["ok"], name
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.acceptance(7, "face stability oracle")
def test_every_window_keeps_a_common_face():
    t0 = time.perf_counter()
    heis = heisenberg_group()
    norm = MaxNorm(3)
    ball = linf_ball(3)
    delta = ball.star_covering().delta
    assert delta == pytest.approx(2.0, abs=1e-9)
    # Adjoint growth bound: brackets are central, so the analytic value
    # is the max bracket over cube vertex pairs; confirm it by brute
    # force straight from the chart matrices.
    brute = 0.0
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * 3))).reshape(3, -1).T
    for x in corners:
        mx = np.einsum("i,iab->ab", x, heis.basis)
        for y in corners:
            my = np.einsum("i,iab->ab", y, heis.basis)
            comm = mx @ my - my @ mx
            coords = np.array([comm[0, 1], comm[1, 2], comm[0, 2]])
            brute = max(brute, float(np.max(np.abs(coords))))
    assert brute == 2.0
    window = delta / 2.0  # reference dual 1, growth bound 2
    rng = np.random.default_rng(707)
    for _ in range(100):
        lam = rng.standard_normal(3)
        lam /= np.sum(np.abs(lam))  # unit dual norm for the max norm
        traj = integrate_polyhedral(heis, norm, lam, 3.0, 0.01)
        assert not verify_face_stability(traj, window), lam
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.acceptance(8, "polyhedral combinatorics vs brute force")
def test_face_lattices_and_star_coverings():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    cases = [(l1_ball(2), 8), (linf_ball(3), 26),
             (regular_polygon_ball(6), 12)]
    for ball, expected in cases:
        lattice = {frozenset(int(i) for i in f.vertex_ids)
                   for f in ball.faces()}
        assert len(ball.faces()) == expected
        assert lattice == face_lattice_bruteforce(ball.vertices)
        covering = ball.star_covering()
        assert covering.delta > 0.0
        for eta in rng.standard_normal((10000, ball.dim)):
            scaled = eta / ball.dual_value(eta)
            assert ball.face_of(scaled).facets
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.acceptance(9, "abelian degeneration")
def test_commutative_curves_are_straight():
    t0 = time.perf_counter()
    plane = translation_group(2)
    step = 1e-3
    runs = [
        integrate_polyhedral(plane, SumNorm(2), [1.0, 0.25], 1.0, step),
        integrate_smooth(plane, EuclideanNorm(2), [0.6, -0.8], 1.0, step),
    ]
    for traj in runs:
        assert not traj.events
        assert float(np.max(np.abs(traj.controls - traj.controls[0]))) == 0.0
        hop = np.zeros((3, 3))
        hop[0, 2] = step * traj.controls[0][0]
        hop[1, 2] = step * traj.controls[0][1]
        residuals = np.diff(traj.points, axis=0) - hop
        assert float(np.max(np.abs(residuals))) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


SCENARIO_COMMANDS = {
    "abelian_euclidean": "integrate",
    "abelian_l1": "integrate",
    "affine_corner_half": "branch",
    "affine_corner_pair": "branch",
    "heisenberg_carnot": "certify",
    "heisenberg_finsler_certify": "certify",
    "heisenberg_rootsum_pair": "branch",
    "heisenberg_shortcut": "shortcut",
    "heisenberg_vertical": "integrate",
    "hexagon_faces": "faces",
    "rotation_axis_pair": "branch",
}


@pytest.mark.acceptance(10, "determinism")
def test_rerunning_scenarios_is_byte_identical(tmp_path):
    for name, command in SCENARIO_COMMANDS.items():
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            code = cli_main([command, "--config", name,
                             "--out", str(out), "--quiet"])
            assert code == 0, name
            outputs.append(sorted(out.iterdir()))
        names_a = [p.name for p in outputs[0]]
        names_b = [p.name for p in outputs[1]]
        assert names_a == names_b and names_a, name
        for first, second in zip(*outputs):
            assert first.read_bytes() == second.read_bytes(), first.name
