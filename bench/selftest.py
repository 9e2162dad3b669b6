"""Self-tests of the benchmark's reference answers, checks and tracer.

Run from the repository root with::

    python3 -m pytest bench/selftest.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from subfinsler import cli, flow, groups, polyhedra  # noqa: E402


def bundled(name: str) -> dict:
    return json.loads((BENCH.parent / "src" / "subfinsler" / "scenarios"
                       / f"{name}.json").read_text())


def test_isoperimetrix_square_by_hand():
    # xi starts at (0.3, 0.5) on vertex (1, 1) with r = 0.8 and moves at
    # l3 r J v = 0.64 (-1, 1) until xi1 = 0, then turns at each axis.
    square = [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]]
    switches = reference.isoperimetrix_switches(square, [0.3, 0.5, 0.8], 3.0)
    assert [(a, b) for _, a, b in switches] == [(0, 1), (1, 2), (2, 3)]
    assert [t for t, _, _ in switches] == pytest.approx(
        [0.46875, 1.71875, 2.96875], abs=1e-15)


def test_heisenberg_carnot_has_three_switches():
    scenario = bundled("heisenberg_carnot")
    ball = polyhedra.linf_ball(2)
    exact = reference.isoperimetrix_switches(ball.vertices,
                                             scenario["covector"],
                                             scenario["t_end"])
    assert len(exact) == 3
    traj = flow.integrate_polyhedral(
        groups.heisenberg_group(), cli.ScenarioConfig.from_dict(
            scenario).build_norm(), np.array(scenario["covector"]),
        scenario["t_end"], scenario["step"],
        polarization=tuple(scenario["polarization"]))
    # The integrator logs each axis crossing as vertex -> edge -> vertex;
    # the check counts that as one switch.
    assert len(traj.events) >= len(exact)
    found = workloads.match_switches(
        [e.to_json_dict() for e in traj.events], ball.vertices,
        scenario["covector"], scenario["t_end"], scenario["step"])
    assert found.ok and found.oracle_switches == 3
    assert found.oracle_err < 1e-4


def test_edge_pass_is_one_switch():
    # Square: faces 0..3 are vertices, 4.. are edges.
    events = [{"t": 0.5, "from_face": 0, "to_face": 4},
              {"t": 0.50001, "from_face": 4, "to_face": 1},
              {"t": 0.9, "from_face": 1, "to_face": 5},
              {"t": 0.90001, "from_face": 5, "to_face": 1}]
    assert workloads.program_switches(events, 4) == [(0.5, 0, 1)]


def test_corner_exit_time_of_affine_corner_half(tmp_path):
    scenario = bundled("affine_corner_half")
    assert reference.corner_exit_time(scenario["covector"]) == math.log(2.0)
    assert cli.main(["branch", "--config", "affine_corner_half",
                     "--out", str(tmp_path), "--quiet"]) == 0
    job = workloads.Job(0, "affine_corner", "branch", scenario,
                        {"switch_time": math.log(2.0)})
    found = workloads.WORKLOADS["smooth_branch"].check(job, tmp_path)
    assert found.ok, found.reason
    assert found.oracle_err <= 2e-3


def test_exhaustive_delta_reference_balls():
    cube = polyhedra.linf_ball(3)
    assert reference.exhaustive_delta(cube.vertices, cube.functionals
                                      ) == pytest.approx(2.0, abs=1e-12)
    hexagon = polyhedra.regular_polygon_ball(6)
    assert reference.exhaustive_delta(hexagon.vertices, hexagon.functionals
                                      ) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("make", [
    lambda rng: workloads.symmetric_polygon(rng, 3),
    workloads.skewed_cube, workloads.skewed_cross, workloads.random_ball3])
def test_generated_balls_are_valid_and_match_program_delta(make):
    ball = make(np.random.default_rng(7))
    poly = polyhedra.Polyhedron.from_json_dict(ball)
    assert reference.exhaustive_delta(ball["vertices"], ball["functionals"]
                                      ) == pytest.approx(
        poly.star_covering().delta, abs=workloads.DELTA_TOL)


@pytest.mark.parametrize("shape, make", [("cube", workloads.skewed_cube),
                                         ("cross", workloads.skewed_cross)])
def test_delta_is_the_same_for_every_linear_image(shape, make):
    ball = make(np.random.default_rng(11))
    assert reference.exhaustive_delta(ball["vertices"], ball["functionals"]
                                      ) == pytest.approx(
        workloads.unit_delta(shape), abs=1e-12)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_depend_only_on_seed_and_index(name):
    wl = workloads.WORKLOADS[name]
    assert wl.job(3, 5).scenario == wl.job(3, 5).scenario
    assert wl.job(3, 5).scenario != wl.job(4, 5).scenario


def test_tracer_records_nested_spans_and_restores(tmp_path):
    original = groups.exp
    tracer = tracing.Tracer()
    tracer.job_id = 0
    with tracer.installed():
        assert groups.exp is not original
        assert cli.main(["integrate", "--config", "heisenberg_carnot",
                         "--out", str(tmp_path), "--quiet"]) == 0
    assert groups.exp is original
    totals = tracer.totals()
    main = totals["cli.main"]
    assert main["calls"] == 1
    assert 0.0 < main["self_s"] < main["total_s"]
    assert totals["flow.integrate_polyhedral"]["calls"] == 1
    assert tracer.counters[(0, "flow.steps")] == 300


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90)
    assert run.tail([float(i) for i in range(1, 31)]) == (20.0, 66)
