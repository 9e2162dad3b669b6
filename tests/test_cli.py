"""End-to-end checks of the command line front end."""

import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import subfinsler
from subfinsler import certify, cli, convex, flow, polyhedra
from subfinsler.cli import ScenarioError, load_scenario, main
from subfinsler.polyhedra import Polyhedron, linf_ball


def run(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    return json.loads(path.read_text())


# -- scenario loading ----------------------------------------------------------


def test_bundled_names_resolve_without_suffix():
    cfg = load_scenario("abelian_l1")
    assert cfg.name == "abelian_l1"
    assert cfg.group == "translation2"
    assert cfg.norm["family"] == "l1"


def test_explicit_path_loads(tmp_path):
    src = tmp_path / "run.json"
    src.write_text(json.dumps({
        "name": "tiny", "group": "translation2",
        "norm": {"family": "l1", "dim": 2}, "covector": [1.0, 0.25]}))
    cfg = load_scenario(str(src))
    assert cfg.name == "tiny"
    assert cfg.step == 1e-3  # default


def test_load_rejects_unknown_keys(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({
        "name": "x", "group": "translation2",
        "norm": {"family": "l1", "dim": 2}, "stepp": 0.1}))
    with pytest.raises(ScenarioError, match="stepp"):
        load_scenario(str(src))


def test_load_rejects_missing_required_key(tmp_path):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"name": "x", "group": "translation2"}))
    with pytest.raises(ScenarioError, match="norm"):
        load_scenario(str(src))


# -- happy paths per subcommand ------------------------------------------------


def test_integrate_writes_csv_and_meta(tmp_path):
    code = run("integrate", "--config", "abelian_l1", "--out", tmp_path,
               "--quiet")
    assert code == 0
    csv = tmp_path / "abelian_l1_trajectory.csv"
    assert csv.exists()
    header = csv.read_text().splitlines()[0].split(",")
    assert header[0] == "t"
    assert header[-1] == "face_id"
    meta = read_json(tmp_path / "abelian_l1_meta.json")
    assert meta["group"] == "translation2"
    assert meta["speed"] == 1.0  # max norm of the covector
    assert meta["events"] == []
    assert meta["speed_check"]["ok"] is True
    assert meta["seed"] == 0


def test_integrate_overrides_step_and_seed(tmp_path):
    code = run("integrate", "--config", "abelian_l1", "--out", tmp_path,
               "--step", "0.25", "--seed", "7", "--quiet")
    assert code == 0
    meta = read_json(tmp_path / "abelian_l1_meta.json")
    assert meta["step"] == 0.25
    assert meta["seed"] == 7
    rows = (tmp_path / "abelian_l1_trajectory.csv").read_text().splitlines()
    assert len(rows) == 1 + 5  # header plus nodes 0, 0.25, ..., 1.0


def test_branch_two_covectors(tmp_path):
    code = run("branch", "--config", "affine_corner_pair", "--out", tmp_path,
               "--step", "0.005", "--quiet")
    assert code == 0
    assert (tmp_path / "affine_corner_pair_trajectory_a.csv").exists()
    assert (tmp_path / "affine_corner_pair_trajectory_b.csv").exists()
    report = read_json(tmp_path / "affine_corner_pair_branch.json")
    assert report["scenario"] == "affine_corner_pair"
    assert report["branched"] is True
    assert abs(report["coincidence_time"] - math.log(2.0)) < 5e-2
    assert report["witness_time"] > report["coincidence_time"]


def test_branch_against_subgroup(tmp_path):
    code = run("branch", "--config", "affine_corner_half", "--out", tmp_path,
               "--step", "0.005", "--quiet")
    assert code == 0
    report = read_json(tmp_path / "affine_corner_half_branch.json")
    assert report["branched"] is True
    assert abs(report["coincidence_time"] - math.log(2.0)) < 5e-2
    # The curve's cap exit is root-solved, so it is the exact branch point
    # whatever the grid; the subgroup has no regime events.
    [exit_event] = report["events_a"]
    assert abs(exit_event["t"] - math.log(2.0)) <= 1e-12
    assert report["events_b"] == []


def test_certify_full_pipeline(tmp_path):
    code = run("certify", "--config", "heisenberg_finsler_certify",
               "--out", tmp_path, "--quiet")
    assert code == 0
    cert = read_json(tmp_path / "heisenberg_finsler_certify_certificate.json")
    assert cert["verdict"] is True
    assert cert["kind"] == "face-stability"
    assert cert["window"] == pytest.approx(1.0, abs=1e-9)
    assert cert["delta"] == pytest.approx(2.0, abs=1e-9)
    assert cert["m"]["method"] == "closed-form"


def test_certify_abelianized_variant(tmp_path):
    code = run("certify", "--config", "heisenberg_carnot", "--out", tmp_path,
               "--quiet")
    assert code == 0
    cert = read_json(tmp_path / "heisenberg_carnot_certificate.json")
    assert cert["kind"] == "abelianized-minimality"
    assert cert["verdict"] is True
    assert cert["window"] == pytest.approx(0.625, abs=1e-9)


def test_certify_window_overrides_both_checks(tmp_path):
    # An explicit window replaces the derived one in the abelianized
    # check as in the plain one, so both find the same violations.
    base = asdict(load_scenario("heisenberg_carnot"))
    certs = {}
    for abelianized in (True, False):
        src = tmp_path / f"{abelianized}.json"
        src.write_text(json.dumps({**base, "window": 5.0,
                                   "abelianized": abelianized}))
        out = tmp_path / f"out_{abelianized}"
        assert run("certify", "--config", src, "--out", out, "--quiet") == 3
        certs[abelianized] = read_json(
            out / "heisenberg_carnot_certificate.json")
    cert, plain = certs[True], certs[False]
    assert cert["kind"] == "abelianized-minimality"
    assert cert["window"] == plain["window"] == 5.0
    assert cert["verdict"] is False
    assert len(plain["violations"]) == 2
    assert cert["violations"] == plain["violations"]


def test_shortcut_outputs(tmp_path):
    code = run("shortcut", "--config", "heisenberg_shortcut",
               "--out", tmp_path, "--quiet")
    assert code == 0
    summary = read_json(tmp_path / "heisenberg_shortcut_shortcut.json")
    assert summary["beta"] == pytest.approx(1.0, abs=1e-12)
    assert summary["length"] == pytest.approx(4.0, abs=1e-12)
    assert summary["endpoint_gap"] <= 1e-10
    csv = tmp_path / "heisenberg_shortcut_shortcut.csv"
    assert csv.read_text().splitlines()[0] == "t,x1,x2,x3"


def test_shortcut_csv_reads_back_bitwise(tmp_path):
    assert run("shortcut", "--config", "heisenberg_shortcut",
               "--out", tmp_path, "--quiet") == 0
    data = flow.read_trajectory_csv(tmp_path
                                    / "heisenberg_shortcut_shortcut.csv")
    path = certify.vertical_shortcut(load_scenario("heisenberg_shortcut").eps)
    columns = {"t": path.times, "x1": path.points[:, 0, 1],
               "x2": path.points[:, 1, 2], "x3": path.points[:, 0, 2]}
    assert list(data) == list(columns)
    for name, want in columns.items():
        assert data[name].tobytes() == want.tobytes()


@pytest.mark.parametrize("eps", [1e-12, 1e12])
def test_shortcut_far_from_unit_eps_exits_0(tmp_path, eps):
    src = tmp_path / "far.json"
    src.write_text(json.dumps({"name": "far", "group": "heisenberg",
                               "norm": {"family": "linf", "dim": 3},
                               "eps": eps}))
    assert run("shortcut", "--config", src, "--out", tmp_path,
               "--quiet") == 0
    summary = read_json(tmp_path / "far_shortcut.json")
    assert 0.0 < summary["length"] < eps
    assert summary["endpoint_gap"] <= 1e-9 * eps


def test_faces_outputs(tmp_path):
    code = run("faces", "--config", "hexagon_faces", "--out", tmp_path,
               "--quiet")
    assert code == 0
    payload = read_json(tmp_path / "hexagon_faces_faces.json")
    assert len(payload["faces"]) == 12
    dims = sorted(f["dim"] for f in payload["faces"])
    assert dims == [0] * 6 + [1] * 6
    assert payload["covering"]["delta"] == pytest.approx(1.0, abs=1e-9)


def test_every_subcommand_has_help():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    helps = {choice.dest: choice.help for choice in sub._choices_actions}
    assert set(helps) == set(cli._COMMANDS)
    for text in helps.values():
        assert isinstance(text, str) and text.strip()


# -- exit codes ------------------------------------------------------------------


def test_missing_config_exits_2(tmp_path, capsys):
    code = run("integrate", "--config", tmp_path / "nope.json",
               "--out", tmp_path)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    src = tmp_path / "broken.json"
    src.write_text("{not json")
    code = run("integrate", "--config", src, "--out", tmp_path)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_unknown_scenario_key_exits_2(tmp_path, capsys):
    src = tmp_path / "extra.json"
    src.write_text(json.dumps({
        "name": "x", "group": "translation2",
        "norm": {"family": "l1", "dim": 2}, "covector": [1, 0],
        "mystery": True}))
    code = run("integrate", "--config", src, "--out", tmp_path)
    assert code == 2
    assert "mystery" in capsys.readouterr().err


def test_bad_norm_family_exits_2(tmp_path, capsys):
    src = tmp_path / "norm.json"
    src.write_text(json.dumps({
        "name": "x", "group": "translation2",
        "norm": {"family": "octagonish", "dim": 2}, "covector": [1, 0]}))
    code = run("integrate", "--config", src, "--out", tmp_path)
    assert code == 2
    assert "bad norm spec" in capsys.readouterr().err


def test_branch_without_partner_exits_2(tmp_path, capsys):
    src = tmp_path / "lonely.json"
    src.write_text(json.dumps({
        "name": "lonely", "group": "translation2",
        "norm": {"family": "l1", "dim": 2}, "covector": [1.0, 0.25],
        "t_end": 0.5, "step": 0.1}))
    code = run("branch", "--config", src, "--out", tmp_path)
    assert code == 2
    assert "covector_b or reference_direction" in capsys.readouterr().err


def test_branch_partner_of_an_overflowing_curve_exits_2(tmp_path, capsys):
    # The first curve overflows at t = 0.71, so a run that integrated it
    # before reading the partner exited 3.
    src = tmp_path / "steep.json"
    src.write_text(json.dumps({
        "name": "steep", "group": "affine_line",
        "norm": {"family": "corner", "dim": 2}, "covector": [0.0, 1000.0],
        "covector_b": [1.0], "t_end": 1.0, "step": 0.01}))
    assert run("branch", "--config", src, "--out", tmp_path / "out") == 2
    assert "covector needs 2 coordinates" in capsys.readouterr().err


def test_degenerate_covector_exits_3(tmp_path, capsys):
    # Covector vanishing on the polarization: no admissible control.
    src = tmp_path / "degenerate.json"
    src.write_text(json.dumps({
        "name": "degenerate", "group": "heisenberg",
        "norm": {"family": "linf", "dim": 2}, "polarization": [0, 1],
        "covector": [0.0, 0.0, 1.0], "t_end": 1.0, "step": 0.01}))
    code = run("integrate", "--config", src, "--out", tmp_path)
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def _heisenberg_scenario(path, family, dim, covector, **extra):
    scenario = {"name": "overflow", "group": "heisenberg",
                "norm": {"family": family, "dim": dim},
                "covector": covector, "t_end": 0.1, "step": 0.01, **extra}
    if dim == 2:
        scenario["polarization"] = [0, 1]
    path.write_text(json.dumps(scenario))
    return path


@pytest.mark.parametrize("command, family, dim, covector", [
    # The dual point's velocity overflows at the first face choice.
    ("integrate", "linf", 3, [1e154, 1e154, 1e154]),
    # Switches 1.6e-17 apart exhaust the face switch budget.
    ("integrate", "l1", 2, [0.3, 0.5, 1e17]),
    # A switch root at t = 1.1e-308 stops the arc: the segment loop
    # used to repeat the same state forever.
    ("integrate", "l1", 2, [0.3, 0.5, 1e308]),
    ("certify", "l1", 2, [0.3, 0.5, 1e308]),
    # The smooth run used to exit 0 with NaN rows from t = 0.01 on.
    ("integrate", "euclidean", 2, [0.3, 0.5, 1e308]),
])
def test_overflowing_covector_exits_3_in_a_subprocess(tmp_path, command,
                                                      family, dim,
                                                      covector):
    # A subprocess with a timeout fails, rather than hangs, if a loop
    # stops advancing again.
    src = _heisenberg_scenario(tmp_path / "run.json", family, dim, covector)
    out = tmp_path / "out"
    package_root = Path(subfinsler.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-m", "subfinsler.cli", command, "--config",
         str(src), "--out", str(out)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 3
    assert "numerical failure:" in proc.stderr
    if covector == [0.3, 0.5, 1e17]:
        assert "exceeded face switch budget (1001 events)" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert list(out.iterdir()) == []


def test_numerical_failure_prints_one_line_in_a_subprocess(tmp_path):
    # numpy's own overflow warnings used to precede the failure line,
    # with the source paths of groups.py and numpy.linalg in them.
    steep = tmp_path / "steep.json"
    steep.write_text(json.dumps({
        "name": "steep", "group": "affine_line",
        "norm": {"family": "corner", "dim": 2}, "covector": [0.5, 1.0],
        "reference_direction": [0.0, 1000.0], "t_end": 1.0, "step": 0.01}))
    huge = _heisenberg_scenario(tmp_path / "huge.json", "euclidean", 3,
                                [0.3, 0.5, 1e308])
    package_root = Path(subfinsler.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    for command, src in (("branch", steep), ("integrate", huge)):
        proc = subprocess.run(
            [sys.executable, "-m", "subfinsler.cli", command, "--config",
             str(src), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure:")


@pytest.mark.parametrize("command, family, dim, covector", [
    ("certify", "linf", 3, [1e154, 1e154, 1e154]),
    ("branch", "linf", 3, [1e154, 1e154, 1e154]),
    # The velocity is finite but its support values overflow.
    ("integrate", "linf", 2, [1.0, 0.0, 1e308]),
    # The dual norm of the covector itself overflows.
    ("integrate", "linf", 2, [1e308, 1e308, 1.0]),
])
def test_overflowing_covector_exits_3(tmp_path, capsys, command, family,
                                      dim, covector):
    # A branch needs its partner curve before it integrates either one.
    partner = {"covector_b": covector} if command == "branch" else {}
    src = _heisenberg_scenario(tmp_path / "run.json", family, dim, covector,
                               **partner)
    assert run(command, "--config", src, "--out", tmp_path / "out") == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_overflowing_adjoint_bound_exits_3(tmp_path, capsys):
    # M(radius) = bracket * e^(radius * rate) overflows for this speed.
    src = tmp_path / "run.json"
    src.write_text(json.dumps({
        "name": "steep", "group": "affine_line",
        "norm": {"family": "linf", "dim": 2},
        "covector": [9.6e16, 1.3], "t_end": 0.1, "step": 0.01}))
    assert run("certify", "--config", src, "--out", tmp_path) == 3
    assert "numerical failure:" in capsys.readouterr().err


@pytest.mark.parametrize("command, scenario", [
    ("faces", "hexagon_faces"), ("certify", "heisenberg_carnot")])
def test_uncertified_covering_exits_3(tmp_path, capsys, monkeypatch,
                                      command, scenario):
    # A cap of 0 pivots fails every face distance LP, as the cap or a
    # singular basis would on a ball the simplex cannot solve.
    monkeypatch.setattr(polyhedra, "MAX_PIVOTS", 0)
    assert run(command, "--config", scenario, "--out", tmp_path) == 3
    assert ("numerical failure: face distance LP took over 0 pivots"
            in capsys.readouterr().err)


def test_overflowing_reference_subgroup_exits_3(tmp_path, capsys):
    # exp(t * (0, 1000)) on the affine line overflows its scale entry
    # from t = 0.71 on; the subgroup used to be written with inf rows.
    src = tmp_path / "run.json"
    src.write_text(json.dumps({
        "name": "steep", "group": "affine_line",
        "norm": {"family": "corner", "dim": 2}, "covector": [0.5, 1.0],
        "reference_direction": [0.0, 1000.0], "t_end": 1.0, "step": 0.01}))
    out = tmp_path / "out"
    assert run("branch", "--config", src, "--out", out) == 3
    assert ("numerical failure: chart point is not finite at t=0.71"
            in capsys.readouterr().err)
    assert list(out.iterdir()) == []


def test_certify_without_polytope_ball_exits_2(tmp_path, capsys):
    code = run("certify", "--config", "abelian_euclidean",
               "--out", tmp_path)
    assert code == 2
    assert "no polytope unit ball" in capsys.readouterr().err


def test_abelianized_certify_needs_invertible_dpi_exits_2(tmp_path,
                                                        capsys):
    # On the full polarization the abelianization's differential is
    # 2 x 3, which has no inverse.
    src = tmp_path / "full.json"
    src.write_text(json.dumps({
        "name": "full", "group": "heisenberg",
        "norm": {"family": "linf", "dim": 3}, "covector": [0.0, 0.0, 1.0],
        "t_end": 1.0, "step": 0.01, "abelianized": True}))
    code = run("certify", "--config", src, "--out", tmp_path)
    assert code == 2
    assert "not invertible" in capsys.readouterr().err


MALFORMED_NORMS = {
    # Not symmetric about the origin: a triangle with its facet functionals.
    "asymmetric": {"family": "polyhedral", "dim": 2, "params": {
        "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]],
        "functionals": [[1.0, 1.0], [-2.0, 1.0], [1.0, -2.0]]}},
    # A vertex with one coordinate missing.
    "ragged": {"family": "polyhedral", "dim": 2, "params": {
        "vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0], [0.0, -1.0]],
        "functionals": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0],
                        [1.0, -1.0]]}},
    # The square with the loose functionals +-(0.5, 0), which support no
    # vertex: every functional must be a facet of the ball.
    "loose_functional": {"family": "polyhedral", "dim": 2, "params": {
        "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]],
        "functionals": [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                        [0.5, 0.0], [-0.5, 0.0]]}},
    "null_dim": {"family": "l1", "dim": None},
    # A cube on three directions where the polarization has two.
    "wrong_dim": {"family": "linf", "dim": 3},
}


@pytest.mark.parametrize("command", ["faces", "integrate", "certify"])
@pytest.mark.parametrize("ball", sorted(MALFORMED_NORMS))
def test_malformed_polytope_ball_exits_2(tmp_path, capsys, command, ball):
    src = tmp_path / "ball.json"
    src.write_text(json.dumps({
        "name": "ball", "group": "heisenberg", "polarization": [0, 1],
        "norm": MALFORMED_NORMS[ball], "covector": [0.3, 0.5, 0.8],
        "t_end": 0.1, "step": 0.01}))
    code = run(command, "--config", src, "--out", tmp_path)
    assert code == 2
    assert "bad norm spec" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["faces", "integrate", "certify"])
def test_oversized_dim_exits_2_before_the_ball_is_built(tmp_path, capsys,
                                                        monkeypatch, command):
    # linf_ball(16) has 2**16 vertices: the dim must be checked against
    # the polarization before any ball is built.
    def refuse(*args, **kwargs):
        raise AssertionError("ball built before its dim was checked")

    monkeypatch.setattr(convex, "linf_ball", refuse)
    monkeypatch.setattr(convex, "l1_ball", refuse)
    monkeypatch.setattr(Polyhedron, "from_json_dict", refuse)
    square = {"vertices": [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]],
              "functionals": [[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0],
                              [1.0, -1.0]]}
    for norm in ({"family": "linf", "dim": 16}, {"family": "l1", "dim": 16},
                 {"family": "polyhedral", "dim": 16, "params": square}):
        src = tmp_path / "big.json"
        src.write_text(json.dumps({
            "name": "big", "group": "heisenberg", "polarization": [0, 1],
            "norm": norm, "covector": [0.3, 0.5, 0.8], "t_end": 0.1,
            "step": 0.01}))
        code = run(command, "--config", src, "--out", tmp_path)
        assert code == 2
        assert "does not match the 2 polarization" in capsys.readouterr().err


BAD_VALUES = {
    # case: (command, scenario keys replaced, extra arguments)
    "zero_step": ("integrate", {"step": 0}, []),
    "negative_step": ("integrate", {"step": -0.01}, []),
    "nan_step": ("integrate", {"step": math.nan}, []),
    "string_step": ("integrate", {"step": "a"}, []),
    "zero_step_flag": ("integrate", {}, ["--step", "0"]),
    "t_end_between_steps": ("integrate", {"t_end": 0.1, "step": 0.03}, []),
    "t_end_between_steps_flag": ("integrate", {}, ["--step", "0.03"]),
    "t_end_below_one_step": ("integrate", {"step": 0.3}, []),
    "string_seed": ("integrate", {"seed": "x"}, []),
    "bool_seed": ("integrate", {"seed": True}, []),
    "string_abelianized": ("certify", {"abelianized": "no"}, []),
    "negative_t_end": ("integrate", {"t_end": -1.0}, []),
    "nan_t_end": ("integrate", {"t_end": math.nan}, []),
    "infinite_t_end": ("integrate", {"t_end": math.inf}, []),
    "string_covector_entry": ("integrate", {"covector": [0.3, "a", 0.8]},
                              []),
    "nan_covector_entry": ("integrate", {"covector": [0.3, math.nan, 0.8]},
                           []),
    "string_covector_b_entry": ("branch", {"covector_b": [0.3, "a", 0.8]},
                                []),
    "short_covector_b": ("branch", {"covector_b": [0.3, -0.5]}, []),
    "long_covector_b": ("branch", {"covector_b": [0.3, -0.5, 0.8, 1.0]},
                        []),
    "branch_without_partner": ("branch", {}, []),
    "null_reference_direction_entry": (
        "branch", {"reference_direction": [1.0, None]}, []),
    "short_reference_direction": (
        "branch", {"reference_direction": [1.0]}, []),
    "empty_reference_direction": ("branch", {"reference_direction": []}, []),
    "long_reference_direction": (
        "branch", {"reference_direction": [1.0, 0.0, 0.0]}, []),
    "covector_b_and_reference_direction": (
        "branch", {"covector_b": [0.3, -0.5, 0.8],
                   "reference_direction": [1.0, 0.0]}, []),
    "polarization_out_of_range": ("integrate", {"polarization": [0, 7]}, []),
    "repeated_polarization": ("integrate", {"polarization": [0, 0]}, []),
    "unknown_rule": ("integrate", {"rule": "sideways"}, []),
    # persistent is the only selection rule; the key is a label.
    "barycenter_rule": ("integrate", {"rule": "barycenter"}, []),
    "min_vertex_rule": ("integrate", {"rule": "min_vertex"}, []),
    "negative_window": ("certify", {"window": -1.0}, []),
    "zero_window": ("certify", {"window": 0.0}, []),
    "negative_eps": ("shortcut", {"eps": -1.0}, []),
    # The shortcut is the heisenberg path under linf on (0, 1, 2).
    "shortcut_unknown_group": ("shortcut", {
        "eps": 5.0, "group": "nosuchgroup", "polarization": None,
        "norm": {"family": "linf", "dim": 3}}, []),
    "shortcut_unknown_norm_family": ("shortcut", {
        "eps": 5.0, "polarization": None,
        "norm": {"family": "bogus", "dim": 7}}, []),
    "shortcut_linf_on_two_directions": ("shortcut", {"eps": 5.0}, []),
    "name_with_separator": ("integrate", {"name": "sub/bad"}, []),
    "list_group": ("integrate", {"group": []}, []),
    "object_group": ("integrate", {"group": {}}, []),
    # The norm spec is read once, by convex.norm_from_json.
    "fractional_norm_dim": ("integrate",
                            {"norm": {"family": "linf", "dim": 2.5}}, []),
    "string_norm_dim": ("integrate",
                        {"norm": {"family": "linf", "dim": "2"}}, []),
    "linf_with_params": ("integrate", {"norm": {
        "family": "linf", "dim": 2, "params": {"sides": 4}}}, []),
    "polyhedral_extra_param": ("integrate", {"norm": {
        "family": "polyhedral", "dim": 2, "params": {
            **linf_ball(2).to_json_dict(), "phase": 0.0}}}, []),
    "empty_polyhedral_vertices": ("integrate", {"norm": {
        "family": "polyhedral", "dim": 2, "params": {
            "vertices": [],
            "functionals": linf_ball(2).to_json_dict()["functionals"]}}},
        []),
    "nan_polyhedral_vertex": ("integrate", {"norm": {
        "family": "polyhedral", "dim": 2, "params": {
            "vertices": [[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0],
                         [-1.0, math.nan]],
            "functionals": linf_ball(2).to_json_dict()["functionals"]}}},
        []),
    # A norm of dim 0: the message must name the polarization.
    "empty_polarization": ("integrate", {
        "polarization": [], "norm": {"family": "euclidean", "dim": 0}}, []),
    # Grids numpy cannot index or refuses to allocate on size; none is
    # allocated.  At 2e18 nodes the times alone are too big, at 5e17
    # only the 3 x 3 chart points are.
    "unindexable_horizon": ("integrate", {"t_end": 1e20, "step": 1}, []),
    "unindexable_step": ("integrate", {"t_end": 3, "step": 1e-300}, []),
    "unallocatable_grid": ("integrate", {"t_end": 2e18, "step": 1}, []),
    "unallocatable_chart_points": ("integrate",
                                   {"t_end": 5e17, "step": 1}, []),
}


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_scenario_values_exit_2(tmp_path, capsys, monkeypatch, case):
    # Every bad value is reported before any curve is integrated.
    def refuse(*args, **kwargs):
        raise AssertionError("integrated before the inputs were checked")

    monkeypatch.setattr(cli.flow, "integrate", refuse)
    monkeypatch.setattr(cli.flow, "subgroup_trajectory", refuse)
    command, changes, extra = BAD_VALUES[case]
    scenario = {"name": "bad", "group": "heisenberg", "polarization": [0, 1],
                "norm": {"family": "linf", "dim": 2},
                "covector": [0.3, 0.5, 0.8], "t_end": 0.1, "step": 0.01,
                **changes}
    src = tmp_path / "bad.json"
    src.write_text(json.dumps(scenario))
    code = run(command, "--config", src, "--out", tmp_path / "out", *extra)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_empty_polarization_is_named(tmp_path, capsys):
    # Checked with the scenario values, before the dim 0 norm is read.
    src = tmp_path / "empty.json"
    src.write_text(json.dumps({
        "name": "empty", "group": "heisenberg", "polarization": [],
        "norm": {"family": "euclidean", "dim": 0},
        "covector": [0.3, 0.5, 0.8]}))
    assert run("integrate", "--config", src, "--out", tmp_path) == 2
    assert ("polarization must be a non-empty list"
            in capsys.readouterr().err)


def test_wrong_covector_length_exits_2(tmp_path, capsys):
    src = tmp_path / "short.json"
    src.write_text(json.dumps({
        "name": "short", "group": "heisenberg",
        "norm": {"family": "linf", "dim": 3}, "covector": [1.0, 2.0]}))
    code = run("integrate", "--config", src, "--out", tmp_path)
    assert code == 2
    assert "3 coordinates" in capsys.readouterr().err


# -- determinism ------------------------------------------------------------------


def test_rerun_is_byte_identical(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    for where in (dir_a, dir_b):
        assert run("integrate", "--config", "heisenberg_vertical",
                   "--out", where, "--quiet") == 0
    for fname in ("heisenberg_vertical_trajectory.csv",
                  "heisenberg_vertical_meta.json"):
        assert (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes()


# -- imports ---------------------------------------------------------------------

# Imports the package, runs each command in turn and prints the exit
# code and the scipy modules loaded so far.
COLD_RUNS = """
import json, sys
import subfinsler
from subfinsler import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

print(json.dumps(["import", 0, scipy_modules()]))
for command, scenario in json.loads(sys.argv[2]):
    code = cli.main([command, "--config", scenario, "--out", sys.argv[1],
                     "--quiet"])
    print(json.dumps([command + " " + scenario, code, scipy_modules()]))
"""

NUMPY_ONLY_RUNS = [("integrate", "heisenberg_vertical"),
                   ("branch", "affine_corner_pair"),
                   ("branch", "heisenberg_rootsum_pair"),
                   ("shortcut", "heisenberg_shortcut"),
                   ("faces", "hexagon_faces"),
                   ("certify", "heisenberg_finsler_certify"),
                   ("certify", "heisenberg_carnot")]


def test_curve_commands_load_no_scipy_in_a_subprocess(tmp_path):
    package_root = Path(subfinsler.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUNS, str(tmp_path),
         json.dumps(NUMPY_ONLY_RUNS)],
        capture_output=True, text=True, timeout=120, env=env, check=True)
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [name for name, _, _ in lines] == (
        ["import"] + [f"{c} {s}" for c, s in NUMPY_ONLY_RUNS])
    for name, code, loaded in lines:
        assert (name, code, loaded) == (name, 0, [])
