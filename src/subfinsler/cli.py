"""Command line front end driving scenario files.

Subcommands::

    integrate   one normal curve -> trajectory CSV + metadata JSON
    branch      two curves (or curve vs subgroup) -> branch report
    certify     trajectory + windowed face stability certificate
    shortcut    the Heisenberg vertical shortcut -> CSV + summary
    faces       face lattice and star covering of a polytope ball

All subcommands read one JSON scenario (see :class:`ScenarioConfig`),
write into ``--out`` and exit with 0 on success, 2 on configuration
errors, and 3 on numerical failures.  Outputs are deterministic: the
same scenario and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from . import certify, convex, flow, groups
from .polyhedra import Polyhedron

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


class ScenarioError(ValueError):
    """Configuration file missing, malformed, or semantically invalid."""


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _is_positive(value) -> bool:
    return _is_finite(value) and value > 0


def _is_index_list(value) -> bool:
    return (isinstance(value, list)
            and all(isinstance(i, int) and not isinstance(i, bool)
                    for i in value)
            and 0 < len(set(value)) == len(value))


def _is_finite_list(value) -> bool:
    return isinstance(value, list) and all(map(_is_finite, value))


def _or_null(check):
    return lambda value: value is None or check(value)


# Scenario key -> (check, what the check asks for).  The polarization
# indices are checked against the group in ScenarioConfig.pol.
_VALUE_CHECKS = {
    "name": (lambda v: isinstance(v, str) and Path(v).name == v,
             "a string with no path separator"),
    "group": (lambda v: isinstance(v, str), "a string"),
    "step": (_is_positive, "positive and finite"),
    "t_end": (_is_positive, "positive and finite"),
    "window": (_or_null(_is_positive), "null or positive and finite"),
    "eps": (_or_null(_is_positive), "null or positive and finite"),
    "rule": (lambda v: v == "persistent", "'persistent'"),
    "covector": (_or_null(_is_finite_list), "a list of finite numbers"),
    "covector_b": (_or_null(_is_finite_list), "a list of finite numbers"),
    "reference_direction": (_or_null(_is_finite_list),
                            "a list of finite numbers"),
    "polarization": (_or_null(_is_index_list),
                     "a non-empty list of distinct integers"),
    "seed": (lambda v: isinstance(v, int) and not isinstance(v, bool),
             "an integer"),
    "abelianized": (lambda v: isinstance(v, bool), "true or false"),
}


@dataclass
class ScenarioConfig:
    """One run: group, norm, covector(s), horizon, step, rule, seed;
    construction checks the values in ``_VALUE_CHECKS`` and that
    ``t_end`` is a whole number of steps (exit 2).  ``rule`` (only
    ``"persistent"``) and ``seed`` are labels; neither affects any
    number, and ``seed`` is written into the ``integrate`` metadata."""

    name: str
    group: str
    norm: dict
    covector: list[float] = field(default_factory=list)
    covector_b: list[float] | None = None
    reference_direction: list[float] | None = None
    polarization: list[int] | None = None
    t_end: float = 1.0
    step: float = 1e-3
    rule: str = "persistent"
    seed: int = 0
    eps: float | None = None
    window: float | None = None
    abelianized: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown scenario keys: {sorted(unknown)}")
        for key in ("name", "group", "norm"):
            if key not in data:
                raise ScenarioError(f"scenario is missing {key!r}")
        try:
            return cls(**data)
        except TypeError as exc:
            raise ScenarioError(str(exc)) from exc

    def __post_init__(self) -> None:
        for key, (check, wanted) in _VALUE_CHECKS.items():
            value = getattr(self, key)
            if not check(value):
                raise ScenarioError(f"{key} must be {wanted}, got {value!r}")
        try:
            flow.whole_steps(self.t_end, self.step)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc

    def build_group(self) -> groups.GroupSpec:
        """The scenario's group, checked to hold the grid's chart points."""
        try:
            spec = groups.group_by_name(self.group)
            flow.whole_steps(self.t_end, self.step, spec.matrix_size)
        except (groups.GroupChartError, ValueError) as exc:
            raise ScenarioError(str(exc)) from exc
        return spec

    def build_norm(self, dim: int | None = None) -> convex.Norm:
        """The scenario's norm, on ``dim`` directions if one is given."""
        # ValueError covers NormError, PolyhedronError and ragged arrays;
        # TypeError covers fields of the wrong type, such as a list family.
        try:
            return convex.norm_from_json(self.norm, dim)
        except (KeyError, ValueError, TypeError) as exc:
            raise ScenarioError(f"bad norm spec: {exc}") from exc

    def build_norm_on(self, spec: groups.GroupSpec) -> convex.Norm:
        """:meth:`build_norm` on the polarization's directions."""
        return self.build_norm(len(self.pol(spec)))

    def pol(self, spec: groups.GroupSpec) -> tuple[int, ...]:
        if self.polarization is None:
            return spec.polarization
        if not all(0 <= i < spec.dim for i in self.polarization):
            raise ScenarioError(f"polarization indices must lie in "
                                f"range({spec.dim}), got "
                                f"{self.polarization!r}")
        return tuple(self.polarization)


def load_scenario(path: str) -> ScenarioConfig:
    """Load a scenario file; bare names fall back to the bundled set."""
    candidate = Path(path)
    if not candidate.exists() and not candidate.suffix:
        bundled = resources.files("subfinsler") / "scenarios" / f"{path}.json"
        if bundled.is_file():
            candidate = bundled
    try:
        text = Path(candidate).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return ScenarioConfig.from_dict(data)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _polytope_ball(norm: convex.Norm) -> Polyhedron:
    try:
        return convex.as_polyhedron(norm)
    except convex.NormError as exc:
        raise ScenarioError(str(exc)) from exc


def _covector(spec: groups.GroupSpec, values: list[float] | None
              ) -> np.ndarray:
    """The covector ``values`` as an array, checked against the group."""
    if values is None:
        raise ScenarioError("scenario does not define the needed covector")
    lam = np.asarray(values, dtype=float)
    if lam.shape != (spec.dim,):
        raise ScenarioError(
            f"covector needs {spec.dim} coordinates, got {lam.shape}")
    return lam


def _curve(cfg: ScenarioConfig, spec: groups.GroupSpec, norm: convex.Norm,
           values: list[float] | None) -> flow.Trajectory:
    """The scenario's normal curve for the covector ``values``."""
    lam = _covector(spec, values)
    return flow.integrate(spec, norm, lam, cfg.t_end, cfg.step,
                          polarization=cfg.pol(spec))


# ---------------------------------------------------------------------------
# Subcommand bodies


def _cmd_integrate(cfg: ScenarioConfig, out: Path, quiet: bool) -> None:
    """One normal curve -> trajectory CSV + metadata JSON."""
    spec = cfg.build_group()
    norm = cfg.build_norm_on(spec)
    traj = _curve(cfg, spec, norm, cfg.covector)
    flow.write_trajectory_csv(traj, out / f"{cfg.name}_trajectory.csv")
    meta = traj.meta_dict()
    meta["speed_check"] = flow.check_constant_speed(traj)
    meta["seed"] = cfg.seed
    _write_json(out / f"{cfg.name}_meta.json", meta)
    if not quiet:
        print(f"{cfg.name}: integrated to t={cfg.t_end} with "
              f"{len(traj.events)} events, speed {traj.speed:.6g}")


def _cmd_branch(cfg: ScenarioConfig, out: Path, quiet: bool) -> None:
    """Two curves (or curve vs subgroup) -> branch report."""
    spec = cfg.build_group()
    norm = cfg.build_norm_on(spec)
    if cfg.covector_b is not None and cfg.reference_direction is not None:
        raise ScenarioError("branch takes covector_b or "
                            "reference_direction, not both")
    pol = cfg.pol(spec)
    direction = cfg.reference_direction
    if direction is not None and len(direction) != len(pol):
        raise ScenarioError(f"reference_direction needs {len(pol)} "
                            f"coordinates, got {len(direction)}")
    # Both curves' inputs are checked before either is integrated.
    _covector(spec, cfg.covector)
    if cfg.covector_b is not None:
        _covector(spec, cfg.covector_b)
    elif direction is None:
        raise ScenarioError("branch needs covector_b or reference_direction")
    first = _curve(cfg, spec, norm, cfg.covector)
    if cfg.covector_b is not None:
        second = _curve(cfg, spec, norm, cfg.covector_b)
    else:
        second = flow.subgroup_trajectory(
            spec, norm, first.lam, np.asarray(direction, dtype=float),
            cfg.t_end, cfg.step, polarization=pol)
    report = flow.detect_branching(first, second)
    flow.write_trajectory_csv(first, out / f"{cfg.name}_trajectory_a.csv",
                              (second, out / f"{cfg.name}_trajectory_b.csv"))
    payload = report.to_json_dict()
    payload["scenario"] = cfg.name
    # The exact regime events beside the grid-bound coincidence time.
    payload["events_a"] = [e.to_json_dict() for e in first.events]
    payload["events_b"] = [e.to_json_dict() for e in second.events]
    _write_json(out / f"{cfg.name}_branch.json", payload)
    if not quiet:
        state = ("split at t=%.6g" % report.witness_time
                 if report.branched else "no split")
        print(f"{cfg.name}: coincide to t={report.coincidence_time:.6g}, "
              f"{state}")


def _cmd_certify(cfg: ScenarioConfig, out: Path, quiet: bool) -> None:
    """Trajectory + windowed face stability certificate."""
    spec = cfg.build_group()
    norm = cfg.build_norm_on(spec)
    _polytope_ball(norm)
    if cfg.abelianized and spec.name != "heisenberg":
        raise ScenarioError("abelianized check is defined for the "
                            "heisenberg scenarios")
    traj = _curve(cfg, spec, norm, cfg.covector)
    if cfg.abelianized:
        try:
            cert = certify.abelianized_minimality(
                groups.heisenberg_abelianization(), traj, window=cfg.window)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from exc
    else:
        cert = certify.certify_trajectory(traj, window=cfg.window)
    flow.write_trajectory_csv(traj, out / f"{cfg.name}_trajectory.csv")
    payload = cert.to_json_dict()
    payload["scenario"] = cfg.name
    _write_json(out / f"{cfg.name}_certificate.json", payload)
    if not quiet:
        print(f"{cfg.name}: verdict={'pass' if cert.verdict else 'FAIL'} "
              f"window={cert.window:.6g} delta={cert.delta:.6g}")
    if not cert.verdict:
        raise flow.FlowError("face stability violated; see certificate")


def _cmd_shortcut(cfg: ScenarioConfig, out: Path, quiet: bool) -> None:
    """The Heisenberg vertical shortcut -> CSV + summary."""
    if cfg.eps is None:
        raise ScenarioError("shortcut scenario needs eps")
    spec = cfg.build_group()
    family, pol = cfg.build_norm_on(spec).family, cfg.pol(spec)
    if (spec.name, family, pol) != ("heisenberg", "linf", (0, 1, 2)):
        raise ScenarioError(f"shortcut runs on heisenberg under linf on "
                            f"(0, 1, 2), got {spec.name} under {family} "
                            f"on {pol}")
    path = certify.vertical_shortcut(cfg.eps)
    payload = path.to_json_dict()
    payload["scenario"] = cfg.name
    _write_json(out / f"{cfg.name}_shortcut.json", payload)
    table = np.column_stack([path.times, path.points[:, 0, 1],
                             path.points[:, 1, 2], path.points[:, 0, 2]])
    flow.write_csv(out / f"{cfg.name}_shortcut.csv", ["t", "x1", "x2", "x3"],
                   flow.format_floats(table)[0])
    # The endpoint's central entry is about eps, so the gap is relative.
    if path.endpoint_gap > 1e-9 * cfg.eps:
        raise flow.FlowError("shortcut endpoint missed the target")
    if not quiet:
        print(f"{cfg.name}: beta={path.beta!r} length={path.length!r} "
              f"vs direct {cfg.eps!r}")


def _cmd_faces(cfg: ScenarioConfig, out: Path, quiet: bool) -> None:
    """Face lattice and star covering of a polytope ball."""
    ball = _polytope_ball(cfg.build_norm_on(cfg.build_group()))
    covering = ball.star_covering()
    payload = {
        "scenario": cfg.name,
        "ball": ball.to_json_dict(),
        "faces": [{
            "fid": f.fid,
            "dim": f.dim,
            "vertex_ids": [int(i) for i in f.vertex_ids],
            "witness": [float(x) for x in f.witness],
        } for f in ball.faces()],
        "covering": covering.to_json_dict(),
    }
    _write_json(out / f"{cfg.name}_faces.json", payload)
    if not quiet:
        print(f"{cfg.name}: {len(ball.faces())} faces, "
              f"delta={covering.delta!r}")


_COMMANDS = {
    "integrate": _cmd_integrate,
    "branch": _cmd_branch,
    "certify": _cmd_certify,
    "shortcut": _cmd_shortcut,
    "faces": _cmd_faces,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the command line, built once per process."""
    parser = argparse.ArgumentParser(
        prog="subfinsler",
        description="Normal curves and face stability on sub-Finsler "
                    "Lie groups.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        cmd = sub.add_parser(name, help=fn.__doc__)
        cmd.add_argument("--config", required=True,
                         help="scenario JSON path or bundled scenario name")
        cmd.add_argument("--out", default=".",
                         help="output directory (created if missing)")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the scenario seed")
        cmd.add_argument("--step", type=float, default=None,
                         help="override the scenario step size")
        cmd.add_argument("--quiet", action="store_true",
                         help="suppress progress output")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_scenario(args.config)
        overrides = {key: getattr(args, key) for key in ("seed", "step")
                     if getattr(args, key) is not None}
        if overrides:
            # replace() runs the value checks again on the overrides.
            cfg = replace(cfg, **overrides)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    except (ScenarioError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        # The explicit finite checks judge an overflow, so numpy's own
        # warnings would only repeat it on stderr.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _COMMANDS[args.command](cfg, out, args.quiet)
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (flow.FlowError, convex.NormError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
