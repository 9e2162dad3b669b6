"""Scenario generators and output checks for the three workloads.

A workload turns ``(seed, job index)`` into one CLI job: a subcommand and
a scenario dict.  The program sees only the scenario JSON written from
that dict.  Every job of a workload is kept whatever its outcome; a job
whose outputs fail a check counts as failed.

Each workload rotates over a few families so that one run covers the
input properties its layers depend on; the family of job ``i`` is
``families[i % len(families)]``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

import reference

# Per-workload step and horizon.  Runs of one workload differ only in
# the generated geometry, never in these.
BRANCH_STEP, BRANCH_HORIZON = 1e-3, 0.5
EVENTS_STEP, EVENTS_HORIZON = 1e-2, 6.0
CERTIFY_STEP, CERTIFY_HORIZON = 1e-2, 2.0
# polyhedral_events shares one polygon ball per vertex count among all
# jobs of a run.  Fixed counts keep the work per run the same across
# seeds while the shapes change.
EVENTS_POOL_VERTICES = (4, 6, 8, 12, 16)
# Delta is pinned to this accuracy by the repository's own tests.
DELTA_TOL = 1e-9


@dataclass
class Job:
    index: int
    family: str
    command: str
    scenario: dict
    # Oracle inputs that are not part of the scenario.
    expect: dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.scenario["name"]


@dataclass
class Outcome:
    """What the checks found for one job."""

    ok: bool
    reason: str = ""
    oracle_err: float | None = None
    oracle_switches: int = 0
    m_method: str | None = None


def _rng(workload: str, seed: int, *keys: int) -> np.random.Generator:
    tag = int.from_bytes(workload.encode()[:8], "little")
    return np.random.default_rng([tag, seed, *keys])


# ---------------------------------------------------------------------------
# Ball generators


def _ball(vertices: np.ndarray, functionals: np.ndarray) -> dict:
    return {"vertices": vertices.tolist(), "functionals": functionals.tolist()}


def symmetric_polygon(rng: np.random.Generator, pairs: int) -> dict:
    """A symmetric polygon with ``2 * pairs`` vertices in angular order.

    The vertices sit on a random ellipse, so they are always in convex
    position; angles are jittered by at most 30% of their spacing.
    """
    spacing = math.pi / pairs
    theta = (rng.uniform(0.0, 2.0 * math.pi)
             + spacing * (np.arange(pairs) + rng.uniform(-0.3, 0.3, pairs)))
    half = np.column_stack([np.cos(theta),
                            rng.uniform(0.6, 1.0) * np.sin(theta)])
    turn = rng.uniform(0.0, math.pi)
    rot = np.array([[math.cos(turn), -math.sin(turn)],
                    [math.sin(turn), math.cos(turn)]])
    verts = np.vstack([half, -half]) @ rot.T
    # The edge from vertex i to vertex i+1 carries the functional f with
    # f . v_i = f . v_{i+1} = 1.
    fns = np.array([np.linalg.solve(np.array([verts[i],
                                              verts[(i + 1) % len(verts)]]),
                                    np.ones(2))
                    for i in range(len(verts))])
    return _ball(verts, fns)


def _random_linear_map(rng: np.random.Generator) -> np.ndarray:
    # A mild skew: every ball is distinct, while the cube jobs that hold
    # polytope_certify's median and tail take much the same time (their
    # spread of times is about a third of that under a skew of 0.25).
    while True:
        mat = np.eye(3) + 0.1 * rng.standard_normal((3, 3))
        if np.linalg.cond(mat) < 4.0:
            return mat


def _linear_image(rng, vertices: np.ndarray, functionals: np.ndarray
                  ) -> dict:
    mat = _random_linear_map(rng)
    return _ball(vertices @ mat.T, functionals @ np.linalg.inv(mat))


_CORNERS3 = np.array([[x, y, z] for x in (-1.0, 1.0) for y in (-1.0, 1.0)
                      for z in (-1.0, 1.0)])
_AXES3 = np.vstack([np.eye(3), -np.eye(3)])
# (vertices, functionals) of the unit cube and cross-polytope.
UNIT_BALLS3 = {"cube": (_CORNERS3, _AXES3), "cross": (_AXES3, _CORNERS3)}


def skewed_cube(rng) -> dict:
    return _linear_image(rng, *UNIT_BALLS3["cube"])


def skewed_cross(rng) -> dict:
    return _linear_image(rng, *UNIT_BALLS3["cross"])


@functools.cache
def unit_delta(shape: str) -> float:
    """Exhaustive-LP ``delta`` of a unit ball in ``UNIT_BALLS3``.

    A linear map of the ball maps the dual faces and the dual gauge along
    with it, so ``delta`` is the same for every linear image: each skewed
    cube or cross-polytope has the delta of the unit one.
    """
    return reference.exhaustive_delta(*UNIT_BALLS3[shape])


def random_ball3(rng, pairs: int = 4) -> dict:
    """conv of ``pairs`` random point pairs +-p on a random ellipsoid.

    Points on an ellipsoid are in convex position, so every pair is a
    vertex pair and the face count varies less than for free points.
    """
    sphere = rng.standard_normal((pairs, 3))
    sphere /= np.linalg.norm(sphere, axis=1, keepdims=True)
    half = sphere @ rng.standard_normal((3, 3)).T
    hull = ConvexHull(np.vstack([half, -half]))
    verts = hull.points[hull.vertices]
    fns = -hull.equations[:, :3] / hull.equations[:, 3:]
    _, keep = np.unique(np.round(fns, 9), axis=0, return_index=True)
    return _ball(verts, fns[np.sort(keep)])


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    name = ""
    command = ""
    families: tuple[str, ...] = ()
    # The kernel in ``worker.REFERENCE_KERNELS`` whose work is most like
    # this workload's.
    reference_kernel = "interpreter"

    def job(self, seed: int, index: int) -> Job:
        family = self.families[index % len(self.families)]
        scenario, expect = self.make(family, _rng(self.name, seed, 0, index),
                                     seed)
        scenario = {"name": f"{self.name}_{index:05d}", "seed": seed,
                    **scenario}
        return Job(index, family, self.command, scenario, expect)

    def make(self, family: str, rng: np.random.Generator, seed: int
             ) -> tuple[dict, dict]:
        raise NotImplementedError

    def artifacts(self, name: str) -> list[str]:
        raise NotImplementedError

    def check(self, job: Job, out: Path) -> Outcome:
        """Check one job's artifacts; a missing artifact fails the job."""
        for fname in self.artifacts(job.name):
            if not (out / fname).is_file():
                return Outcome(False, f"missing artifact {fname}")
        return self.check_outputs(job, out)

    def check_outputs(self, job: Job, out: Path) -> Outcome:
        raise NotImplementedError


class SmoothBranch(Workload):
    """``branch`` on smooth and corner norms: RK4 work, no LPs."""

    name = "smooth_branch"
    command = "branch"
    # Two slots each for the middle and the slowest family: the median job
    # falls inside the rotation jobs and, from 30 jobs on, the eleventh
    # slowest inside the root_sum jobs, never on a boundary between two.
    families = ("affine_corner", "rotation_axis_corner", "heisenberg_root_sum",
                "rotation_axis_corner", "heisenberg_root_sum")

    def make(self, family, rng, seed):
        common = {"t_end": BRANCH_HORIZON, "step": BRANCH_STEP}
        if family == "affine_corner":
            # ln(1/a) from 0.1 to 0.43 keeps the switch inside the horizon.
            a = float(rng.uniform(0.65, 0.9))
            return ({"group": "affine_line",
                     "norm": {"family": "corner", "dim": 2},
                     "covector": [a, 1.0], "reference_direction": [0.0, 1.0],
                     **common},
                    {"switch_time": reference.corner_exit_time([a, 1.0])})
        if family == "rotation_axis_corner":
            p, q, p2, q2 = rng.uniform(-0.35, 0.35, 4).tolist()
            return ({"group": "rotation",
                     "norm": {"family": "axis_corner", "dim": 3},
                     "covector": [1.0, p, q], "covector_b": [1.0, p2, q2],
                     **common}, {})
        c = float(rng.uniform(1.6, 2.4))
        p, q = rng.uniform(0.1, 0.5, 2).tolist()
        return ({"group": "heisenberg", "norm": {"family": "root_sum", "dim": 3},
                 "covector": [c, p, q], "covector_b": [c, 0.0, 0.0],
                 **common}, {})

    def artifacts(self, name):
        return [f"{name}_trajectory_a.csv", f"{name}_trajectory_b.csv",
                f"{name}_branch.json"]

    def check_outputs(self, job, out):
        report = json.loads((out / f"{job.name}_branch.json").read_text())
        got = float(report["coincidence_time"])
        # The report must follow from the two written trajectories:
        # coincidence is the last grid time before the chart gap first
        # exceeds the agreement tolerance.
        a = _read_csv(out / f"{job.name}_trajectory_a.csv")
        b = _read_csv(out / f"{job.name}_trajectory_b.csv")
        gaps = np.linalg.norm(a["g"] - b["g"], axis=1)
        beyond = np.nonzero(gaps > float(report["agree_tol"]))[0]
        expected = (a["t"][-1] if len(beyond) == 0
                    else a["t"][max(beyond[0] - 1, 0)])
        if abs(got - expected) > 0.5 * BRANCH_STEP:
            return Outcome(False, f"coincidence {got!r} does not match the "
                                  f"trajectories ({expected!r})")
        if "switch_time" not in job.expect:
            return Outcome(True)
        # The coincidence time is a grid time, so it may sit one step on
        # either side of the switch; the agreement tolerance adds less
        # than another step at this step size.
        err = abs(got - job.expect["switch_time"])
        if err > 2.0 * BRANCH_STEP:
            return Outcome(False, f"coincidence {got!r} misses ln(1/a) by "
                                  f"{err:.3g}", err, 1)
        return Outcome(True, oracle_err=err, oracle_switches=1)


class PolyhedralEvents(Workload):
    """``integrate`` on Heisenberg polygon balls: event location work."""

    name = "polyhedral_events"
    command = "integrate"
    families = tuple(f"polygon_{n}" for n in EVENTS_POOL_VERTICES)

    def __init__(self):
        self._pools: dict[int, dict[str, dict]] = {}

    def _pool(self, seed: int) -> dict[str, dict]:
        if seed not in self._pools:
            rng = _rng(self.name, seed, 1)
            self._pools[seed] = {
                family: symmetric_polygon(rng, n // 2)
                for family, n in zip(self.families, EVENTS_POOL_VERTICES)}
        return self._pools[seed]

    def make(self, family, rng, seed):
        ball = self._pool(seed)[family]
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.5, 1.5)
        # |lam3| from 3 to 5 makes the dual point lap the polygon three to
        # five times over the horizon.
        lam3 = float(rng.choice([-1.0, 1.0]) * rng.uniform(3.0, 5.0))
        covector = [radius * math.cos(angle), radius * math.sin(angle), lam3]
        scenario = {"group": "heisenberg",
                    "norm": {"family": "polyhedral", "dim": 2, "params": ball},
                    "polarization": [0, 1], "covector": covector,
                    "t_end": EVENTS_HORIZON, "step": EVENTS_STEP,
                    "rule": "persistent"}
        return scenario, {}

    def artifacts(self, name):
        return [f"{name}_trajectory.csv", f"{name}_meta.json"]

    def check_outputs(self, job, out):
        meta = json.loads((out / f"{job.name}_meta.json").read_text())
        if not meta["speed_check"]["ok"]:
            return Outcome(False, "speed check failed")
        vertices = job.scenario["norm"]["params"]["vertices"]
        return match_switches(meta["events"], vertices,
                              job.scenario["covector"], EVENTS_HORIZON,
                              EVENTS_STEP)


def program_switches(events: list[dict], n_vertices: int
                     ) -> list[tuple[float, int, int]]:
    """Vertex-to-vertex switches in a recorded event list.

    Face ids are ordered by (dimension, vertex ids), so the vertex faces
    of a polygon are ids ``0 .. n-1`` and equal the vertex index.  A pass
    through an edge (vertex -> edge -> vertex) is one switch, timed at
    the event that left the first vertex; a return to the same vertex is
    no switch.
    """
    switches = []
    current, left_at = None, None
    for event in events:
        src, dst = int(event["from_face"]), int(event["to_face"])
        if src < n_vertices:
            current = src if current is None else current
            left_at = float(event["t"])
        if dst < n_vertices and dst != current:
            switches.append((left_at, current, dst))
            current = dst
    return switches


def match_switches(events, vertices, covector, t_end: float, tol: float
                   ) -> Outcome:
    """Compare recorded switches with the isoperimetrix oracle.

    Oracle switches up to ``t_end - tol`` must all be recorded, in order,
    between the same vertices, each within ``tol``; switches in the last
    ``tol`` of the horizon may be recorded or not.
    """
    exact = reference.isoperimetrix_switches(vertices, covector, t_end + tol)
    got = program_switches(events, len(vertices))
    required = sum(1 for t, _, _ in exact if t <= t_end - tol)
    if not required <= len(got) <= len(exact):
        return Outcome(False, f"{len(got)} switches recorded, oracle has "
                              f"{required} to {len(exact)}")
    err = 0.0
    for (t_got, a_got, b_got), (t_ref, a_ref, b_ref) in zip(got, exact):
        if (a_got, b_got) != (a_ref, b_ref):
            return Outcome(False, f"switch at t={t_ref:.6g} goes "
                                  f"{a_got}->{b_got}, oracle {a_ref}->{b_ref}")
        err = max(err, abs(t_got - t_ref))
    if err > tol:
        return Outcome(False, f"switch time off by {err:.3g}", err, len(got))
    return Outcome(True, oracle_err=err, oracle_switches=len(got))


class PolytopeCertify(Workload):
    """``certify`` on distinct small balls: LP and window-scan work."""

    name = "polytope_certify"
    command = "certify"
    reference_kernel = "lp"
    # Skewed cubes fill three slots of nine: their jobs all solve the
    # same number of LPs, so the median job lands inside one homogeneous
    # family instead of between two.
    families = ("heisenberg_polygon", "heisenberg_polygon_abelianized",
                "affine_polygon", "heisenberg_cube", "heisenberg_cube",
                "heisenberg_cube", "heisenberg_cross", "rotation_cube",
                "heisenberg_random3")

    def make(self, family, rng, seed):
        group, shape = family.split("_")[:2]
        expect = {}
        if shape == "polygon":
            ball = symmetric_polygon(rng, int(rng.integers(2, 4)))
        else:
            ball = {"cube": skewed_cube, "cross": skewed_cross,
                    "random3": random_ball3}[shape](rng)
            if shape in UNIT_BALLS3:
                expect["unit_shape"] = shape
        if group == "heisenberg" and shape == "polygon":
            angle = rng.uniform(0.0, 2.0 * math.pi)
            lam3 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            extra = {"polarization": [0, 1],
                     "covector": [math.cos(angle), math.sin(angle), lam3],
                     "abelianized": family.endswith("abelianized")}
        elif group == "affine":
            extra = {"group": "affine_line",
                     "covector": rng.uniform(-1.0, 1.0, 2).tolist()}
        else:
            extra = {"covector": rng.uniform(-0.5, 0.5, 3).tolist()}
        scenario = {"group": group,
                    "norm": {"family": "polyhedral",
                             "dim": len(ball["vertices"][0]), "params": ball},
                    "t_end": CERTIFY_HORIZON, "step": CERTIFY_STEP,
                    "rule": "persistent", **extra}
        return scenario, expect

    def artifacts(self, name):
        return [f"{name}_trajectory.csv", f"{name}_certificate.json"]

    def check_outputs(self, job, out):
        cert = json.loads((out / f"{job.name}_certificate.json").read_text())
        method = cert["m"]["method"]
        if not cert["verdict"]:
            return Outcome(False, "verdict is false", m_method=method)
        ball = job.scenario["norm"]["params"]
        shape = job.expect.get("unit_shape")
        ref = (unit_delta(shape) if shape else
               reference.exhaustive_delta(ball["vertices"],
                                          ball["functionals"]))
        err = abs(float(cert["delta"]) - ref)
        if err > DELTA_TOL:
            return Outcome(False, f"delta {cert['delta']!r} differs from the "
                                  f"exhaustive LP value {ref!r}", err,
                           m_method=method)
        return Outcome(True, oracle_err=err, m_method=method)


def _read_csv(path: Path) -> dict[str, np.ndarray]:
    with open(path) as handle:
        header = handle.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    g_cols = [i for i, h in enumerate(header) if h.startswith("g")]
    return {"t": data[:, 0], "g": data[:, g_cols]}


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (SmoothBranch(), PolyhedralEvents(), PolytopeCertify())}
