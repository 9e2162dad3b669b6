"""Normal curves: integration, face events, and branching detection.

A normal curve for a covector ``lam`` solves

    gamma'(t) = gamma(t) . u(t),
    u(t) maximizes <xi(t), .> over the velocity ball of radius r,
    xi(t)  = (lam o Ad_{gamma(t)}) restricted to the polarization,

where ``r`` is the dual norm of the restricted covector, conserved
along the curve together with the pairing ``<xi, u> = r**2``.

Two integrators are provided, and :func:`integrate` picks the one a
norm needs.  :func:`integrate_smooth` handles norms with single-valued
dual gradients by a fourth-order Runge-Kutta step on the chart matrix,
recording crossings between smooth regimes of the dual energy.
:func:`integrate_polyhedral` handles polytope balls by exact subgroup
arcs: between face events the maximizing control is constant, so each
step is one closed-form exponential, and event times are localized by
bisection.  Where the exposed face is set-valued a selection rule
picks the control; several rules are provided because normal data does
not determine the control there.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import convex, groups
from .polyhedra import Polyhedron

# Fraction of the grid step used as the event localization width.
EVENT_WIDTH_FACTOR = 1e-3
# Dual points with dual norm at or below this are treated as degenerate.
DEGENERATE_DUAL_TOL = 1e-13
# Default coincidence / divergence thresholds for branching detection.
AGREE_TOL = 1e-6
SPLIT_TOL = 1e-3


class FlowError(RuntimeError):
    """Base class for integration failures."""


class IntegrationError(FlowError):
    """The flow field is undefined or degenerate at some time."""

    def __init__(self, message: str, t: float):
        super().__init__(f"{message} at t={t:.6g}")
        self.t = t


class FaceThrashError(FlowError):
    """Face events exceeded the allowed switch budget."""

    def __init__(self, events: list["FaceEvent"]):
        super().__init__(f"exceeded face switch budget "
                         f"({len(events)} events)")
        self.events = events


@dataclass(frozen=True)
class FaceEvent:
    """A change of the exposed face (or smooth regime) along the curve."""

    t: float
    from_face: int
    to_face: int

    def to_json_dict(self) -> dict:
        return {"t": float(self.t), "from_face": int(self.from_face),
                "to_face": int(self.to_face)}


@dataclass
class Trajectory:
    """A discretized normal curve on a uniform time grid.

    ``points`` holds chart matrices, ``controls`` and ``duals`` the
    velocity and dual-point coordinates on the polarization, and
    ``face_ids`` the exposed face per node (-1 on smooth-norm runs).
    """

    group: groups.GroupSpec
    norm: convex.Norm
    polarization: tuple[int, ...]
    lam: np.ndarray
    times: np.ndarray
    points: np.ndarray
    controls: np.ndarray
    duals: np.ndarray
    face_ids: np.ndarray
    speed: float
    events: list[FaceEvent] = dataclass_field(default_factory=list)
    rule: str = "smooth"
    step: float = 0.0

    def meta_dict(self) -> dict:
        return {
            "group": self.group.name,
            "norm": self.norm.to_json_dict(),
            "polarization": [int(i) for i in self.polarization],
            "covector": [float(x) for x in self.lam],
            "t_end": float(self.times[-1]),
            "step": float(self.step),
            "rule": self.rule,
            "speed": float(self.speed),
            "events": [e.to_json_dict() for e in self.events],
        }


@dataclass(frozen=True)
class BranchReport:
    """Where two normal curves stop agreeing.

    ``coincidence_time`` is the largest grid time up to which the chart
    matrices stay within the agreement tolerance; the witness fields
    give the first grid node where the gap exceeds the split tolerance.
    """

    coincidence_time: float
    witness_time: float | None
    witness_gap: float | None
    agree_tol: float
    split_tol: float

    @property
    def branched(self) -> bool:
        return self.witness_time is not None

    def to_json_dict(self) -> dict:
        return {
            "coincidence_time": float(self.coincidence_time),
            "witness_time": (None if self.witness_time is None
                             else float(self.witness_time)),
            "witness_gap": (None if self.witness_gap is None
                            else float(self.witness_gap)),
            "agree_tol": float(self.agree_tol),
            "split_tol": float(self.split_tol),
            "branched": self.branched,
        }


def _embed(u_v: np.ndarray, dim: int, polarization: tuple[int, ...]
           ) -> np.ndarray:
    full = np.zeros(dim)
    full[list(polarization)] = u_v
    return full


def dual_derivative(spec: groups.GroupSpec, lam: np.ndarray, g: np.ndarray,
                    u_v: np.ndarray,
                    polarization: tuple[int, ...] | None = None
                    ) -> np.ndarray:
    """Time derivative of the dual point: lam o Ad_g o ad_u, restricted."""
    pol = spec.polarization if polarization is None else tuple(polarization)
    u_full = _embed(np.asarray(u_v, dtype=float), spec.dim, pol)
    adj = groups.adjoint_matrix(spec, g)
    ad_u = groups.ad_matrix(spec, u_full)
    full = ad_u.T @ (adj.T @ np.asarray(lam, dtype=float))
    return full[list(pol)]


def _restrict(lam: np.ndarray, polarization: tuple[int, ...]) -> np.ndarray:
    return np.asarray(lam, dtype=float)[list(polarization)]


def whole_steps(t_end: float, step: float) -> int:
    """The number of grid steps from 0 to ``t_end``.

    Raises ValueError unless ``step`` is positive and ``t_end`` is a
    whole number of steps to a relative 1e-9, so no integrator silently
    moves the horizon.
    """
    steps = t_end / step if step > 0 else math.nan
    if not (math.isfinite(steps) and math.isclose(
            round(steps) * step, t_end, rel_tol=1e-9)):
        raise ValueError(f"t_end {t_end!r} is not a whole number of "
                         f"steps {step!r}")
    return int(round(steps))


# ---------------------------------------------------------------------------
# Smooth integrator


def integrate_smooth(spec: groups.GroupSpec, norm: convex.Norm,
                     lam: np.ndarray, t_end: float, step: float,
                     polarization: tuple[int, ...] | None = None
                     ) -> Trajectory:
    """Integrate the normal flow of a strictly convex norm.

    Fourth-order Runge-Kutta on the chart matrix.  Regime crossings of
    the dual energy (corner norms switching between their smooth
    pieces) are located by bisection to ``EVENT_WIDTH_FACTOR * step``
    and recorded as events; node face ids are -1 throughout.
    """
    if norm.convexity_class == "polyhedral":
        raise FlowError("polyhedral norms need the event-driven integrator")
    pol = spec.polarization if polarization is None else tuple(polarization)
    lam = np.asarray(lam, dtype=float)
    speed = norm.dual_value(_restrict(lam, pol))
    if speed <= DEGENERATE_DUAL_TOL:
        raise IntegrationError("covector vanishes on the polarization", 0.0)

    basis_v = spec.basis[list(pol)]

    def control(g: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        xi = groups.coadjoint_dual_point(spec, lam, g, pol)
        nd = norm.dual_value(xi)
        if nd <= DEGENERATE_DUAL_TOL * speed:
            raise IntegrationError("dual point degenerated to zero", t)
        return nd * norm.unit_face(xi), xi

    def velocity(g: np.ndarray, u: np.ndarray) -> np.ndarray:
        return g @ np.einsum("i,iab->ab", u, basis_v)

    def rhs(g: np.ndarray, t: float) -> np.ndarray:
        return velocity(g, control(g, t)[0])

    def rk4(g: np.ndarray, k1: np.ndarray, t: float, h: float
            ) -> np.ndarray:
        k2 = rhs(g + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(g + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(g + h * k3, t + h)
        return g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    n_steps = whole_steps(t_end, step)
    times = step * np.arange(n_steps + 1)
    size = spec.matrix_size
    points = np.empty((n_steps + 1, size, size))
    controls = np.empty((n_steps + 1, len(pol)))
    duals = np.empty((n_steps + 1, len(pol)))
    points[0] = spec.identity()
    controls[0], duals[0] = control(points[0], 0.0)
    events: list[FaceEvent] = []
    regime = norm.regime_id(duals[0])

    for i in range(n_steps):
        # The node's control is RK4's first stage, here and in the
        # event bisection; the next node's control comes with its dual
        # point from one evaluation.
        k1 = velocity(points[i], controls[i])
        g_next = rk4(points[i], k1, times[i], step)
        controls[i + 1], duals[i + 1] = control(g_next, times[i + 1])
        new_regime = norm.regime_id(duals[i + 1])
        if new_regime != regime:
            lo, hi = 0.0, step
            width = EVENT_WIDTH_FACTOR * step
            while hi - lo > width:
                mid = 0.5 * (lo + hi)
                g_mid = rk4(points[i], k1, times[i], mid)
                xi_mid = groups.coadjoint_dual_point(spec, lam, g_mid, pol)
                if norm.regime_id(xi_mid) != regime:
                    hi = mid
                else:
                    lo = mid
            events.append(FaceEvent(times[i] + 0.5 * (lo + hi),
                                    regime, new_regime))
        regime = new_regime
        points[i + 1] = g_next

    return Trajectory(group=spec, norm=norm, polarization=pol, lam=lam,
                      times=times, points=points, controls=controls,
                      duals=duals, face_ids=np.full(n_steps + 1, -1),
                      speed=speed, events=events, rule="smooth", step=step)


# ---------------------------------------------------------------------------
# Polyhedral integrator


SELECTION_RULES = ("persistent", "barycenter", "min_vertex")


def _select_control(poly: Polyhedron, face, speed: float, rule: str
                    ) -> tuple[np.ndarray, frozenset[int]]:
    """Pick a maximizing control in a face according to the rule.

    Returns the control and the vertex ids supporting it; the support
    is what the persistent rule watches to decide admissibility.
    """
    if rule == "min_vertex":
        pick = min(face.vertex_ids)
        return speed * poly.vertices[pick], frozenset([pick])
    mean = poly.vertices[list(face.vertex_ids)].mean(axis=0)
    return speed * mean, face.vertex_set


def integrate_polyhedral(spec: groups.GroupSpec, norm: convex.Norm,
                         lam: np.ndarray, t_end: float, step: float,
                         polarization: tuple[int, ...] | None = None,
                         rule: str = "persistent",
                         start_control: np.ndarray | None = None,
                         max_switches: int = 1000) -> Trajectory:
    """Integrate the normal flow of a polytope velocity ball.

    Between face events the control is constant, so the curve is a
    product of closed-form subgroup arcs and the only numerical error
    is the event localization width.  Events are detected by watching
    the exposed face of the dual point and bisected to
    ``EVENT_WIDTH_FACTOR * step``.
    """
    if rule not in SELECTION_RULES:
        raise FlowError(f"unknown selection rule {rule!r}")
    poly = convex.as_polyhedron(norm)
    pol = spec.polarization if polarization is None else tuple(polarization)
    lam = np.asarray(lam, dtype=float)
    speed = poly.dual_value(_restrict(lam, pol))
    if speed <= DEGENERATE_DUAL_TOL:
        raise IntegrationError("covector vanishes on the polarization", 0.0)

    def advance(g: np.ndarray, u_v: np.ndarray, dt: float) -> np.ndarray:
        return g @ groups.exp(spec, dt * _embed(u_v, spec.dim, pol))

    def face_at(g: np.ndarray):
        """The exposed face at ``g`` and the dual point that exposes it."""
        xi = groups.coadjoint_dual_point(spec, lam, g, pol)
        return poly.face_of(xi), xi

    n_steps = whole_steps(t_end, step)
    times = step * np.arange(n_steps + 1)
    size = spec.matrix_size
    points = np.empty((n_steps + 1, size, size))
    controls = np.empty((n_steps + 1, len(pol)))
    duals = np.empty((n_steps + 1, len(pol)))
    face_ids = np.empty(n_steps + 1, dtype=int)

    g = spec.identity()
    face, xi = face_at(g)
    if start_control is not None:
        u = np.asarray(start_control, dtype=float)
        slack = 1e-9 * max(1.0, speed * speed)
        if (abs(poly.value(u) - speed) > slack
                or abs(float(xi @ u) - speed * speed) > slack):
            raise FlowError("start control is not a maximizer at t=0")
        # Conservative support: admissible only while the whole start
        # face survives.
        support = face.vertex_set
    else:
        u, support = _select_control(poly, face, speed, rule)

    points[0] = g
    controls[0] = u
    duals[0] = xi
    face_ids[0] = face.fid
    events: list[FaceEvent] = []
    width = EVENT_WIDTH_FACTOR * step

    for i in range(n_steps):
        t = times[i]
        remaining = step
        while remaining > 0.0:
            trial = advance(g, u, remaining)
            new_face, trial_xi = face_at(trial)
            if new_face.fid == face.fid:
                g, xi = trial, trial_xi
                t += remaining
                remaining = 0.0
                break
            lo, hi = 0.0, remaining
            while hi - lo > width:
                mid = 0.5 * (lo + hi)
                probe, _ = face_at(advance(g, u, mid))
                if probe.fid != face.fid:
                    hi = mid
                else:
                    lo = mid
            g = advance(g, u, hi)
            t += hi
            remaining -= hi
            new_face, xi = face_at(g)
            events.append(FaceEvent(t, face.fid, new_face.fid))
            if len(events) > max_switches:
                raise FaceThrashError(events)
            face = new_face
            if not (rule == "persistent" and support <= face.vertex_set):
                u, support = _select_control(poly, face, speed, rule)
        points[i + 1] = g
        controls[i + 1] = u
        # The last probe of the step was at the node itself.
        duals[i + 1] = xi
        face_ids[i + 1] = face.fid

    return Trajectory(group=spec, norm=norm, polarization=pol, lam=lam,
                      times=times, points=points, controls=controls,
                      duals=duals, face_ids=face_ids, speed=speed,
                      events=events, rule=rule, step=step)


def integrate(spec: groups.GroupSpec, norm: convex.Norm, lam: np.ndarray,
              t_end: float, step: float,
              polarization: tuple[int, ...] | None = None,
              rule: str = "persistent") -> Trajectory:
    """Integrate a normal curve with the integrator its norm needs.

    Polytope balls go to :func:`integrate_polyhedral` with the given
    selection rule; every other norm goes to :func:`integrate_smooth`,
    which has no rule.
    """
    if norm.convexity_class == "polyhedral":
        return integrate_polyhedral(spec, norm, lam, t_end, step,
                                    polarization=polarization, rule=rule)
    return integrate_smooth(spec, norm, lam, t_end, step,
                            polarization=polarization)


def subgroup_trajectory(spec: groups.GroupSpec, norm: convex.Norm,
                        lam: np.ndarray, direction: np.ndarray,
                        t_end: float, step: float,
                        polarization: tuple[int, ...] | None = None
                        ) -> Trajectory:
    """The one-parameter subgroup of a fixed admissible velocity.

    Exact reference trajectory: node k sits at exp(t_k * direction).
    ``lam`` is only carried along to fill in the dual points.
    """
    pol = spec.polarization if polarization is None else tuple(polarization)
    lam = np.asarray(lam, dtype=float)
    direction = np.asarray(direction, dtype=float)
    speed = norm.value(direction)
    n_steps = whole_steps(t_end, step)
    times = step * np.arange(n_steps + 1)
    size = spec.matrix_size
    points = np.empty((n_steps + 1, size, size))
    duals = np.empty((n_steps + 1, len(pol)))
    hop = groups.exp(spec, step * _embed(direction, spec.dim, pol))
    points[0] = spec.identity()
    for i in range(n_steps):
        points[i + 1] = points[i] @ hop
    for i in range(n_steps + 1):
        duals[i] = groups.coadjoint_dual_point(spec, lam, points[i], pol)
    return Trajectory(group=spec, norm=norm, polarization=pol, lam=lam,
                      times=times, points=points,
                      controls=np.tile(direction, (n_steps + 1, 1)),
                      duals=duals, face_ids=np.full(n_steps + 1, -1),
                      speed=speed, events=[], rule="subgroup", step=step)


# ---------------------------------------------------------------------------
# Diagnostics


def detect_branching(first: Trajectory, second: Trajectory,
                     agree_tol: float = AGREE_TOL,
                     split_tol: float = SPLIT_TOL) -> BranchReport:
    """Compare two trajectories on their common grid prefix.

    The coincidence time is the largest grid time before the chart gap
    first exceeds ``agree_tol``; the witness is the first node where it
    exceeds ``split_tol``.
    """
    n = min(len(first.times), len(second.times))
    if not np.allclose(first.times[:n], second.times[:n], atol=1e-12):
        raise FlowError("trajectories live on different time grids")
    gaps = np.linalg.norm(
        (first.points[:n] - second.points[:n]).reshape(n, -1), axis=1)
    beyond = np.nonzero(gaps > agree_tol)[0]
    if len(beyond) == 0:
        coincidence = float(first.times[n - 1])
    else:
        coincidence = float(first.times[max(beyond[0] - 1, 0)])
    split = np.nonzero(gaps > split_tol)[0]
    if len(split) == 0:
        return BranchReport(coincidence, None, None, agree_tol, split_tol)
    k = int(split[0])
    return BranchReport(coincidence, float(first.times[k]), float(gaps[k]),
                        agree_tol, split_tol)


def check_constant_speed(traj: Trajectory, slack_factor: float = 10.0
                         ) -> dict:
    """Verify the conserved quantities along a trajectory.

    The control norm and the dual norm of the dual point both stay at
    the curve speed; the allowed drift is ``slack_factor * step``.
    """
    r = traj.speed
    control_dev = max(abs(traj.norm.value(u) - r) for u in traj.controls)
    dual_dev = max(abs(traj.norm.dual_value(xi) - r) for xi in traj.duals)
    allowed = slack_factor * traj.step
    return {
        "speed": r,
        "control_deviation": float(control_dev),
        "dual_deviation": float(dual_dev),
        "allowed": float(allowed),
        "ok": bool(control_dev <= allowed and dual_dev <= allowed),
    }


# ---------------------------------------------------------------------------
# Curve lifting through a submetry


def lift_curve(sub: groups.SubmetryData, traj: Trajectory,
               norm: convex.Norm) -> Trajectory:
    """Lift a trajectory from the target of a submetry to its source.

    Controls are lifted nodewise to least-norm admissible preimages, so
    the lift is horizontal, projects back onto the input curve, and has
    the same pointwise speed; the normal covector is the input covector
    composed with the differential.
    """
    spec = sub.source
    pol = spec.polarization
    lam = sub.lift_covector(traj.lam)
    n = len(traj.times)
    size = spec.matrix_size
    points = np.empty((n, size, size))
    controls = np.empty((n, len(pol)))
    for i in range(n):
        controls[i] = groups.min_norm_preimage(sub, norm, traj.controls[i])
    points[0] = spec.identity()
    for i in range(n - 1):
        dt = traj.times[i + 1] - traj.times[i]
        points[i + 1] = points[i] @ groups.exp(
            spec, dt * _embed(controls[i], spec.dim, pol))
    duals = np.array([groups.coadjoint_dual_point(spec, lam, g, pol)
                      for g in points])
    if norm.convexity_class == "polyhedral":
        poly = convex.as_polyhedron(norm)
        face_ids = np.array([poly.face_of(xi).fid for xi in duals])
    else:
        face_ids = np.full(n, -1)
    speed = norm.value(controls[0])
    return Trajectory(group=spec, norm=norm, polarization=pol, lam=lam,
                      times=traj.times.copy(), points=points,
                      controls=controls, duals=duals, face_ids=face_ids,
                      speed=speed, events=[], rule="lift", step=traj.step)


# ---------------------------------------------------------------------------
# Serialization


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory grid as CSV.

    Columns: t, chart entries row-major, control coords, dual coords,
    face id.  Floats are written in shortest round-trip form, so equal
    runs produce identical bytes.
    """
    size = traj.group.matrix_size
    header = ["t"]
    header += [f"g{i}{j}" for i in range(size) for j in range(size)]
    header += [f"u{k}" for k in range(len(traj.polarization))]
    header += [f"xi{k}" for k in range(len(traj.polarization))]
    header += ["face_id"]
    floats = np.column_stack([traj.times,
                              traj.points.reshape(len(traj.times), -1),
                              traj.controls, traj.duals]).tolist()
    with open(path, "w", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        for row, fid in zip(floats, traj.face_ids.tolist()):
            handle.write(",".join(map(repr, row)) + f",{fid}\n")


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read back a trajectory CSV into arrays keyed like the writer."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        rows = [[float(x) for x in row] for row in reader]
    data = np.array(rows)
    out: dict[str, np.ndarray] = {}
    for col, name in enumerate(header):
        out[name] = data[:, col]
    return out
