"""Normal curves: integration, face events, and branching detection.

A normal curve for a covector ``lam`` solves

    gamma'(t) = gamma(t) . u(t),
    u(t) maximizes <xi(t), .> over the velocity ball of radius r,
    xi(t)  = (lam o Ad_{gamma(t)}) restricted to the polarization,

where ``r`` is the dual norm of the restricted covector, conserved
along the curve together with the pairing ``<xi, u> = r**2``.

Two integrators are provided, and :func:`integrate` picks the one a
norm needs.  Both walk exact subgroup arcs wherever the control is
constant: the grid nodes of an arc are stacked closed-form evaluations
(:func:`arc`, which also gives :func:`subgroup_trajectory` its nodes),
and one scan, :func:`_scan_arc`, walks them until a switching function
of the dual point says the arc exits, and solves the exit to rounding.
:func:`integrate_smooth` handles norms with single-valued dual
gradients.  On a corner cone of the norm the control is constant, as
on a polytope face, and the arc ends where the dual point leaves the
cone: an event if the next node's regime differs.  Elsewhere a
fourth-order Runge-Kutta step on the chart matrix advances the curve,
recording crossings between smooth regimes of the dual energy by
bisection.  :func:`integrate_polyhedral` handles polytope balls:
between face events the maximizing control is constant, and each face
switch is the exit of a gap between vertex supports.  The face after a
switch is read off the dual point's velocity, so an instant pass
through a lower face is one event.  Faces are compared only at grid
nodes: a visit that starts and ends within one step is not seen (on
the Heisenberg group none can be, since the dual point moves in
straight lines there).  Where the exposed face is set-valued a
selection rule picks the control; several rules are provided because
normal data does not determine the control there.

No curve has a non-finite node: a :class:`Trajectory` rejects a chart
point that overflowed, the integrators reject a speed, dual point or
dual point velocity that did, and all raise :class:`IntegrationError`,
as does a face switch or cone exit that ``brentq`` cannot solve, or a
face switch that advances neither time nor face.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import convex, groups
from .polyhedra import Polyhedron

# Fraction of the grid step used as the width of the smooth integrator's
# regime-crossing bisection.
EVENT_WIDTH_FACTOR = 1e-3
# Face switches and cone exits on arcs are root-solved to rounding: the
# least relative tolerance scipy's brentq accepts, and no absolute floor.
_ROOT_RTOL = 4.0 * np.finfo(float).eps
_ROOT_XTOL = np.finfo(float).tiny
# Dual points with dual norm at or below this are treated as degenerate.
DEGENERATE_DUAL_TOL = 1e-13
# Default coincidence / divergence thresholds for branching detection.
AGREE_TOL = 1e-6
SPLIT_TOL = 1e-3
# Allowed drift of the speed and dual norm, in grid steps.
SPEED_SLACK_FACTOR = 10.0
# Face events a polyhedral run may record before FaceThrashError.
MAX_SWITCHES = 1000


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

    def __post_init__(self) -> None:
        """Raise at the first chart point that overflowed, if any."""
        bad = ~np.isfinite(self.points).all(axis=(1, 2))
        if bad.any():
            raise IntegrationError("chart point is not finite",
                                   float(self.times[np.argmax(bad)]))

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
    u_v = np.asarray(u_v, dtype=float)
    full = np.zeros(u_v.shape[:-1] + (dim,))
    full[..., list(polarization)] = u_v
    return full


def dual_derivative(spec: groups.GroupSpec, lam: np.ndarray, g: np.ndarray,
                    u_v: np.ndarray,
                    polarization: tuple[int, ...] | None = None
                    ) -> np.ndarray:
    """Time derivative of the dual point: lam o Ad_g o ad_u, restricted."""
    pol = spec.polarization if polarization is None else tuple(polarization)
    u_full = _embed(u_v, spec.dim, pol)
    adj = groups.adjoint_matrix(spec, g)
    ad_u = groups.ad_matrix(spec, u_full)
    full = ad_u.T @ (adj.T @ np.asarray(lam, dtype=float))
    return full[list(pol)]


def _restrict(lam: np.ndarray, polarization: tuple[int, ...]) -> np.ndarray:
    return np.asarray(lam, dtype=float)[list(polarization)]


def _curve_speed(speed: float) -> float:
    """The dual norm of the restricted covector, checked to be usable."""
    if not DEGENERATE_DUAL_TOL < speed < math.inf:
        raise IntegrationError("covector vanishes on the polarization"
                               if speed <= DEGENERATE_DUAL_TOL
                               else "speed is not finite", 0.0)
    return speed


def arc(spec: groups.GroupSpec, lam: np.ndarray, u_v: np.ndarray, s,
        polarization: tuple[int, ...], g: np.ndarray | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Chart and dual points of ``g exp(s u)`` at the offsets ``s``.

    The one-parameter subgroup arc of the constant control ``u_v``, in
    one stacked evaluation.  With no ``g`` the arc starts at the
    identity and its chart points are exactly ``exp(s u)``.
    """
    pts = groups.exp(spec, np.multiply.outer(
        s, _embed(u_v, spec.dim, polarization)))
    if g is not None:
        pts = g @ pts
    return pts, groups.coadjoint_dual_point(spec, lam, pts, polarization)


def _probe(f, x: float) -> float:
    """``f(x)`` as a float; RuntimeError if it is NaN."""
    fx = float(f(x))
    if math.isnan(fx):
        raise RuntimeError(f"the function value at x={x!r} is NaN")
    return fx


def brentq(f, xa: float, xb: float, xtol: float, rtol: float,
           maxiter: int = 100) -> float:
    """A root of ``f`` in the bracket ``[xa, xb]`` by Brent's method.

    A line-for-line port of scipy's ``brentq`` (Brent, *Algorithms for
    Minimization Without Derivatives*, 1973, ch. 4): the same steps,
    tolerances and result, bit for bit, without importing scipy.
    Returns as soon as a probe is exactly zero or the bracket is below
    ``xtol + rtol * |x|``.  Raises ValueError if the ends do not
    bracket a sign change, and RuntimeError at a NaN probe or when
    ``maxiter`` iterations do not converge.
    """
    xtol, rtol = float(xtol), float(rtol)
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = _probe(f, xpre), _probe(f, xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = math.inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # Where C divides by zero its step is inf or NaN, which the
            # test below rejects as it rejects this inf.
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            # good short step
            spre, scur = scur, stry
        else:
            # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0
                                                 else -delta)
        fcur = _probe(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _scan_arc(spec: groups.GroupSpec, lam: np.ndarray,
              polarization: tuple[int, ...], g: np.ndarray | None,
              u_v: np.ndarray, t0: float, xi0: np.ndarray, switch,
              what: str, times: np.ndarray, points: np.ndarray,
              duals: np.ndarray, controls: np.ndarray, k: int, span: int
              ) -> tuple[float | None, int]:
    """Walk the :func:`arc` of the held control ``u_v`` from ``g`` at
    time ``t0``, where the dual point is ``xi0``, filling ``points``,
    ``duals`` and ``controls`` from node ``k`` on until the arc exits.

    The nodes are evaluated in windows of ``span`` nodes that double,
    and the stacked switching function ``switch`` on their dual points.
    The arc exits at the first sample strictly above zero after a
    negative value, the start's or a node's: a start on a tie holds
    until the value has been negative, and a value that touches zero
    and turns negative again does not end the arc.  The sample before
    the exit, at or below zero, is the low end of the bracket, and
    ``brentq`` solves the exit to rounding on the arc's dual point; the
    bracket ends keep the values the scan saw.

    Returns the exit's offset from ``t0`` (None if the arc reaches the
    end of the grid) and the node after the last one filled, which is
    the last node at or before the exit.  Raises IntegrationError at
    the first node whose dual point or switching value is not finite,
    and, naming ``what``, at the low end if ``brentq`` fails.
    """
    lo = (0.0, float(switch(xi0)))
    armed = lo[1] < 0.0
    while k < len(times):
        s = times[k:k + span] - t0
        pts, xis = arc(spec, lam, u_v, s, polarization, g)
        sw = switch(xis)
        finite = np.isfinite(xis).all(axis=-1) & np.isfinite(sw)
        armed_at = np.logical_or.accumulate(sw < 0.0) | armed
        ends = np.nonzero(~finite | ((sw > 0.0) & armed_at))[0]
        keep = int(ends[0]) if len(ends) else len(s)
        if keep < len(s) and not finite[keep]:
            raise IntegrationError("dual point is not finite",
                                   times[k + keep])
        if keep:
            lo = (float(s[keep - 1]), float(sw[keep - 1]))
        root = None
        if keep < len(s):
            hi = (float(s[keep]), float(sw[keep]))

            def value(s_: float) -> float:
                for end_s, end_value in (lo, hi):
                    if s_ == end_s:
                        return end_value
                return float(switch(arc(spec, lam, u_v, s_, polarization,
                                        g)[1]))

            try:
                root = brentq(value, lo[0], hi[0], xtol=_ROOT_XTOL,
                              rtol=_ROOT_RTOL)
            except RuntimeError as exc:
                raise IntegrationError(f"{what} not solved ({exc})",
                                       t0 + lo[0]) from exc
            keep = int(np.searchsorted(s, root, side="right"))
        points[k:k + keep], duals[k:k + keep] = pts[:keep], xis[:keep]
        controls[k:k + keep] = u_v
        k += keep
        if root is not None:
            return root, k
        armed, span = bool(armed_at[-1]), 2 * span
    return None, k


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

    On a corner cone of the norm (:meth:`~subfinsler.convex.Norm.corner_cone`)
    the control is constant, so a node strictly inside one holds its
    control and :func:`_scan_arc` fills the following nodes on its
    closed-form arc until the cone's switching function exits.  The
    exit is one event at the root, from the cone's regime to the regime
    of the first node after the exit, if that regime differs.  An arc
    from the identity gives nodes that are exactly ``exp(t_k u)``.

    Off the cones, fourth-order Runge-Kutta on the chart matrix, with a
    partial first step from a cone exit to the next grid node.  Regime
    crossings of the dual energy there, cone entries included, are
    located by bisection to ``EVENT_WIDTH_FACTOR * step`` and recorded
    as events; node face ids are -1 throughout.
    """
    if norm.convexity_class == "polyhedral":
        raise FlowError("polyhedral norms need the event-driven integrator")
    pol = spec.polarization if polarization is None else tuple(polarization)
    lam = np.asarray(lam, dtype=float)
    speed = _curve_speed(norm.dual_value(_restrict(lam, pol)))
    basis_v = spec.basis[list(pol)]

    def control(g: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
        xi = groups.coadjoint_dual_point(spec, lam, g, pol)
        nd = norm.dual_value(xi)
        if not DEGENERATE_DUAL_TOL * speed < nd < math.inf:
            raise IntegrationError("dual point degenerated to zero"
                                   if nd <= DEGENERATE_DUAL_TOL * speed
                                   else "dual point is not finite", t)
        return norm.grad_dual_energy(xi), xi

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

    i = 0
    while i < n_steps:
        # One RK4 step to node i + 1, from node i or from the exit of the
        # cone arc that node i holds.
        g, u, t, h = points[i], controls[i], times[i], step
        exit_t = None
        switch = norm.corner_cone(duals[i])
        if switch is not None:
            g0 = None if i == 0 else g
            root, k = _scan_arc(spec, lam, pol, g0, u, t, duals[i], switch,
                                "cone exit", times, points, duals, controls,
                                i + 1, 1)
            i = k - 1
            if i == n_steps:
                # The arc reaches the horizon, or exits on its last node.
                break
            exit_t = t + root
            if root == times[i] - t:
                # The exit is a grid node: step on from it.
                g, t = points[i], times[i]
            else:
                g = arc(spec, lam, u, root, pol, g0)[0]
                u, t, h = control(g, exit_t)[0], exit_t, times[i + 1] - exit_t
        # The start's control is RK4's first stage, here and in the event
        # bisection; the next node's control comes with its dual point
        # from one evaluation.
        k1 = velocity(g, u)
        g_next = rk4(g, k1, t, h)
        controls[i + 1], duals[i + 1] = control(g_next, times[i + 1])
        new_regime = norm.regime_id(duals[i + 1])
        if new_regime != regime:
            t_event = exit_t
            if t_event is None:
                lo, hi = 0.0, h
                width = EVENT_WIDTH_FACTOR * step
                while hi - lo > width:
                    mid = 0.5 * (lo + hi)
                    g_mid = rk4(g, k1, t, mid)
                    xi_mid = groups.coadjoint_dual_point(spec, lam, g_mid,
                                                         pol)
                    if norm.regime_id(xi_mid) != regime:
                        hi = mid
                    else:
                        lo = mid
                t_event = t + 0.5 * (lo + hi)
            events.append(FaceEvent(t_event, regime, new_regime))
        regime = new_regime
        points[i + 1] = g_next
        i += 1

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
                         rule: str = "persistent") -> Trajectory:
    """Integrate the normal flow of a polytope velocity ball.

    Between face events the control ``u`` is constant, so the curve is
    a chain of closed-form subgroup arcs ``g_seg exp(s U)``.  Each arc
    is walked by :func:`_scan_arc`, whose first window is the previous
    arc's node count, on the outsider gap of the face ``F``

        h(s) = max_{j not in F} v_j . xi(s) - max_{j in F} v_j . xi(s),

    so the face holds until ``h`` exceeds zero after a negative value,
    and a tie left by the previous switch is not a switch again.  The
    face after a switch is the subface of the touching face that the
    dual point's velocity (:func:`dual_derivative`, under the current
    control) exposes, reselecting the control until face and control
    agree; so an instant pass through a lower face (vertex, edge,
    vertex) is one event, and event times increase strictly.  A start
    face that splits at once gives an event at t = 0, and
    ``controls[0]`` holds the control the curve leaves with.

    Faces are still compared only at grid nodes: a visit that starts
    and ends within one step, or a tangential touch, is not seen.  On
    the Heisenberg group the dual point moves in a straight line along
    each arc, so every gap is linear in ``s`` and no visit can hide.
    """
    if rule not in SELECTION_RULES:
        raise FlowError(f"unknown selection rule {rule!r}")
    poly = convex.as_polyhedron(norm)
    pol = spec.polarization if polarization is None else tuple(polarization)
    lam = np.asarray(lam, dtype=float)
    speed = _curve_speed(poly.dual_value(_restrict(lam, pol)))

    def face_after(touch, t: float, g: np.ndarray, u: np.ndarray,
                   support: frozenset[int], chosen):
        """The face the dual point enters from ``touch``, with its control.

        ``chosen`` is the face the control ``u`` was selected on.  A
        face whose control the rule does not keep gets a new control,
        and the velocity is taken again under it.
        """
        tried: set[int] = set()
        while True:
            velocity = dual_derivative(spec, lam, g, u, pol)
            if not np.isfinite(poly.vertices @ velocity).all():
                raise IntegrationError("dual point velocity overflows", t)
            face = poly.subface(touch, velocity)
            if face.fid == chosen.fid or (rule == "persistent"
                                          and support <= face.vertex_set):
                return face, u, support
            if face.fid in tried:
                raise IntegrationError("no face after the event keeps its "
                                       "own control", t)
            tried.add(face.fid)
            u, support = _select_control(poly, face, speed, rule)
            chosen = face

    n_steps = whole_steps(t_end, step)
    times = step * np.arange(n_steps + 1)
    size = spec.matrix_size
    points = np.empty((n_steps + 1, size, size))
    controls = np.empty((n_steps + 1, len(pol)))
    duals = np.empty((n_steps + 1, len(pol)))
    face_ids = np.empty(n_steps + 1, dtype=int)

    g = spec.identity()
    xi = groups.coadjoint_dual_point(spec, lam, g, pol)
    touch = poly.face_of(xi)
    u, support = _select_control(poly, touch, speed, rule)
    face, u, support = face_after(touch, 0.0, g, u, support, touch)
    events: list[FaceEvent] = []
    if face.fid != touch.fid:
        events.append(FaceEvent(0.0, touch.fid, face.fid))

    points[0] = g
    controls[0] = u
    duals[0] = xi
    face_ids[0] = touch.fid

    t_seg, k, span = 0.0, 1, 1
    while k <= n_steps:
        members = np.zeros(len(poly.vertices), dtype=bool)
        members[list(face.vertex_ids)] = True

        def gap(xis: np.ndarray) -> np.ndarray:
            vals = xis @ poly.vertices.T
            return (np.max(vals[..., ~members], axis=-1)
                    - np.max(vals[..., members], axis=-1))

        first = k
        root, k = _scan_arc(spec, lam, pol, g, u, t_seg, xi, gap,
                            "face switch", times, points, duals, controls,
                            k, span)
        face_ids[first:k] = face.fid
        if root is None:
            break
        g, xi = arc(spec, lam, u, root, pol, g)
        t_next = t_seg + root
        touch = poly.face_of(xi)
        new_face, u, support = face_after(touch, t_next, g, u, support, face)
        if new_face.fid != face.fid:
            events.append(FaceEvent(t_next, face.fid, new_face.fid))
            if len(events) > MAX_SWITCHES:
                raise FaceThrashError(events)
        elif t_next == t_seg:
            # Rounding stalled the arc: the same state would repeat.
            raise IntegrationError("a face switch advanced neither "
                                   "time nor face", t_seg)
        face, t_seg = new_face, t_next
        span = max(k - first, 1)

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

    Exact reference trajectory: node k sits at exp(t_k * direction),
    the :func:`arc` of ``direction`` from the identity.  ``lam`` is only
    carried along to fill in the dual points.
    """
    pol = spec.polarization if polarization is None else tuple(polarization)
    lam = np.asarray(lam, dtype=float)
    direction = np.asarray(direction, dtype=float)
    speed = norm.value(direction)
    n_steps = whole_steps(t_end, step)
    times = step * np.arange(n_steps + 1)
    points, duals = arc(spec, lam, direction, times, pol)
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


def check_constant_speed(traj: Trajectory) -> dict:
    """Verify the conserved quantities along a trajectory.

    The control norm and the dual norm of the dual point both stay at
    the curve speed; the allowed drift is ``SPEED_SLACK_FACTOR * step``.
    Each gauge is called once, on the whole stack of nodes.
    """
    r = traj.speed
    # np.max, unlike max, propagates NaN, so a NaN run is not ok.
    control_dev = np.max(np.abs(traj.norm.value(traj.controls) - r))
    dual_dev = np.max(np.abs(traj.norm.dual_value(traj.duals) - r))
    allowed = SPEED_SLACK_FACTOR * traj.step
    return {
        "speed": r,
        "control_deviation": float(control_dev),
        "dual_deviation": float(dual_dev),
        "allowed": float(allowed),
        "ok": bool(control_dev <= allowed and dual_dev <= allowed),
    }


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
