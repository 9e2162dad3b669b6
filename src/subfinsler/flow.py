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
and the arc ends where a switching function of the dual point exits.
Along an arc the dual point is ``xi0 + S_q(s) b + C_q(s) c``, with the
sinh/sin kernel ``S_q`` and the (cosh - 1)/(1 - cos) kernel ``C_q`` of
:func:`arc_terms`, so every switching function is the max of forms
``k0 + k1 S_q + k2 C_q``, and one solver, :func:`_held_arc`, finds the
exit in closed form from the arc's start alone: no node is scanned, no
visit is missed, and no exit time depends on the grid.
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
through a lower face is one event.  Normal data does not determine the
control on a set-valued face: the one selection rule picks the face's
barycenter, scaled to the speed, and keeps it on every face containing
that face.

No curve has a non-finite node: a :class:`Trajectory` rejects a chart
point that overflowed, the integrators reject a speed, dual point,
switching value or dual point velocity that did, and all raise
:class:`IntegrationError`, as does a face switch that advances neither
time nor face.
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


def arc_terms(spec: groups.GroupSpec, lam: np.ndarray, g: np.ndarray,
              u_v: np.ndarray, polarization: tuple[int, ...] | None = None
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """The terms of the dual point along the arc ``g exp(s u)``.

    With ``A = ad_u^T`` and ``p = lam o Ad_g``, every registry group has
    ``A^3 = q A`` for ``q = <A^3, A> / <A, A>``: 0 on the Heisenberg and
    translation groups, ``b**2`` on ``affine_line``, ``-|u|**2`` on
    ``rotation``.  So ``exp(s A) = 1 + S_q(s) A + C_q(s) A^2``, and the
    dual point is

        xi(s) = xi(0) + S_q(s) P A p + C_q(s) P A^2 p,

    with ``S_q = sinh(r s)/r`` and ``C_q = (cosh(r s) - 1)/q`` for
    ``q = r**2 > 0``, ``sin`` and ``1 - cos`` in their place for
    ``q < 0``, and ``s`` and ``s**2/2`` at ``q = 0``.  Returns
    ``(P A p, P A^2 p, q)``; the first is the dual point's velocity at
    ``g``.  Raises FlowError if ``A^3 = q A`` fails beyond
    ``groups.CLOSURE_TOL``, relative to ``A^3``.
    """
    pol = list(spec.polarization if polarization is None else polarization)
    a = groups.ad_matrix(spec, _embed(u_v, spec.dim, pol)).T
    a2 = a @ a
    q = 0.0
    if a2.any():
        a3 = a2 @ a
        q = float(np.vdot(a3, a) / np.vdot(a, a))
        if abs(a3 - q * a).max() > groups.CLOSURE_TOL * abs(a3).max():
            raise FlowError(f"{spec.name} arcs have no closed-form dual "
                            f"point")
    ap = a @ (groups.adjoint_matrix(spec, g).T @ np.asarray(lam, dtype=float))
    return ap[pol], (a @ ap)[pol], q


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


def _first_rise(k0: np.ndarray, k1: np.ndarray, k2: np.ndarray,
                q: float) -> float:
    """The least ``s >= 0`` at which a form ``k0 + k1 S_q(s) + k2 C_q(s)``
    of :func:`arc_terms` crosses zero upward, over the forms given as
    arrays of their coefficients; inf if none does, NaN if a form's
    discriminant overflows.

    In the half-angle variable ``tau = (2/r) tanh(r s/2)`` (``r**2 = q``;
    ``tan`` for ``q < 0``, and ``tau = s`` at ``q = 0``) the kernels are
    ``S = tau / d`` and ``C = tau**2 / (2 d)`` with ``d = 1 - q tau**2/4``
    positive along the arc, and ``tau`` rises with ``s``.  So a form has
    the sign of ``g(tau) = (k2/2 - q k0/4) tau**2 + k1 tau + k0`` and
    crosses upward where ``g`` does: at its one root with ``g' > 0``, a
    simple one (a touch is no crossing).  The root is taken in the form
    that does not cancel; for a line (``q = 0 = k2``) that is the ratio
    ``-k0 / k1``, taken as such.  For ``q < 0`` the form is periodic,
    and the root is mapped into the first period.  A constant form
    crosses nowhere (for ``q > 0`` its rising root is ``tau = 2/r``,
    which is ``s = inf``, and would round to a finite one).
    """
    if q == 0.0 and not k2.any():
        # A line: the rising root is the ratio alone.
        ahead = (k1 > 0.0) & (k0 <= 0.0)
        return float(np.min(-k0[ahead] / k1[ahead], initial=math.inf))
    curv = 0.5 * k2 - 0.25 * q * k0
    disc = k1 * k1 - 4.0 * curv * k0
    if not np.isfinite(disc).all():
        return math.nan
    cross = (disc > 0.0) & ((k1 != 0.0) | (k2 != 0.0))
    k0, k1, curv = k0[cross], k1[cross], curv[cross]
    root = np.sqrt(disc[cross])
    # tau = (root - k1) / (2 curv) = -2 k0 / (k1 + root).
    rising = k1 >= 0.0
    num = np.where(rising, -2.0 * k0, root - k1)
    den = np.where(rising, k1 + root, 2.0 * curv)
    if q < 0.0:
        w = math.sqrt(-q)
        s = np.mod(np.arctan2(w * num, 2.0 * den), math.pi) * (2.0 / w)
    else:
        ahead = (num >= 0.0) & (den > 0.0)
        s = num[ahead] / den[ahead]
        if q > 0.0:
            r = math.sqrt(q)
            x = 0.5 * r * s
            s = 2.0 * np.arctanh(x[x < 1.0]) / r
    return float(np.min(s, initial=math.inf))


def _held_arc(spec: groups.GroupSpec, lam: np.ndarray,
              polarization: tuple[int, ...], g: np.ndarray | None,
              u_v: np.ndarray, t0: float, forms: np.ndarray, q: float,
              times: np.ndarray, points: np.ndarray, duals: np.ndarray,
              controls: np.ndarray, k: int
              ) -> tuple[tuple[float, np.ndarray, np.ndarray] | None, int]:
    """Walk the :func:`arc` of the held control ``u_v`` from ``g`` (the
    identity if None) at time ``t0``, filling ``points``, ``duals`` and
    ``controls`` from node ``k`` on until it exits.

    The arc exits where the first of the switching ``forms``, the rows
    ``(k0, k1, k2)`` of :func:`arc_terms`' kernels, crosses zero upward
    (:func:`_first_rise`), so a form that starts on a tie holds until it
    has been negative.  That exit is read off the arc's start alone: the
    nodes at or before it are one stacked :func:`arc`, and the exit is
    one more, so nothing depends on the grid but which nodes are filled.

    Returns the exit as its offset from ``t0`` with the chart and dual
    points there (None if it is after the grid's last time), and the
    node after the last one filled.  Raises IntegrationError if a
    switching value, a filled node's dual point or the exit's is not
    finite.
    """
    root = _first_rise(*forms, q) if np.isfinite(forms).all() else math.nan
    if math.isnan(root):
        raise IntegrationError("switching value is not finite", t0)
    s = times[k:] - t0
    keep = int(np.searchsorted(s, root, side="right"))
    if keep:
        pts, xis = arc(spec, lam, u_v, s[:keep], polarization, g)
        bad = ~np.isfinite(xis).all(axis=-1)
        if bad.any():
            raise IntegrationError("dual point is not finite",
                                   times[k + np.argmax(bad)])
        points[k:k + keep], duals[k:k + keep] = pts, xis
        controls[k:k + keep] = u_v
    if t0 + root > times[-1]:
        return None, k + keep
    pt, xi = arc(spec, lam, u_v, root, polarization, g)
    if not np.isfinite(xi).all():
        raise IntegrationError("dual point is not finite", t0 + root)
    return (root, pt, xi), k + keep


def whole_steps(t_end: float, step: float, size: int = 1) -> int:
    """The number of grid steps from 0 to ``t_end``.

    Raises ValueError unless ``step`` is positive and ``t_end`` is a
    whole number of steps to a relative 1e-9, so no integrator silently
    moves the horizon, and unless numpy can allocate the nodes: an
    array holds at most ``np.iinfo(np.intp).max`` bytes, and the
    largest node array is the ``size`` x ``size`` chart points, 8 bytes
    an entry (``size`` 1 bounds the time grid alone).
    """
    steps = t_end / step if step > 0 else math.nan
    if (steps + 1) * 8 * size * size > np.iinfo(np.intp).max:
        raise ValueError(f"t_end {t_end!r} takes {steps:.6g} steps of "
                         f"{step!r}, more nodes than numpy can allocate")
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
    control and :func:`_held_arc` fills the following nodes on its
    closed-form arc until the first of the cone's forms crosses zero,
    solved from the node alone.  Leaving the cone changes the regime, so
    the exit is one event there, from the cone's regime to the regime of
    the first node after the exit that differs from it (the node right
    after may be on the cone's boundary by rounding).  An arc from the
    identity gives nodes that are exactly ``exp(t_k u)``.

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
    speed = _curve_speed(norm.dual_value(lam[list(pol)]))
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

    size = spec.matrix_size
    n_steps = whole_steps(t_end, step, size)
    times = step * np.arange(n_steps + 1)
    points = np.empty((n_steps + 1, size, size))
    controls = np.empty((n_steps + 1, len(pol)))
    duals = np.empty((n_steps + 1, len(pol)))
    points[0] = spec.identity()
    controls[0], duals[0] = control(points[0], 0.0)
    events: list[FaceEvent] = []
    regime = norm.regime_id(duals[0])

    # The last cone exit, until a node shows its change of regime.
    i, exit_t = 0, None
    while i < n_steps:
        # One RK4 step to node i + 1, from node i or from the exit of the
        # cone arc that node i holds.
        g, u, t, h = points[i], controls[i], times[i], step
        cone = norm.corner_cone(duals[i])
        if cone is not None:
            rate, curve, q = arc_terms(spec, lam, g, u, pol)
            exit_at, k = _held_arc(spec, lam, pol, None if i == 0 else g, u,
                                   t, cone(duals[i], rate, curve), q,
                                   times, points, duals, controls, i + 1)
            i = k - 1
            if i == n_steps:
                # The arc reaches the horizon, or exits on its last node.
                break
            root, g = exit_at[:2]
            exit_t = t + root
            if root == times[i] - t:
                # The exit is a grid node: step on from it.
                t = times[i]
            else:
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
            exit_t = None
        regime = new_regime
        points[i + 1] = g_next
        i += 1

    return Trajectory(group=spec, norm=norm, polarization=pol, lam=lam,
                      times=times, points=points, controls=controls,
                      duals=duals, face_ids=np.full(n_steps + 1, -1),
                      speed=speed, events=events, rule="smooth", step=step)


# ---------------------------------------------------------------------------
# Polyhedral integrator


def _select_control(poly: Polyhedron, face, speed: float) -> np.ndarray:
    """The maximizing control picked in a face: ``speed`` times the
    barycenter of its vertices."""
    return speed * poly.vertices[list(face.vertex_ids)].mean(axis=0)


def integrate_polyhedral(spec: groups.GroupSpec, norm: convex.Norm,
                         lam: np.ndarray, t_end: float, step: float,
                         polarization: tuple[int, ...] | None = None
                         ) -> Trajectory:
    """Integrate the normal flow of a polytope velocity ball.

    Between face events the control ``u`` is constant, so the curve is
    a chain of closed-form subgroup arcs ``g_seg exp(s U)``.  Each arc
    ends where the outsider gap of the face ``F``

        h(s) = max_{j not in F} v_j . xi(s) - max_{j in F} v_j . xi(s),

    crosses zero upward, so a tie left by the previous switch is not a
    switch again.  Each support ``v_j . xi(s)`` is a form of
    :func:`arc_terms`' kernels, and the members tie in its first two
    coefficients, so ``h`` is the max of the outsiders' forms less the
    face's, and :func:`_held_arc` solves its exit in closed form: event
    times do not depend on ``step``, and a visit that starts and ends
    within one step is seen.

    The face after a switch is the subface of the touching face that
    the dual point's velocity (:func:`arc_terms`, under the current
    control) exposes, reselecting the control until face and control
    agree; so an instant pass through a lower face (vertex, edge,
    vertex) is one event, and event times increase strictly.  A start
    face that splits at once gives an event at t = 0, and
    ``controls[0]`` holds the control the curve leaves with.
    """
    poly = convex.as_polyhedron(norm)
    pol = spec.polarization if polarization is None else tuple(polarization)
    lam = np.asarray(lam, dtype=float)
    speed = _curve_speed(poly.dual_value(lam[list(pol)]))

    def face_after(touch, t: float, g: np.ndarray, u: np.ndarray, picked):
        """The face the dual point enters from ``touch``, its control,
        the face ``picked`` that control was picked on, and the vertex
        supports' :func:`arc_terms` under that control: their rates,
        their second terms, and ``q``.

        ``u`` is kept on every face that contains ``picked``; any other
        face gets a control picked on it, and the terms are taken again
        under that control.
        """
        tried: set[int] = set()
        while True:
            velocity, curve, q = arc_terms(spec, lam, g, u, pol)
            rates = poly.vertices @ velocity
            if not np.isfinite(rates).all():
                raise IntegrationError("dual point velocity overflows", t)
            face = poly.subface(touch, velocity)
            if picked.vertex_set <= face.vertex_set:
                return face, u, picked, (rates, poly.vertices @ curve, q)
            if face.fid in tried:
                raise IntegrationError("no face after the event keeps its "
                                       "own control", t)
            tried.add(face.fid)
            u, picked = _select_control(poly, face, speed), face

    size = spec.matrix_size
    n_steps = whole_steps(t_end, step, size)
    times = step * np.arange(n_steps + 1)
    points = np.empty((n_steps + 1, size, size))
    controls = np.empty((n_steps + 1, len(pol)))
    duals = np.empty((n_steps + 1, len(pol)))
    face_ids = np.empty(n_steps + 1, dtype=int)

    g = spec.identity()
    xi = groups.coadjoint_dual_point(spec, lam, g, pol)
    touch = poly.face_of(xi)
    u = _select_control(poly, touch, speed)
    face, u, picked, terms = face_after(touch, 0.0, g, u, touch)
    events: list[FaceEvent] = []
    if face.fid != touch.fid:
        events.append(FaceEvent(0.0, touch.fid, face.fid))

    points[0] = g
    controls[0] = u
    duals[0] = xi
    face_ids[0] = touch.fid

    t_seg, k = 0.0, 1
    while k <= n_steps:
        rates, bends, q = terms
        supports = np.array([poly.vertices @ xi, rates, bends])
        members = np.zeros(len(poly.vertices), dtype=bool)
        members[list(face.vertex_ids)] = True
        # The members' largest second term is the face's own form for
        # every s, as C_q >= 0.
        forms = (supports[:, ~members]
                 - supports[:, members].max(axis=1, keepdims=True))
        first = k
        exit_at, k = _held_arc(spec, lam, pol, g, u, t_seg, forms, q, times,
                               points, duals, controls, k)
        face_ids[first:k] = face.fid
        if exit_at is None:
            break
        root, g, xi = exit_at
        t_next = t_seg + root
        touch = poly.face_of(xi)
        new_face, u, picked, terms = face_after(touch, t_next, g, u, picked)
        if new_face.fid != face.fid:
            events.append(FaceEvent(t_next, face.fid, new_face.fid))
            if len(events) > MAX_SWITCHES:
                raise FaceThrashError(events)
        elif t_next == t_seg:
            # Rounding stalled the arc: the same state would repeat.
            raise IntegrationError("a face switch advanced neither "
                                   "time nor face", t_seg)
        face, t_seg = new_face, t_next

    return Trajectory(group=spec, norm=norm, polarization=pol, lam=lam,
                      times=times, points=points, controls=controls,
                      duals=duals, face_ids=face_ids, speed=speed,
                      events=events, rule="persistent", step=step)


def integrate(spec: groups.GroupSpec, norm: convex.Norm, lam: np.ndarray,
              t_end: float, step: float,
              polarization: tuple[int, ...] | None = None) -> Trajectory:
    """Integrate a normal curve with the integrator its norm needs:
    :func:`integrate_polyhedral` for polytope balls,
    :func:`integrate_smooth` for every other norm."""
    integrator = (integrate_polyhedral
                  if norm.convexity_class == "polyhedral"
                  else integrate_smooth)
    return integrator(spec, norm, lam, t_end, step, polarization)


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
    n_steps = whole_steps(t_end, step, spec.matrix_size)
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
