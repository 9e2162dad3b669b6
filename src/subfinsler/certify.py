"""Quantitative face stability certificates and explicit shortcuts.

The stability mechanism has three ingredients: a star covering of the
dual sphere of a polytope ball with its Lebesgue-style bound ``delta``;
a bound ``M`` on how fast the adjoint action can move dual points,

    M(rho) = max { N(Ad_g [X, Y]) : d(1, g) <= rho, N(X) = N(Y) = 1 },

where ``N`` is the max norm on algebra coordinates and the distance is
the sub-Finsler one of the curve's own ball (:func:`adjoint_bracket_bound`
gives ``M`` in closed form); and the observation that the dual point of
a normal curve of speed ``r`` moves at rate at most ``r * N*(lam) * M``.
Consequently the exposed faces seen inside any time window shorter than
``delta / (N*(lam) * M)`` all contain a common dual-sphere point, hence
lie in a common closed face.

:func:`verify_face_stability` checks that conclusion window by window
on an integrated trajectory, :func:`finsler_short_bound` turns it into
a geodesic statement for short curves, :func:`abelianized_minimality`
applies the same window check to the curve projected to the
abelianization (it reads the curve's own face history, which the
projection preserves when its differential is invertible on the
polarization), and :func:`vertical_shortcut` constructs the explicit
quadrilateral path that beats the central one-parameter subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from itertools import product

import numpy as np
from scipy.linalg import qr

from . import convex, flow, groups
from .polyhedra import Polyhedron


@dataclass(frozen=True)
class MEstimate:
    """The adjoint bracket bound ``M(radius) = bracket * exp(radius * rate)``.

    ``bracket`` bounds ``N([X, Y])`` measured through the derived algebra
    and ``rate`` bounds how fast ``Ad_g`` can stretch it per unit of
    length; both are read off the structure constants and the ball, so
    the JSON form carries everything needed to recompute ``value``.
    """

    radius: float
    bracket: float
    rate: float

    @property
    def value(self) -> float:
        return self.bracket * math.exp(self.radius * self.rate)

    def to_json_dict(self) -> dict:
        return {"value": float(self.value), "radius": float(self.radius),
                "method": "closed-form", "bracket": float(self.bracket),
                "rate": float(self.rate)}


@dataclass
class StabilityCertificate:
    """Outcome of a windowed face stability check.

    ``lp_solves`` counts the star-covering LPs behind ``delta``; it is 0
    when ``delta`` was given rather than computed.
    """

    verdict: bool
    window: float
    delta: float
    m_estimate: MEstimate
    lam: np.ndarray
    lam_reference_dual: float
    speed: float
    violations: list[dict] = dataclass_field(default_factory=list)
    kind: str = "face-stability"
    lp_solves: int = 0

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": bool(self.verdict),
            "window": float(self.window),
            "delta": float(self.delta),
            "lp_solves": int(self.lp_solves),
            "m": self.m_estimate.to_json_dict(),
            "covector": [float(x) for x in self.lam],
            "covector_reference_dual": float(self.lam_reference_dual),
            "speed": float(self.speed),
            "violations": self.violations,
        }


# ---------------------------------------------------------------------------
# The adjoint bracket bound


def adjoint_bracket_bound(spec: groups.GroupSpec, radius: float,
                          ball: Polyhedron,
                          polarization: tuple[int, ...] | None = None
                          ) -> MEstimate:
    """Bound N(Ad_g [X, Y]) over the radius ball and N(X) = N(Y) = 1.

    ``N`` is the max norm on algebra coordinates and ``g`` ranges over
    the points reached from the identity by curves of length at most
    ``radius`` whose velocities, on the ``polarization``, are measured
    by the gauge of ``ball``.

    Brackets lie in the derived algebra ``D = [g, g]``, with orthonormal
    basis ``Q`` from pivoted QR, and ``Ad_g`` preserves ``D``.  So
    ``N(Ad_g Z) <= max_i |Q^T e_i|_2 * |Q^T Ad_g Q|_2 * |Z|_2``, and the
    Euclidean norm of a bracket of unit-cube vectors peaks at a pair of
    cube vertices, since the bracket is bilinear.  Along a curve
    ``d/dt Ad_g = Ad_g ad_u``, so by Groenwall ``|Q^T Ad_g Q|_2`` is at
    most ``exp(length * rate)``, where ``rate`` is the largest
    logarithmic norm ``lambda_max(sym(Q^T ad_v Q))`` over the vertices
    ``v`` of the ball (it is sublinear in ``v``).  When ``dim D <= 1``,
    ``Ad_g`` acts on ``D`` as a scalar and the bound is attained by the
    arc along the best vertex.
    """
    pol = spec.polarization if polarization is None else tuple(polarization)
    structure = spec.structure
    q, r, _ = qr(structure.reshape(-1, spec.dim).T, mode="economic",
                 pivoting=True)
    pivots = np.abs(np.diag(r))
    q = q[:, pivots > 1e-12 * pivots[0]]
    corners = np.array(list(product((-1.0, 1.0), repeat=spec.dim)))
    brackets = np.einsum("ai,bj,ijk->abk", corners, corners, structure)
    bracket = (float(np.max(np.linalg.norm(q, axis=1)))
               * float(np.max(np.linalg.norm(brackets, axis=-1))))
    velocities = np.zeros((len(ball.vertices), spec.dim))
    velocities[:, list(pol)] = ball.vertices
    ads = np.array([groups.ad_matrix(spec, v) for v in velocities])
    sym = q.T @ (0.5 * (ads + ads.transpose(0, 2, 1))) @ q
    # The ball is symmetric, so the rate is never negative; 0 covers an
    # abelian algebra, where D is trivial.
    rate = float(np.max(np.linalg.eigvalsh(sym), initial=0.0))
    return MEstimate(radius, bracket, rate)


def _reference_dual(lam: np.ndarray) -> float:
    """N*(lam): the sum norm, dual to the max norm N."""
    return float(np.sum(np.abs(lam)))


def stability_window(delta: float, lam_reference_dual: float,
                     m_value: float) -> float:
    """Window length delta / (N*(lam) * M); infinite when M vanishes."""
    if lam_reference_dual <= 0.0:
        raise ValueError("covector must be nonzero")
    if m_value == 0.0:
        return math.inf
    return delta / (lam_reference_dual * m_value)


# ---------------------------------------------------------------------------
# Windowed face checks


def _segments(traj: flow.Trajectory) -> list[tuple[float, float, int]]:
    """Constant-face intervals (t_start, t_end, face_id) of a trajectory."""
    t_end = float(traj.times[-1])
    segs = []
    start = 0.0
    fid = int(traj.face_ids[0])
    for event in traj.events:
        segs.append((start, float(event.t), int(event.from_face)))
        start = float(event.t)
        fid = int(event.to_face)
    segs.append((start, t_end, fid))
    return segs


def verify_face_stability(traj: flow.Trajectory, window: float,
                          m_estimate: MEstimate, delta: float,
                          lam_reference_dual: float) -> StabilityCertificate:
    """Check that faces seen within any window share a common face.

    Windows of the given length slide over the grid nodes and the event
    times; the faces active on the open window must all be contained in
    one closed face of the sphere complex.  Transitions through a
    common superface (vertex to vertex across their edge, say) are
    legitimate; a genuine violation needs two incompatible faces inside
    one window.  Every face lies in a facet, so the faces share a
    closed face exactly when some facet contains them all, that is when
    their ``facets`` intersect.
    """
    facets = [frozenset(f.facets)
              for f in convex.as_polyhedron(traj.norm).faces()]
    segs = _segments(traj)
    t_final = float(traj.times[-1])
    starts = sorted(set([float(t) for t in traj.times]
                        + [s for s, _, _ in segs]))
    violations = []
    if math.isfinite(window):
        for start in starts:
            stop = start + window
            if stop > t_final + 1e-12:
                break
            active = {fid for s, e, fid in segs
                      if s < stop - 1e-15 and e > start + 1e-15}
            if len(active) > 1 and not frozenset.intersection(
                    *(facets[fid] for fid in active)):
                violations.append({
                    "t_start": float(start), "t_end": float(stop),
                    "face_ids": sorted(int(f) for f in active)})
    return StabilityCertificate(
        verdict=len(violations) == 0, window=window, delta=delta,
        m_estimate=m_estimate, lam=traj.lam,
        lam_reference_dual=lam_reference_dual, speed=traj.speed,
        violations=violations)


def certify_trajectory(traj: flow.Trajectory,
                       window: float | None = None) -> StabilityCertificate:
    """Full pipeline: covering bound, adjoint bound, windowed check.

    The adjoint bound radius is the curve length, since the curve
    starts at the identity, and its ball is the curve's own.  An
    explicit ``window`` overrides the derived one.
    """
    ball = convex.as_polyhedron(traj.norm)
    covering = ball.star_covering()
    radius = traj.speed * float(traj.times[-1])
    m_est = adjoint_bracket_bound(traj.group, radius, ball, traj.polarization)
    lam_dual = _reference_dual(traj.lam)
    if window is None:
        window = stability_window(covering.delta, lam_dual, m_est.value)
    cert = verify_face_stability(traj, window, m_est, covering.delta,
                                 lam_dual)
    cert.lp_solves = covering.lp_solves
    return cert


def finsler_short_bound(delta: float, m_of_radius, l_max: float = 64.0,
                        rel_tol: float = 1e-12) -> float:
    """Largest length L with delta / (L * M(L)) > 1, by bisection.

    Curves shorter than the returned bound keep their controls inside a
    single face.  ``m_of_radius`` maps a radius to the adjoint bound;
    the quotient is decreasing, so plain bisection applies.
    """

    def admissible(length: float) -> bool:
        m = m_of_radius(length)
        if m == 0.0:
            return True
        return delta / (length * m) > 1.0

    if admissible(l_max):
        return l_max
    lo, hi = 0.0, l_max
    while hi - lo > rel_tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if admissible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def abelianized_minimality(sub: groups.SubmetryData, traj: flow.Trajectory
                           ) -> StabilityCertificate:
    """Windowed face check for the projected curve in the abelianization.

    ``dpi`` restricted to the polarization must be square and
    invertible.  It then maps the velocity ball linearly onto the
    projected ball, so the faces of the two balls correspond one to one,
    the covering bound ``delta`` is the same for both, and the projected
    controls change face exactly when the curve's own controls do.  The
    window check therefore runs on the curve's own face history: with
    ``alpha = delta / M(1)`` the projected controls stay within a common
    face on every window of length ``alpha / N*(lam)``, which makes the
    projected curve, and hence the curve itself, minimizing on such
    windows.  The certificate reports the projected covector.
    """
    dpi_v = sub.dpi_on_polarization(traj.polarization)
    if (dpi_v.shape[0] != dpi_v.shape[1]
            or np.linalg.matrix_rank(dpi_v, tol=1e-12) < dpi_v.shape[0]):
        raise ValueError("the differential of the submetry is not "
                         "invertible on the polarization")
    ball = convex.as_polyhedron(traj.norm)
    covering = ball.star_covering()
    delta = covering.delta
    m_est = adjoint_bracket_bound(sub.source, 1.0, ball, traj.polarization)
    lam_dual = _reference_dual(traj.lam)
    alpha = delta if m_est.value == 0.0 else delta / m_est.value
    cert = verify_face_stability(traj, alpha / lam_dual, m_est, delta,
                                 lam_dual)
    cert.kind = "abelianized-minimality"
    cert.lp_solves = covering.lp_solves
    cert.lam = dpi_v @ traj.lam[list(traj.polarization)]
    return cert


# ---------------------------------------------------------------------------
# The vertical shortcut


@dataclass(frozen=True)
class ShortcutPath:
    """A four-leg horizontal path reaching exp(eps * B3) in the
    Heisenberg group with max-norm unit controls.

    Each leg runs for time beta; the planar projection traces a square
    of side beta enclosing area beta**2, and the total length 4*beta is
    strictly below the central subgroup length eps = 4*beta + beta**2.
    """

    eps: float
    beta: float
    controls: np.ndarray
    endpoint: np.ndarray
    target: np.ndarray
    length: float
    times: np.ndarray
    points: np.ndarray

    @property
    def endpoint_gap(self) -> float:
        return float(np.linalg.norm(self.endpoint - self.target))

    def planar_loop(self) -> np.ndarray:
        return np.array([[p[0, 1], p[1, 2]] for p in self.points])

    def to_json_dict(self) -> dict:
        return {
            "eps": float(self.eps),
            "beta": float(self.beta),
            "length": float(self.length),
            "endpoint_gap": self.endpoint_gap,
            "controls": [[float(x) for x in row] for row in self.controls],
        }


def vertical_shortcut(eps: float, samples_per_leg: int = 16) -> ShortcutPath:
    """Reach exp(eps * B3) by a horizontal square loop of length 4*beta.

    The legs use controls B1 + B3, B2 + B3, -B1 + B3, -B2 + B3, each of
    unit max norm, for time beta each.  The planar loop contributes
    area beta**2 of extra central drift, so the leg time solves
    4*beta + beta**2 = eps, i.e. beta = sqrt(4 + eps) - 2.
    """
    if eps <= 0.0:
        raise ValueError("the central target must have positive height")
    spec = groups.heisenberg_group()
    beta = math.sqrt(4.0 + eps) - 2.0
    controls = np.array([
        [1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0],
        [-1.0, 0.0, 1.0],
        [0.0, -1.0, 1.0],
    ])
    times = [0.0]
    points = [spec.identity()]
    for leg in range(4):
        hop = groups.exp(spec, (beta / samples_per_leg) * controls[leg])
        for _ in range(samples_per_leg):
            points.append(points[-1] @ hop)
            times.append(times[-1] + beta / samples_per_leg)
    target = groups.exp(spec, np.array([0.0, 0.0, eps]))
    return ShortcutPath(eps=eps, beta=beta, controls=controls,
                        endpoint=points[-1], target=target,
                        length=4.0 * beta, times=np.array(times),
                        points=np.array(points))
