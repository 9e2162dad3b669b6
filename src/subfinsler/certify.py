"""Quantitative face stability certificates and explicit shortcuts.

The stability mechanism has three ingredients: a star covering of the
dual sphere of a polytope ball with its Lebesgue-style bound ``delta``;
a bound ``M`` on how fast the adjoint action can move dual points,

    M(rho) = max { N(Ad_g [X, Y]) : d(1, g) <= rho, N(X) = N(Y) = 1 },

where ``N`` is a reference norm on algebra coordinates (max norm by
default) and the distance is the sub-Finsler one; and the observation
that the dual point of a normal curve of speed ``r`` moves at rate at
most ``r * N*(lam) * M``.  Consequently the exposed faces seen inside
any time window shorter than ``delta / (N*(lam) * M)`` all contain a
common dual-sphere point, hence lie in a common closed face.

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

import numpy as np

from . import convex, flow, groups
from .polyhedra import Polyhedron

# Multiplicative safety margin applied to sampled suprema.
SAMPLED_INFLATION = 1.1


@dataclass(frozen=True)
class MEstimate:
    """A bound on the adjoint bracket growth at a given radius.

    ``method`` is ``analytic-abelian``, ``analytic-central``, or
    ``sampled``; sampled values are inflated by ``SAMPLED_INFLATION``
    and carry their sampling resolution.
    """

    value: float
    radius: float
    method: str
    resolution: dict = dataclass_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"value": float(self.value), "radius": float(self.radius),
                "method": self.method,
                "resolution": {k: int(v) for k, v in self.resolution.items()}}


@dataclass
class StabilityCertificate:
    """Outcome of a windowed face stability check."""

    verdict: bool
    window: float
    delta: float
    m_estimate: MEstimate
    lam: np.ndarray
    lam_reference_dual: float
    speed: float
    violations: list[dict] = dataclass_field(default_factory=list)
    kind: str = "face-stability"

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": bool(self.verdict),
            "window": float(self.window),
            "delta": float(self.delta),
            "m": self.m_estimate.to_json_dict(),
            "covector": [float(x) for x in self.lam],
            "covector_reference_dual": float(self.lam_reference_dual),
            "speed": float(self.speed),
            "violations": self.violations,
        }


# ---------------------------------------------------------------------------
# The adjoint bracket bound


def _unit_sphere_extremes(norm: convex.Norm) -> np.ndarray | None:
    """Extreme points of the unit ball, when the ball is a polytope."""
    if isinstance(norm, convex.PolyhedralNorm):
        return norm.poly.vertices
    return None


def _brackets_are_central(spec: groups.GroupSpec) -> bool:
    """Whether every bracket lands in the center of the algebra.

    In that case Ad_g fixes all bracket values, so the bound does not
    depend on the group point at all.
    """
    for i in range(spec.dim):
        for j in range(spec.dim):
            if np.max(np.abs(groups.ad_matrix(spec, spec.structure[i, j]))
                      ) > 1e-12:
                return False
    return True


def _pairwise_bracket_max(spec: groups.GroupSpec, n_norm: convex.Norm,
                          adj: np.ndarray, extremes: np.ndarray) -> float:
    best = 0.0
    for x in extremes:
        ad_x = groups.ad_matrix(spec, x)
        for y in extremes:
            best = max(best, n_norm.value(adj @ (ad_x @ y)))
    return best


def adjoint_bracket_bound(spec: groups.GroupSpec, radius: float,
                          n_norm: convex.Norm | None = None,
                          ball_norm: convex.Norm | None = None,
                          polarization: tuple[int, ...] | None = None,
                          n_group: int = 256, pieces: int = 3,
                          n_pairs: int = 512, seed: int = 0) -> MEstimate:
    """Bound N(Ad_g [X, Y]) over the radius ball and unit X, Y.

    ``n_norm`` defaults to the max norm on algebra coordinates and
    measures both the constraint on X, Y and the value.  Group points
    range over the closed sub-Finsler ball of the given radius, reached
    by piecewise one-parameter arcs of admissible velocities measured
    in ``ball_norm`` (defaults to ``n_norm`` restricted to the
    polarization).

    Abelian algebras give zero exactly.  When every bracket is central
    the adjoint action drops out and, for a polytope reference ball,
    the maximum over extreme pairs is exact.  All remaining cases are
    sampled and inflated by ``SAMPLED_INFLATION``.
    """
    if n_norm is None:
        n_norm = convex.MaxNorm(spec.dim)
    if np.max(np.abs(spec.structure)) == 0.0:
        return MEstimate(0.0, radius, "analytic-abelian")

    extremes = _unit_sphere_extremes(n_norm)
    central = _brackets_are_central(spec)
    if central and extremes is not None:
        value = _pairwise_bracket_max(spec, n_norm, np.eye(spec.dim),
                                      extremes)
        return MEstimate(value, radius, "analytic-central",
                         {"pairs": len(extremes) ** 2})

    pol = spec.polarization if polarization is None else tuple(polarization)
    if ball_norm is None:
        ball_norm = convex.MaxNorm(len(pol))
    rng = np.random.default_rng(seed)
    group_points = [spec.identity()]
    for _ in range(n_group):
        g = spec.identity()
        weights = rng.dirichlet(np.ones(pieces))
        for k in range(pieces):
            direction = rng.standard_normal(len(pol))
            direction /= ball_norm.value(direction)
            coords = np.zeros(spec.dim)
            coords[list(pol)] = direction
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            g = g @ groups.exp(spec, sign * radius * weights[k] * coords)
        group_points.append(g)

    if extremes is None:
        pair_list = rng.standard_normal((n_pairs, 2, spec.dim))
        resolution = {"group_points": len(group_points), "pairs": n_pairs,
                      "pieces": pieces}
    else:
        pair_list = None
        resolution = {"group_points": len(group_points),
                      "pairs": len(extremes) ** 2, "pieces": pieces}

    best = 0.0
    for g in group_points:
        adj = groups.adjoint_matrix(spec, g)
        if extremes is not None:
            best = max(best, _pairwise_bracket_max(spec, n_norm, adj,
                                                   extremes))
        else:
            for x_raw, y_raw in pair_list:
                x = x_raw / n_norm.value(x_raw)
                y = y_raw / n_norm.value(y_raw)
                best = max(best,
                           n_norm.value(adj @ groups.bracket(spec, x, y)))
    return MEstimate(SAMPLED_INFLATION * best, radius, "sampled", resolution)


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


def _faces_compatible(poly: Polyhedron, fids: set[int]) -> bool:
    """Whether some closed face contains every face in ``fids``."""
    faces = poly.faces()
    union: set[int] = set()
    for fid in fids:
        union |= set(faces[fid].vertex_ids)
    return any(union <= set(f.vertex_ids) for f in faces)


def verify_face_stability(traj: flow.Trajectory, window: float,
                          m_estimate: MEstimate, delta: float,
                          lam_reference_dual: float) -> StabilityCertificate:
    """Check that faces seen within any window share a common face.

    Windows of the given length slide over the grid nodes and the event
    times; the faces active on the open window must all be contained in
    one closed face of the sphere complex.  Transitions through a
    common superface (vertex to vertex across their edge, say) are
    legitimate; a genuine violation needs two incompatible faces inside
    one window.
    """
    poly = convex.as_polyhedron(traj.norm)
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
            if len(active) > 1 and not _faces_compatible(poly, active):
                violations.append({
                    "t_start": float(start), "t_end": float(stop),
                    "face_ids": sorted(int(f) for f in active)})
    return StabilityCertificate(
        verdict=len(violations) == 0, window=window, delta=delta,
        m_estimate=m_estimate, lam=traj.lam,
        lam_reference_dual=lam_reference_dual, speed=traj.speed,
        violations=violations)


def certify_trajectory(traj: flow.Trajectory,
                       n_norm: convex.Norm | None = None,
                       window: float | None = None) -> StabilityCertificate:
    """Full pipeline: covering bound, adjoint bound, windowed check.

    The adjoint bound radius is the curve length, since the curve
    starts at the identity.  An explicit ``window`` overrides the
    derived one.
    """
    spec = traj.group
    if n_norm is None:
        n_norm = convex.MaxNorm(spec.dim)
    covering = convex.as_polyhedron(traj.norm).star_covering()
    radius = traj.speed * float(traj.times[-1])
    m_est = adjoint_bracket_bound(spec, radius, n_norm=n_norm,
                                  polarization=traj.polarization)
    lam_dual = n_norm.dual_value(traj.lam)
    if window is None:
        window = stability_window(covering.delta, lam_dual, m_est.value)
    return verify_face_stability(traj, window, m_est, covering.delta,
                                 lam_dual)


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


def abelianized_minimality(sub: groups.SubmetryData, traj: flow.Trajectory,
                           n_norm: convex.Norm | None = None
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
    spec = sub.source
    if n_norm is None:
        n_norm = convex.MaxNorm(spec.dim)
    delta = convex.as_polyhedron(traj.norm).star_covering().delta
    m_est = adjoint_bracket_bound(spec, 1.0, n_norm=n_norm,
                                  polarization=traj.polarization)
    lam_dual = n_norm.dual_value(traj.lam)
    alpha = delta if m_est.value == 0.0 else delta / m_est.value
    cert = verify_face_stability(traj, alpha / lam_dual, m_est, delta,
                                 lam_dual)
    cert.kind = "abelianized-minimality"
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
