"""Quantitative face stability certificates and explicit shortcuts.

The stability mechanism has three ingredients: a star covering of the
dual sphere of a polytope ball with its Lebesgue-style bound ``delta``;
a bound ``M`` on how fast the adjoint action can move dual points,

    M(rho) = max { N(Ad_g [X, Y]) : d(1, g) <= rho, N(X) = N(Y) = 1 },

where ``N`` is the max norm on algebra coordinates and the distance is
the sub-Finsler one of the curve's own ball (:func:`adjoint_bracket_bound`
gives ``M`` in closed form); and the observation that the dual point of
a normal curve of speed ``r`` moves at rate at most
``r * N*(lam) * M * c**2`` in the ball's dual gauge, where the ball
scale ``c`` (:func:`ball_scale`) bounds ``N`` on the ball.
Consequently the exposed faces seen inside any time window shorter than
``delta / (N*(lam) * M * c**2)`` all contain a common dual-sphere point,
hence lie in a common closed face.

:func:`verify_face_stability` checks that conclusion exactly, at every
window position (a window longer than the run is clipped to it), on
the face history of an integrated trajectory; :func:`certify_trajectory`
and :func:`abelianized_minimality` (the curve projected to the
abelianization, whose face history is the curve's own when the
projection's differential is invertible on the polarization) build
their certificates through it; :func:`finsler_short_bound` turns the
window into a closed-form length bound for short curves (a Lambert W
value); and :func:`vertical_shortcut` constructs the explicit
quadrilateral path that beats the central one-parameter subgroup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

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


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of a windowed face stability check.

    ``violations`` holds one window per minimal run of faces that share
    no closed face yet fit in one window, so the verdict holds exactly
    when there is none.  ``lp_solves`` counts the star-covering LPs
    behind ``delta``, and ``ball_scale`` is the ball's ``c``
    (:func:`ball_scale`).
    """

    kind: str
    window: float
    delta: float
    lp_solves: int
    m_estimate: MEstimate
    ball_scale: float
    lam: np.ndarray
    lam_reference_dual: float
    speed: float
    violations: list[dict]

    @property
    def verdict(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": bool(self.verdict),
            "window": float(self.window),
            "delta": float(self.delta),
            "lp_solves": int(self.lp_solves),
            "m": self.m_estimate.to_json_dict(),
            "ball_scale": float(self.ball_scale),
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
    basis ``Q`` from an SVD of the structure constants, and ``Ad_g``
    preserves ``D``.  So
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
    # D is the range of the structure matrix and of its Gram matrix,
    # whose SVD gives each bundled group's basis exactly.
    span = structure.reshape(-1, spec.dim).T
    q, sing, _ = np.linalg.svd(span @ span.T)
    q = q[:, sing > 1e-12 * sing[0]]
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


def ball_scale(vertices: np.ndarray) -> float:
    """The ball scale ``c``: the largest max norm of a ball vertex.

    Embedding through a polarization moves coordinates without changing
    them, so ``c`` bounds ``N`` on the embedded ball, and a control of
    speed ``r`` has ``N(u) <= r * c``.
    """
    return float(np.max(np.abs(vertices)))


def stability_window(delta: float, lam_reference_dual: float,
                     m_value: float, scale: float) -> float:
    """Window length delta / (N*(lam) * M * c**2) for ``delta`` and ``M``
    at least zero and the ball scale ``c = scale`` positive, rounded
    down; infinite when M vanishes.

    Along the curve ``xi'(Y) = lam(Ad_g [u, Y])`` with ``u`` in ``r B``
    and ``Y`` in ``B``, so ``N(u) <= r c`` and ``N(Y) <= c``, and
    ``xi / r`` moves at most ``N*(lam) M c**2`` in the dual gauge of
    ``B``, in which ``delta`` is measured.

    The quotient is taken exactly, in integers over powers of two
    (every float is one such ratio): int / int rounds correctly to
    nearest, and a result above the exact value is stepped down one
    ulp, so the window never exceeds the exact window of its float
    inputs, and an exact quotient is returned as it is.  A product
    ``N*(lam) * M * c**2`` beyond the float range gives 0.0.
    """
    if lam_reference_dual <= 0.0:
        raise ValueError("covector must be nonzero")
    if not scale > 0.0:
        raise ValueError("the ball scale must be positive")
    if m_value == 0.0:
        return math.inf
    product = lam_reference_dual * m_value * scale * scale
    if not math.isfinite(product):
        return delta / product
    (n_d, d_d), (n_l, d_l), (n_m, d_m), (n_c, d_c) = (
        x.as_integer_ratio()
        for x in (delta, lam_reference_dual, m_value, scale))
    num, den = n_d * d_l * d_m * d_c * d_c, d_d * n_l * n_m * n_c * n_c
    out = num / den
    out_num, out_den = out.as_integer_ratio()
    if out_num * den > num * out_den:
        out = math.nextafter(out, 0.0)
    return out


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


def verify_face_stability(traj: flow.Trajectory, window: float
                          ) -> list[dict]:
    """Windows of the given length whose faces share no closed face.

    Open windows slide over the whole run, clipped to it: ``span =
    min(window, T)``, so ``inf`` (M = 0) checks the whole run.  Faces
    share a closed face exactly when their ``facets`` intersect, so a
    vertex to vertex pass across their edge is fine.  A window meets the
    face segments ``i..j`` (zero-length ones dropped) exactly when those
    strictly between them total less than ``span``; each minimal
    incompatible run so met gives one violation.
    """
    facets = [frozenset(f.facets)
              for f in convex.as_polyhedron(traj.norm).faces()]
    t_final = float(traj.times[-1])
    span = min(window, t_final)
    segs = [seg for seg in _segments(traj) if seg[1] > seg[0]]
    violations, last = [], None
    for i, (_, end, fid) in enumerate(segs):
        common = facets[fid]
        for j in range(i + 1, len(segs)):
            if segs[j][0] - end >= span:
                break
            common = common & facets[segs[j][2]]
            if not common:
                if last == j:
                    violations.pop()  # that run contains the run i..j
                last = j
                # Starts in (s_j - span, e_i) within [0, T - span] meet
                # segments i..j; take the middle of that range.
                start = 0.5 * (max(segs[j][0] - span, 0.0)
                               + min(end, t_final - span))
                violations.append({
                    "t_start": start, "t_end": start + span,
                    "face_ids": sorted({f for _, _, f in segs[i:j + 1]})})
                break
    return violations


def _certificate(kind: str, traj: flow.Trajectory, radius: float,
                 lam: np.ndarray, window: float | None,
                 image: np.ndarray | None = None) -> StabilityCertificate:
    """Covering, ``M(radius)`` and window of the curve's ball and group;
    the ball scale is that of the ball's image under the linear map
    ``image``, if one is given.

    Raises ValueError for a curve with no face history (face ids -1,
    as on smooth-norm and subgroup runs).
    """
    if np.any(traj.face_ids < 0):
        raise ValueError("the curve carries no face history")
    ball = convex.as_polyhedron(traj.norm)
    covering = ball.star_covering()
    m_est = adjoint_bracket_bound(traj.group, radius, ball, traj.polarization)
    scale = ball_scale(ball.vertices if image is None
                       else ball.vertices @ image.T)
    lam_dual = float(np.sum(np.abs(traj.lam)))  # N*: the sum norm
    if window is None:
        window = stability_window(covering.delta, lam_dual, m_est.value,
                                  scale)
    return StabilityCertificate(
        kind=kind, window=window, delta=covering.delta,
        lp_solves=covering.lp_solves, m_estimate=m_est, ball_scale=scale,
        lam=lam, lam_reference_dual=lam_dual, speed=traj.speed,
        violations=verify_face_stability(traj, window))


def certify_trajectory(traj: flow.Trajectory,
                       window: float | None = None) -> StabilityCertificate:
    """Full pipeline: covering bound, adjoint bound, windowed check.

    The adjoint bound radius is the curve length, since the curve
    starts at the identity, and the ball scale is that of the curve's
    own ball.  An explicit ``window`` overrides the derived one.
    """
    return _certificate("face-stability", traj,
                        traj.speed * float(traj.times[-1]), traj.lam, window)


def finsler_short_bound(delta: float, bracket: float, rate: float,
                        scale: float) -> float:
    """The length L with L * M(L) * c**2 = delta, for M(L) = bracket
    e^(L rate) and the ball scale ``c = scale``.

    Curves shorter than L keep their controls inside a single face.
    With ``x = L * rate`` the equation reads ``x e^x = delta * rate /
    (bracket c**2)``, solved by the Lambert W function.
    """
    if bracket == 0.0:
        return math.inf
    weight = bracket * scale * scale
    if rate == 0.0:
        return delta / weight
    return lambert_w(delta * rate / weight) / rate


def lambert_w(x: float) -> float:
    """The principal branch ``W(x)`` of ``w e^w = x``, for ``x >= 0``.

    Halley's iteration on ``w e^w - x`` (Corless, Gonnet, Hare, Jeffrey &
    Knuth, "On the Lambert W function", *Adv. Comput. Math.* 5, 1996)
    from ``log1p(x)``, which lies above the root.  It converges
    cubically: six steps reach rounding on every positive float.
    """
    if not x >= 0.0:
        raise ValueError("the Lambert W argument must be nonnegative")
    if x == 0.0 or math.isinf(x):
        return x
    w = math.log1p(x)
    for _ in range(10):
        # The residual w e^w - x over e^w, which cannot overflow.
        f = w - x * math.exp(-w)
        step = f / (w + 1.0 - (w + 2.0) * f / (2.0 * w + 2.0))
        w -= step
        if abs(step) <= 1e-16 * w:
            break
    return w


def abelianized_minimality(sub: groups.SubmetryData, traj: flow.Trajectory,
                           window: float | None = None
                           ) -> StabilityCertificate:
    """Windowed face check for the projected curve in the abelianization.

    ``traj`` must run on the source group, and ``dpi`` restricted to the
    polarization must be square and invertible.  It then maps the
    velocity ball linearly onto the projected ball, so the faces of the
    two balls correspond one to one, the covering bound ``delta`` is the
    same for both, and the projected controls change face exactly when
    the curve's own controls do.  The window check therefore runs on the
    curve's own face history: with ``M = M(1)`` and the projected ball's
    scale ``c`` the projected controls stay within a common face on
    every window of length ``delta / (N*(lam) * M * c**2)``, which makes
    the projected curve, and hence the curve itself, minimizing on such
    windows.  The certificate
    reports the projected covector.  An explicit ``window`` overrides
    the derived one, as in :func:`certify_trajectory`.
    """
    if traj.group.name != sub.source.name:
        raise ValueError(f"the curve runs on {traj.group.name!r}, not on "
                         f"the source group {sub.source.name!r}")
    dpi_v = sub.dpi_on_polarization(traj.polarization)
    if (dpi_v.shape[0] != dpi_v.shape[1]
            or np.linalg.matrix_rank(dpi_v, tol=1e-12) < dpi_v.shape[0]):
        raise ValueError("the differential of the submetry is not "
                         "invertible on the polarization")
    return _certificate("abelianized-minimality", traj, 1.0,
                        dpi_v @ traj.lam[list(traj.polarization)], window,
                        dpi_v)


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
    4*beta + beta**2 = eps, i.e. beta = sqrt(4 + eps) - 2, computed as
    eps / (2 + sqrt(4 + eps)), which does not cancel when eps is small.
    """
    if eps <= 0.0:
        raise ValueError("the central target must have positive height")
    spec = groups.heisenberg_group()
    beta = eps / (2.0 + math.sqrt(4.0 + eps))
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
