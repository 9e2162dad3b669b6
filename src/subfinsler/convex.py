"""Norms, kinetic energies, and their convex duals.

The kinetic energy of a norm ``N`` is ``E(v) = N(v)**2 / 2`` and its
convex conjugate is ``E*(eta) = N*(eta)**2 / 2``, where ``N*`` is the
dual norm.  A covector ``eta`` belongs to the subdifferential of ``E``
at ``u`` exactly when

    N*(eta) = N(u)   and   <eta, u> = N(u)**2,

and the symmetric pair of equalities characterizes membership of ``u``
in the subdifferential of ``E*`` at ``eta``.  Both sets, together with
tightness of the Fenchel-Young inequality, are equivalent; the three
tests are exposed side by side by :func:`check_duality_inversion`.

Subdifferentials are returned as :class:`ConvexSet` values: a single
point (``E*`` of a strictly convex ball, :meth:`Norm.grad_dual_energy`),
a polytope listed by its vertices, or a support-oracle set (the disk on
the corner axis of :class:`AxisCornerNorm`).  Membership is always
decided by the defining equalities above, as
:func:`check_duality_inversion` evaluates them, so the test is uniform
across representations.

Every polytope norm is a :class:`PolyhedralNorm` that owns its
:class:`~subfinsler.polyhedra.Polyhedron`, and there the two
subdifferentials are read off the ball: active functionals for ``E``,
the exposed face for ``E*``, and the gauges are one matrix product
with the functionals or the vertices.  The sum and max norms are the
cross-polytope and the cube under their own family names.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .polyhedra import Polyhedron, l1_ball, linf_ball

# Semantic aliases: plain coordinate arrays, covectors act by the dot product.
Vector = np.ndarray
Covector = np.ndarray

# Default tolerance for the subdifferential membership equalities.
MEMBERSHIP_TOL = 1e-9


class NormError(ValueError):
    """Raised for invalid norm parameters or unsupported operations."""


# ---------------------------------------------------------------------------
# Convex sets


@dataclass
class ConvexSet:
    """A convex set in one of three representations.

    ``kind`` is ``"point"``, ``"polytope"`` (vertex list), or
    ``"support"`` (membership oracle plus a sampler).  The
    ``contains`` test always goes through the membership oracle so that
    all three kinds answer membership the same way.
    """

    kind: str
    membership: Callable[[np.ndarray, float], bool]
    point: np.ndarray | None = None
    vertices: np.ndarray | None = None
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None

    def contains(self, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        return bool(self.membership(np.asarray(x, dtype=float), tol))

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Random elements of the set; includes extreme points when known."""
        if self.kind == "point":
            return np.tile(self.point, (count, 1))
        if self.kind == "polytope":
            verts = self.vertices
            rows = [verts[i % len(verts)] for i in range(min(count, len(verts)))]
            while len(rows) < count:
                w = rng.dirichlet(np.ones(len(verts)))
                rows.append(w @ verts)
            return np.array(rows)
        return self.sampler(rng, count)


def _point_set(p: np.ndarray, membership) -> ConvexSet:
    return ConvexSet(kind="point", membership=membership,
                     point=np.asarray(p, dtype=float))


def _vertex_hull(verts: np.ndarray, membership) -> ConvexSet:
    """The convex hull of finitely many points: a point set for one."""
    if verts.shape[0] == 1:
        return _point_set(verts[0], membership)
    return ConvexSet(kind="polytope", membership=membership, vertices=verts)


def _rowwise(kernel):
    """Give a one-vector gauge ``kernel(self, v) -> float`` the stack
    contract of :meth:`Norm.value`: a stack (..., dim) is mapped row by
    row, so each entry keeps the one-vector arithmetic bit for bit."""

    @functools.wraps(kernel)
    def gauge(self, v):
        # A 1-D array goes straight to the kernel, with no conversion:
        # integrate_smooth calls the gauges at every RK4 stage.
        if getattr(v, "ndim", None) != 1:
            v = np.asarray(v, dtype=float)
            if v.ndim > 1:
                rows = v.reshape(-1, v.shape[-1])
                out = np.array([kernel(self, row) for row in rows],
                               dtype=float)
                return out.reshape(v.shape[:-1])
        return kernel(self, v)

    return gauge


def _sign_completions(u: np.ndarray) -> np.ndarray:
    """All sign vectors matching sign(u) where u is nonzero; +-1 elsewhere."""
    u = np.asarray(u, dtype=float)
    free = np.nonzero(u == 0.0)[0]
    base = np.sign(u)
    if len(free) == 0:
        return base[None, :]
    combos = np.array(np.meshgrid(*([[-1.0, 1.0]] * len(free))))
    combos = combos.reshape(len(free), -1).T
    out = np.tile(base, (combos.shape[0], 1))
    out[:, free] = combos
    return out


# ---------------------------------------------------------------------------
# Norm families


class Norm:
    """Base class: a norm with exact dual norm and subdifferentials."""

    family: str = ""
    # One of ``polyhedral``, ``smooth-strongly-convex``, or
    # ``strongly-convex`` (strictly convex but with corners).
    convexity_class: str = ""
    dim: int = 0

    # gauge ----------------------------------------------------------

    def value(self, v: Vector) -> float | np.ndarray:
        """The norm of ``v``, of shape (..., dim).

        One vector gives a Python float; a stack gives an array of the
        leading shape, entry by entry the one-vector value (to rounding
        where a polytope gauge is one matrix product)."""
        raise NotImplementedError

    def dual_value(self, eta: Covector) -> float | np.ndarray:
        """The dual norm of ``eta``, of shape (..., dim), with the stack
        contract of :meth:`value`."""
        raise NotImplementedError

    # gradient of the dual energy --------------------------------------

    def grad_dual_energy(self, eta: Covector) -> Vector:
        """Gradient of ``E*`` at ``eta``: the one element of its
        subdifferential, zero at the zero covector.

        Defined only when that set is a point (strictly convex ball);
        polyhedral norms raise."""
        raise NormError(f"gradient of the {self.family} dual energy is "
                        f"set-valued")

    def regime_id(self, eta: Covector) -> int:
        """Discrete label of the smooth piece of ``E*`` at ``eta``.

        Used by the integrators to locate kink crossings; norms whose
        dual energy is globally smooth return a constant."""
        return 0

    def corner_cone(self, eta: Covector
                    ) -> Callable[[np.ndarray, np.ndarray, np.ndarray],
                                  np.ndarray] | None:
        """The switching forms of the corner cone strictly holding
        ``eta``, or None when no such cone does.

        A corner cone is the normal cone of a corner of the unit ball:
        on it ``grad E*(xi) = N*(xi) * corner``, so a normal curve keeps
        its control there, and its dual point moves as
        ``xi(s) = a + S(s) b + C(s) c`` (:func:`subfinsler.flow.arc_terms`).
        The returned map takes those coefficients ``(a, b, c)`` to the
        rows ``(k0, k1, k2)`` of forms ``k0 + k1 S + k2 C`` whose max is
        negative exactly inside the cone along such an arc."""
        return None

    # subdifferentials -------------------------------------------------

    def subdiff_energy(self, u: Vector) -> ConvexSet:
        raise NotImplementedError

    def subdiff_dual_energy(self, eta: Covector) -> ConvexSet:
        """For strictly convex balls this is the singleton gradient
        (zero at the zero covector)."""
        eta = np.asarray(eta, dtype=float)
        return _point_set(self.grad_dual_energy(eta),
                          self._dual_membership(eta))

    def _membership(self, u: Vector):
        """Membership oracle for the subdifferential of ``E`` at ``u``."""
        u = np.asarray(u, dtype=float)
        return lambda eta, tol: check_duality_inversion(self, u, eta, tol)[0]

    def _dual_membership(self, eta: Covector):
        """Membership oracle for the subdifferential of ``E*`` at ``eta``."""
        eta = np.asarray(eta, dtype=float)
        return lambda v, tol: check_duality_inversion(self, v, eta, tol)[2]

    # serialization ----------------------------------------------------

    def params_dict(self) -> dict:
        return {}

    def to_json_dict(self) -> dict:
        return {"family": self.family, "dim": int(self.dim),
                "params": self.params_dict()}


class EuclideanNorm(Norm):
    """The round norm; self-dual, globally smooth off the origin."""

    family = "euclidean"
    convexity_class = "smooth-strongly-convex"

    def __init__(self, dim: int):
        self.dim = int(dim)

    @_rowwise
    def value(self, v):
        return float(np.linalg.norm(np.asarray(v, dtype=float)))

    # The round ball is its own polar.
    dual_value = value

    def grad_dual_energy(self, eta):
        return np.array(eta, dtype=float)

    def subdiff_energy(self, u):
        u = np.asarray(u, dtype=float)
        return _point_set(u.copy(), membership=self._membership(u))


class PolyhedralNorm(Norm):
    """Norm whose unit ball is an explicit symmetric polytope."""

    family = "polyhedral"
    convexity_class = "polyhedral"

    def __init__(self, poly: Polyhedron):
        self.poly = poly
        self.dim = poly.dim

    def value(self, v):
        return self.poly.value(v)

    def dual_value(self, eta):
        return self.poly.dual_value(eta)

    def subdiff_energy(self, u):
        u = np.asarray(u, dtype=float)
        n = self.value(u)
        member = self._membership(u)
        if n == 0.0:
            return _point_set(np.zeros(self.dim), membership=member)
        vals = self.poly.functionals @ u
        active = np.nonzero(vals >= n * (1.0 - 1e-12))[0]
        return _vertex_hull(n * self.poly.functionals[active], member)

    def subdiff_dual_energy(self, eta):
        eta = np.asarray(eta, dtype=float)
        nd = self.dual_value(eta)
        member = self._dual_membership(eta)
        if nd == 0.0:
            return _point_set(np.zeros(self.dim), membership=member)
        face = self.poly.face_of(eta)
        return _vertex_hull(nd * self.poly.vertices[list(face.vertex_ids)],
                            member)

    def params_dict(self):
        return self.poly.to_json_dict()


class SumNorm(PolyhedralNorm):
    """Sum of absolute coordinates; dual to the max norm.

    The unit ball is the cross-polytope, whose gauges and
    subdifferentials are the polytope ones; the ball needs no
    parameters to rebuild, so ``params`` serializes empty.
    """

    family = "l1"

    def __init__(self, dim: int):
        super().__init__(l1_ball(int(dim)))

    def params_dict(self):
        return {}


class MaxNorm(PolyhedralNorm):
    """Largest absolute coordinate; dual to the sum norm.

    The unit ball is the cube; as for :class:`SumNorm`, everything but
    the family name and the empty ``params`` is the polytope norm's.
    """

    family = "linf"

    def __init__(self, dim: int):
        super().__init__(linf_ball(int(dim)))

    def params_dict(self):
        return {}


class CornerNorm(Norm):
    """Corner norm ``N(v) = |P v| + |v|``, ``P`` dropping the ``axis``.

    Strictly convex, but the unit sphere has corners on the axis, so the
    dual ball is flat there.  This class is the planar norm
    ``|x| + sqrt(x**2 + y**2)``, whose corner rays (0, +-y) have segment
    subdifferentials; :class:`AxisCornerNorm` is this norm rotated about its
    axis.  With ``h`` the axis coordinate of ``eta`` and ``k = |P eta|``:

        N*(eta) = |h|                 if |h| >= k,
        N*(eta) = (h**2 + k**2)/(2k)  otherwise,

    and on the second piece the unit maximizer is
    ``(h/k, (1 - (h/k)**2)/2 * P eta/k)``.
    """

    family = "corner"
    convexity_class = "strongly-convex"
    dim = 2
    axis = 1

    def _split(self, eta) -> tuple[float, list[float], float]:
        """The axis coordinate, the other coordinates and their length."""
        off = np.asarray(eta, dtype=float).tolist()
        h = off.pop(self.axis)
        return h, off, math.hypot(*off)

    @_rowwise
    def value(self, v):
        v = np.asarray(v, dtype=float)
        return self._split(v)[2] + math.hypot(*v.tolist())

    @_rowwise
    def dual_value(self, eta):
        h, _, k = self._split(eta)
        # k == 0 with a NaN h reads NaN, not a division by zero.
        if abs(h) >= k or k == 0.0:
            return abs(h)
        return (h * h + k * k) / (2.0 * k)

    def regime_id(self, eta):
        h, off, k = self._split(eta)
        if abs(h) >= k:
            return 0 if h >= 0.0 else 1
        # Off the caps the planar norm has two smooth pieces; rotated,
        # they join into one.
        return 2 if len(off) > 1 or off[0] > 0.0 else 3

    def _cap_forms(self, a, b, c) -> np.ndarray:
        """The planar cap ``|x| - |h|`` as the forms ``+-x - |h|``.

        The control ``h e_axis`` commutes with ``e_axis``, so ``h`` is
        held along the arc."""
        x = np.delete([a, b, c], self.axis, axis=1)[:, 0]
        h = [abs(a[self.axis]), 0.0, 0.0]
        return np.column_stack([x - h, -x - h])

    def corner_cone(self, eta):
        """The cap ``|h| > |P eta|``, corners ``+-e_axis``."""
        h, _, k = self._split(eta)
        return self._cap_forms if k < abs(h) else None

    def grad_dual_energy(self, eta):
        h, off, k = self._split(eta)
        # As in dual_value: k == 0 with a NaN h reads NaN.
        if abs(h) >= k or k == 0.0:
            out = [0.0] * len(off)
            out.insert(self.axis, h)
            return np.array(out)
        # Dual norm times the unit maximizer.
        nd = (h * h + k * k) / (2.0 * k)
        q = h / k
        c = (1.0 - q * q) / 2.0
        out = [nd * (c * (x / k)) for x in off]
        out.insert(self.axis, nd * q)
        return np.array(out)

    def subdiff_energy(self, u):
        u = np.asarray(u, dtype=float)
        c, off, g = self._split(u)
        member = self._membership(u)
        r = math.hypot(*u.tolist())
        if r == 0.0:
            return _point_set(np.zeros(self.dim), membership=member)
        if g > 0.0:
            grad = [x / g + x / r for x in off]
            grad.insert(self.axis, c / r)
            return _point_set((g + r) * np.array(grad), membership=member)
        # Corner: the covectors with axis coordinate c and |P eta| <= |c|,
        # a segment in the plane and a disk in 3-space.
        if len(off) == 1:
            ends = np.array([[-abs(c)], [abs(c)]])
            return _vertex_hull(np.insert(ends, self.axis, c, axis=1), member)

        def draw(rng: np.random.Generator, count: int) -> np.ndarray:
            rho = abs(c) * np.sqrt(rng.uniform(size=count))
            phi = rng.uniform(0.0, 2.0 * np.pi, size=count)
            disk = np.column_stack([rho * np.cos(phi), rho * np.sin(phi)])
            return np.insert(disk, self.axis, c, axis=1)

        return ConvexSet(kind="support", membership=member, sampler=draw)


class AxisCornerNorm(CornerNorm):
    """The corner norm rotated about its axis: on 3-space,
    ``N(x) = sqrt(x2**2 + x3**2) + sqrt(x1**2 + x2**2 + x3**2)``, and the
    corners sweep out the first axis."""

    family = "axis_corner"
    dim = 3
    axis = 0

    def _cap_forms(self, a, b, c):
        """The cap ``|P xi|**2 - h**2``, with ``h`` held: of its
        ``S C`` and ``C**2`` terms, ``2 Pb . Pc`` and ``q |Pb|**2 + |Pc|**2``,
        the form keeps neither, as both vanish on every registry group."""
        h = a[self.axis]
        pa, pb, pc = np.delete([a, b, c], self.axis, axis=1)
        return np.array([[pa @ pa - h * h], [2.0 * (pa @ pb)],
                         [2.0 * (pb @ pb + pa @ pc)]])


class RootSumNorm(Norm):
    """Square root of (sum norm squared plus euclidean norm squared).

    The energy splits as the sum of the two component energies, so the
    dual energy is an infimal convolution solved exactly by soft
    thresholding: with ``s*`` the unique root of
    ``s - sum_i max(|eta_i| - s, 0) = 0``,

        E*(eta) = s***2/2 + sum_i max(|eta_i| - s*, 0)**2 / 2,

    and the gradient of ``E*`` is the soft-thresholded covector.
    """

    family = "root_sum"
    convexity_class = "strongly-convex"

    def __init__(self, dim: int):
        self.dim = int(dim)

    @_rowwise
    def value(self, v):
        v = np.asarray(v, dtype=float)
        n1 = float(np.sum(np.abs(v)))
        n2sq = float(v @ v)
        return math.sqrt(n1 * n1 + n2sq)

    def _threshold(self, eta: np.ndarray) -> float:
        a = np.sort(np.abs(eta))[::-1]
        # The zero covector needs no scan, and neither does a NaN entry,
        # which sorts first: the threshold is NaN.
        if not a[0] > 0.0:
            return float(a[0])
        top = 0.0
        for j in range(1, len(a) + 1):
            top += a[j - 1]
            s = top / (1.0 + j)
            lo = a[j] if j < len(a) else 0.0
            if lo <= s <= a[j - 1]:
                return float(s)
        raise NormError("threshold scan failed")  # pragma: no cover

    @_rowwise
    def dual_value(self, eta):
        eta = np.asarray(eta, dtype=float)
        s = self._threshold(eta)
        tail = np.maximum(np.abs(eta) - s, 0.0)
        return math.sqrt(s * s + float(tail @ tail))

    def regime_id(self, eta):
        eta = np.asarray(eta, dtype=float)
        s = self._threshold(eta)
        code = 0
        for x in eta:
            trit = 1
            if x > s:
                trit = 2
            elif x < -s:
                trit = 0
            code = 3 * code + trit
        return code

    def grad_dual_energy(self, eta):
        eta = np.asarray(eta, dtype=float)
        s = self._threshold(eta)
        return np.sign(eta) * np.maximum(np.abs(eta) - s, 0.0)

    def corner_cone(self, eta):
        """One active coordinate ``i``: ``|eta_i| > 2 max_{j!=i} |eta_j|``,
        where ``s* = |eta_i| / 2`` and the corners are ``+-e_i``.  The
        control ``N*(eta) e_i`` commutes with ``e_i``, so ``xi_i`` is
        held, and the forms are ``+-xi_j - |xi_i| / 2``."""
        eta = np.asarray(eta, dtype=float)
        i = int(np.argmax(np.abs(eta)))
        others = [j for j in range(len(eta)) if j != i]
        if not np.max(np.abs(eta[others]), initial=0.0) < 0.5 * abs(eta[i]):
            return None

        def forms(a, b, c):
            sides = np.array([a, b, c])[:, others]
            half = [[0.5 * abs(a[i])], [0.0], [0.0]]
            return np.hstack([sides - half, -sides - half])

        return forms

    def subdiff_energy(self, u):
        u = np.asarray(u, dtype=float)
        member = self._membership(u)
        n1 = float(np.sum(np.abs(u)))
        if n1 == 0.0 and float(u @ u) == 0.0:
            return _point_set(np.zeros(self.dim), membership=member)
        return _vertex_hull(u + n1 * _sign_completions(u), member)


# ---------------------------------------------------------------------------
# Module-level operations


# Family -> (builder from dim and params, the keys params must hold).
_FAMILIES = {
    "euclidean": (lambda dim, params: EuclideanNorm(dim), set()),
    "l1": (lambda dim, params: SumNorm(dim), set()),
    "linf": (lambda dim, params: MaxNorm(dim), set()),
    "corner": (lambda dim, params: CornerNorm(), set()),
    "axis_corner": (lambda dim, params: AxisCornerNorm(), set()),
    "root_sum": (lambda dim, params: RootSumNorm(dim), set()),
    "polyhedral": (lambda dim, params: PolyhedralNorm(
        Polyhedron.from_json_dict(params)), {"functionals", "vertices"}),
}


def norm_from_json(data: dict, dim: int | None = None) -> Norm:
    """Instantiate a norm from ``{"family", "dim", "params"}``, the one
    reader of a norm spec; raises NormError unless the spec is sound.

    The spec's dim must be a positive integer, equal to ``dim`` (the
    number of polarization directions) if one is given, before any ball
    is built: the ``l1`` and ``linf`` balls have ``2**dim`` facets or
    vertices.  ``params`` must hold exactly the family's keys, and the
    norm built must have the spec's dim.
    """
    family, spec_dim = data["family"], data["dim"]
    try:
        builder, keys = _FAMILIES[family]
    except KeyError:
        raise NormError(f"unknown norm family {family!r}") from None
    if type(spec_dim) is not int or spec_dim < 1:  # refuses bools too
        raise NormError(f"dim must be a positive integer, got {spec_dim!r}")
    if dim is not None and spec_dim != dim:
        raise NormError(f"dim {spec_dim} does not match the {dim} "
                        f"polarization directions")
    # Unpacking rejects a params value that is not a mapping.
    params = dict(**data.get("params", {}))
    if set(params) != keys:
        raise NormError(f"{family} params must have the keys "
                        f"{sorted(keys)}, got {sorted(params)}")
    norm = builder(spec_dim, params)
    if norm.dim != spec_dim:
        raise NormError(f"the {family} ball has dimension {norm.dim}, "
                        f"not dim {spec_dim}")
    return norm


def energy(norm: Norm, v: Vector) -> float:
    """Kinetic energy ``N(v)**2 / 2``."""
    n = norm.value(v)
    return 0.5 * n * n


def dual_energy(norm: Norm, eta: Covector) -> float:
    """Convex conjugate of the energy: ``N*(eta)**2 / 2``."""
    n = norm.dual_value(eta)
    return 0.5 * n * n


def check_duality_inversion(norm: Norm, u: Vector, eta: Covector,
                            tol: float = MEMBERSHIP_TOL
                            ) -> tuple[bool, bool, bool]:
    """Evaluate the three equivalent optimality tests for a pair (u, eta).

    Returns (eta in dE(u), Fenchel-Young tight, u in dE*(eta)); the three
    answers agree up to tolerance effects near set boundaries.
    """
    u = np.asarray(u, dtype=float)
    eta = np.asarray(eta, dtype=float)
    nu = norm.value(u)
    nd = norm.dual_value(eta)
    pairing = float(eta @ u)
    in_primal = abs(nd - nu) <= tol and abs(pairing - nu * nu) <= tol
    fenchel = abs(0.5 * nu * nu + 0.5 * nd * nd - pairing) <= tol
    in_dual = abs(nu - nd) <= tol and abs(pairing - nd * nd) <= tol
    return in_primal, fenchel, in_dual


def as_polyhedron(norm: Norm) -> Polyhedron:
    """Unit ball of a polyhedral norm, owned by the norm itself."""
    if isinstance(norm, PolyhedralNorm):
        return norm.poly
    raise NormError(f"{norm.family} norm has no polytope unit ball")
