"""Centrally symmetric polytopes used as unit balls.

A :class:`Polyhedron` stores the extreme points of the unit ball together
with the minimal set of supporting functionals, i.e. the covectors whose
common sublevel set ``max_i lam_i(v) <= 1`` carves out the ball.  Either
description can be derived from the other by dualizing a convex hull, so
both constructors funnel through the same routine.

On top of the two descriptions the module provides the boundary face
lattice, the map from a covector to the face it exposes, and a covering
of the dual sphere by the open stars of the facet functionals together
with a certified Lebesgue-style bound: any two points of the dual sphere
closer than the bound lie in a common star.  The dual sphere's faces
are the faces' ``facets`` sets and its gauge's rows are the ``vertices``.

The bound's face distance LPs are solved by a small dense simplex,
:func:`linprog`, and each is certified by a weak-duality bound evaluated
in exact rationals, so the covering needs no scipy.  Only the convex
hulls of :meth:`Polyhedron.from_vertices` and
:meth:`Polyhedron.from_functionals` load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

# Vertices must support their functionals at exactly one.
CONSISTENCY_TOL = 1e-12
# Relative tolerance on the support gap when exposing a face.
FACE_REL_TOL = 1e-9
# Decimals used to deduplicate hull output rows.
_DEDUP_DECIMALS = 12
# Pivots one face distance LP may take, counting the one that brings
# ``t`` into the starting basis.
MAX_PIVOTS = 100
# Reduced costs and pivot column entries count as negative or positive
# beyond this; the LP's entries are vertex-functional products, at most
# 1 in size.
PIVOT_TOL = 1e-12


class PolyhedronError(ValueError):
    """Raised when input data does not describe a symmetric unit ball."""


class CoveringError(ArithmeticError):
    """Raised when a face distance LP certifies no positive bound."""


# scipy is imported on the first hull, so a run that builds no ball
# from bare points never loads it.
def ConvexHull(points: np.ndarray):
    """``scipy.spatial.ConvexHull(points)``."""
    from scipy.spatial import ConvexHull as hull
    return hull(points)


@dataclass(frozen=True)
class Face:
    """One closed boundary face, identified by its extreme points.

    Attributes:
        fid: Stable integer id, ordered by (dimension, vertex ids).
        vertex_ids: Sorted indices into ``Polyhedron.vertices``.
        dim: Affine dimension of the face.
        facets: Sorted indices into ``Polyhedron.functionals`` of the
            facets containing the face, i.e. its polar face.
        witness: A covector exposing exactly this face, with unit dual
            norm: the mean of its facet functionals.
    """

    fid: int
    vertex_ids: tuple[int, ...]
    dim: int
    facets: tuple[int, ...]
    witness: np.ndarray

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertex_ids)


def _canonical_rows(points: np.ndarray) -> np.ndarray:
    """Deduplicate and lexicographically sort rows for stable indexing."""
    pts = np.asarray(points, dtype=float)
    rounded = np.round(pts, _DEDUP_DECIMALS)
    _, keep = np.unique(rounded, axis=0, return_index=True)
    pts = pts[np.sort(keep)]
    order = np.lexsort(np.round(pts, _DEDUP_DECIMALS).T[::-1])
    return pts[order]


def _extreme_and_facets(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (extreme points, facet functionals) of conv(points).

    The origin must be interior.  Facet planes ``a.x + b <= 0`` with
    ``b < 0`` are rescaled to functionals ``(-a/b).x <= 1``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise PolyhedronError("need at least two points")
    dim = pts.shape[1]
    if dim == 1:
        m = float(np.max(np.abs(pts)))
        if m <= 0.0:
            raise PolyhedronError("origin is not interior to the hull")
        ext = np.array([[-m], [m]])
        fns = np.array([[-1.0 / m], [1.0 / m]])
        return ext, fns
    from scipy.spatial import QhullError
    try:
        hull = ConvexHull(pts)
    except QhullError as exc:
        raise PolyhedronError(f"points do not span the space: {exc}") from exc
    offsets = hull.equations[:, -1]
    if np.any(offsets >= -CONSISTENCY_TOL):
        raise PolyhedronError("origin is not interior to the hull")
    functionals = -hull.equations[:, :-1] / offsets[:, None]
    return _canonical_rows(pts[hull.vertices]), _canonical_rows(functionals)


class Polyhedron:
    """A full-dimensional, origin-symmetric polytope unit ball."""

    def __init__(self, vertices: np.ndarray, functionals: np.ndarray):
        self.vertices = np.asarray(vertices, dtype=float)
        self.functionals = np.asarray(functionals, dtype=float)
        for rows in (self.vertices, self.functionals):
            if rows.ndim != 2 or not rows.size or not np.isfinite(rows).all():
                raise PolyhedronError("vertices and functionals must be "
                                      "non-empty 2d arrays of finite numbers")
        self.dim = self.vertices.shape[1]
        self._faces: list[Face] | None = None
        self._face_by_set: dict[frozenset[int], Face] | None = None
        # Facet/vertex incidence, and the vertex ids on each facet, both
        # indexed like ``functionals``.
        self._incidence = self._validate()
        self._facet_sets = [frozenset(np.flatnonzero(row))
                            for row in self._incidence]

    # -- construction ------------------------------------------------

    @classmethod
    def from_vertices(cls, points: np.ndarray) -> "Polyhedron":
        """Build the ball conv(points); points may include interior ones."""
        ext, fns = _extreme_and_facets(points)
        return cls(ext, fns)

    @classmethod
    def from_functionals(cls, covectors: np.ndarray) -> "Polyhedron":
        """Build the ball {v : lam(v) <= 1 for all lam}, dropping redundant lam.

        The vertices of the ball are the facet functionals of the polar body
        conv(covectors), and the minimal functional set is the polar body's
        extreme points.
        """
        ext_dual, fns_dual = _extreme_and_facets(covectors)
        return cls(fns_dual, ext_dual)

    def _validate(self) -> np.ndarray:
        """Check the data and return the facet/vertex incidence matrix.
        Every functional must be a facet, so ``facets`` is the polar
        lattice."""
        if self.functionals.shape[1] != self.dim:
            raise PolyhedronError("vertex/functional dimension mismatch")
        for name, rows in (("vertex", self.vertices),
                           ("functional", self.functionals)):
            # Relative to each row's size: a large row's negation is
            # exact only to the rounding of its own entries.
            gaps = np.abs(rows[:, None, :] + rows[None, :, :]).max(axis=2)
            scale = np.maximum(1.0, np.abs(rows).max(axis=1))
            if np.any(gaps.min(axis=1) > 1e-9 * scale):
                raise PolyhedronError(f"{name} set is not symmetric about 0")
        vals = self.functionals @ self.vertices.T
        if np.any(np.abs(vals.max(axis=0) - 1.0) > 1e-9):
            raise PolyhedronError("some vertex does not support at value 1")
        if np.any(vals > 1.0 + 1e-9):
            raise PolyhedronError("some vertex violates a functional")
        rank = np.linalg.matrix_rank(self.vertices, tol=1e-9)
        if rank < self.dim:
            raise PolyhedronError("ball is not full-dimensional")
        incidence = vals >= 1.0 - 1e-9
        # One stacked SVD: rows off the facet are zeroed out.
        ranks = np.linalg.matrix_rank(
            np.where(incidence[:, :, None], self.vertices, 0.0), tol=1e-9)
        if np.any(ranks < self.dim):
            raise PolyhedronError("some functional supports no facet")
        return incidence

    # -- gauge and dual gauge ----------------------------------------

    def value(self, v: np.ndarray) -> float | np.ndarray:
        """Gauge of the ball: max of the functionals at ``v``.

        ``v`` has shape (..., dim): one vector gives a float, a stack an
        array of its leading shape, in one matrix product."""
        out = np.max(np.asarray(v, dtype=float) @ self.functionals.T, axis=-1)
        return out if out.ndim else float(out)

    def dual_value(self, eta: np.ndarray) -> float | np.ndarray:
        """Support function of the ball: max of ``eta`` over the vertices,
        on ``eta`` of shape (..., dim) as :meth:`value`."""
        out = np.max(np.asarray(eta, dtype=float) @ self.vertices.T, axis=-1)
        return out if out.ndim else float(out)

    # -- face lattice ------------------------------------------------

    def faces(self) -> list[Face]:
        """All proper nonempty boundary faces, in stable id order.

        Facets are read off the functional/vertex incidence; every other
        face is an intersection of facets, so the list is the closure of
        the facet incidence sets under intersection.
        """
        if self._faces is None:
            self._build_faces()
        return self._faces

    def _build_faces(self) -> None:
        facet_sets = self._facet_sets
        seen: set[frozenset[int]] = set(facet_sets)
        queue = list(seen)
        while queue:
            current = queue.pop()
            for facet in facet_sets:
                inter = current & facet
                if inter and inter not in seen:
                    seen.add(inter)
                    queue.append(inter)
        # One row per face: its vertex mask, and its edges from its first
        # vertex with the other rows zeroed, so one stacked SVD gives
        # every face's dimension, and one boolean product its facets:
        # those that miss none of its vertices.
        id_lists = [sorted(map(int, vset)) for vset in seen]
        masks = np.zeros((len(id_lists), len(self.vertices)), dtype=bool)
        for row, ids in zip(masks, id_lists):
            row[ids] = True
        first = self.vertices[[ids[0] for ids in id_lists]]
        spans = np.where(masks[:, :, None],
                         self.vertices - first[:, None, :], 0.0)
        dims = np.linalg.matrix_rank(spans, tol=1e-9)
        holds = ~(masks @ ~self._incidence.T)
        faces = sorted((int(fdim), tuple(ids),
                        tuple(map(int, np.flatnonzero(row))))
                       for fdim, ids, row in zip(dims, id_lists, holds))
        self._faces = [
            Face(fid, ids, fdim, facets,
                 np.mean(self.functionals[list(facets)], axis=0))
            for fid, (fdim, ids, facets) in enumerate(faces)]
        self._face_by_set = {f.vertex_set: f for f in self._faces}

    def face_of(self, eta: np.ndarray) -> Face:
        """The face exposed by a nonzero covector.

        The active vertices are those within ``FACE_REL_TOL`` (relative)
        of the support value.  If rounding glues together a vertex set
        that is not itself a face, the smallest face containing it is
        returned.
        """
        vals = self.vertices @ np.asarray(eta, dtype=float)
        top = float(np.max(vals))
        if not np.isfinite(top):
            raise PolyhedronError("support value is not finite")
        if top <= 0.0:
            raise PolyhedronError("covector must be nonzero")
        return self._face_containing(vals >= top * (1.0 - FACE_REL_TOL))

    def subface(self, face: Face, eta: np.ndarray) -> Face:
        """The face of ``face`` on which the covector ``eta`` is largest.

        Ties are decided relative to the largest ``|eta . v|`` over the
        face's vertices, so ``eta = 0`` returns ``face`` itself.
        """
        ids = np.array(face.vertex_ids)
        vals = self.vertices[ids] @ np.asarray(eta, dtype=float)
        scale = float(np.max(np.abs(vals)))
        if not np.isfinite(scale):
            raise PolyhedronError("support value is not finite")
        keep = vals >= np.max(vals) - FACE_REL_TOL * scale
        active = np.zeros(len(self.vertices), dtype=bool)
        active[ids[keep]] = True
        return self._face_containing(active)

    def _face_containing(self, active: np.ndarray) -> Face:
        """The smallest face whose vertices include the ``active`` mask."""
        if self._face_by_set is None:
            self._build_faces()
        active = frozenset(np.nonzero(active)[0])
        face = self._face_by_set.get(active)
        if face is not None:
            return face
        hit = [fs for fs in self._facet_sets if active <= fs]
        if not hit:
            raise PolyhedronError("active set lies on no facet")
        return self._face_by_set[frozenset.intersection(*hit)]

    # -- star covering -----------------------------------------------

    def star_covering(self) -> "StarCovering":
        """Cover the dual sphere by the open stars of the functionals.

        Each functional exposes a facet, and the open facet stars cover
        the whole dual sphere.  The returned Lebesgue bound is a lower
        bound on the least dual-norm distance between disjoint closed
        faces of the dual ball's boundary complex, exact to the LP's
        rounding, taken over the inclusion-maximal disjoint pairs only:
        enlarging either face can only shrink the distance.  No polar
        ball is built.  Raises :class:`CoveringError` when some pair's
        LP certifies no positive bound.
        """
        delta, lp_solves = _min_disjoint_face_distance(self)
        return StarCovering(
            poly=self,
            base_face_ids=tuple(self._face_by_set[s].fid
                                for s in self._facet_sets),
            delta=delta,
            lp_solves=lp_solves,
        )

    # -- serialization -----------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "vertices": [[float(x) for x in row] for row in self.vertices],
            "functionals": [[float(x) for x in row]
                            for row in self.functionals],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Polyhedron":
        return cls(np.array(data["vertices"], dtype=float),
                   np.array(data["functionals"], dtype=float))


def linprog(gauge: np.ndarray, pts_a: np.ndarray, pts_b: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Optimal ``(w, z, y)`` of the pair LP of :func:`_polytope_pair_distance`.

    A dense simplex on  min t  over ``w, z, t >= 0`` with ``sum w = sum z
    = 1`` and a slack ``s_k >= 0`` on each row ``gauge_k . (sum_i w_i a_i
    - sum_j z_j b_j) - t + s_k = 0``, where ``a_i`` and ``b_j`` are the
    rows of ``pts_a`` and ``pts_b``.  It starts from the basis ``w_0 =
    z_0 = 1`` with ``t`` entering on the largest row, whose slack leaves:
    that is its first pivot.  It goes on by Bland's rule (the lowest
    entering index, ratio ties to the lowest basic index), so degenerate
    pivots cannot cycle.  Each pivot solves the basis afresh, so no
    rounding accumulates.  ``y``, one entry per gauge row, holds the
    slack columns' reduced costs clipped at 0: the rows' multipliers.

    Raises :class:`CoveringError` on a singular basis, or when the
    optimum needs more than ``MAX_PIVOTS`` pivots.
    """
    pa = np.atleast_2d(pts_a)
    pb = np.atleast_2d(pts_b)
    na, nb, m = pa.shape[0], pb.shape[0], gauge.shape[0]
    t_col = na + nb
    # Columns w, z, t, slacks, then the right-hand side.
    table = np.zeros((m + 2, t_col + m + 2))
    table[:m, :na] = gauge @ pa.T
    table[:m, na:t_col] = -(gauge @ pb.T)
    table[:m, t_col] = -1.0
    table[:m, t_col + 1:-1] = np.eye(m)
    table[m, :na] = table[m + 1, na:t_col] = table[m:, -1] = 1.0
    cost = np.zeros(t_col + m + 1)
    cost[t_col] = 1.0
    top = int(np.argmax(table[:m, 0] + table[:m, na]))
    basis = [0, na, t_col] + [t_col + 1 + k for k in range(m) if k != top]
    for pivots in range(1, MAX_PIVOTS + 1):
        try:
            tab = np.linalg.solve(table[:, basis], table)
        except np.linalg.LinAlgError:
            tab = None
        if tab is None or not np.isfinite(tab).all():
            raise CoveringError("face distance LP hit a singular basis")
        reduced = cost - cost[basis] @ tab[:, :-1]
        entering = np.flatnonzero(reduced < -PIVOT_TOL)
        if not entering.size:
            x = np.zeros(len(cost))
            x[basis] = np.maximum(tab[:, -1], 0.0)
            return (x[:na], x[na:t_col],
                    np.maximum(reduced[t_col + 1:], 0.0))
        if pivots == MAX_PIVOTS:
            break
        col = tab[:, entering[0]]
        rows = np.flatnonzero(col > PIVOT_TOL)
        if not rows.size:
            raise CoveringError("face distance LP found no pivot row")
        ratios = np.maximum(tab[rows, -1], 0.0) / col[rows]
        ties = rows[ratios <= ratios.min() + PIVOT_TOL]
        leave = min(ties, key=lambda r: basis[r])
        basis[leave] = int(entering[0])
    raise CoveringError(f"face distance LP took over {MAX_PIVOTS} pivots")


def _polytope_pair_distance(gauge: np.ndarray, pts_a: np.ndarray,
                            pts_b: np.ndarray) -> float:
    """A lower bound on the least gauge distance between conv(pts_a) and
    conv(pts_b), exact to the LP's rounding.

    The gauge is ``max_k gauge_k . u`` over the rows of ``gauge``.  Any
    ``y >= 0`` gives ``c = gauge^T y`` with ``c . u <= sum(y) * |u|``, so
    for ``x`` in conv(pts_a) and ``x'`` in conv(pts_b), ``|x - x'| >=
    (min_i c . a_i - max_j c . b_j) / sum(y)`` (weak duality).  With
    :func:`linprog`'s optimal multipliers that bound is the LP value.  It
    is evaluated exactly, in integers over powers of two (every float is
    one such ratio), and rounded toward -inf, so the float returned
    never exceeds the true distance of the float data.

    Raises :class:`CoveringError` when the bound is not positive.
    """
    _, _, y = linprog(gauge, pts_a, pts_b)
    pa = np.atleast_2d(pts_a)
    ys, _ = _dyadic(y)
    rows, d_g = _dyadic(gauge)
    pts, d_p = _dyadic(np.vstack([pa, np.atleast_2d(pts_b)]))
    levels = pts @ (ys @ rows)
    gap = min(levels[:len(pa)]) - max(levels[len(pa):])
    total = sum(ys)
    if total <= 0 or gap <= 0:
        raise CoveringError("face distance LP gave no positive bound")
    # The bound is gap / den, and int / int rounds correctly to nearest.
    den = total * d_g * d_p
    out = gap / den
    out_num, out_den = out.as_integer_ratio()
    if out_num * den > gap * out_den:
        out = math.nextafter(out, -math.inf)
    return out


def _dyadic(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Python ints ``n`` (an object array) and a power of two ``d`` with
    ``x == n / d`` exactly, so sums and products of them are exact."""
    x = np.asarray(x, dtype=float)
    ratios = [v.as_integer_ratio() for v in x.ravel().tolist()]
    den = max(d for _, d in ratios)
    ints = np.array([n * (den // d) for n, d in ratios], dtype=object)
    return ints.reshape(x.shape), den


def _min_disjoint_face_distance(poly: Polyhedron) -> tuple[float, int]:
    """Least dual-gauge distance between disjoint dual-sphere faces.

    The dual face of a primal ``k``-face is its ``facets`` set, of
    dimension ``poly.dim - 1 - k``, and the dual gauge's rows are the
    primal vertices.  Returns the least pair bound of
    :func:`_polytope_pair_distance` and the number of LPs solved.
    Only the inclusion-maximal disjoint pairs are solved: ``dist(A', B')
    <= dist(A, B)`` whenever ``A'`` contains ``A`` and ``B'`` contains
    ``B``, and every disjoint pair lies under a maximal one.  The face
    lattice is graded, so a disjoint pair is maximal exactly when every
    cover (immediate superface) of each side meets the other side.
    """
    faces = poly.faces()
    sets = [frozenset(f.facets) for f in faces]
    dims = [poly.dim - 1 - f.dim for f in faces]
    covers = [[t for e, t in zip(dims, sets) if e == d + 1 and s < t]
              for d, s in zip(dims, sets)]
    pairs = [(a, b) for a, b in combinations(range(len(faces)), 2)
             if not sets[a] & sets[b]
             and all(c & sets[b] for c in covers[a])
             and all(c & sets[a] for c in covers[b])]
    if not pairs:
        raise PolyhedronError("no disjoint face pair found")
    pts = [poly.functionals[list(f.facets)] for f in faces]
    best = min(_polytope_pair_distance(poly.vertices, pts[a], pts[b])
               for a, b in pairs)
    return best, len(pairs)


@dataclass(frozen=True)
class StarCovering:
    """Open stars of the facet functionals covering the dual sphere.

    ``delta`` is a certified lower bound: two dual-sphere points at dual
    distance below ``delta`` always share at least one covering star;
    the stars holding ``xi`` are those of ``poly.face_of(xi).facets``.
    It is the least of the pairs' weak-duality bounds, each evaluated
    in exact rationals and rounded toward -inf, so it never exceeds the
    least face distance of the ball's float data.  ``lp_solves`` counts
    the face-distance LPs that computed it.
    """

    poly: Polyhedron
    base_face_ids: tuple[int, ...]
    delta: float
    lp_solves: int

    def to_json_dict(self) -> dict:
        return {
            "base_covectors": [[float(x) for x in row]
                               for row in self.poly.functionals],
            "base_face_ids": [int(i) for i in self.base_face_ids],
            "delta": float(self.delta),
            "lp_solves": int(self.lp_solves),
        }


def l1_ball(dim: int) -> Polyhedron:
    """Cross-polytope unit ball of the sum-of-absolute-values norm."""
    return Polyhedron(_canonical_rows(_signed_axes(dim)),
                      _canonical_rows(_sign_corners(dim)))


def linf_ball(dim: int) -> Polyhedron:
    """Cube unit ball of the max-coordinate norm."""
    return Polyhedron(_canonical_rows(_sign_corners(dim)),
                      _canonical_rows(_signed_axes(dim)))


def _signed_axes(dim: int) -> np.ndarray:
    """The ``2 dim`` points ``±e_i``."""
    eye = np.eye(dim)
    return np.vstack([eye, -eye])


def _sign_corners(dim: int) -> np.ndarray:
    """The ``2**dim`` points with every coordinate ``±1``."""
    return np.array(np.meshgrid(*([[-1.0, 1.0]] * dim))).reshape(dim, -1).T


def regular_polygon_ball(sides: int, phase: float = 0.0) -> Polyhedron:
    """Regular polygon unit ball in the plane; ``sides`` must be even."""
    if sides % 2 != 0:
        raise PolyhedronError("a symmetric polygon needs an even side count")
    angles = phase + 2.0 * np.pi * np.arange(sides) / sides
    return Polyhedron.from_vertices(np.column_stack([np.cos(angles),
                                                     np.sin(angles)]))
