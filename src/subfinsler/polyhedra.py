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
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

# Vertices must support their functionals at exactly one.
CONSISTENCY_TOL = 1e-12
# Relative tolerance on the support gap when exposing a face.
FACE_REL_TOL = 1e-9
# Decimals used to deduplicate hull output rows.
_DEDUP_DECIMALS = 12


class PolyhedronError(ValueError):
    """Raised when input data does not describe a symmetric unit ball."""


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
        self.dim = self.vertices.shape[1]
        self._faces: list[Face] | None = None
        self._face_by_set: dict[frozenset[int], Face] | None = None
        # Vertex ids on each facet, indexed like ``functionals``.
        self._facet_sets = self._validate()

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

    def _validate(self) -> list[frozenset[int]]:
        """Check the data and return the vertex ids on each facet.  Every
        functional must be a facet, so ``facets`` is the polar lattice."""
        if self.vertices.ndim != 2 or self.functionals.ndim != 2:
            raise PolyhedronError("vertices and functionals must be 2d arrays")
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
        return [frozenset(np.nonzero(row)[0]) for row in incidence]

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
        faces = []
        for vset in seen:
            ids = tuple(sorted(int(i) for i in vset))
            pts = self.vertices[list(ids)]
            fdim = 0
            if len(ids) > 1:
                fdim = int(np.linalg.matrix_rank(pts[1:] - pts[0], tol=1e-9))
            facets = tuple(k for k, fs in enumerate(facet_sets) if vset <= fs)
            faces.append((fdim, ids, facets))
        faces.sort(key=lambda item: (item[0], item[1]))
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
        the whole dual sphere.  The returned Lebesgue bound is the least
        dual-norm distance between disjoint closed faces of the dual
        ball's boundary complex, computed exactly by linear programming
        over the inclusion-maximal disjoint pairs only: enlarging either
        face can only shrink the distance.  No polar ball is built.
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


def _polytope_pair_distance(gauge: np.ndarray, pts_a: np.ndarray,
                            pts_b: np.ndarray) -> float:
    """Least gauge distance between conv(pts_a) and conv(pts_b).

    The gauge is ``max_k gauge_k . z`` over the rows of ``gauge``.
    Solved as the linear program  min t  over convex weights (w, z) with
    ``gauge_k . (sum_i w_i a_i - sum_j z_j b_j) <= t`` for every row.
    """
    pa = np.atleast_2d(pts_a)
    pb = np.atleast_2d(pts_b)
    na, nb = pa.shape[0], pb.shape[0]
    a_ub = np.hstack([gauge @ pa.T, -(gauge @ pb.T),
                      -np.ones((gauge.shape[0], 1))])
    a_eq = np.zeros((2, na + nb + 1))
    a_eq[0, :na] = 1.0
    a_eq[1, na:na + nb] = 1.0
    cost = np.zeros(na + nb + 1)
    cost[-1] = 1.0
    bounds = [(0.0, None)] * (na + nb) + [(None, None)]
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]),
                  A_eq=a_eq, b_eq=np.ones(2), bounds=bounds, method="highs")
    if not res.success:
        raise PolyhedronError(f"face distance LP failed: {res.message}")
    return float(res.fun)


def _min_disjoint_face_distance(poly: Polyhedron) -> tuple[float, int]:
    """Least dual-gauge distance between disjoint dual-sphere faces.

    The dual face of a primal ``k``-face is its ``facets`` set, of
    dimension ``poly.dim - 1 - k``, and the dual gauge's rows are the
    primal vertices.  Returns the distance and the number of LPs solved.
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
    distance below ``delta`` always share at least one covering star.
    ``lp_solves`` counts the face-distance LPs that computed it.
    """

    poly: Polyhedron
    base_face_ids: tuple[int, ...]
    delta: float
    lp_solves: int

    def covering_stars(self, xi: np.ndarray) -> list[int]:
        """Indices of the facet functionals whose open star contains ``xi``.

        The star of a facet contains ``xi`` exactly when the facet
        contains the face ``xi`` exposes.
        """
        return list(self.poly.face_of(xi).facets)

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
    eye = np.eye(dim)
    return Polyhedron.from_vertices(np.vstack([eye, -eye]))


def linf_ball(dim: int) -> Polyhedron:
    """Cube unit ball of the max-coordinate norm."""
    corners = np.array(np.meshgrid(*([[-1.0, 1.0]] * dim))).reshape(dim, -1).T
    return Polyhedron.from_vertices(corners)


def regular_polygon_ball(sides: int, phase: float = 0.0) -> Polyhedron:
    """Regular polygon unit ball in the plane; ``sides`` must be even."""
    if sides % 2 != 0:
        raise PolyhedronError("a symmetric polygon needs an even side count")
    angles = phase + 2.0 * np.pi * np.arange(sides) / sides
    return Polyhedron.from_vertices(np.column_stack([np.cos(angles),
                                                     np.sin(angles)]))
