"""Matrix Lie groups in explicit charts.

A :class:`GroupSpec` fixes a basis of the Lie algebra inside a matrix
space, the structure constants computed from matrix brackets, and a
polarization: the indices of the basis vectors spanning the subspace of
admissible velocities.  Group elements are plain chart matrices.  Every
group brings closed forms for its exponential and its adjoint action
(conjugation in the chart, pulled back to algebra coordinates), so no
matrix exponential is computed and no group element is inverted.

:func:`coadjoint_dual_point` composes a covector with the adjoint action
and restricts to the polarization, which is the quantity transported
along normal curves.  :func:`exp`, :func:`adjoint_matrix` and
:func:`coadjoint_dual_point` accept a leading stack axis, so a whole
arc of grid nodes is one call.

:class:`SubmetryData` describes a surjective homomorphism onto a lower
dimensional group by its differential at the identity.  No norm is
computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

# Brackets of basis elements must land in the basis span this tightly.
CLOSURE_TOL = 1e-9
JACOBI_TOL = 1e-12
# Chart matrices must sit on the group variety this tightly.
VARIETY_TOL = 1e-9

# A group element is just its chart matrix.
GroupElement = np.ndarray


class GroupChartError(RuntimeError):
    """A matrix failed to pull back consistently to the chart basis."""


@dataclass(frozen=True)
class GroupSpec:
    """A Lie group presented by a matrix chart.

    Attributes:
        name: Registry name.
        dim: Algebra dimension.
        basis: Array of shape (dim, N, N), the chart basis.
        structure: Constants c with [B_i, B_j] = sum_k c[i, j, k] B_k.
        polarization: Basis indices spanning the admissible velocities.
        exp_closed: Exact exponential, coords -> chart matrix.
        ad_pullback: Closed form for the adjoint matrix of a chart
            element (columns are images of the basis in coords).
            Both closed forms map a stack (..., dim) or (..., N, N) to
            the matching stack of results.
        variety: Residual function; near zero on the group.
    """

    name: str
    dim: int
    basis: np.ndarray
    structure: np.ndarray
    polarization: tuple[int, ...]
    exp_closed: Callable[[np.ndarray], np.ndarray]
    ad_pullback: Callable[[np.ndarray], np.ndarray]
    variety: Callable[[np.ndarray], float]
    _flat_pinv: np.ndarray = field(repr=False, default=None)

    @property
    def matrix_size(self) -> int:
        return self.basis.shape[1]

    def identity(self) -> GroupElement:
        return np.eye(self.matrix_size)


def to_matrix(spec: GroupSpec, coords: np.ndarray) -> np.ndarray:
    """Algebra coordinates to a matrix in the chart, shape (..., dim)."""
    return np.einsum("...i,iab->...ab", np.asarray(coords, dtype=float),
                     spec.basis)


def from_matrix(spec: GroupSpec, mat: np.ndarray) -> np.ndarray:
    """Matrix to algebra coordinates, with a span residual check."""
    mat = np.asarray(mat, dtype=float)
    coords = spec._flat_pinv @ mat.ravel()
    residual = np.linalg.norm(mat - to_matrix(spec, coords))
    if residual > CLOSURE_TOL * (1.0 + np.linalg.norm(mat)):
        raise GroupChartError(
            f"matrix lies {residual:.3e} outside the chart algebra span")
    return coords


def bracket(spec: GroupSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lie bracket in coordinates via the structure constants."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.einsum("i,j,ijk->k", x, y, spec.structure)


def ad_matrix(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    """Matrix of ad_x = [x, .] acting on coordinates."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,ijk->kj", x, spec.structure)


def exp(spec: GroupSpec, coords: np.ndarray) -> GroupElement:
    """Group exponential of algebra coordinates, shape (..., dim)."""
    return spec.exp_closed(np.asarray(coords, dtype=float))


def adjoint_matrix(spec: GroupSpec, g: GroupElement) -> np.ndarray:
    """Coordinate matrix of Ad_g, i.e. conjugation by the chart element.

    ``g`` may carry a leading stack axis, (..., N, N) -> (..., dim, dim).
    """
    return spec.ad_pullback(np.asarray(g, dtype=float))


def coadjoint_dual_point(spec: GroupSpec, lam: np.ndarray, g: GroupElement,
                         polarization: tuple[int, ...] | None = None
                         ) -> np.ndarray:
    """The covector lam composed with Ad_g, restricted to the polarization.

    This is the dual point carried by a normal curve through ``g``; a
    stack of chart elements (..., N, N) gives a stack of dual points.
    """
    pol = spec.polarization if polarization is None else tuple(polarization)
    full = np.asarray(lam, dtype=float) @ adjoint_matrix(spec, g)
    return full.take(pol, axis=-1)


def variety_residual(spec: GroupSpec, g: GroupElement) -> float:
    """How far a chart matrix sits from the group variety."""
    return float(spec.variety(np.asarray(g, dtype=float)))


def check_element(spec: GroupSpec, g: GroupElement,
                  tol: float = VARIETY_TOL) -> None:
    res = variety_residual(spec, g)
    if res > tol:
        raise GroupChartError(
            f"matrix violates the {spec.name} variety by {res:.3e}")


def _jacobi_residual(structure: np.ndarray) -> float:
    # sum over cyclic permutations of [x,[y,z]] must vanish.
    comp = np.einsum("jkm,imn->ijkn", structure, structure)
    cyc = comp + np.einsum("ijkn->jkin", comp) + np.einsum("ijkn->kijn", comp)
    return float(np.max(np.abs(cyc)))


def matrix_group(name: str, basis: np.ndarray,
                 polarization: tuple[int, ...] | None = None, *,
                 exp_closed, ad_pullback, variety) -> GroupSpec:
    """Build a GroupSpec from a matrix basis and its closed forms.

    Structure constants are extracted from matrix brackets; the basis
    must close under brackets and satisfy the Jacobi identity.
    """
    basis = np.asarray(basis, dtype=float)
    dim = basis.shape[0]
    if polarization is None:
        polarization = tuple(range(dim))
    spec = GroupSpec(name=name, dim=dim, basis=basis,
                     structure=np.zeros((dim, dim, dim)),
                     polarization=tuple(int(i) for i in polarization),
                     exp_closed=exp_closed, ad_pullback=ad_pullback,
                     variety=variety,
                     _flat_pinv=np.linalg.pinv(basis.reshape(dim, -1).T))
    structure = np.zeros((dim, dim, dim))
    for i in range(dim):
        for j in range(dim):
            br = basis[i] @ basis[j] - basis[j] @ basis[i]
            structure[i, j] = from_matrix(spec, br)
    jac = _jacobi_residual(structure)
    if jac > JACOBI_TOL:
        raise GroupChartError(f"Jacobi identity violated by {jac:.3e}")
    return replace(spec, structure=structure)


# ---------------------------------------------------------------------------
# Registry


def translation_group(dim: int) -> GroupSpec:
    """Abelian group of translations of dim-space, in an affine chart."""
    n = int(dim)
    basis = np.zeros((n, n + 1, n + 1))
    for i in range(n):
        basis[i, i, n] = 1.0

    eye = np.eye(n + 1)

    def exp_closed(coords: np.ndarray) -> np.ndarray:
        g = np.empty(coords.shape[:-1] + (n + 1, n + 1))
        g[...] = eye
        g[..., :n, n] = coords
        return g

    def ad_pullback(g: np.ndarray) -> np.ndarray:
        adj = np.empty(g.shape[:-2] + (n, n))
        adj[...] = eye[:n, :n]
        return adj

    def variety(g: np.ndarray) -> float:
        expected = np.eye(n + 1)
        expected[:n, n] = g[:n, n]
        return float(np.linalg.norm(g - expected))

    return matrix_group(f"translation{n}", basis, exp_closed=exp_closed,
                        ad_pullback=ad_pullback, variety=variety)


def heisenberg_group() -> GroupSpec:
    """3x3 unipotent upper triangular group.

    Coordinates (x1, x2, x3) sit in the chart
    [[1, x1, x3], [0, 1, x2], [0, 0, 1]]; the only nonzero bracket is
    [B1, B2] = B3, and B3 spans the center.
    """
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1] = 1.0
    basis[1, 1, 2] = 1.0
    basis[2, 0, 2] = 1.0

    eye = np.eye(3)

    def exp_closed(coords: np.ndarray) -> np.ndarray:
        x1, x2, x3 = coords[..., 0], coords[..., 1], coords[..., 2]
        g = np.empty(coords.shape[:-1] + (3, 3))
        g[...] = eye
        g[..., 0, 1], g[..., 1, 2] = x1, x2
        g[..., 0, 2] = x3 + 0.5 * (x1 * x2)
        return g

    def ad_pullback(g: np.ndarray) -> np.ndarray:
        adj = np.empty(g.shape[:-2] + (3, 3))
        adj[...] = eye
        adj[..., 2, 0] = -g[..., 1, 2]
        adj[..., 2, 1] = g[..., 0, 1]
        return adj

    def variety(g: np.ndarray) -> float:
        expected = np.eye(3)
        expected[0, 1], expected[1, 2], expected[0, 2] = g[0, 1], g[1, 2], g[0, 2]
        return float(np.linalg.norm(g - expected))

    return matrix_group("heisenberg", basis, exp_closed=exp_closed,
                        ad_pullback=ad_pullback, variety=variety)


def affine_line_group() -> GroupSpec:
    """Orientation-preserving affine maps of the line.

    The map s -> t*s + x sits in the chart [[t, x], [0, 1]] with t > 0.
    Algebra coordinates (a, b) correspond to [[b, a], [0, 0]], so
    [B1, B2] = -B1 and Ad_{(x, t)}(a, b) = (t*a - x*b, b).
    """
    basis = np.zeros((2, 2, 2))
    basis[0, 0, 1] = 1.0
    basis[1, 0, 0] = 1.0

    def exp_closed(coords: np.ndarray) -> np.ndarray:
        a, b = coords[..., 0], coords[..., 1]
        nonzero = b != 0.0
        scale = np.ones_like(b)
        np.divide(np.expm1(b), b, out=scale, where=nonzero)
        g = np.zeros(coords.shape[:-1] + (2, 2))
        g[..., 0, 0], g[..., 0, 1], g[..., 1, 1] = np.exp(b), a * scale, 1.0
        return g

    def ad_pullback(g: np.ndarray) -> np.ndarray:
        adj = np.zeros(g.shape[:-2] + (2, 2))
        adj[..., 0, 0] = g[..., 0, 0]
        adj[..., 0, 1] = -g[..., 0, 1]
        adj[..., 1, 1] = 1.0
        return adj

    def variety(g: np.ndarray) -> float:
        res = math.hypot(g[1, 0], g[1, 1] - 1.0)
        return res + max(0.0, -g[0, 0])

    return matrix_group("affine_line", basis, exp_closed=exp_closed,
                        ad_pullback=ad_pullback, variety=variety)


def rotation_group() -> GroupSpec:
    """Rotations of 3-space with a skew basis adapted to the first axis.

    Basis:
        B1 = [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
        B2 = [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
        B3 = [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
    with brackets [B1, B2] = -B3, [B1, B3] = B2, [B2, B3] = -B1.
    """
    basis = np.zeros((3, 3, 3))
    basis[0, 0, 1], basis[0, 1, 0] = 1.0, -1.0
    basis[1, 0, 2], basis[1, 2, 0] = 1.0, -1.0
    basis[2, 1, 2], basis[2, 2, 1] = 1.0, -1.0

    def exp_closed(coords: np.ndarray) -> np.ndarray:
        theta = np.linalg.norm(coords, axis=-1)[..., None, None]
        m = np.einsum("...i,iab->...ab", coords, basis)
        # np.sinc(0) is 1, so theta = 0 gives the identity.
        sinc = np.sinc(theta / np.pi)
        versine = 0.5 * np.sinc(0.5 * theta / np.pi) ** 2
        return np.eye(3) + sinc * m + versine * (m @ m)

    # Coordinates map to rotation axes through the involution T below
    # (B1, B2, B3 have axes -e3, e2, -e1), and conjugation acts on axes
    # by the matrix itself, so Ad_g = T g T.  The formula extends
    # smoothly off the orthogonal variety, which integrator stage
    # points need.
    axis_map = np.array([[0.0, 0.0, -1.0],
                         [0.0, 1.0, 0.0],
                         [-1.0, 0.0, 0.0]])

    def ad_pullback(g: np.ndarray) -> np.ndarray:
        return axis_map @ g @ axis_map

    def variety(g: np.ndarray) -> float:
        ortho = float(np.linalg.norm(g.T @ g - np.eye(3)))
        return ortho + abs(float(np.linalg.det(g)) - 1.0)

    return matrix_group("rotation", basis, exp_closed=exp_closed,
                        ad_pullback=ad_pullback, variety=variety)


_REGISTRY: dict[str, Callable[[], GroupSpec]] = {
    "heisenberg": heisenberg_group,
    "affine_line": affine_line_group,
    "rotation": rotation_group,
    "translation2": lambda: translation_group(2),
    "translation3": lambda: translation_group(3),
}


def group_by_name(name: str) -> GroupSpec:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise GroupChartError(f"unknown group {name!r}") from None


# ---------------------------------------------------------------------------
# Submetries


@dataclass(frozen=True)
class SubmetryData:
    """A surjective homomorphism pi whose differential maps the
    admissible ball of the source onto the unit ball of the target.

    Attributes:
        source, target: Group specs.
        dpi: Differential at the identity, target coords x source coords.
    """

    source: GroupSpec
    target: GroupSpec
    dpi: np.ndarray

    def dpi_on_polarization(self, polarization: tuple[int, ...] | None = None
                            ) -> np.ndarray:
        pol = (self.source.polarization if polarization is None
               else tuple(polarization))
        return self.dpi[:, list(pol)]


def heisenberg_abelianization() -> SubmetryData:
    """Quotient of the Heisenberg group by its center, onto the plane."""
    source = heisenberg_group()
    target = translation_group(2)
    dpi = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return SubmetryData(source=source, target=target, dpi=dpi)
