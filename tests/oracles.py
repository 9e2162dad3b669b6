"""Independent brute-force oracles for pinning expected values.

Everything here deliberately avoids the library's analytic code paths:
dual energies come from direct numerical maximization, face lattices
from feasibility programs over vertex subsets, and adjoint images from
explicit matrix conjugation resolved by least squares.  The sum and
max norm subdifferentials have closed forms, spelled out coordinate by
coordinate.
"""

from __future__ import annotations

from itertools import product

import numpy as np
from scipy.linalg import expm
from scipy.optimize import linprog, minimize


def sampled_dual_energy(value_fn, eta: np.ndarray, rng: np.random.Generator,
                        starts: int = 12) -> float:
    """max_v <eta, v> - value_fn(v)**2 / 2 by multistart simplex search."""
    eta = np.asarray(eta, dtype=float)
    dim = len(eta)

    def objective(v: np.ndarray) -> float:
        n = value_fn(v)
        return -(float(eta @ v) - 0.5 * n * n)

    seeds = [eta.copy(), np.zeros(dim)]
    seeds += [row for row in np.eye(dim)]
    seeds += [rng.standard_normal(dim) for _ in range(starts)]
    best = np.inf
    for seed in seeds:
        res = minimize(objective, seed, method="Nelder-Mead",
                       options={"xatol": 1e-11, "fatol": 1e-13,
                                "maxiter": 8000, "maxfev": 8000})
        best = min(best, float(res.fun))
    return -best


def sampled_dual_norm_2d(value_fn, eta: np.ndarray,
                         n_grid: int = 8192) -> float:
    """max over the unit circle of <eta, v> / value_fn(v), grid + polish.

    The polish is a hand-rolled golden section: the maximizer can sit at
    a kink of a polyhedral norm, where library minimizers stall at their
    sqrt(eps) bracket floor.
    """
    eta = np.asarray(eta, dtype=float)

    def ratio(theta: float) -> float:
        v = np.array([np.cos(theta), np.sin(theta)])
        return -float(eta @ v) / value_fn(v)

    grid = np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False)
    best = min(grid, key=ratio)
    span = 2.0 * np.pi / n_grid
    lo, hi = best - span, best + span
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a = hi - invphi * (hi - lo)
    b = lo + invphi * (hi - lo)
    fa, fb = ratio(a), ratio(b)
    for _ in range(90):
        if fa < fb:
            hi, b, fb = b, a, fa
            a = hi - invphi * (hi - lo)
            fa = ratio(a)
        else:
            lo, a, fa = a, b, fb
            b = lo + invphi * (hi - lo)
            fb = ratio(b)
    return -min(fa, fb, ratio(best))


def face_lattice_bruteforce(vertices: np.ndarray,
                            margin_tol: float = 1e-9) -> set[frozenset[int]]:
    """All exposed faces of conv(vertices), as vertex-index sets.

    A subset S is a face exactly when some covector attains its maximum
    over the vertices precisely on S; existence is decided by a linear
    program maximizing the gap to the complement.
    """
    verts = np.asarray(vertices, dtype=float)
    n, dim = verts.shape
    found: set[frozenset[int]] = set()
    for mask in range(1, 2 ** n):
        subset = [i for i in range(n) if mask >> i & 1]
        rest = [i for i in range(n) if not mask >> i & 1]
        # variables: eta (dim), gap
        cost = np.zeros(dim + 1)
        cost[-1] = -1.0
        a_eq = np.hstack([verts[subset], np.zeros((len(subset), 1))])
        b_eq = np.ones(len(subset))
        if rest:
            a_ub = np.hstack([verts[rest], np.ones((len(rest), 1))])
            b_ub = np.ones(len(rest))
        else:
            a_ub, b_ub = None, None
        bounds = [(None, None)] * dim + [(0.0, 2.0)]
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        if res.success and res.x[-1] > margin_tol:
            found.add(frozenset(subset))
    return found


def adjoint_by_conjugation(basis: np.ndarray, g: np.ndarray,
                           y: np.ndarray) -> np.ndarray:
    """Coordinates of g (sum_i y_i B_i) g^{-1}, resolved by least squares."""
    basis = np.asarray(basis, dtype=float)
    mat = np.einsum("i,iab->ab", np.asarray(y, dtype=float), basis)
    conj = g @ mat @ np.linalg.inv(g)
    flat = basis.reshape(basis.shape[0], -1).T
    coords, residual, *_ = np.linalg.lstsq(flat, conj.ravel(), rcond=None)
    recon = flat @ coords
    assert np.max(np.abs(recon - conj.ravel())) < 1e-9
    return coords


def adjoint_by_exp_ad(structure: np.ndarray, x: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    """Coordinates of Ad_{exp x} y via the exponential of ad_x."""
    x = np.asarray(x, dtype=float)
    ad_x = np.einsum("i,ijk->kj", x, np.asarray(structure, dtype=float))
    return expm(ad_x) @ np.asarray(y, dtype=float)


def sign_completion_vertices(x: np.ndarray) -> set[tuple[float, ...]]:
    """Vertices of the subdifferential where a sum-of-absolute-values
    gauge is differentiated: ``|x|_1 * s`` over every sign vector ``s``
    with ``s_i = sign(x_i)`` where ``x_i != 0`` and ``s_i = +-1`` where
    ``x_i = 0``.  (``dE`` of the sum norm, ``dE*`` of the max norm.)"""
    x = np.asarray(x, dtype=float)
    scale = float(np.sum(np.abs(x)))
    choices = [(1.0, -1.0) if xi == 0.0 else (float(np.sign(xi)),)
               for xi in x]
    return {tuple(scale * s for s in signs) for signs in product(*choices)}


def active_coordinate_vertices(x: np.ndarray) -> set[tuple[float, ...]]:
    """Vertices of the subdifferential where a max-of-absolute-values
    gauge is differentiated: ``|x|_inf * sign(x_i) e_i`` for every
    coordinate with ``|x_i| = |x|_inf``.  (``dE`` of the max norm,
    ``dE*`` of the sum norm.)"""
    x = np.asarray(x, dtype=float)
    top = float(np.max(np.abs(x)))
    out = set()
    for i, xi in enumerate(x):
        if abs(xi) == top:
            vertex = [0.0] * len(x)
            vertex[i] = top * float(np.sign(xi))
            out.add(tuple(vertex))
    return out
