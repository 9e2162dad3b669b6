"""Independent brute-force oracles for pinning expected values.

Everything here deliberately avoids the library's analytic code paths:
dual energies come from direct numerical maximization, face lattices
from feasibility programs over vertex subsets, the window rule of the
stability check from unions over that lattice (tried at every critical
window start of a face history), and adjoint images from
explicit matrix conjugation resolved by least squares.  The adjoint
bracket bound is sampled over group points reached through the curve's
own ball.  The sum and
max norm subdifferentials have closed forms, spelled out coordinate by
coordinate.  The maximal disjoint pairs of dual faces come from a scan
over all pairs of pairs, and dual points from explicit conjugation,
which also give the dual point's sampled rate in a ball's dual gauge.
scipy's HiGHS solves the face distance LP, and its pivoted QR gives
the derived algebra's basis for the adjoint bracket bound.
The speed law is checked node by node, one gauge call per node.

The exhaustive star-covering bound and the isoperimetrix switch times
are shared with the benchmark's checks: the tests import them from
``bench/reference.py``.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np
from scipy.linalg import expm, qr
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


def faces_share_a_closed_face(lattice: set[frozenset[int]],
                              vertex_sets: list[frozenset[int]]) -> bool:
    """Whether one face of ``lattice`` contains every given face.

    The window rule of a face stability check, by vertex sets: the
    union of the faces' vertices must lie in a single face.
    """
    union = frozenset().union(*vertex_sets)
    return any(union <= face for face in lattice)


def window_vertex_sets(segments, start: float, span: float
                       ) -> list[frozenset[int]]:
    """Faces of the ``(t_start, t_end, vertex_set)`` segments of positive
    length that the open window ``(start, start + span)`` meets."""
    return [vs for s, e, vs in segments
            if e > s and s < start + span and e > start]


def window_violation_starts(lattice: set[frozenset[int]], segments,
                            t_end: float, window: float) -> list[float]:
    """Starts of the windows on [0, t_end] whose faces share no face.

    The window length is ``span = min(window, t_end)``.  The faces a
    window meets change only where its start or end crosses a segment
    end, so it is enough to try the starts ``s``, ``e``, ``s - span`` and
    ``e - span`` of every segment, within ``[0, t_end - span]``, and the
    midpoints between consecutive ones.
    """
    span = min(window, t_end)
    crit = {0.0, t_end - span}
    for s, e, _ in segments:
        crit.update((s, e, s - span, e - span))
    crit = sorted(a for a in crit if 0.0 <= a <= t_end - span)
    starts = crit + [0.5 * (a + b) for a, b in zip(crit, crit[1:])]
    return [a for a in starts if not faces_share_a_closed_face(
        lattice, window_vertex_sets(segments, a, span))]


def maximal_disjoint_pairs(lattice: set[frozenset[int]]
                           ) -> set[frozenset[frozenset[int]]]:
    """Inclusion-maximal unordered pairs of disjoint faces of ``lattice``.

    A pair is dropped when another disjoint pair contains it side by
    side, in either orientation.
    """
    pairs = [(a, b) for a, b in combinations(lattice, 2) if not a & b]

    def under(small, big) -> bool:
        (a, b), (c, d) = small, big
        return (a <= c and b <= d) or (a <= d and b <= c)

    return {frozenset(p) for p in pairs
            if not any(q != p and under(p, q) for q in pairs)}


def pair_distance_highs(gauge: np.ndarray, pts_a: np.ndarray,
                        pts_b: np.ndarray) -> float:
    """Least ``max_k gauge_k . (x - y)`` over x in conv(pts_a), y in
    conv(pts_b): HiGHS's optimum of the pair LP, with ``t`` free."""
    na, nb = len(pts_a), len(pts_b)
    a_ub = np.hstack([gauge @ pts_a.T, -(gauge @ pts_b.T),
                      -np.ones((len(gauge), 1))])
    a_eq = np.zeros((2, na + nb + 1))
    a_eq[0, :na] = a_eq[1, na:na + nb] = 1.0
    cost = np.zeros(na + nb + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(gauge)), A_eq=a_eq,
                  b_eq=np.ones(2), method="highs",
                  bounds=[(0.0, None)] * (na + nb) + [(None, None)])
    assert res.success, res.message
    return float(res.fun)


def qr_bracket_and_rate(structure: np.ndarray, velocities: np.ndarray
                        ) -> tuple[float, float]:
    """The ``bracket`` and ``rate`` of the adjoint bracket bound, with the
    derived algebra's orthonormal basis from pivoted QR of the structure
    constants and the rate over the given algebra velocities."""
    dim = structure.shape[0]
    q, r, _ = qr(structure.reshape(-1, dim).T, mode="economic",
                 pivoting=True)
    pivots = np.abs(np.diag(r))
    q = q[:, pivots > 1e-12 * pivots[0]]
    corners = np.array(list(product((-1.0, 1.0), repeat=dim)))
    brackets = np.einsum("ai,bj,ijk->abk", corners, corners, structure)
    bracket = (float(np.max(np.linalg.norm(q, axis=1)))
               * float(np.max(np.linalg.norm(brackets, axis=-1))))
    ads = np.einsum("vi,ijk->vkj", velocities, structure)
    sym = q.T @ (0.5 * (ads + ads.transpose(0, 2, 1))) @ q
    return bracket, float(np.max(np.linalg.eigvalsh(sym), initial=0.0))


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


def cube_bracket_coordinates(basis: np.ndarray) -> np.ndarray:
    """Coordinates of [X, Y] for every pair of unit-cube vertices X, Y,
    from matrix commutators resolved by least squares."""
    basis = np.asarray(basis, dtype=float)
    dim = basis.shape[0]
    corners = np.array(list(product((-1.0, 1.0), repeat=dim)))
    mats = np.einsum("ci,iab->cab", corners, basis)
    comms = np.array([(x @ y - y @ x).ravel() for x in mats for y in mats])
    flat = basis.reshape(dim, -1).T
    coords = np.linalg.lstsq(flat, comms.T, rcond=None)[0].T
    assert np.max(np.abs(coords @ flat.T - comms)) < 1e-9
    return coords


def adjoint_bracket_max(basis: np.ndarray, g: np.ndarray,
                        brackets: np.ndarray) -> float:
    """max |Ad_g [X, Y]|_inf over the given bracket coordinates, with
    Ad_g by explicit conjugation."""
    adj = np.column_stack([adjoint_by_conjugation(basis, g, e)
                           for e in np.eye(len(basis))])
    return float(np.max(np.abs(brackets @ adj.T)))


def _arc(basis: np.ndarray, polarization, velocity: np.ndarray,
         length: float) -> np.ndarray:
    coords = np.zeros(len(basis))
    coords[list(polarization)] = velocity
    return expm(length * np.einsum("i,iab->ab", coords, basis))


def sampled_adjoint_bracket_max(basis: np.ndarray, vertices: np.ndarray,
                                polarization, radius: float,
                                rng: np.random.Generator, n_group: int = 256,
                                pieces: int = 3) -> float:
    """Largest |Ad_g [X, Y]|_inf over unit-cube X, Y and sampled points g
    of the radius ball of conv(vertices).

    Each point is a product of ``pieces`` one-parameter arcs whose
    lengths sum to ``radius`` and whose velocities on the polarization
    lie in the ball: a vertex half of the time, otherwise a random
    convex combination of the vertices.  No inflation is applied, so
    the result is a lower bound on the true supremum.
    """
    vertices = np.asarray(vertices, dtype=float)
    brackets = cube_bracket_coordinates(basis)
    best = float(np.max(np.abs(brackets)))
    for _ in range(n_group):
        g = np.eye(basis.shape[1])
        for weight in rng.dirichlet(np.ones(pieces)):
            if rng.uniform() < 0.5:
                velocity = vertices[rng.integers(len(vertices))]
            else:
                velocity = rng.dirichlet(np.ones(len(vertices))) @ vertices
            g = g @ _arc(basis, polarization, velocity, weight * radius)
        best = max(best, adjoint_bracket_max(basis, g, brackets))
    return best


def vertex_arc_bracket_max(basis: np.ndarray, vertices: np.ndarray,
                           polarization, radius: float) -> float:
    """Largest |Ad_g [X, Y]|_inf over unit-cube X, Y and the endpoints g
    of the arcs of length ``radius`` along a single vertex."""
    brackets = cube_bracket_coordinates(basis)
    return max(adjoint_bracket_max(basis, _arc(basis, polarization, v,
                                               radius), brackets)
               for v in np.asarray(vertices, dtype=float))


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


def dual_point_by_conjugation(basis: np.ndarray, lam: np.ndarray,
                              g: np.ndarray, polarization) -> np.ndarray:
    """lam o Ad_g on the polarization, with Ad_g by explicit conjugation."""
    lam = np.asarray(lam, dtype=float)
    eye = np.eye(len(basis))
    return np.array([lam @ adjoint_by_conjugation(basis, g, eye[j])
                     for j in polarization])


def dual_gauge_rates(basis: np.ndarray, lam: np.ndarray, points,
                     vertices: np.ndarray, polarization, step: float
                     ) -> np.ndarray:
    """The dual point's node-to-node rates along ``points``, measured in
    the dual gauge of the ball with ``vertices``.  Dual points come from
    explicit conjugation.  A difference quotient is a derivative at some
    time between its nodes, so no rate exceeds the supremum of the
    derivative's gauge over that step."""
    xi = np.array([dual_point_by_conjugation(basis, lam, g, polarization)
                   for g in points])
    moves = np.abs(np.diff(xi, axis=0) @ np.asarray(vertices).T)
    return np.max(moves, axis=1) / step


def speed_deviations_by_node(traj) -> tuple[float, float]:
    """max |N(u_k) - r| and max |N*(xi_k) - r| over the grid nodes of a
    trajectory of speed r, with one one-vector gauge call per node."""
    r = traj.speed
    control = np.max([abs(traj.norm.value(u) - r) for u in traj.controls])
    dual = np.max([abs(traj.norm.dual_value(xi) - r) for xi in traj.duals])
    return float(control), float(dual)
