"""Independent reference answers for the benchmark's correctness checks.

Nothing here calls into ``subfinsler``: each answer is derived from the
closed-form mathematics of its workload, so a check compares the
program against something it cannot share a bug with.

* :func:`isoperimetrix_switches` -- exact face switch times of the
  Heisenberg normal flow for a polygon ball (``polyhedral_events``).
* :func:`corner_exit_time` -- the time ``ln(1/a)`` at which the affine
  corner curve of covector ``(a, 1)`` leaves the vertical subgroup
  (``smooth_branch``).
* :func:`exhaustive_delta` -- the star-covering bound ``delta`` by one
  linear program per disjoint pair of dual faces (``polytope_certify``).
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

# Incidence threshold: a functional supports a vertex when it reaches 1
# to this relative accuracy.
INCIDENCE_TOL = 1e-9


def isoperimetrix_switches(vertices, covector, t_end: float
                           ) -> list[tuple[float, int, int]]:
    """Exact switch times ``(t, from_vertex, to_vertex)`` up to ``t_end``.

    Heisenberg group, polarization (0, 1), polygon ball with the given
    vertices.  For the covector ``(l1, l2, l3)`` the dual point is
    ``xi = (l1 - l3 x2, l2 + l3 x1)`` and the control is ``r v_k`` for the
    vertex ``v_k`` maximizing ``xi``, where ``r`` is the conserved dual
    norm.  So ``xi' = l3 r J v_k`` with ``J`` the quarter turn: ``xi``
    slides along the dual-sphere facet of ``v_k`` in a straight line until
    another vertex reaches the same support value ``r``, which gives each
    switch time in closed form.  The planar curve traces the
    isoperimetrix, the dual sphere turned by 90 degrees.
    """
    v = np.asarray(vertices, dtype=float)
    l1, l2, l3 = (float(x) for x in covector)
    xi = np.array([l1, l2])
    support = v @ xi
    k = int(np.argmax(support))
    r = float(support[k])
    if l3 == 0.0 or r <= 0.0:
        return []
    t = 0.0
    out: list[tuple[float, int, int]] = []
    while True:
        velocity = l3 * r * np.array([-v[k, 1], v[k, 0]])
        rate = v @ velocity
        gap = np.maximum(r - v @ xi, 0.0)
        wait, nxt = math.inf, -1
        for j in range(len(v)):
            if j != k and rate[j] > 0.0 and gap[j] / rate[j] < wait:
                wait, nxt = gap[j] / rate[j], j
        if nxt < 0 or t + wait > t_end:
            return out
        t += wait
        xi = xi + wait * velocity
        out.append((t, k, nxt))
        k = nxt


def corner_exit_time(covector) -> float:
    """When the affine-group corner-norm curve of ``(l1, l2)`` leaves the
    vertical subgroup, for ``0 < |l1| < |l2|``.

    Along the vertical subgroup ``exp(t r B2)`` the dual point is
    ``(exp(r t) l1, l2)`` with ``r = |l2|``; the curve stays on the corner
    of the ball while ``|xi1| <= |xi2|``, that is until
    ``t = ln(|l2 / l1|) / |l2|``.  For the covector ``(a, 1)`` this is
    ``ln(1/a)``.
    """
    l1, l2 = abs(float(covector[0])), abs(float(covector[1]))
    if not 0.0 < l1 < l2:
        raise ValueError("covector must satisfy 0 < |l1| < |l2|")
    return math.log(l2 / l1) / l2


def _faces(facet_sets: list[frozenset[int]]) -> list[frozenset[int]]:
    """All nonempty intersections of facet vertex sets: the proper faces."""
    seen = set(facet_sets)
    frontier = list(seen)
    while frontier:
        nxt = []
        for face in frontier:
            for facet in facet_sets:
                inter = face & facet
                if inter and inter not in seen:
                    seen.add(inter)
                    nxt.append(inter)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def _gauge_distance(gauge_rows: np.ndarray, pts_a: np.ndarray,
                    pts_b: np.ndarray) -> float:
    """min over x in conv(pts_a), y in conv(pts_b) of max_k g_k . (x - y)."""
    na, nb = len(pts_a), len(pts_b)
    # Variables: weights on pts_a, weights on pts_b, then the level t.
    a_ub = np.hstack([gauge_rows @ pts_a.T, -(gauge_rows @ pts_b.T),
                      -np.ones((len(gauge_rows), 1))])
    a_eq = np.zeros((2, na + nb + 1))
    a_eq[0, :na] = 1.0
    a_eq[1, na:na + nb] = 1.0
    cost = np.zeros(na + nb + 1)
    cost[-1] = 1.0
    res = linprog(cost, A_ub=a_ub, b_ub=np.zeros(len(gauge_rows)),
                  A_eq=a_eq, b_eq=np.ones(2),
                  bounds=[(0.0, None)] * (na + nb) + [(None, None)],
                  method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def exhaustive_delta(vertices, functionals) -> float:
    """Least distance between disjoint closed faces of the dual sphere.

    The dual ball is ``conv(functionals)``; its facets are the sets of
    functionals supporting one primal vertex, its faces are their
    intersections, and its gauge is ``max_k v_k . z`` over the primal
    vertices.  One LP is solved for every disjoint pair of faces, with no
    pruning.
    """
    v = np.asarray(vertices, dtype=float)
    f = np.asarray(functionals, dtype=float)
    incidence = (v @ f.T) >= 1.0 - INCIDENCE_TOL
    facet_sets = [frozenset(np.nonzero(row)[0].tolist()) for row in incidence]
    best = math.inf
    for fa, fb in combinations(_faces(facet_sets), 2):
        if fa & fb:
            continue
        best = min(best, _gauge_distance(v, f[sorted(fa)], f[sorted(fb)]))
    if not math.isfinite(best):
        raise ValueError("dual sphere has no disjoint face pair")
    return best
