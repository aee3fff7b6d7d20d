"""Floating-point eigenvalue clustering: the test oracle for the exact multiplicity counts.

``spectra`` counts eigen-turns exactly, as integer numerators over one
denominator.  The helpers here take the same spectra as complex numpy
eigenvalues, group those within ``_CLUSTER_TOL`` of each other around the
unit circle, and audit that the grouping survives halving the tolerance, so
every exact count can be checked against an independent float computation.
"""

import numpy as np

from cfspectra.spectra import invariant_restriction, multiplicity_function
from cfspectra.tower import Report

_CLUSTER_TOL = 1e-9


def to_matrix(V):
    """The diagonal unitary V as a complex numpy matrix."""
    return np.diag(np.exp(2j * np.pi * np.array([float(t) for t in V.turns])))


def _cluster(eigs, tol):
    order = np.argsort(np.angle(eigs))
    eigs = eigs[order]
    groups: list[list[complex]] = []
    for e in eigs:
        if groups and abs(e - groups[-1][-1]) < tol:
            groups[-1].append(e)
        else:
            groups.append([e])
    # the circle wraps: merge the last group into the first when adjacent
    if len(groups) > 1 and abs(groups[0][0] - groups[-1][-1]) < tol:
        groups[0].extend(groups.pop())
    return {g[0]: len(g) for g in groups}


def _stable_clusters(eigs) -> tuple[dict, bool]:
    """The clusters at ``_CLUSTER_TOL``, and whether halving the tolerance keeps their number."""
    clusters = _cluster(eigs, _CLUSTER_TOL)
    return clusters, len(clusters) == len(_cluster(eigs, _CLUSTER_TOL / 2))


def float_multiplicities(m) -> tuple[dict, bool]:
    """Clustered eigenvalue multiplicities of a unitary matrix, with the stability audit."""
    m = np.asarray(m, dtype=complex)
    if not np.allclose(m @ m.conj().T, np.eye(m.shape[0]), atol=1e-12):
        raise ValueError("input is not unitary within 1e-12")
    return _stable_clusters(np.linalg.eigvals(m))


def float_cluster_check(V, k, gamma) -> Report:
    """Floating cross-check of the free-spectrum multiplicities via clustering."""
    rep = Report()
    rest = invariant_restriction(V, k, gamma)
    clusters, stable = _stable_clusters(np.exp(2j * np.pi * np.array([n / rest.q for n in rest.eigen_nums])))
    rep.add("cluster stability under tolerance halving", k, stable)
    rep.add("cluster count matches exact count", k, len(clusters) == len(multiplicity_function(rest)))
    return rep
