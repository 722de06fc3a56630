"""Reference quadrature rules on [-1, 1] and the composite rule built on them.

Gauss-Legendre of a given order, and the 15-point Gauss-Kronrod rule whose
embedded 7-point Gauss rule shares its nodes, so that their difference is
an error estimate at no extra integrand evaluations (Piessens et al.,
QUADPACK, Springer 1983; Laurie, "Calculation of Gauss-Kronrod quadrature
rules", Math. Comp. 66 (1997)).
"""

from __future__ import annotations

import numpy as np


def gauss_legendre(order: int):
    """Nodes and weights of the ``order``-point Gauss-Legendre rule."""
    return np.polynomial.legendre.leggauss(order)


# QUADPACK's qk15 table for x >= 0, largest first: Kronrod abscissa,
# Kronrod weight, and 7-point Gauss weight (0 on the Kronrod-only nodes)
_QK15 = np.array([
    [0.99145537112081263921, 0.02293532201052922496, 0.0],
    [0.94910791234275852453, 0.06309209262997855329, 0.12948496616886969327],
    [0.86486442335976907279, 0.10479001032225018384, 0.0],
    [0.74153118559939443986, 0.14065325971552591875, 0.27970539148927666790],
    [0.58608723546769113029, 0.16900472663926790283, 0.0],
    [0.40584515137739716691, 0.19035057806478540991, 0.38183005050511894495],
    [0.20778495500789846760, 0.20443294007529889241, 0.0],
    [0.0, 0.20948214108472782801, 0.41795918367346938776]])

#: (nodes, Kronrod weights, Gauss weights) of the 7/15 pair, ascending.
GK15 = tuple(np.concatenate([sign * col[:-1], col[::-1]])
             for sign, col in zip((-1.0, 1.0, 1.0), _QK15.T))


def composite(edges, nodes: np.ndarray, *weights: np.ndarray):
    """A rule on [-1, 1] laid on every panel [edges[i], edges[i + 1]].

    Returns the mapped nodes and each weight array scaled by the panel
    half-width, all shaped (panels, len(nodes)).
    """
    edges = np.asarray(edges, dtype=float)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * nodes,
            *(half[:, None] * w for w in weights))
