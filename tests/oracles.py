"""Independent reference implementations the production kernels are checked
against. They share no contraction or enumeration code with the package:
energies are explicit per-degree `einsum` contractions, and the exact Ising
sum visits one configuration at a time in Python floats.
"""

import itertools
import math

import numpy as np


def _scale(d, p):
    return np.sqrt(d.model.series.coefficients[p]) * d.n ** ((1 - p) / 2)


def oracle_energy(d, sigma):
    """H(sigma) by per-degree einsum contractions (degrees 0-4)."""
    s = np.asarray(sigma, dtype=np.float64)
    total = 0.0
    for p, g in d.tensors.items():
        if p == 0:
            contr = g
        elif p == 1:
            contr = g @ s
        elif p == 2:
            contr = s @ g @ s
        elif p == 3:
            contr = np.einsum("abc,a,b,c->", g, s, s, s)
        else:
            contr = np.einsum("abcd,a,b,c,d->", g, s, s, s, s)
        total += _scale(d, p) * contr
    return float(total)


def oracle_energy_many(d, sigmas):
    """H over the rows of `sigmas` by batched einsum contractions."""
    X = np.asarray(sigmas, dtype=np.float64)
    total = np.zeros(len(X))
    for p, g in d.tensors.items():
        if p == 0:
            contr = np.full(len(X), g)
        elif p == 1:
            contr = X @ g
        elif p == 2:
            contr = np.einsum("ri,ij,rj->r", X, g, X)
        elif p == 3:
            contr = np.einsum("abc,ra,rb,rc->r", g, X, X, X)
        else:
            contr = np.einsum("abcd,ra,rb,rc,rd->r", g, X, X, X, X)
        total += _scale(d, p) * contr
    return total


def oracle_gradient(d, sigma):
    """grad H(sigma): the p partial contractions of each non-symmetrized tensor."""
    s = np.asarray(sigma, dtype=np.float64)
    grad = np.zeros(d.n)
    for p, g in d.tensors.items():
        if p == 0:
            continue
        if p == 1:
            part = g
        elif p == 2:
            part = g @ s + g.T @ s
        elif p == 3:
            part = (np.einsum("ibc,b,c->i", g, s, s)
                    + np.einsum("aic,a,c->i", g, s, s)
                    + np.einsum("abi,a,b->i", g, s, s))
        else:
            part = (np.einsum("ibcd,b,c,d->i", g, s, s, s)
                    + np.einsum("aicd,a,c,d->i", g, s, s, s)
                    + np.einsum("abid,a,b,d->i", g, s, s, s)
                    + np.einsum("abci,a,b,c->i", g, s, s, s))
        grad += _scale(d, p) * part
    return grad


def oracle_log_partition_ising(d, f, beta):
    """log 2^{-N} sum_sigma exp(beta (H + f)(sigma)), one configuration at a
    time: itertools.product, the einsum energy, the field's scalar value and a
    two-pass log-sum-exp in Python floats."""
    n = d.n
    xs = [beta * (oracle_energy(d, s) + f.value(s))
          for s in (np.array(c) for c in itertools.product((-1.0, 1.0), repeat=n))]
    top = max(xs)
    return top + math.log(math.fsum(math.exp(x - top) for x in xs)) - n * math.log(2.0)
