"""Exact-constant hyperbolic weight inequalities as margin functions.

Four families, each a vectorized margin function (numpy in, numpy out)
for bulk property sweeps; the inequalities scenario of harness counts
the violations.

All margins are evaluated on cosh-normalized equivalents so that no side
overflows for arguments up to 1e6 and beyond:

    |sinh r| <= |r|^t cosh r        <->  |tanh r| <= |r|^t
    cosh r - 1 <= r^(2t) cosh r     <->  1 - sech r <= |r|^(2t)
    (1/2) e^|r| <= cosh r <= e^|r|  <->  1/2 <= (1 + e^(-2|r|))/2 <= 1

and the three-frequency product bound uses the identity

    cosh(a+b+c) sech(a) sech(b) sech(c) = 1 + TaTb + TaTc + TbTc,
    T = tanh,

so its left side is exactly |TaTb + TaTc + TbTc|, a sum of terms bounded
by 1.  Dividing by cosh (strictly positive) preserves order, so "holds"
answers are identical to the raw statements; only the margin scale changes.

The product-bound constant is not part of the statements' proofs with an
explicit value; it ships in data/constants_manifest.json together with the
brute-force scan that certified it (the identity above gives the rigorous
bound 3, so the shipped 8 has slack).
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import ConfigurationError


# ---------------------------------------------------------------------------
# margin functions (vectorized)
# ---------------------------------------------------------------------------


def sinh_margin(r, theta):
    """rhs - lhs of |tanh r| <= |r|^theta (normalized |sinh| bound)."""
    r = np.abs(np.asarray(r, dtype=float))
    return r**theta - np.tanh(r)


def cosh_minus_one_margin(sigma, xi, theta):
    """rhs - lhs of 1 - sech(sigma*xi) <= (sigma|xi|)^(2*theta)."""
    r = np.abs(np.asarray(sigma, dtype=float) * np.asarray(xi, dtype=float))
    sech = 1.0 / np.cosh(np.minimum(r, 700.0))  # sech ~ 1e-304 there; larger r only pushes it to 0
    return r ** (2.0 * np.asarray(theta, dtype=float)) - (1.0 - sech)


def equivalence_margins(sigma, xi):
    """(lower, upper) margins of 1/2 <= cosh(r) e^(-|r|) <= 1, r=sigma*xi."""
    r = np.abs(np.asarray(sigma, dtype=float) * np.asarray(xi, dtype=float))
    c = 0.5 * (1.0 + np.exp(-2.0 * r))
    return c - 0.5, 1.0 - c


def triple_cosh_lhs(sigma, xi1, xi2, xi3):
    """|T1*T2 + T1*T3 + T2*T3| with T_i = tanh(sigma*xi_i).

    Exact rewriting of |1 - cosh(sigma*(xi1+xi2+xi3)) * prod sech(sigma*xi_i)|;
    every factor is bounded by 1, so this never overflows.
    """
    s = np.asarray(sigma, dtype=float)
    t1 = np.tanh(s * np.asarray(xi1, dtype=float))
    t2 = np.tanh(s * np.asarray(xi2, dtype=float))
    t3 = np.tanh(s * np.asarray(xi3, dtype=float))
    return np.abs(t1 * t2 + t1 * t3 + t2 * t3)


def triple_cosh_rhs(sigma, xi1, xi2, xi3, theta1, theta2, K=None):
    """K * sigma^(theta1+theta2) * med(|xi|)^theta1 * max(|xi|)^theta2."""
    if K is None:
        K = certified_constant("triple_cosh")
    s = np.asarray(sigma, dtype=float)
    a1 = np.abs(np.asarray(xi1, dtype=float))
    a2 = np.abs(np.asarray(xi2, dtype=float))
    a3 = np.abs(np.asarray(xi3, dtype=float))
    hi = np.maximum(a1, np.maximum(a2, a3))
    # median via comparison network: subtraction-based forms lose the middle
    # value to absorption when the magnitudes span hundreds of decades
    med = np.maximum(np.minimum(a1, a2), np.minimum(np.maximum(a1, a2), a3))
    t1 = np.asarray(theta1, dtype=float)
    t2 = np.asarray(theta2, dtype=float)
    return K * s ** (t1 + t2) * med**t1 * hi**t2


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------


def load_manifest() -> dict:
    """Constants manifest shipped with the package (name -> constant + scan)."""
    text = (resources.files("gevreyflow") / "data" / "constants_manifest.json").read_text()
    return json.loads(text)


def certified_constant(name: str) -> float:
    manifest = load_manifest()
    if name not in manifest:
        raise ConfigurationError(f"no certified constant named {name!r} in manifest")
    return float(manifest[name]["constant"])


def scan_triple_cosh(
    sigma_values,
    xi_values,
    theta1: float = 1.0,
    theta2: float = 1.0,
    *,
    K: float,
    tol: float,
) -> dict:
    """Brute-force lattice scan of the product bound.

    Evaluates every (sigma, xi1, xi2, xi3) on the grid, counts violations
    (lhs > rhs (1 + tol)) at constant K, and reports the supremum of lhs/rhs
    over points with rhs > 0 (rhs = 0 forces lhs = 0 there, so those points
    are vacuous).
    """
    xi = np.asarray(xi_values, dtype=float)
    X1, X2, X3 = np.meshgrid(xi, xi, xi, indexing="ij")
    x1, x2, x3 = X1.ravel(), X2.ravel(), X3.ravel()
    violations = 0
    max_ratio = 0.0
    for sigma in np.asarray(sigma_values, dtype=float):
        lhs = triple_cosh_lhs(sigma, x1, x2, x3)
        rhs = triple_cosh_rhs(sigma, x1, x2, x3, theta1, theta2, K=K)
        live = rhs > 0
        bad = lhs[live] > rhs[live] * (1.0 + tol)
        violations += int(bad.sum())
        if live.any():
            ratio = float((lhs[live] / rhs[live]).max()) * K
            max_ratio = max(max_ratio, ratio)
    return {
        "constant": float(K),
        "violations": violations,
        "max_ratio": max_ratio,
        "points_scanned": int(len(sigma_values) * x1.size),
    }
