"""Composite quadrature on uniform grids.

Composite Simpson for an odd number of samples, trapezoid fallback for an
even number.  Weights are exposed separately so 2-D integrals (the Wigner
marginals) can reuse them with deterministic summation order.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

__all__ = ["quadrature_weights", "quad_integrate"]


def quadrature_weights(x: np.ndarray) -> np.ndarray:
    """Weights w such that ``sum(w * f)`` approximates ``integral f dx``.

    Requires a uniform grid with at least 3 samples.  Odd sample counts get
    composite Simpson weights (error O(dx^4) for smooth integrands), even
    counts fall back to the trapezoid rule.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 3:
        raise DomainError(f"quadrature needs at least 3 samples, got {n}")
    steps = np.diff(x)
    h = steps[0]
    if h <= 0.0 or not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise DomainError("quadrature grid must be uniform and increasing")
    w = np.empty(n)
    if n % 2 == 1:
        w[0] = w[-1] = h / 3.0
        w[1:-1:2] = 4.0 * h / 3.0
        w[2:-1:2] = 2.0 * h / 3.0
    else:
        w[:] = h
        w[0] = w[-1] = h / 2.0
    return w


def quad_integrate(x: np.ndarray, y: np.ndarray) -> float | complex:
    """Integrate sampled values ``y`` over the uniform grid ``x``.

    Works for real or complex samples; the summation order is fixed, so equal
    inputs always produce bit-identical results.
    """
    y = np.asarray(y)
    w = quadrature_weights(x)
    if y.shape != w.shape:
        raise DomainError(f"sample shape {y.shape} does not match grid {w.shape}")
    return np.sum(w * y)

