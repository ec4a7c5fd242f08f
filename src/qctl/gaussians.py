"""Integrals of complex Gaussians through the scaled complementary error function.

``erfcx(z) = exp(z^2) erfc(z)`` is Weideman's rational approximation of the
Faddeeva function (SIAM J. Numer. Anal. 31, 1994), accurate to about 1e-15
absolute in numpy alone; an argument in Re z >= 0 never overflows.
"""

from functools import lru_cache

import numpy as np

__all__ = ["erfcx", "gaussian_moments"]

# Number of terms in Weideman's rational approximation.
_FADDEEVA_TERMS = 40
SQRT_PI = np.sqrt(np.pi)


@lru_cache(maxsize=1)
def _faddeeva_coefficients():
    """Scale L and the polynomial coefficients (highest power first), from one FFT."""
    n = _FADDEEVA_TERMS
    m = 2 * n
    scale = np.sqrt(n / np.sqrt(2.0))
    theta = np.arange(-m + 1, m) * np.pi / m
    s = scale * np.tan(0.5 * theta)
    f = np.concatenate(([0.0], np.exp(-s * s) * (scale * scale + s * s)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    return scale, a[n:0:-1]


def erfcx(z: np.ndarray) -> np.ndarray:
    """exp(z^2) erfc(z) for Re z >= 0, as the Faddeeva function w(i z).

    Weideman's approximation w(iz) = 2 p(Z) / (L + z)^2 + 1 / (sqrt(pi) (L + z))
    with Z = (L - z) / (L + z) holds on the closed upper half-plane of iz.
    """
    scale, coefficients = _faddeeva_coefficients()
    lz = scale + z
    ratio = (scale - z) / lz
    p = np.full(z.shape, coefficients[0], dtype=complex)
    for c in coefficients[1:]:
        p *= ratio
        p += c
    return (2.0 * p / lz + 1.0 / SQRT_PI) / lz


def gaussian_moments(alpha, beta, gamma, wall: bool = True) -> np.ndarray:
    """I_n = integral of x^n exp(alpha x^2 + beta x + gamma), n = 0, 1, 2, stacked.

    Over x <= 0 with ``wall``, the whole line without it; Re alpha < 0.  With
    A = -alpha and w = beta / (2 sqrt(A)), the half-line I_0 is
    sqrt(pi) / (2 sqrt(A)) e^gamma erfcx(w) for Re w >= 0, else the whole
    line's sqrt(pi / A) exp(gamma + beta^2 / 4A) minus the same at -w.  Then
    2 alpha I_{n+1} + beta I_n + n I_{n-1} is the integrand at the upper end.
    """
    root = np.sqrt(-alpha)
    i0 = (SQRT_PI / root) * np.exp(gamma - beta * beta / (4.0 * alpha))
    edge = 0.0
    if wall:
        w = beta / (2.0 * root)
        side = np.where(w.real >= 0.0, 1.0, -1.0)
        edge = np.exp(gamma)
        tail = (0.5 * SQRT_PI / root) * edge * erfcx(side * w)
        i0 = np.where(side > 0.0, tail, i0 - tail)
    i1 = (edge - beta * i0) / (2.0 * alpha)
    i2 = -(beta * i1 + i0) / (2.0 * alpha)
    return np.stack((i0, i1, i2))
