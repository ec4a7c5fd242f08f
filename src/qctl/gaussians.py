"""Integrals of complex Gaussians through the scaled complementary error function.

``erfcx(z) = exp(z^2) erfc(z)`` is Weideman's rational approximation of the
Faddeeva function (SIAM J. Numer. Anal. 31, 1994), accurate to about 1e-15
absolute in numpy alone; an argument in Re z >= 0 never overflows.
"""

import numpy as np

__all__ = ["erfcx", "gaussian_moments"]

SQRT_PI = np.sqrt(np.pi)

# Weideman's N = 40 approximation: the scale L = sqrt(N / sqrt(2)) and the
# polynomial coefficients, highest power first.  They are the real part of an
# 80-point FFT of exp(-s^2) (L^2 + s^2) at s = L tan(theta / 2); the literals
# are bit-equal to it (tests/test_gaussians.py recomputes them), so no run
# imports numpy's FFT.
_FADDEEVA_SCALE = 5.3182958969449885
_FADDEEVA_COEFFICIENTS = (
    -1.7356980998791865e-15, 1.201674910759281e-15, 1.1519170220749485e-14,
    -5.231716366324404e-15, -7.071088022159408e-14, 1.3778224047664046e-14,
    4.5341448909434655e-13, 1.203330952919568e-13, -2.90771851041427e-12,
    -2.7277735625830245e-12, 1.771418567386718e-11, 3.4727420938907015e-11,
    -9.055138860958323e-11, -3.5632350403602684e-10, 2.1085990731251058e-10,
    3.017780425551564e-09, 3.249746582945079e-09, -1.8315616834296834e-08,
    -6.351773483015411e-08, 1.419864237295343e-08, 5.912136953029057e-07,
    1.4835661133172014e-06, -1.066013898416273e-06, -1.8007447144723407e-05,
    -5.5913092642348794e-05, -3.939363145483805e-05, 0.000439807015986967,
    0.002705405633073729, 0.010048186242783535, 0.02920291647124188,
    0.07182361779074328, 0.15504263802479504, 0.2998943799615006,
    0.5266528988277086, 0.8472174576593815, 1.2563815675765133,
    1.7253830848179779, 2.201513794878312, 2.6160541527618597,
    2.899624509389705,
)


def erfcx(z: np.ndarray) -> np.ndarray:
    """exp(z^2) erfc(z) for Re z >= 0, as the Faddeeva function w(i z).

    Weideman's approximation w(iz) = 2 p(Z) / (L + z)^2 + 1 / (sqrt(pi) (L + z))
    with Z = (L - z) / (L + z) holds on the closed upper half-plane of iz.
    """
    lz = _FADDEEVA_SCALE + z
    ratio = (_FADDEEVA_SCALE - z) / lz
    p = ratio * _FADDEEVA_COEFFICIENTS[0]
    for c in _FADDEEVA_COEFFICIENTS[1:-1]:
        p += c
        p *= ratio
    p += _FADDEEVA_COEFFICIENTS[-1]
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
