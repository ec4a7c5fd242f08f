"""Integrals of complex Gaussians through the scaled complementary error function.

:func:`gaussians` is the one window integral: the moments of
``exp(alpha y^2 + beta y + gamma)`` over ``lo <= y <= hi``.  Every trace,
moment, overlap and Wigner value of the package is a sum of them, each pair of
packet terms taken in its own centred coordinate ``y``.  ``erfcx(z) = exp(z^2)
erfc(z)`` is Weideman's rational approximation of the Faddeeva function (SIAM
J. Numer. Anal. 31, 1994), accurate to about 1e-15 absolute in numpy alone; an
argument in Re z >= 0 never overflows.
"""

import numpy as np

__all__ = ["erfcx", "gaussians"]

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


def gaussians(alpha, beta, gamma, lo, hi, orders: int = 1, phase=(0.0, 1.0)) -> np.ndarray:
    """J_n = integral over lo <= y <= hi of y^n exp(alpha y^2 + beta y + gamma), n < ``orders``, stacked.

    Re alpha < 0; ``lo`` may be the scalar -inf and ``hi`` the scalar inf, and
    the rest broadcasts.  With A = -alpha, z = sqrt(A) y - beta / (2 sqrt(A))
    and G = gamma + beta^2 / 4A, J_0 is sqrt(pi) / (2 sqrt(A)) e^G
    [erf(z_hi) - erf(z_lo)].  Each finite end enters as s e^E erfcx(s z), E
    the exponent there and s = +-1 the sign that puts Re(s z) >= 0, because
    e^G erf(z) = s (e^G - e^E erfcx(s z)); an infinite end has no such term.
    Re z grows with y, so the e^G terms cancel unless the window straddles the
    peak, where they add 2 e^G.  Then 2 alpha J_{n+1} + beta J_n is
    [y^n e^E] from lo to hi minus n J_{n-1}.

    ``phase`` is ``(p, exp(p y) at the finite ends, stacked)``: a linear part
    ``p y`` of the exponent besides ``beta y``, shared by many calls, whose
    factor at the ends their caller computes once (a complex exp of every
    point would cost a Wigner pair integral about 40% more).
    """
    root = np.sqrt(-alpha)
    slope = beta + phase[0]
    # Each end's sign s, point y, e^E and s e^E erfcx(s z): an infinite end keeps
    # the sign of its infinity and adds nothing.
    sign, point, edge, tail = [-1.0, 1.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]
    finite = [k for k, end in enumerate((lo, hi)) if np.ndim(end) or np.isfinite(end)]
    if finite:
        y = np.stack(np.broadcast_arrays(*((lo, hi)[k] for k in finite)))
        exponent = np.exp((alpha * y + beta) * y + gamma) * phase[1]
        z = root * y - np.multiply(slope, 0.5 / root)
        side = np.copysign(1.0, z.real)
        tails = erfcx(side * z) * exponent * side
        for n, k in enumerate(finite):
            sign[k], point[k], edge[k], tail[k] = side[n], y[n], exponent[n], tails[n]
    peak = gamma - slope * slope * (0.25 / alpha)
    straddle = np.less(sign[0], sign[1])
    moments = np.zeros((orders,) + np.broadcast_shapes(peak.shape, straddle.shape), complex)
    j0 = np.exp(peak, out=moments[0, ...], where=straddle)
    j0 *= 2.0
    j0 += tail[0] - tail[1]
    j0 *= 0.5 * SQRT_PI / root
    for n in range(orders - 1):
        edge = [point[k] * edge[k] for k in (0, 1)] if n else edge
        np.multiply(edge[1] - edge[0] - slope * moments[n] - n * moments[n - 1], 0.5 / alpha, out=moments[n + 1, ...])
    return moments
