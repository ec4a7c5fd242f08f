"""Phase-space (Wigner) distribution of the ensembles, in closed form.

The transform is the partial Fourier transform of the density matrix over the
relative coordinate,

    W(R, u, t) = (1 / 2 pi hb) * integral dr exp(-i u r / hb)
                 * rho(R + r/2, R - r/2, t).

Every direct or image term of a packet is ``C exp(a d^2 + k d)`` with
``d = +-x - xt``, so for each ordered pair (i, j) of terms in one pure
component the integrand ``g_i(R + r/2) conj g_j(R - r/2) exp(-i u r / hb)``
is a complex Gaussian ``exp(alpha r^2 + b r + gamma)`` in r.  The wall cuts
it off exactly at |r| <= 2|R|, and over that window its integral is a
difference of two error functions, evaluated through the scaled
complementary error function ``erfcx`` so that no step cancels.  ``erfcx``
is Weideman's rational approximation of the Faddeeva function (SIAM J.
Numer. Anal. 31, 1994), accurate to about 1e-15 absolute in numpy alone.
Without the wall the window is the whole line.  W is therefore exact at
every (R, u) up to rounding; no relative-coordinate grid is involved.

All ordered pairs are summed, so the hermiticity of rho makes W real only
through the (i, j) and (j, i) terms cancelling; the imaginary residue is
checked and dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .ensembles import COMPONENT_WEIGHT, EnsembleSpec, norm_constant
from .errors import DomainError, NumericalGuardError
from .packets import packet_coefficients
from .quadrature import quadrature_weights
from .regime import Regime

__all__ = ["WignerField", "wigner_transform", "free_liouville_residual"]

_IMAG_RESIDUE_LIMIT = 1e-8

# Number of terms in Weideman's rational approximation.
_FADDEEVA_TERMS = 40
_SQRT_PI = np.sqrt(np.pi)


@dataclass(frozen=True)
class WignerField:
    """Sampled W(R, u) at one time; ``values`` has shape (len(R), len(u)).

    ``total_mass()`` approximates 1 when the grids cover the full support.
    """

    R_grid: np.ndarray
    u_grid: np.ndarray
    values: np.ndarray
    t: float
    regime: Regime

    def total_mass(self) -> float:
        w_R = quadrature_weights(self.R_grid)
        w_u = quadrature_weights(self.u_grid)
        return float(np.sum(self.values * (w_R[:, None] * w_u[None, :])))

    def momentum_marginal(self) -> np.ndarray:
        """Integral of W over u at each R; equals the diagonal density."""
        w_u = quadrature_weights(self.u_grid)
        return self.values @ w_u


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


def _erfcx(z: np.ndarray) -> np.ndarray:
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
    return (2.0 * p / lz + 1.0 / _SQRT_PI) / lz


def _component_terms(spec: EnsembleSpec, regime: Regime, t: float, R: np.ndarray):
    """Per component, each term's prefactor, exponent at R and half-slope at R.

    A term ``C exp(e(x))`` evaluated at ``R + r/2`` is
    ``C exp(e(R) + s r + a r^2 / 4)`` with ``s = e'(R) / 2``; the returned
    tuples are ``(C, a, e(R), s)``.
    """
    a, k, xt, c0 = packet_coefficients(spec.packets, regime, t)
    signs = (1.0, -1.0) if spec.wall else (1.0,)
    terms = []
    for p in range(len(spec.packets)):
        terms.append([])
        for sign in signs:
            d = sign * R - xt[p]
            exponent = (a[p] * d + k[p]) * d
            half_slope = 0.5 * sign * (2.0 * a[p] * d + k[p])
            terms[-1].append((sign * c0[p], a[p], exponent, half_slope))
    starts = spec.component_starts
    ends = starts[1:] + (len(spec.packets),)
    return [sum(terms[lo:hi], []) for lo, hi in zip(starts, ends)]


def _pair_integral(alpha, slope, gamma, phase, edges, edge_phase):
    """integral of exp(alpha r^2 + b r + gamma), b = slope + phase, over the window.

    ``edges`` holds the window ends r1 = 2R, r2 = -2R (shape (2, n_R, 1)) and
    ``edge_phase`` the pair-independent exp(phase r) there; ``edges`` is None
    for the whole line.  With A = -alpha and z = sqrt(A) (r - b / 2A) the
    integral is sqrt(pi) / (2 sqrt(A)) [erf(z2) - erf(z1)].  Each end enters
    as exp(E) erfcx(+-z), E the log-integrand there, with the sign that puts
    the argument in Re >= 0.  A window straddling the centre (Re z1 < 0 <=
    Re z2) adds 2 exp(G), G = gamma + b^2 / 4A, because there
    erf(z2) - erf(z1) = 2 - erfc(z2) - erfc(-z1).
    """
    A = -alpha
    root = np.sqrt(A)
    b = slope + phase
    if edges is None:
        return (_SQRT_PI / root) * np.exp(gamma + b * b / (4.0 * A))
    z = root * (edges - b / (2.0 * A))
    side = np.where(z.real >= 0.0, 1.0, -1.0)
    tails = _erfcx(side * z)
    tails *= np.exp((alpha * edges + slope) * edges + gamma)
    tails *= edge_phase
    tails *= side
    inner = tails[0] - tails[1]
    # r1 < r2 and Re z grows with r, so only (-1, +1) straddles.
    straddle = side[0] < side[1]
    b_in = b[straddle]
    gamma_in = np.broadcast_to(gamma, inner.shape)[straddle]
    inner[straddle] += 2.0 * np.exp(gamma_in + b_in * b_in / (4.0 * A))
    return (0.5 * _SQRT_PI / root) * inner


def wigner_transform(
    spec: EnsembleSpec, regime: Regime, t: float, R_grid, u_grid
) -> WignerField:
    """Wigner distribution on the (R, u) grid at time t, exact up to rounding.

    With the wall, W vanishes for R >= 0, where the window |r| <= 2|R| is empty.
    """
    R = np.asarray(R_grid, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    if R.ndim != 1 or u.ndim != 1 or R.size < 3 or u.size < 3:
        raise DomainError("R_grid and u_grid must be 1-D with at least 3 points")

    hb = regime.hbar_tilde
    rows = R < 0.0 if spec.wall else np.ones(R.size, dtype=bool)
    R_in = R[rows][:, None]
    phase = (-1j / hb) * u[None, :]
    edges = edge_phase = None
    if spec.wall:
        edges = np.stack((2.0 * R_in, -2.0 * R_in))
        edge_phase = np.exp(phase * edges)
    total = np.zeros((R_in.shape[0], u.size), dtype=complex)
    for terms in _component_terms(spec, regime, t, R_in):
        for C_i, a_i, e_i, s_i in terms:
            for C_j, a_j, e_j, s_j in terms:
                total += (C_i * np.conj(C_j)) * _pair_integral(
                    0.25 * (a_i + np.conj(a_j)),
                    s_i - np.conj(s_j),
                    e_i + np.conj(e_j),
                    phase,
                    edges,
                    edge_phase,
                )
    values = np.zeros((R.size, u.size), dtype=complex)
    values[rows] = total * (COMPONENT_WEIGHT / norm_constant(spec, regime) / (2.0 * np.pi * hb))

    scale = float(np.max(np.abs(values.real)))
    imag_residue = float(np.max(np.abs(values.imag)))
    if scale > 0.0 and imag_residue > _IMAG_RESIDUE_LIMIT * scale:
        raise NumericalGuardError(
            f"Wigner transform has imaginary residue {imag_residue:.3e} (peak {scale:.3e})"
        )
    return WignerField(R_grid=R, u_grid=u, values=values.real, t=float(t), regime=regime)


def free_liouville_residual(
    field_t0: WignerField, field_t1: WignerField, spec: EnsembleSpec, regime: Regime
) -> float:
    """Residual of free-streaming transport between two nearby snapshots.

    For a wall-free packet W obeys dW/dt + (u/m) dW/dR = 0 exactly, so the
    returned max-norm residual (normalized by the peak of W) is purely
    discretization error of the central differences.
    """
    if not np.array_equal(field_t0.R_grid, field_t1.R_grid) or not np.array_equal(
        field_t0.u_grid, field_t1.u_grid
    ):
        raise DomainError("Wigner fields must share identical grids")
    dt = field_t1.t - field_t0.t
    if not dt > 0.0:
        raise DomainError("fields must be ordered in time")
    R = field_t0.R_grid
    u = field_t0.u_grid
    dR = R[1] - R[0]
    w_mid = 0.5 * (field_t0.values + field_t1.values)
    dw_dt = (field_t1.values - field_t0.values)[1:-1, :] / dt
    dw_dR = (w_mid[2:, :] - w_mid[:-2, :]) / (2.0 * dR)
    residual = dw_dt + (u[None, :] / spec.mass) * dw_dR
    peak = float(np.max(np.abs(w_mid)))
    if peak == 0.0:
        raise DomainError("fields are identically zero")
    return float(np.max(np.abs(residual))) / peak
