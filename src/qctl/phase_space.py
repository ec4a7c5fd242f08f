"""Phase-space (Wigner) distribution of the ensembles, by direct quadrature.

The transform is the partial Fourier transform of the density matrix over the
relative coordinate,

    W(R, u, t) = (1 / 2 pi hb) * integral dr exp(-i u r / hb)
                 * rho(R + r/2, R - r/2, t),

evaluated per (R, u) point.  Grids stay small, and the wall clips the density
support to a hard edge in r that a fast uniform transform would smear, so the
direct quadrature is deliberate.  The r-integral uses Filon's method
(oscillator-exact weights over a quadratic interpolant of the density), whose
error is set by how well the density itself is resolved and not by u; plain
composite Simpson would need r-samples proportional to the largest momentum,
which becomes prohibitive for the wide u-windows the near-wall momentum tails
demand.  The hermiticity of rho makes W real; the imaginary residue of the
quadrature is checked and dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, density
from .errors import DomainError, NumericalGuardError
from .packets import complex_width, packet_center
from .quadrature import quadrature_weights
from .regime import Regime

__all__ = ["WignerField", "default_r_span", "wigner_transform", "free_liouville_residual"]

_TRUNCATION_LIMIT = 1e-6
_IMAG_RESIDUE_LIMIT = 1e-8


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


def default_r_span(spec: EnsembleSpec, regime: Regime, t: float, factor: float = 12.0) -> float:
    """Half-width of the relative-coordinate window covering the coherence decay.

    The off-diagonal width of a spreading packet grows with the modulus of its
    complex width, so the window scales with ``max(sigma0, |st|)`` over the
    packets rather than the initial width alone.  A component superposing
    several packets additionally carries cross-packet coherence lobes at
    r = x_ta - x_tb (the interference ridge), so the window is widened by the
    largest center separation within a component.
    """
    width = max(
        max(p.sigma0, float(np.abs(complex_width(p, regime, t)))) for p in spec.packets
    )
    centers = np.array([packet_center(p, t) for p in spec.packets])
    separation = max(np.ptp(c) for c in np.split(centers, spec.component_starts[1:]))
    return factor * width + float(separation)


def _relative_sample_count(spec: EnsembleSpec, regime: Regime, r_span: float) -> int:
    """Enough r samples to resolve the density's own envelope and oscillations.

    The fastest r-oscillation of rho(R + r/2, R - r/2) comes from a packet's
    kick momentum plus a few momentum widths; Filon weights absorb the
    transform phase, so u never enters.
    """
    sigma_min = min(p.sigma0 for p in spec.packets)
    p_scale = max(abs(p.p0) for p in spec.packets) + 2.0 * regime.hbar_tilde / sigma_min
    dr = min(sigma_min / 12.0, np.pi * regime.hbar_tilde / (8.0 * p_scale))
    n = int(np.ceil(2.0 * r_span / dr)) + 1
    n = max(n, 801)
    return n if n % 2 == 1 else n + 1


def _filon_coefficients(theta: np.ndarray):
    """Filon weights (alpha, beta, gamma) for oscillatory Simpson-type panels.

    theta is the phase advance per sample; beta and gamma reduce to the
    Simpson weights 2/3 and 4/3 as theta -> 0, and alpha (odd in theta)
    carries the endpoint correction.  Small angles use series to avoid
    catastrophic cancellation.
    """
    theta = np.asarray(theta, dtype=float)
    alpha = np.empty_like(theta)
    beta = np.empty_like(theta)
    gamma = np.empty_like(theta)
    small = np.abs(theta) < 1e-2
    th_s = theta[small]
    th2 = th_s * th_s
    alpha[small] = th_s * th2 * (2.0 / 45.0 + th2 * (-2.0 / 315.0 + th2 * (2.0 / 4725.0)))
    beta[small] = 2.0 / 3.0 + th2 * (2.0 / 15.0 + th2 * (-4.0 / 105.0 + th2 * (2.0 / 567.0)))
    gamma[small] = 4.0 / 3.0 + th2 * (-2.0 / 15.0 + th2 * (1.0 / 210.0 + th2 * (-1.0 / 11340.0)))
    th = theta[~small]
    sin_th = np.sin(th)
    cos_th = np.cos(th)
    th3 = th**3
    alpha[~small] = (th * th + th * sin_th * cos_th - 2.0 * sin_th**2) / th3
    beta[~small] = 2.0 * (th * (1.0 + cos_th**2) - 2.0 * sin_th * cos_th) / th3
    gamma[~small] = 4.0 * (sin_th - th * cos_th) / th3
    return alpha, beta, gamma


def _filon_transform(
    r: np.ndarray, f: np.ndarray, kappa: np.ndarray, block: int = 1024
) -> np.ndarray:
    """integral f(r) exp(-i kappa r) dr for every kappa, Filon on a uniform grid.

    Requires an odd number of samples (Simpson-type panel pairs).  The phase
    matrix is a geometric progression along r, built by cumulative products
    instead of elementwise exp (drift ~ n * eps, far below the quadrature
    error); kappa is processed in blocks to bound memory.
    """
    n = r.size
    h = (r[-1] - r[0]) / (n - 1)
    alpha, beta, gamma = _filon_coefficients(kappa * h)
    f_even = f[::2].copy()
    f_even[0] *= 0.5
    f_even[-1] *= 0.5
    f_odd = f[1::2]
    out = np.empty(kappa.size, dtype=complex)
    for start in range(0, kappa.size, block):
        stop = min(start + block, kappa.size)
        k_blk = kappa[start:stop]
        factors = np.broadcast_to(
            np.exp(-1j * k_blk * h)[:, None], (k_blk.size, n)
        ).copy()
        factors[:, 0] = np.exp(-1j * k_blk * r[0])
        phase = np.cumprod(factors, axis=1)
        even_sum = phase[:, ::2] @ f_even
        odd_sum = phase[:, 1::2] @ f_odd
        endpoint = 1j * alpha[start:stop] * (f[-1] * phase[:, -1] - f[0] * phase[:, 0])
        out[start:stop] = h * (endpoint + beta[start:stop] * even_sum + gamma[start:stop] * odd_sum)
    return out


def wigner_transform(
    spec: EnsembleSpec,
    regime: Regime,
    t: float,
    R_grid,
    u_grid,
    r_span: float | None = None,
    n_r: int | None = None,
) -> WignerField:
    """Wigner distribution on the (R, u) grid at time t.

    ``r_span`` is the half-width of the relative-coordinate integration
    window (default :func:`default_r_span`), which must cover the
    off-diagonal decay of the density matrix; if the integrand is still above
    1e-6 at the window edge a :class:`NumericalGuardError` is raised.
    """
    R = np.asarray(R_grid, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    if R.ndim != 1 or u.ndim != 1 or R.size < 3 or u.size < 3:
        raise DomainError("R_grid and u_grid must be 1-D with at least 3 points")
    if r_span is None:
        r_span = default_r_span(spec, regime, t)
    if not r_span > 0.0:
        raise DomainError(f"r_span must be positive, got {r_span}")
    if n_r is None:
        n_r = _relative_sample_count(spec, regime, r_span)
    if n_r % 2 == 0:
        raise DomainError(f"n_r must be odd for the panel quadrature, got {n_r}")

    hb = regime.hbar_tilde
    kappa = u / hb
    values = np.empty((R.size, u.size), dtype=complex)
    edge_max = 0.0
    for i, R_i in enumerate(R):
        # Clip the window to the wall support: beyond r = +-2|R| one argument
        # crosses the wall and the integrand is identically zero, with a slope
        # kink at the edge that would otherwise degrade the quadrature.
        if spec.wall:
            lo = max(-r_span, 2.0 * R_i)
            hi = min(r_span, -2.0 * R_i)
        else:
            lo, hi = -r_span, r_span
        if not hi > lo:
            values[i] = 0.0
            continue
        r = np.linspace(lo, hi, n_r)
        rho_r = np.asarray(density(spec, regime, R_i + 0.5 * r, R_i - 0.5 * r, t))
        edge_max = max(edge_max, float(abs(rho_r[0])), float(abs(rho_r[-1])))
        values[i] = _filon_transform(r, rho_r, kappa) / (2.0 * np.pi * hb)

    if edge_max > _TRUNCATION_LIMIT:
        raise NumericalGuardError(
            f"relative-coordinate window too narrow: integrand {edge_max:.3e} at the edge"
        )
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
