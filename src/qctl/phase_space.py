"""Phase-space (Wigner) distribution of the ensembles, in closed form.

The transform is the partial Fourier transform of the density matrix over the
relative coordinate,

    W(R, u, t) = (1 / 2 pi hb) * integral dr exp(-i u r / hb)
                 * rho(R + r/2, R - r/2, t).

Each direct or image term is ``C exp(A x^2 + B x + G)``, and
``rho(x, y) = sum_ij w_ij g_i(x) conj g_j(y)`` with the weights of
:func:`~qctl.ensembles.pair_weights`.  For each pair (i, j) the integrand
``g_i(R + r/2) conj g_j(R - r/2) exp(-i u r / hb)`` is a complex Gaussian in
r.  The wall cuts it off exactly at |r| <= 2|R| (without the wall the window
is the whole line), and over that window its integral is a difference of two
error functions, evaluated through :func:`~qctl.gaussians.erfcx` so that no
step cancels.  W is therefore exact at every (R, u) up to rounding.

The window is symmetric in r, so the (j, i) integral is the complex
conjugate of the (i, j) one: only the pairs i <= j are integrated, and the
pair i < j enters as twice its real part.  W is real by construction.  The
fields of several ensembles of the same packets share one table of pair
integrals.

Every step is elementwise in (R, u), so :func:`wigner_blocks` evaluates
the grid in blocks of whole R rows of at most :data:`BLOCK_POINTS` points
(one row if a row is longer), each block bit-identical to the whole grid at
once, and returns the work it did.  A block holds the pair integrals'
temporaries and its fields, 8 bytes a point per ensemble, as the CSV rows of
the Wigner run: one row per (R, u) point, one column per ensemble.  The run
formats each block as it is evaluated, so it holds no array that spans the
grid; :func:`wigner_transforms` joins the blocks into whole fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensembles import EnsembleSpec, pair_weights, point_blocks, shared_packets
from .errors import DomainError, NumericalGuardError
from .gaussians import SQRT_PI, erfcx
from .packets import packet_terms
from .quadrature import quadrature_weights
from .regime import Regime

__all__ = ["WignerField", "wigner_blocks", "wigner_transforms", "free_liouville_residual"]

# (R, u) points evaluated at once.  A pair integral holds about ten complex
# temporaries of a block's size, a few hundred kB at 4096 points.
BLOCK_POINTS = 4096


@dataclass(frozen=True)
class WignerField:
    """Sampled W(R, u) at one time; ``values`` has shape (len(R), len(u)).

    ``total_mass()`` approximates 1 when the grids cover the full support.
    """

    R_grid: np.ndarray
    u_grid: np.ndarray
    values: np.ndarray
    t: float

    def total_mass(self) -> float:
        w_R = quadrature_weights(self.R_grid)
        w_u = quadrature_weights(self.u_grid)
        return float(np.sum(self.values * (w_R[:, None] * w_u[None, :])))

    def momentum_marginal(self) -> np.ndarray:
        """Integral of W over u at each R; equals the diagonal density."""
        w_u = quadrature_weights(self.u_grid)
        return self.values @ w_u


def _pair_integral(left, right, R, phase, edges, edge_phase):
    """integral of g_i(R + r/2) conj g_j(R - r/2) exp(phase r) / (C_i conj C_j) over r.

    In r the integrand is exp(alpha r^2 + b r + gamma), b = slope + phase.
    ``edges`` holds the window ends r1 = 2R, r2 = -2R (shape (2, n_R, 1)) and
    ``edge_phase`` the pair-independent exp(phase r) there; ``edges`` is None
    for the whole line.  With A = -alpha and z = sqrt(A) (r - b / 2A) it is
    sqrt(pi) / (2 sqrt(A)) [erf(z2) - erf(z1)].  Each end enters as
    exp(E) erfcx(+-z), E the log-integrand there, with the sign that puts the
    argument in Re >= 0.  A window straddling the centre (Re z1 < 0 <= Re z2)
    adds 2 exp(G), G = gamma + b^2 / 4A, because there
    erf(z2) - erf(z1) = 2 - erfc(z2) - erfc(-z1).
    """
    (A_i, B_i, G_i), (A_j, B_j, G_j) = left, right
    alpha = 0.25 * (A_i + A_j)
    slope = (A_i - A_j) * R + 0.5 * (B_i - B_j)
    gamma = ((A_i + A_j) * R + (B_i + B_j)) * R + (G_i + G_j)
    A = -alpha
    root = np.sqrt(A)
    b = slope + phase
    if edges is None:
        return (SQRT_PI / root) * np.exp(gamma + b * b / (4.0 * A))
    z = root * (edges - b / (2.0 * A))
    side = np.where(z.real >= 0.0, 1.0, -1.0)
    tails = erfcx(side * z)
    tails *= np.exp((alpha * edges + slope) * edges + gamma)
    tails *= edge_phase
    tails *= side
    inner = tails[0] - tails[1]
    # r1 < r2 and Re z grows with r, so only (-1, +1) straddles.
    straddle = side[0] < side[1]
    b_in = b[straddle]
    gamma_in = np.broadcast_to(gamma, inner.shape)[straddle]
    inner[straddle] += 2.0 * np.exp(gamma_in + b_in * b_in / (4.0 * A))
    return (0.5 * SQRT_PI / root) * inner


def wigner_blocks(specs, regime: Regime, t: float, R_grid, u_grid):
    """Wigner distribution of ensembles sharing packets and wall on the (R, u) grid at t.

    Yields the grid a block of whole R rows at a time, in order: arrays of
    shape (rows * len(u_grid), len(specs)), the (R, u) points in C order and
    one column per ensemble, of at most :data:`BLOCK_POINTS` points (one row
    if a row is longer).  Each value is exact up to rounding.  With the wall,
    W vanishes for R >= 0, where the window |r| <= 2|R| is empty: those rows
    are zeros, and a block of them integrates no pair.  The blocks are the
    :func:`~qctl.ensembles.point_blocks` of the R rows.  Each unordered pair of
    terms that any ensemble uses is integrated once and added to every field
    in one broadcast, times each ensemble's weight; a zero weight adds an
    exact zero, so each field is bit-identical to the one-ensemble call.
    Returns the work: the pair integrals and the (R, u) points at which each
    is evaluated.
    """
    R = np.asarray(R_grid, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    if R.ndim != 1 or u.ndim != 1 or R.size < 3 or u.size < 3:
        raise DomainError("R_grid and u_grid must be 1-D with at least 3 points")
    first = shared_packets(specs)

    phase = (-1j / regime.hbar_tilde) * u[None, :]
    C, A, B, G = packet_terms(first.packets, regime, t, first.wall)
    weights, pairs = _pair_weights(specs, regime, C.shape[1])
    C = C.ravel()
    exponents = np.stack((A, B, G)).reshape(3, -1)
    points = 0
    for rows in point_blocks(R.size, max(1, BLOCK_POINTS // u.size)):
        R_block = R[rows]
        block = np.zeros((len(specs), R_block.size, u.size))
        inside = _inside(R_block, first.wall)
        if inside.size:
            R_in = R_block[inside][:, None]
            edges = np.stack((2.0 * R_in, -2.0 * R_in)) if first.wall else None
            edge_phase = None if edges is None else np.exp(phase * edges)
            totals = np.zeros((len(specs), inside.size, u.size))
            for i, j in pairs:
                integral = _pair_integral(
                    exponents[:, i], np.conj(exponents[:, j]), R_in, phase, edges, edge_phase
                )
                totals += weights[:, i, j, None, None] * (C[i] * np.conj(C[j]) * integral).real
            if not np.isfinite(totals).all():
                raise NumericalGuardError(f"Wigner transform is not finite at t = {t}")
            block[:, inside] = totals
            points += inside.size * u.size
        yield block.reshape(len(specs), -1).T
    return len(pairs), points


def wigner_transforms(specs, regime: Regime, t: float, R_grid, u_grid) -> list[WignerField]:
    """The fields of :func:`wigner_blocks`, whole: one per ensemble, in the order of ``specs``."""
    R, u = np.asarray(R_grid, dtype=float), np.asarray(u_grid, dtype=float)
    values = np.concatenate(list(wigner_blocks(specs, regime, t, R, u)))
    return [WignerField(R, u, field.reshape(R.size, u.size), float(t)) for field in values.T]


def _inside(R: np.ndarray, wall: bool) -> np.ndarray:
    """Indices of the R rows where W can be nonzero: R < 0 with the wall, else all."""
    return np.flatnonzero(R < 0.0) if wall else np.arange(R.size)


def _pair_weights(specs, regime: Regime, terms_per_packet: int) -> tuple:
    """Each ensemble's weights of the term pairs (i, j) over 2 pi hb, and the pairs any uses.

    (j, i) is the conjugate of (i, j): the weights keep i <= j, doubling
    i < j, and the pairs are the (i, j) with a nonzero weight in some ensemble.
    """
    weights = np.stack([pair_weights(spec, regime, terms_per_packet) for spec in specs])
    weights = (np.triu(weights) + np.triu(weights, 1)) / (2.0 * np.pi * regime.hbar_tilde)
    return weights, np.argwhere(weights.any(axis=0))


def free_liouville_residual(
    field_t0: WignerField, field_t1: WignerField, spec: EnsembleSpec
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
