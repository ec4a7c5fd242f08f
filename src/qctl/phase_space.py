"""Phase-space (Wigner) distribution of the ensembles, in closed form.

The transform is the partial Fourier transform of the density matrix over the
relative coordinate,

    W(R, u, t) = (1 / 2 pi hb) * integral dr exp(-i u r / hb)
                 * rho(R + r/2, R - r/2, t).

Each direct or image term is the kernel's ``c0 exp(a d^2 + k d)``, ``d = x -
xt`` (:func:`~qctl.packets.term_coefficients`), and
``rho(x, y) = sum_ij w_ij g_i(x) conj g_j(y)`` with the weights of
:func:`~qctl.ensembles.pair_weights`.  For each pair (i, j) the integrand
``g_i(R + r/2) conj g_j(R - r/2) exp(-i u r / hb)`` is a complex Gaussian in
r, whose exponent is written through each term's own ``D = R - xt``, so that
no large parts of it cancel.  The wall cuts it off exactly at |r| <= 2|R|
(without the wall the window is the whole line), and over that window
:func:`~qctl.gaussians.gaussians` integrates it as a difference of two error
functions in which no step cancels.

Before integrating a pair on an R row, :func:`wigner_blocks` bounds it at
every u in closed form (:func:`_pair_bounds`, the whole-line integral of the
integrand's modulus) and skips it on the rows where the bound is below
:data:`SCREEN_TOL`, as direct SCF screens its negligible integrals (Haser and
Ahlrichs, J. Comput. Chem. 10, 104 (1989)).  W is therefore exact at every
(R, u) up to rounding, plus at most SCREEN_TOL sum |w_ij| / (2 pi hb) over
the pairs screened there.

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
from .gaussians import gaussians
from .packets import term_coefficients
from .quadrature import quadrature_weights
from .regime import Regime

__all__ = ["WignerField", "wigner_blocks", "wigner_transforms", "free_liouville_residual"]

# (R, u) points evaluated at once.  A pair integral holds about ten complex
# temporaries of a block's size, a few hundred kB at 4096 points.
BLOCK_POINTS = 4096

# A term pair is not integrated on an R row where its bound B_ij(R)
# (:func:`_pair_bounds`) is below this: there (i, j) and (j, i) would add
# less than SCREEN_TOL |w_ij + w_ji| / (2 pi hb) to W at every u.  On the
# benchmark's grids about half of the pair-row integrals are screened.
SCREEN_TOL = 2.0**-106


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


def _pair_integral(left, right, phase, lo, hi):
    """integral of g_i(R + r/2) conj g_j(R - r/2) exp(p r) / (c0_i conj c0_j) over lo <= r <= hi.

    ``left`` is ``(a_i, k_i, D_i)`` and ``right`` ``conj(a_j, k_j, D_j)``,
    with D = R - xt, and ``phase`` is :func:`~qctl.gaussians.gaussians`' ``(p,
    exp(p r) at lo and hi)``.  g_i(R + r/2) is c0_i exp(a_i (D_i + r/2)^2 +
    k_i (D_i + r/2)), so the integrand is exp(alpha r^2 + (beta + p) r +
    gamma) with alpha = (a_i + a_j) / 4, beta = a_i D_i + k_i / 2 - a_j D_j -
    k_j / 2 and gamma = (a_i D_i + k_i) D_i + (a_j D_j + k_j) D_j.
    """
    (a_i, k_i, D_i), (a_j, k_j, D_j) = left, right
    beta = (a_i * D_i + 0.5 * k_i) - (a_j * D_j + 0.5 * k_j)
    gamma = (a_i * D_i + k_i) * D_i + (a_j * D_j + k_j) * D_j
    return gaussians(0.25 * (a_i + a_j), beta, gamma, lo, hi, phase=phase)[0]


def _pair_bounds(a, xt, c0, R):
    """B_ij(R) >= |c0_i conj c0_j J_ij(R, u)| at every u, shape (len(R), n, n) over the n terms.

    J_ij is :func:`_pair_integral`'s.  k is imaginary and |exp(-i u r / hb)|
    is 1, so the integrand's modulus is the real Gaussian |c0_i c0_j| exp(-A_i
    (D_i + r/2)^2 - A_j (D_j - r/2)^2), A = -Re a > 0, whose whole-line
    integral is B_ij = |c0_i c0_j| 2 sqrt(pi / (A_i + A_j)) exp(-A_i A_j (2R -
    xt_i - xt_j)^2 / (A_i + A_j)); the wall's window only shrinks it.  No part
    of it cancels.
    """
    A, size = -a.real, np.abs(c0)
    A_sum, A_product = A[:, None] + A[None, :], A[:, None] * A[None, :]
    gap = (2.0 * R[:, None, None] - xt[:, None]) - xt[None, :]
    scale = size[:, None] * size[None, :] * (2.0 * np.sqrt(np.pi / A_sum))
    return scale * np.exp(-(A_product / A_sum) * gap * gap)


def wigner_blocks(specs, regime: Regime, t: float, R_grid, u_grid):
    """Wigner distribution of ensembles sharing packets and wall on the (R, u) grid at t.

    Yields the grid a block of whole R rows at a time, in order: arrays of
    shape (rows * len(u_grid), len(specs)), the (R, u) points in C order and
    one column per ensemble, of at most :data:`BLOCK_POINTS` points (one row
    if a row is longer).  Each value is exact up to rounding, plus less than
    :data:`SCREEN_TOL` ``|w_ij + w_ji| / (2 pi hb)`` for each pair screened on
    its row.  With the wall, W vanishes for R >= 0, where the window |r| <=
    2|R| is empty: those rows are zeros, and a block of them integrates no
    pair.  The blocks are the
    :func:`~qctl.ensembles.point_blocks` of the R rows.  Each unordered pair of
    terms that any ensemble uses is integrated once and added to every field
    in one broadcast, times each ensemble's weight; a zero weight adds an
    exact zero, so each field is bit-identical to the one-ensemble call.  A
    pair is screened row by row, by a bound that reads no weight, so neither
    the blocks nor the other ensembles change a bit of it.  Returns the work:
    the pair integrals, the (R, u) points at which each is evaluated
    unscreened, and the pair-points actually integrated.
    """
    R = np.asarray(R_grid, dtype=float)
    u = np.asarray(u_grid, dtype=float)
    if R.ndim != 1 or u.ndim != 1 or R.size < 3 or u.size < 3:
        raise DomainError("R_grid and u_grid must be 1-D with at least 3 points")
    first = shared_packets(specs)

    phase = (-1j / regime.hbar_tilde) * u[None, :]
    a, k, xt, c0 = term_coefficients(first.packets, regime, t, first.wall)
    weights, pairs = _pair_weights(specs, regime)
    # The rows each pair is integrated on: a NaN bound screens none, nor does
    # SCREEN_TOL = 0.
    live = ~(_pair_bounds(a, xt, c0, R) < SCREEN_TOL)
    points = integrated = 0
    for rows in point_blocks(R.size, max(1, BLOCK_POINTS // u.size)):
        R_block = R[rows]
        block = np.zeros((len(specs), R_block.size, u.size))
        inside = _inside(R_block, first.wall)
        if inside.size:
            R_in, live_in = R_block[inside][:, None], live[rows][inside]
            # exp(-i u r / hb) at the window's ends, for every pair.
            edges = np.exp(phase * np.stack((2.0 * R_in, -2.0 * R_in))) if first.wall else 1.0
            totals = np.zeros((len(specs), inside.size, u.size))
            for i, j in pairs:
                on = live_in[:, i, j]
                if not on.any():
                    continue
                # A live row's bits do not depend on the others; a whole block stays a view.
                on = slice(None) if on.all() else on
                R_on = R_in[on]
                lo, hi = (2.0 * R_on, -2.0 * R_on) if first.wall else (-np.inf, np.inf)
                edge_phase = (phase, edges[:, on] if first.wall else edges)
                left, right = (a[i], k[i], R_on - xt[i]), (np.conj(a[j]), np.conj(k[j]), R_on - xt[j])
                integral = _pair_integral(left, right, edge_phase, lo, hi)
                totals[:, on] += weights[:, i, j, None, None] * (c0[i] * np.conj(c0[j]) * integral).real
                integrated += R_on.size * u.size
            if not np.isfinite(totals).all():
                raise NumericalGuardError(f"Wigner transform is not finite at t = {t}")
            block[:, inside] = totals
            points += inside.size * u.size
        yield block.reshape(len(specs), -1).T
    return len(pairs), points, integrated


def wigner_transforms(specs, regime: Regime, t: float, R_grid, u_grid) -> list[WignerField]:
    """The fields of :func:`wigner_blocks`, whole: one per ensemble, in the order of ``specs``."""
    R, u = np.asarray(R_grid, dtype=float), np.asarray(u_grid, dtype=float)
    values = np.concatenate(list(wigner_blocks(specs, regime, t, R, u)))
    return [WignerField(R, u, field.reshape(R.size, u.size), float(t)) for field in values.T]


def _inside(R: np.ndarray, wall: bool) -> np.ndarray:
    """Indices of the R rows where W can be nonzero: R < 0 with the wall, else all."""
    return np.flatnonzero(R < 0.0) if wall else np.arange(R.size)


def _pair_weights(specs, regime: Regime) -> tuple:
    """Each ensemble's weights of the term pairs (i, j) over 2 pi hb, and the pairs any uses.

    (j, i) is the conjugate of (i, j): the weights keep i <= j, doubling
    i < j, and the pairs are the (i, j) with a nonzero weight in some ensemble.
    """
    weights = np.stack([pair_weights(spec, regime) for spec in specs])
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
