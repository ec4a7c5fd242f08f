"""Closed-form Gaussian wave packets, free and against a hard wall at x = 0.

A packet is defined by its initial width ``sigma0``, center ``x0 < 0``, kick
momentum ``p0`` and mass.  Free evolution is the analytic spreading Gaussian

    psi_f(x, t) = (2 pi st^2)^(-1/4)
                  * exp[ -(x - xt)^2 / (4 sigma0 st)
                         + i p0 (x - xt) / hb + i p0^2 t / (2 m hb)
                         + i p0 x0 / hb ]

with complex width ``st = sigma0 (1 + i hb t / (2 m sigma0^2))``, center
``xt = x0 + p0 t / m`` and ``hb`` the regime's rescaled Planck constant.
The hard-wall solution is the image construction
``(psi_f(x, t) - psi_f(-x, t)) theta(-x)``: the mirror term carries center
``-xt`` and flipped momentum, and the difference vanishes identically at the
wall.

Each direct or image term is ``c0 exp(a d^2 + k d)`` with ``d = +-x - xt``,
and its x-gradient reuses the same exponential.  :func:`packet_fields`
evaluates every amplitude and gradient broadcast over arrays in ``x`` and
``t``.  The trajectory loop instead evaluates rows that each carry their own
packet, regime, position and time, on one flat term axis:
:func:`row_coefficients` lays out the direct terms of all rows followed by
their image terms, with the image sign folded into ``xt``, ``k`` and ``c0``
so that every term has ``d = x - xt``, and :func:`term_sums` evaluates them
and sums them over runs of rows.  Both kernels fill the terms with the same arithmetic in the same
order, and the folding negates exactly, so they agree bit for bit.
:func:`packet_terms` gives the same terms expanded as ``C exp(A x^2 + B x +
G)``, the form they are integrated in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .regime import Regime

__all__ = [
    "GaussianPacket",
    "complex_width",
    "packet_center",
    "packet_fields",
    "packet_terms",
    "row_constants",
    "row_coefficients",
    "term_sums",
    "free_amplitude",
    "free_amplitude_gradient",
    "wall_amplitude",
    "wall_amplitude_gradient",
]

# d = sign * x - xt for the direct (+1) and the image (-1) term.
_TERM_SIGNS = np.array([1.0, -1.0])
_FREE_SIGNS = _TERM_SIGNS[:1]
_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class GaussianPacket:
    """Initial Gaussian packet on the half-line x < 0.

    ``x0 <= -3 sigma0`` keeps the initial tail beyond the wall below ~1e-4 in
    norm, so the step-function truncation is absorbed by the ensemble
    normalization instead of distorting the dynamics.
    """

    x0: float
    p0: float
    sigma0: float = 1.0
    mass: float = 1.0

    def __post_init__(self):
        if not self.sigma0 > 0.0:
            raise DomainError(f"sigma0 must be positive, got {self.sigma0}")
        if not self.mass > 0.0:
            raise DomainError(f"mass must be positive, got {self.mass}")
        if not self.x0 < 0.0:
            raise DomainError(f"x0 must be negative, got {self.x0}")
        if abs(self.x0) < 3.0 * self.sigma0:
            raise DomainError(
                f"|x0| must be at least 3 sigma0 (got x0={self.x0}, sigma0={self.sigma0})"
            )


def complex_width(packet: GaussianPacket, regime: Regime, t):
    """Complex width st = sigma0 (1 + i hb t / (2 m sigma0^2)); Re(st) = sigma0."""
    t = np.asarray(t, dtype=float)
    tau = regime.hbar_tilde * t / (2.0 * packet.mass * packet.sigma0**2)
    return packet.sigma0 * (1.0 + 1j * tau)


def packet_center(packet: GaussianPacket, t):
    """Center of the freely moving packet, xt = x0 + p0 t / m."""
    t = np.asarray(t, dtype=float)
    return packet.x0 + packet.p0 * t / packet.mass


@lru_cache(maxsize=64)
def _term_constants(packets: tuple, regime: Regime, ndim: int):
    """Time-independent coefficient parts: packet axis, then ndim + 1 unit axes.

    ``sigma0 + rate t`` is :func:`complex_width`, ``x0 + velocity t`` :func:`packet_center`.
    """
    columns = np.array([(p.sigma0, p.x0, p.p0, p.mass) for p in packets])
    sigma0, x0, p0, mass = columns.T.reshape((4, len(packets), 1) + (1,) * ndim)
    hb = regime.hbar_tilde
    rate = 1j * hb / (2.0 * mass * sigma0)
    return sigma0, rate, -0.25 / sigma0, x0, p0 / mass, 1j * p0 / hb, 0.5j * p0 / hb


def _coefficients(constants, t: np.ndarray):
    """(a, k, xt, c0) at t from the constants of :func:`_term_constants`, broadcast."""
    sigma0, rate, a_scale, x0, velocity, k, half_k = constants
    st = sigma0 + rate * t
    xt = x0 + velocity * t
    a = a_scale / st
    # c0 = (2 pi st^2)^(-1/4) exp(i p0 (x0 + xt) / (2 hb)), and the phase
    # p0 (x0 + xt) / 2 equals p0^2 t / (2 m) + p0 x0.
    c0 = np.exp(half_k * (x0 + xt)) / np.sqrt(_SQRT_2PI * st)
    return a, k, xt, c0


def _fill_terms(terms, k, d, c0, slopes=None):
    """Turn ``terms``, holding ``a d``, into ``c0 exp(a d^2 + k d)`` in place and,
    given ``slopes`` holding ``2 a d``, turn it into ``(2 a d + k)`` times the
    term: its x-gradient."""
    if slopes is not None:
        slopes += k
    terms += k
    terms *= d
    np.exp(terms, out=terms)
    terms *= c0
    if slopes is not None:
        slopes *= terms


def packet_terms(packets, regime: Regime, t: float, wall: bool = True):
    """Every direct and image term as ``C exp(A x^2 + B x + G)`` at one time.

    Returns ``(C, A, B, G)``, each of shape ``(len(packets), terms)``: the
    direct and the image term with ``wall``, which sum to the wall amplitude
    for x <= 0, and the direct term alone without it.
    """
    t = np.asarray(t, dtype=float).reshape(1, 1)
    a, k, xt, c0 = _coefficients(_term_constants(tuple(packets), regime, 0), t)
    signs = _TERM_SIGNS if wall else _FREE_SIGNS
    # s c0 exp(a d^2 + k d) with d = s x - xt, expanded in powers of x.
    return np.broadcast_arrays(signs * c0, a, signs * (k - 2.0 * a * xt), (a * xt - k) * xt)


def packet_fields(packets, regime: Regime, x, t, wall: bool = True, gradient: bool = True):
    """Amplitudes and x-gradients of several packets from one exp per term.

    Returns ``(psi, grad)``, each of shape ``(len(packets),) + shape`` with
    ``shape`` the broadcast shape of ``x`` and ``t``; ``grad`` is ``None``
    when ``gradient`` is false.  With ``wall`` the amplitude is the image
    pair, zero for x >= 0, and the gradient its one-sided derivative, zero for
    x > 0; without it both are the free-space values.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    ndim = max(x.ndim, t.ndim)
    # The coefficients are arrays even for a scalar t, so scalar and array times go
    # through the same array loops: numpy's scalar complex arithmetic rounds differently.
    t = t.reshape((1, 1) + (1,) * (ndim - t.ndim) + t.shape)
    a, k, xt, c0 = _coefficients(_term_constants(tuple(packets), regime, ndim), t)
    signs = (_TERM_SIGNS if wall else _FREE_SIGNS).reshape((1, -1) + (1,) * ndim)
    d = signs * x - xt
    terms = a * d
    slopes = terms + terms if gradient else None
    _fill_terms(terms, k, d, c0, slopes)
    if not wall:
        return terms[:, 0], (slopes[:, 0] if gradient else None)
    inside = x <= 0.0  # the image pair is exactly zero at x = 0 itself
    psi = np.where(inside, terms[:, 0] - terms[:, 1], 0.0)
    if not gradient:
        return psi, None
    # The image term enters with a minus sign and d(-x)/dx = -1: the signs cancel.
    return psi, np.where(inside, slopes[:, 0] + slopes[:, 1], 0.0)


def row_constants(rows):
    """Time-independent constants of :func:`row_coefficients`, one ``(packet, regime)`` per row."""
    columns = zip(*(_term_constants((packet,), regime, 0) for packet, regime in rows))
    return tuple(np.concatenate(column, axis=None) for column in columns)


def row_coefficients(constants, t, wall: bool = True):
    """``(a, k, xt, c0)`` of every term of the rows at times ``t``, shape ``(..., rows)``.

    The last axis is the flat term axis: the direct term of every row, then,
    with ``wall``, the image term of every row with its sign folded into
    ``xt``, ``k`` and ``c0``.  ``c0 exp(a d^2 + k d)`` with ``d = x - xt`` is
    then ``-psi_f(-x)`` exactly, since every folded factor is an exact
    negation, and ``(2 a d + k)`` times it is its x-gradient.
    """
    a, k, xt, c0 = _coefficients(constants, t)
    if not wall:
        return a, k, xt, c0
    return (
        np.concatenate((a, a), axis=-1),
        np.concatenate((k, -k)),
        np.concatenate((xt, -xt), axis=-1),
        np.concatenate((c0, -c0), axis=-1),
    )


def term_sums(coefficients, x, starts, scale, wall: bool = True):
    """The trajectory kernel: amplitude and gradient summed over runs of rows.

    ``coefficients`` are :func:`row_coefficients` at one time per row and
    ``x`` the position of every term.  Returns a ``(2, len(starts))`` array: the sums of the
    amplitudes (first) and of the gradients (second) over the runs of rows
    beginning at ``starts``, times ``scale``.  With ``wall`` each row is its
    image pair, zero for x > 0 as in :func:`packet_fields`.
    """
    a, k, xt, c0 = coefficients
    d = x - xt
    fields = np.empty((2, d.size), dtype=complex)
    terms, slopes = fields
    np.multiply(a, d, out=terms)
    np.add(terms, terms, out=slopes)
    _fill_terms(terms, k, d, c0, slopes)
    if wall:
        n = d.size // 2
        fields = fields[:, :n] + fields[:, n:]
        if not np.maximum.reduce(x) <= 0.0:  # also for a NaN position
            fields = np.where(x[:n] <= 0.0, fields, 0.0)
    return np.add.reduceat(fields, starts, axis=1) * scale


def free_amplitude(packet: GaussianPacket, regime: Regime, x, t):
    """Freely evolved Gaussian amplitude at position(s) x and time(s) t."""
    return packet_fields((packet,), regime, x, t, wall=False, gradient=False)[0][0]


def free_amplitude_gradient(packet: GaussianPacket, regime: Regime, x, t):
    """Analytic d/dx of :func:`free_amplitude`."""
    return packet_fields((packet,), regime, x, t, wall=False)[1][0]


def wall_amplitude(packet: GaussianPacket, regime: Regime, x, t):
    """Hard-wall amplitude: direct term minus its mirror image, zero for x >= 0.

    The image term is the free amplitude evaluated at -x, i.e. a Gaussian with
    center -xt and reversed momentum; the difference has an exact node at the
    wall for all times.
    """
    return packet_fields((packet,), regime, x, t, gradient=False)[0][0]


def wall_amplitude_gradient(packet: GaussianPacket, regime: Regime, x, t):
    """Analytic d/dx of :func:`wall_amplitude` on the half-line x <= 0.

    At x = 0 this is the one-sided boundary derivative of the image pair,
    2 * d/dx psi_f(0, t); it is nonzero in general and feeds the boundary flux
    behind the effective wall force.
    """
    return packet_fields((packet,), regime, x, t)[1][0]
