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

Each direct or image term is ``c0 exp(a d^2 + k d)`` with ``d = x - xt``:
:func:`_folded` lays out the direct terms and then the image terms on a
leading axis, with the image sign folded into ``xt``, ``k`` and ``c0``.  Its
x-gradient ``(2 a d + k)`` times the term reuses the same exponential.
:func:`term_fields` is the one kernel that evaluates the folded terms and
sums each packet's direct and image term.  :func:`packet_fields` calls it
broadcast over arrays in ``x`` and ``t``; the trajectory loop calls it on
rows that each carry their own packet, regime, position and time, with the
coefficients of :func:`row_coefficients`.  :func:`term_coefficients` lays the
same folded terms out one per entry of a last axis, the form in which
:mod:`qctl.ensembles` and :mod:`qctl.phase_space` integrate pairs of them,
each pair about its own centre, so that no integral expands ``d`` about x = 0.
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
    "row_constants",
    "row_coefficients",
    "term_coefficients",
    "term_fields",
]

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
def _term_constants(packets: tuple, regime: Regime):
    """Time-independent coefficient parts, one entry per packet.

    ``sigma0 + rate t`` is :func:`complex_width`, ``x0 + velocity t`` :func:`packet_center`.
    """
    sigma0, x0, p0, mass = np.array([(p.sigma0, p.x0, p.p0, p.mass) for p in packets]).T
    hb = regime.hbar_tilde
    rate = 1j * hb / (2.0 * mass * sigma0)
    return sigma0, rate, -0.25 / sigma0, x0, p0 / mass, 1j * p0 / hb, 0.5j * p0 / hb


def _times(t) -> np.ndarray:
    """``t`` as a float array; raises :class:`DomainError` unless every time is finite."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise DomainError("times must be finite")
    return t


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


def _folded(coefficients, wall: bool):
    """``(a, k, xt, c0)`` of every term, stacked on a new first axis.

    The direct terms come first and, with ``wall``, the image terms follow
    with ``xt``, ``k`` and ``c0`` negated, so that every term is ``c0 exp(a d^2
    + k d)`` with ``d = x - xt``: the image term is then ``-psi_f(-x)``
    exactly, since every folded factor is an exact negation.  ``a`` is the
    same for both and keeps a unit axis.
    """
    a, k, xt, c0 = coefficients
    if not wall:
        return a[None], k[None], xt[None], c0[None]
    return a[None], np.array((k, -k)), np.array((xt, -xt)), np.array((c0, -c0))


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


def term_fields(coefficients, x, wall: bool = True, gradient: bool = True):
    """The term kernel: amplitude and x-gradient of every row of folded terms.

    ``coefficients`` are :func:`_folded` ones, term axis first, and ``x``
    broadcasts against the rest.  Returns a ``(2,) + shape`` array, the
    amplitude of every row (the sum over its terms) and then its gradient, or
    ``(1,) + shape`` without ``gradient``.  With ``wall`` each row is its image
    pair, zero for x > 0.
    """
    a, k, xt, c0 = coefficients
    d = x - xt
    fields = np.empty((1 + gradient,) + d.shape, dtype=complex)
    terms = np.multiply(a, d, out=fields[0])
    slopes = np.add(terms, terms, out=fields[1]) if gradient else None
    _fill_terms(terms, k, d, c0, slopes)
    fields = fields[:, 0] + fields[:, 1] if wall else fields[:, 0]
    # The image pair is exactly zero at x = 0 itself; NaN positions fail the test too.
    if wall and not np.maximum.reduce(x, axis=None, initial=0.0) <= 0.0:
        fields = np.where(x <= 0.0, fields, 0.0)
    return fields


def term_coefficients(packets, regime: Regime, t, wall: bool = True):
    """The :func:`_folded` ``(a, k, xt, c0)`` of every term at the times ``t``, term axis last.

    Each has the shape ``t.shape + (len(packets) * terms,)``, packet-major:
    each packet's direct term and, with ``wall``, its image term, which sum to
    the wall amplitude for x <= 0.
    """
    folded = _folded(_coefficients(_term_constants(tuple(packets), regime), _times(t)[..., None]), wall)
    terms = np.broadcast_arrays(*(np.moveaxis(c, 0, -1) for c in folded))
    return [c.reshape(c.shape[:-2] + (-1,)) for c in terms]


def packet_fields(packets, regime: Regime, x, t, wall: bool = True, gradient: bool = True):
    """Amplitudes and x-gradients of several packets from one exp per term.

    Returns ``(psi, grad)``, each of shape ``(len(packets),) + shape`` with
    ``shape`` the broadcast shape of ``x`` and ``t``; ``grad`` is ``None``
    when ``gradient`` is false.  With ``wall`` the amplitude is the image
    pair, zero for x >= 0, and the gradient its one-sided derivative, zero for
    x > 0; at x = 0 it is ``2 d/dx psi_f(0, t)``, the boundary flux behind the
    wall force.  Without ``wall`` both are the free-space values.
    """
    x = np.asarray(x, dtype=float)
    t = _times(t)
    ndim = max(x.ndim, t.ndim)
    # The coefficients are arrays even for a scalar t, so scalar and array times go
    # through the same array loops: numpy's scalar complex arithmetic rounds differently.
    t = t.reshape((1,) * (ndim + 1 - t.ndim) + t.shape)
    shape = (-1,) + (1,) * ndim
    constants = [c.reshape(shape) for c in _term_constants(tuple(packets), regime)]
    fields = term_fields(_folded(_coefficients(constants, t), wall), x, wall, gradient)
    return fields[0], (fields[1] if gradient else None)


def row_constants(packets, regime: Regime, n: int):
    """Time-independent constants of :func:`row_coefficients`: ``n`` rows of each packet in turn."""
    return tuple(np.tile(column, n) for column in _term_constants(tuple(packets), regime))


def row_coefficients(constants, t, wall: bool = True):
    """:func:`_folded` ``(a, k, xt, c0)`` of the rows at the ``(times, rows)`` table ``t``.

    Each row carries its own packet and regime.  The time axis comes first,
    so each time's ``(terms, rows)`` block is contiguous for the kernel; ``k``
    does not depend on the time and is ``(terms, rows)``.  The times are not
    checked to be finite: a trajectory step that is not ends its seed as
    ``stalled-non-finite``.
    """
    a, k, xt, c0 = _folded(_coefficients(constants, t), wall)
    return a.swapaxes(0, 1), k, xt.swapaxes(0, 1).copy(), c0.swapaxes(0, 1).copy()

