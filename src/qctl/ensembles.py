"""Two-packet ensembles on the half-line as lists of pure components.

The superposition is the single component ``psi_a + psi_b`` and the mixture
the two components ``psi_a`` and ``psi_b``, each with weight 1/2, so
``rho(x, y) = sum_c (1/2) psi_c(x) conj(psi_c(y)) / D`` and every observable
is the same sum over components.  :func:`component_fields` sums the packet
fields of :func:`~qctl.packets.packet_fields`, whose kernel
:func:`~qctl.packets.term_fields` is the one state evaluator, into the
normalized components.  Components are built from hard-wall packet
amplitudes, so density-matrix elements vanish whenever either argument is at
or beyond the wall.  Every trace, moment and overlap is a sum of exact
integrals of products of two packet terms, listed by :func:`term_pairs`; the
Wigner transform reads the same assignment of terms to components as the
weights of :func:`pair_weights`.  The normalization ``D`` is the exact t = 0 trace,
reused at all times.

``wall=False`` switches the components to free-space amplitudes.  That variant
exists for oracle checks (free-packet velocity fields, rigid Wigner transport)
where the wall must be absent.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericalGuardError
from .gaussians import gaussian_moments
from .packets import GaussianPacket, packet_fields, packet_terms
from .regime import Regime

__all__ = [
    "EnsembleSpec",
    "TermPairs",
    "term_pairs",
    "diagonal_pairs",
    "pair_weights",
    "component_fields",
    "norm_constant",
    "density",
    "position_densities",
    "purity",
    "fringe_visibility",
]

_KINDS = ("pure", "mixed")

# Statistical weight of every pure component, in both ensemble kinds.
COMPONENT_WEIGHT = 0.5

# Sampling points of one fringe_visibility call.  Its two direct convolutions
# cost n times a kernel that grows with n: 100,099 points (a kernel of 23,101
# taps) took 1.1 s and 48 MB peak RSS on 2 CPUs, against 1,326 points at
# eps = 0.01 on the reference packets.
VISIBILITY_POINT_BUDGET = 100_000

# Imaginary residue limit for diagonal density elements: hermiticity makes the
# diagonal exactly real, so anything above this is an implementation bug.
_IMAG_FAIL = 1e-9


@dataclass(frozen=True)
class EnsembleSpec:
    """Equal-weight pair of Gaussian packets, superposed or mixed."""

    kind: str
    packet_a: GaussianPacket
    packet_b: GaussianPacket
    wall: bool = True

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.packet_a.mass != self.packet_b.mass:
            raise DomainError("both packets must share the same mass")

    @property
    def packets(self) -> tuple[GaussianPacket, GaussianPacket]:
        return (self.packet_a, self.packet_b)

    @property
    def mass(self) -> float:
        return self.packet_a.mass

    @property
    def component_starts(self) -> tuple[int, ...]:
        """The pure components, as the index in :attr:`packets` each begins at.

        A component is the sum of its run of packets: the superposition has
        the single component a + b, the mixture the components a and b.
        """
        return (0,) if self.kind == "pure" else (0, 1)

    def as_kind(self, kind: str) -> "EnsembleSpec":
        return replace(self, kind=kind)


def component_fields(spec: EnsembleSpec, regime: Regime, x, t, gradient: bool = True):
    """Normalized pure components of the ensemble and their x-gradients.

    Returns ``(phi, dphi)`` with the component axis first, followed by the
    broadcast shape of ``x`` and ``t``, such that
    ``rho(x, y) = sum_c phi_c(x) conj(phi_c(y))``; ``dphi`` is ``None`` when
    ``gradient`` is false.
    """
    psi, grad = packet_fields(spec.packets, regime, x, t, wall=spec.wall, gradient=gradient)
    psi = _components(spec, regime, psi)
    if gradient:
        grad = _components(spec, regime, grad)
    return psi, grad


def _components(spec: EnsembleSpec, regime: Regime, fields):
    """Per-packet fields summed into the spec's normalized components."""
    scale = math.sqrt(COMPONENT_WEIGHT / norm_constant(spec, regime))
    return np.add.reduceat(fields, spec.component_starts, axis=0) * scale


def _term_components(spec: EnsembleSpec, terms_per_packet: int) -> np.ndarray:
    """The component of each term, packet-major as :func:`packet_terms` flattens them."""
    packets = np.arange(len(spec.packets))
    packet_component = np.searchsorted(spec.component_starts, packets, "right") - 1
    return np.repeat(packet_component, terms_per_packet)


TermPairs = namedtuple("TermPairs", "component coefficient left right integrals")


def term_pairs(spec: EnsembleSpec, regime: Regime, t: float) -> TermPairs:
    """Every ordered pair (i, j) of the unnormalized terms ``g = C exp(A x^2 + B x + G)``.

    Over n pairs: ``component`` (2, n), the component of each side;
    ``coefficient``, ``C_i conj(C_j)``; ``left``, ``(A_i, B_i, G_i)``;
    ``right``, ``conj(A_j, B_j, G_j)``; and ``integrals`` (3, n), the exact
    integrals of ``x^m g_i conj(g_j)``, m = 0, 1, 2, over x <= 0 (the whole
    line without the wall).
    """
    C, A, B, G = packet_terms(spec.packets, regime, t, spec.wall)
    component = _term_components(spec, C.shape[1])
    exponents = np.stack((A, B, G)).reshape(3, -1)
    C = C.ravel()
    i, j = np.divmod(np.arange(C.size**2), C.size)
    left, right = exponents[:, i], np.conj(exponents[:, j])
    coefficient = C[i] * np.conj(C[j])
    integrals = coefficient * gaussian_moments(*(left + right), wall=spec.wall)
    return TermPairs(np.stack((component[i], component[j])), coefficient, left, right, integrals)


def diagonal_pairs(spec: EnsembleSpec, regime: Regime, t: float) -> TermPairs:
    """Same-component pairs; ``coefficient`` and ``integrals`` carry ``COMPONENT_WEIGHT / D``."""
    pairs = term_pairs(spec, regime, t)
    same = pairs.component[0] == pairs.component[1]
    scale = COMPONENT_WEIGHT / norm_constant(spec, regime)
    component, coefficient, left, right, integrals = (v[..., same] for v in pairs)
    return TermPairs(component, scale * coefficient, left, right, scale * integrals)


def pair_weights(spec: EnsembleSpec, regime: Regime, terms_per_packet: int) -> np.ndarray:
    """Symmetric (n, n) weights of ``rho(x, y) = sum_ij w_ij g_i(x) conj(g_j(y))``.

    The n terms are those of :func:`~qctl.packets.packet_terms`, flattened
    packet-major; ``w_ij`` is ``COMPONENT_WEIGHT / D`` where terms i and j
    belong to the same component and 0 elsewhere.
    """
    component = _term_components(spec, terms_per_packet)
    same = component[:, None] == component[None, :]
    return np.where(same, COMPONENT_WEIGHT / norm_constant(spec, regime), 0.0)


@lru_cache(maxsize=64)
def norm_constant(spec: EnsembleSpec, regime: Regime) -> float:
    """Exact trace of the unnormalized density at t = 0.

    Densities divide by this constant; for the pure state it equals
    1 / N^2 with N the superposition normalization constant.
    """
    pairs = term_pairs(spec, regime, 0.0)
    same = pairs.component[0] == pairs.component[1]
    value = COMPONENT_WEIGHT * float(pairs.integrals[0, same].sum().real)
    if not value > 0.0:
        raise DomainError("ensemble has no support at t = 0")
    return value


def density(spec: EnsembleSpec, regime: Regime, x, y, t):
    """Density-matrix element ``rho(x, y)`` for either ensemble kind."""
    phi_x, _ = component_fields(spec, regime, x, t, gradient=False)
    # On the diagonal one evaluation serves both arguments.
    phi_y = phi_x if y is x else component_fields(spec, regime, y, t, gradient=False)[0]
    return _contract(phi_x, phi_y)


def _contract(phi_x, phi_y):
    """rho(x, y) = sum_c phi_c(x) conj(phi_c(y)) from the components at x and at y."""
    return (phi_x * np.conj(phi_y)).sum(axis=0)


def position_densities(specs, regime: Regime, x, t) -> list:
    """Real diagonal of the density matrix of ensembles sharing packets and wall.

    The packets are evaluated once and each spec sums them into its own
    components, so every density is bit-identical to the one-spec call.
    Raises :class:`NumericalGuardError` if the imaginary residue of a
    diagonal exceeds 1e-9; hermiticity makes it vanish identically, so a large
    residue means a broken formula rather than roundoff.
    """
    first = specs[0]
    if any(s.packets != first.packets or s.wall != first.wall for s in specs[1:]):
        raise DomainError("the ensembles of one density evaluation must share packets and wall")
    psi, _ = packet_fields(first.packets, regime, x, t, wall=first.wall, gradient=False)
    return [_real_diagonal(_components(spec, regime, psi)) for spec in specs]


def _real_diagonal(phi):
    """sum_c |phi_c|^2, checked for the imaginary residue of a broken formula."""
    diagonal = _contract(phi, phi)
    imag_max = float(np.max(np.abs(np.imag(np.atleast_1d(diagonal)))))
    if imag_max > _IMAG_FAIL:
        raise NumericalGuardError(
            f"diagonal density has imaginary residue {imag_max:.3e} > {_IMAG_FAIL:.0e}"
        )
    return np.real(diagonal)


def purity(spec: EnsembleSpec, regime: Regime, t) -> float:
    """tr(rho^2) = sum over component pairs of |<phi_c|phi_c'>|^2, from exact overlaps."""
    pairs = term_pairs(spec, regime, t)
    n = len(spec.component_starts)
    overlaps = np.zeros((n, n), dtype=complex)
    np.add.at(overlaps, tuple(pairs.component), pairs.integrals[0])
    overlaps *= COMPONENT_WEIGHT / norm_constant(spec, regime)
    return float(np.sum(np.abs(overlaps) ** 2))


def fringe_visibility(
    spec: EnsembleSpec,
    regime: Regime,
    t: float,
    window: tuple[float, float] = (-10.0, 0.0),
    sigma_obs: float = 0.25,
) -> float:
    """Interference visibility at a fixed observational resolution.

    Both the pure and the mixed densities are smoothed with a Gaussian of
    width ``sigma_obs`` (the resolution of an observer or plot), and the
    visibility is the peak of the smoothed pure-minus-mixed difference
    relative to the smoothed incoherent background:

        V = max |rho_pure_s - rho_mixed_s| / max rho_mixed_s   over the window.

    Raw fringe contrast is independent of the regime wherever the two packet
    envelopes coincide, so "washing out" of the pattern is only measurable at
    fixed resolution: the fringe wavelength shrinks with hbar_tilde and the
    smoothed contrast falls off as exp(-2 pi^2 sigma_obs^2 / lambda^2),
    strictly monotonically in epsilon.  The sampling step is at most a
    sixteenth of that wavelength, and a grid of more than
    ``VISIBILITY_POINT_BUDGET`` points raises :class:`DomainError`.
    """
    lo, hi = window
    if not lo < hi:
        raise DomainError(f"window must be increasing, got {window}")
    if not sigma_obs > 0.0:
        raise DomainError(f"sigma_obs must be positive, got {sigma_obs}")
    momentum_gap = abs(spec.packet_a.p0 - spec.packet_b.p0)
    wavelength = (
        2.0 * np.pi * regime.hbar_tilde / momentum_gap if momentum_gap > 0.0 else np.inf
    )
    dx = min(sigma_obs / 8.0, wavelength / 16.0 if np.isfinite(wavelength) else np.inf)
    pad = 6.0 * sigma_obs
    n = int(np.ceil((hi - lo + 2.0 * pad) / dx)) + 1
    if n > VISIBILITY_POINT_BUDGET:
        raise DomainError(f"{n} sampling points exceed the budget of {VISIBILITY_POINT_BUDGET}; "
                          "the fringe wavelength is too short for this window")
    x = np.linspace(lo - pad, hi + pad, n)
    dx = x[1] - x[0]

    rho_pure, rho_mixed = position_densities([spec.as_kind(k) for k in _KINDS], regime, x, t)

    half = int(np.ceil(6.0 * sigma_obs / dx))
    offsets = np.arange(-half, half + 1) * dx
    kernel = np.exp(-0.5 * (offsets / sigma_obs) ** 2)
    kernel /= kernel.sum()
    pure_s = np.convolve(rho_pure, kernel, mode="same")
    mixed_s = np.convolve(rho_mixed, kernel, mode="same")

    inside = (x >= lo) & (x <= hi)
    background = float(np.max(mixed_s[inside]))
    if background <= 0.0:
        raise DomainError("window has no density to measure visibility against")
    return float(np.max(np.abs(pure_s[inside] - mixed_s[inside]))) / background
