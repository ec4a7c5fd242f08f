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
integrals of products of two packet terms, each pair of the kernel's terms
``c0 exp(a d^2 + k d)`` (:func:`~qctl.packets.term_coefficients`) taken in its
own centred coordinate and integrated by :func:`~qctl.gaussians.gaussians`, so
that no large exponent parts cancel however far the packets travel.  The
same-component pairs of :func:`diagonal_pairs` and :func:`mass_below` take an
array of times, with the time axis first and the pair axis last, and a scalar
time is its 0-d case; the Wigner transform reads the same assignment of terms
to components as the weights of :func:`pair_weights`.  The normalization ``D``
is the exact t = 0 trace, reused at all times.

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
from .gaussians import gaussians
from .packets import GaussianPacket, packet_fields, term_coefficients
from .regime import Regime

__all__ = [
    "EnsembleSpec",
    "TermPairs",
    "diagonal_pairs",
    "mass_below",
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

# Sampling points of one fringe_visibility call.  The cost is linear in the
# points and the blocks of FIELD_BLOCK_POINTS bound the memory: 99,406 points
# took 1.1 s and 34 MB peak RSS in a fresh process on 2 CPUs, against 1,020
# points at eps = 0.01 on the reference packets.
VISIBILITY_POINT_BUDGET = 100_000

# Points of a field evaluated at a time by fringe_visibility and the arrival
# current, and times of a pair table in the observables run; the density run
# sizes its blocks to the CSV formatter's chunks.  Each point is evaluated on
# its own, so the blocks change no value; they bound the temporaries of one
# evaluation.
FIELD_BLOCK_POINTS = 1024

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


def shared_packets(specs) -> EnsembleSpec:
    """The first of ``specs``; :class:`DomainError` unless there is one and all share its packets and wall."""
    if not specs or any(s.packets != specs[0].packets or s.wall != specs[0].wall for s in specs):
        raise DomainError("need at least one ensemble, and all must share packets and wall")
    return specs[0]


def component_fields(specs, regime: Regime, x, t, gradient: bool = True) -> list:
    """Normalized pure components and their x-gradients of ensembles sharing packets and wall.

    Returns one ``(phi, dphi)`` per spec, in order, with the component axis
    first, followed by the broadcast shape of ``x`` and ``t``, such that
    ``rho(x, y) = sum_c phi_c(x) conj(phi_c(y))``; ``dphi`` is ``None`` when
    ``gradient`` is false.  The packets are evaluated once and each spec sums
    them into its own components, so every spec's fields are bit-identical to
    the one-spec call.
    """
    first = shared_packets(specs)
    psi, grad = packet_fields(first.packets, regime, x, t, wall=first.wall, gradient=gradient)
    return [(_components(spec, regime, psi), None if grad is None else _components(spec, regime, grad))
            for spec in specs]


def _components(spec: EnsembleSpec, regime: Regime, fields):
    """Per-packet fields summed into the spec's normalized components."""
    scale = math.sqrt(COMPONENT_WEIGHT / norm_constant(spec, regime))
    return np.add.reduceat(fields, spec.component_starts, axis=0) * scale


def _term_components(spec: EnsembleSpec) -> np.ndarray:
    """The component of each term, packet-major as :func:`~qctl.packets.term_coefficients`
    lays them out: each packet's direct term and, with the wall, its image term."""
    packets = np.arange(len(spec.packets))
    packet_component = np.searchsorted(spec.component_starts, packets, "right") - 1
    return np.repeat(packet_component, 1 + spec.wall)


TermPairs = namedtuple("TermPairs", "centre left right integrals")


def _pair_table(spec: EnsembleSpec, regime: Regime, t, every: bool = False) -> tuple:
    """The term pairs ``g_i conj(g_j)`` at ``t``, each in its centred coordinate, pair axis last.

    The same-component pairs (i, j), or with ``every`` all pairs, in row-major
    order.  With c = (xt_i + xt_j) / 2, y = x - c and delta = c - xt, a side's
    exponent a (y + delta)^2 + k (y + delta) is a y^2 + s y + (a delta + k) delta,
    where s = 2 a delta + k makes its gradient (2 a y + s) times the term.
    Returns ``coefficient`` c0_i conj(c0_j), ``centre`` c, ``left`` (a_i, s_i)
    and ``right`` conj(a_j, s_j), so that the pair is ``coefficient exp(alpha
    y^2 + beta y + gamma)`` with (alpha, beta) = left + right, and ``gamma``,
    exactly 0 for a term with itself.
    """
    terms = term_coefficients(spec.packets, regime, t, spec.wall)
    component = _term_components(spec)
    i, j = np.nonzero((component[:, None] == component[None, :]) | every)
    left, right = ([np.take(term, index, axis=-1) for term in terms] for index in (i, j))
    right = [np.conj(term) for term in right]
    centre = 0.5 * (left[2] + right[2])
    gamma, sides = 0.0, []
    for a, k, xt, _ in (left, right):
        delta = centre - xt
        sides.append(np.stack((a, 2.0 * a * delta + k)))
        gamma = gamma + (a * delta + k) * delta
    return np.multiply(left[3], right[3]), centre, sides[0], sides[1], gamma


def _integrals(spec: EnsembleSpec, regime: Regime, t, orders: int, every: bool = False) -> tuple:
    """The unweighted integrals of y^m times the pairs of :func:`_pair_table`, m < ``orders``,
    over x <= 0 (the whole line without the wall), and the table's centre, left and right."""
    coefficient, centre, left, right, gamma = _pair_table(spec, regime, t, every)
    window = gaussians(*(left + right), gamma, -np.inf, -centre if spec.wall else np.inf, orders)
    return np.multiply(coefficient, window), centre, left, right


def diagonal_pairs(spec: EnsembleSpec, regime: Regime, t) -> TermPairs:
    """Every same-component pair (i, j) of the terms ``g = c0 exp(a d^2 + k d)`` at ``t``.

    The pair axis is last, after the shape of ``t``, and each pair is taken
    in its centred coordinate y = x - c (:func:`_pair_table`): ``centre`` is
    c = (xt_i + xt_j) / 2; ``left`` stacks ``(a_i, s_i)`` and ``right``
    ``conj(a_j, s_j)`` on a first axis of 2, where s = 2 a (c - xt) + k, so
    that the x-gradient of g_i is ``(2 a_i y + s_i) g_i``; ``integrals``
    stacks the exact integrals of ``y^m g_i conj(g_j)``, m = 0, 1, 2, over
    x <= 0 (the whole line without the wall), times ``COMPONENT_WEIGHT / D``.
    """
    integrals, centre, left, right = _integrals(spec, regime, t, 3)
    return TermPairs(centre, left, right, COMPONENT_WEIGHT / norm_constant(spec, regime) * integrals)


def mass_below(spec: EnsembleSpec, regime: Regime, t, upper, a=0.0, b=0.0, g=0.0):
    """Exact integral of ``rho(x, t) exp(a x^2 + b x + g)`` over ``x <= upper``.

    ``t``, ``upper``, ``a``, ``b`` and ``g`` broadcast, with ``a <= 0``.  With
    ``a = b = g = 0`` this is the cumulative distribution ``F_t(upper)``, which
    reaches 1 at the wall.  Each same-component pair of :func:`_pair_table`,
    times the weight written in its centred coordinate y = x - c, is
    integrated over ``y <= upper - c`` by :func:`~qctl.gaussians.gaussians`.
    With the wall, ``rho`` vanishes at ``x >= 0``, so ``upper`` is capped at 0.
    """
    coefficient, centre, left, right, gamma = _pair_table(spec, regime, t)
    upper = np.minimum(upper, 0.0 if spec.wall else np.inf)[..., None]
    a, b, g = (np.asarray(w)[..., None] for w in (a, b, g))
    alpha, beta = left + right
    # The weight at x = y + c is a y^2 + (2 a c + b) y + (a c + b) c + g.
    exponent = (alpha + a, beta + (2.0 * a * centre + b), gamma + ((a * centre + b) * centre + g))
    mass = np.multiply(coefficient, gaussians(*exponent, -np.inf, upper - centre)[0])
    return COMPONENT_WEIGHT / norm_constant(spec, regime) * mass.sum(axis=-1).real


def pair_weights(spec: EnsembleSpec, regime: Regime) -> np.ndarray:
    """Symmetric (n, n) weights of ``rho(x, y) = sum_ij w_ij g_i(x) conj(g_j(y))``.

    The n terms are those of :func:`~qctl.packets.term_coefficients`; ``w_ij``
    is ``COMPONENT_WEIGHT / D`` where terms i and j belong to the same
    component and 0 elsewhere.
    """
    component = _term_components(spec)
    same = component[:, None] == component[None, :]
    return np.where(same, COMPONENT_WEIGHT / norm_constant(spec, regime), 0.0)


@lru_cache(maxsize=64)
def norm_constant(spec: EnsembleSpec, regime: Regime) -> float:
    """Exact trace of the unnormalized density at t = 0.

    Densities divide by this constant; for the pure state it equals
    1 / N^2 with N the superposition normalization constant.
    """
    value = COMPONENT_WEIGHT * float(_integrals(spec, regime, 0.0, 1)[0].sum().real)
    if not value > 0.0:
        raise DomainError("ensemble has no support at t = 0")
    return value


def density(spec: EnsembleSpec, regime: Regime, x, y, t):
    """Density-matrix element ``rho(x, y)`` for either ensemble kind."""
    [(phi_x, _)] = component_fields([spec], regime, x, t, gradient=False)
    # On the diagonal one evaluation serves both arguments.
    phi_y = phi_x if y is x else component_fields([spec], regime, y, t, gradient=False)[0][0]
    return _contract(phi_x, phi_y)


def _contract(phi_x, phi_y):
    """rho(x, y) = sum_c phi_c(x) conj(phi_c(y)) from the components at x and at y."""
    return (phi_x * np.conj(phi_y)).sum(axis=0)


def point_blocks(n: int, size: int | None = None) -> list[slice]:
    """Consecutive slices of at most ``size``, by default :data:`FIELD_BLOCK_POINTS`, that cover ``range(n)``."""
    size = size or FIELD_BLOCK_POINTS
    return [slice(i, min(i + size, n)) for i in range(0, n, size)]


def position_densities(specs, regime: Regime, x, t) -> list:
    """Real diagonal of the density matrix of ensembles sharing packets and wall.

    The diagonal of :func:`component_fields`, so every density is
    bit-identical to the one-spec call.  Raises :class:`NumericalGuardError`
    if the imaginary residue of a diagonal exceeds 1e-9; hermiticity makes it
    vanish identically, so a large residue means a broken formula rather than
    roundoff.
    """
    return [_real_diagonal(phi) for phi, _ in component_fields(specs, regime, x, t, gradient=False)]


def _real_diagonal(phi):
    """sum_c |phi_c|^2, checked for the imaginary residue of a broken formula."""
    diagonal = _contract(phi, phi)
    imag_max = float(np.max(np.abs(np.imag(np.atleast_1d(diagonal)))))
    if not imag_max <= _IMAG_FAIL:  # NaN trips it too
        raise NumericalGuardError(
            f"diagonal density has imaginary residue {imag_max:.3e} > {_IMAG_FAIL:.0e}"
        )
    return np.real(diagonal)


def purity(spec: EnsembleSpec, regime: Regime, t) -> float:
    """tr(rho^2) = sum over component pairs of |<phi_c|phi_c'>|^2, from exact overlaps."""
    # The exact <g_j|g_i> of every pair of terms, added up per pair of components.
    component = _term_components(spec)
    integrals = _integrals(spec, regime, t, 1, every=True)[0][0].reshape(component.size, -1)
    overlaps = np.zeros((len(spec.component_starts),) * 2, dtype=complex)
    np.add.at(overlaps, np.ix_(component, component), integrals)
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
    strictly monotonically in epsilon.  The window is sampled at a step of at
    most a sixteenth of that wavelength, and a grid of more than
    ``VISIBILITY_POINT_BUDGET`` points raises :class:`DomainError`.

    The smoothed densities are exact, :func:`mass_below` with the Gaussian
    weight over x <= 0, so V has only a rounding floor.  On the reference
    packets at t = 2.5 it read 3.7e-22 to 4.8e-22 for eps from 3e-3 to 2e-6
    (8.0e-22 at eps = 0.01, where the Gaussian factor is 1.9e-22), except at
    eps = 1e-4 and 2e-6, where it read 2.3e-16 at both: there the scale
    ``COMPONENT_WEIGHT / D`` of the pure and of the mixed ensemble differ in
    the last bit, so their incoherent parts no longer cancel exactly.
    """
    lo, hi = window
    if not -np.inf < lo < hi < np.inf:
        raise DomainError(f"window must be finite and increasing, got {window}")
    if not 0.0 < sigma_obs < np.inf:
        raise DomainError(f"sigma_obs must be positive and finite, got {sigma_obs}")
    momentum_gap = abs(spec.packet_a.p0 - spec.packet_b.p0)
    wavelength = 2.0 * np.pi * regime.hbar_tilde / momentum_gap if momentum_gap > 0.0 else np.inf
    dx = min(sigma_obs / 8.0, wavelength / 16.0)
    n = int(np.ceil((hi - lo) / dx)) + 1
    if n > VISIBILITY_POINT_BUDGET:
        raise DomainError(f"{n} sampling points exceed the budget of {VISIBILITY_POINT_BUDGET}; "
                          "the fringe wavelength is too short for this window")
    # The density smoothed at x is the mass of rho under the Gaussian exp(a (y - x)^2), up
    # to a factor that V does not depend on.
    a = -0.5 / sigma_obs**2
    peaks = []
    samples = np.linspace(lo, hi, n)
    for block in point_blocks(n):
        x = samples[block]
        weight = (a, -2.0 * a * x, a * x * x)
        pure_s, mixed_s = (mass_below(spec.as_kind(k), regime, t, 0.0, *weight) for k in _KINDS)
        peaks.append((np.max(np.abs(pure_s - mixed_s)), np.max(mixed_s)))
    difference, background = np.max(peaks, axis=0)
    if background <= 0.0:
        raise DomainError("window has no density to measure visibility against")
    return float(difference / background)
