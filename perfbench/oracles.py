"""Physics oracles written from the textbook formulas, independent of qctl.

Nothing here imports the package under test.  The formulas are:

- a free Gaussian packet of width sigma0, centre x0 and kick p0,
      psi_f(x, t) = (2 pi sigma0^2)^(-1/4) (1 + i tau)^(-1/2)
                    exp[-(x - x0 - p0 t/m)^2 / (4 sigma0^2 (1 + i tau))
                        + i p0 x / hb - i p0^2 t / (2 m hb)],
  tau = hb t / (2 m sigma0^2), hb = sqrt(epsilon) hbar;
- the hard wall at x = 0 by the method of images,
  psi(x, t) = psi_f(x, t) - psi_f(-x, t) for x < 0 and 0 beyond;
- the pure state (psi_a + psi_b) / sqrt(2) and the equal-weight mixture,
  both divided by their t = 0 trace, taken by Simpson's rule on a wide grid;
- the free-flight Wigner function of one packet,
      W(R, u, t) = exp(-(R - u t/m - x0)^2 / (2 sigma0^2)
                       - 2 sigma0^2 (u - p0)^2 / hb^2) / (pi hb);
- classical arrival times at a detector X < 0: (X - x0) m / p0 for a
  packet moving away from the wall, (-X - x0) m / p0 after reflection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

KINDS = ("pure", "mixed")


@dataclass(frozen=True)
class Packet:
    sigma0: float
    x0: float
    p0: float


@dataclass(frozen=True)
class Ensemble:
    """Two packets of one mass in one regime; ``kind`` is pure or mixed."""

    kind: str
    a: Packet
    b: Packet
    hb: float
    mass: float = 1.0

    @property
    def packets(self) -> tuple[Packet, Packet]:
        return (self.a, self.b)


def simpson(x: np.ndarray, y: np.ndarray) -> float:
    """Composite Simpson's rule on a uniform grid with an odd sample count."""
    if x.size % 2 == 0 or x.size < 3:
        raise ValueError("simpson needs an odd number of samples, at least 3")
    h = (x[-1] - x[0]) / (x.size - 1)
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def evolved_width(packet: Packet, hb: float, mass: float, t) -> np.ndarray:
    """Position spread sigma0 sqrt(1 + tau^2) of a freely evolving packet."""
    tau = hb * np.asarray(t, dtype=float) / (2.0 * mass * packet.sigma0**2)
    return packet.sigma0 * np.sqrt(1.0 + tau**2)


def free_psi(packet: Packet, hb: float, mass: float, x, t):
    """Free Gaussian packet psi_f(x, t); broadcasts over x and t."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    s2 = packet.sigma0**2
    q = 1.0 + 1j * hb * t / (2.0 * mass * s2)
    centre = packet.x0 + packet.p0 * t / mass
    exponent = (
        -((x - centre) ** 2) / (4.0 * s2 * q)
        + 1j * packet.p0 * x / hb
        - 1j * packet.p0**2 * t / (2.0 * mass * hb)
    )
    return (2.0 * math.pi * s2) ** -0.25 / np.sqrt(q) * np.exp(exponent)


def free_dpsi(packet: Packet, hb: float, mass: float, x, t):
    """d/dx of :func:`free_psi`."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    q = 1.0 + 1j * hb * t / (2.0 * mass * packet.sigma0**2)
    centre = packet.x0 + packet.p0 * t / mass
    slope = -(x - centre) / (2.0 * packet.sigma0**2 * q) + 1j * packet.p0 / hb
    return free_psi(packet, hb, mass, x, t) * slope


def wall_psi(packet: Packet, hb: float, mass: float, x, t):
    """Image-method amplitude psi_f(x) - psi_f(-x), zero at and beyond the wall."""
    x = np.asarray(x, dtype=float)
    value = free_psi(packet, hb, mass, x, t) - free_psi(packet, hb, mass, -x, t)
    return np.where(x < 0.0, value, 0.0)


def wall_dpsi(packet: Packet, hb: float, mass: float, x, t):
    """d/dx of :func:`wall_psi` on x <= 0 (one-sided at the wall)."""
    x = np.asarray(x, dtype=float)
    value = free_dpsi(packet, hb, mass, x, t) + free_dpsi(packet, hb, mass, -x, t)
    return np.where(x <= 0.0, value, 0.0)


def _components(ens: Ensemble, x, t, derivative: bool = False):
    """Unnormalised pure amplitudes: one for the superposition, two for the mixture.

    Each returned amplitude phi enters the density as 0.5 |phi|^2.
    """
    f = wall_dpsi if derivative else wall_psi
    a = f(ens.a, ens.hb, ens.mass, x, t)
    b = f(ens.b, ens.hb, ens.mass, x, t)
    return [a + b] if ens.kind == "pure" else [a, b]


def trace0(ens: Ensemble, n: int = 40001) -> float:
    """Trace of the unnormalised density at t = 0 on a wide, fine grid."""
    x = np.linspace(min(p.x0 - 20.0 * p.sigma0 for p in ens.packets), 0.0, n)
    raw = sum(0.5 * np.abs(phi) ** 2 for phi in _components(ens, x, 0.0))
    return simpson(x, raw)


class State:
    """Normalised density, density matrix and current of one ensemble."""

    def __init__(self, ens: Ensemble):
        self.ens = ens
        self.norm = trace0(ens)

    def rho(self, x, t):
        return sum(0.5 * np.abs(phi) ** 2 for phi in _components(self.ens, x, t)) / self.norm

    def rho_xy(self, x, y, t):
        """Density-matrix element rho(x, y, t)."""
        total = 0.0
        for px, py in zip(_components(self.ens, x, t), _components(self.ens, y, t)):
            total = total + 0.5 * px * np.conj(py)
        return total / self.norm

    def current(self, x, t):
        """j = (hb / m) Im(conj(psi) dpsi/dx), summed over the components."""
        phis = _components(self.ens, x, t)
        dphis = _components(self.ens, x, t, derivative=True)
        flux = sum(0.5 * np.imag(np.conj(p) * d) for p, d in zip(phis, dphis))
        return self.ens.hb / self.ens.mass * flux / self.norm

    def support(self, t: float) -> tuple[float, float]:
        """Interval holding all but a negligible part of the density at time t."""
        lo = min(
            -abs(p.x0 + p.p0 * t / self.ens.mass)
            - 14.0 * float(evolved_width(p, self.ens.hb, self.ens.mass, t))
            for p in self.ens.packets
        )
        return lo, 0.0

    def mass_left(self, x: np.ndarray, t: float, dx: float = 0.002) -> np.ndarray:
        """Probability left of each position in ``x`` (cumulative trapezoid)."""
        lo, hi = self.support(t)
        n = int(math.ceil((hi - lo) / dx)) + 1
        grid = np.linspace(lo, hi, n)
        rho = self.rho(grid, t)
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (rho[1:] + rho[:-1]) * np.diff(grid))))
        return np.interp(x, grid, cdf)


def free_wigner(packet: Packet, hb: float, mass: float, R, u, t) -> np.ndarray:
    """Free-flight Wigner function of one Gaussian packet."""
    R = np.asarray(R, dtype=float)
    u = np.asarray(u, dtype=float)
    s2 = packet.sigma0**2
    return np.exp(
        -((R - u * t / mass - packet.x0) ** 2) / (2.0 * s2)
        - 2.0 * s2 * (u - packet.p0) ** 2 / hb**2
    ) / (math.pi * hb)


def mirror(packet: Packet) -> Packet:
    """The image packet: psi_f(-x, t) is the free packet from -x0 with kick -p0."""
    return Packet(packet.sigma0, -packet.x0, -packet.p0)


def cross_wigner_envelope(p: Packet, q: Packet, hb: float, mass: float, R, u, t) -> np.ndarray:
    """Modulus of the p-q cross Wigner term, times pi hb, in free flight.

    For packets of equal width it is the single-packet Gaussian centred on
    their phase-space midpoint (p itself when q is p).
    """
    if p.sigma0 != q.sigma0:
        raise ValueError("cross envelope needs packets of equal width")
    mid = Packet(p.sigma0, 0.5 * (p.x0 + q.x0), 0.5 * (p.p0 + q.p0))
    return free_wigner(mid, hb, mass, R, u, t) * math.pi * hb


def neglected_wigner_bound(state: State, R, u, t: float) -> np.ndarray:
    """Bound on |W - free flight of a and b| at (R, u), R < 0.

    Extended antisymmetrically across the wall, the state is built from four
    free Gaussians: a, b and their images.  Its Wigner function is the sum of
    their pairwise free-flight terms, of which the model keeps only a-a and
    b-b; the mixture adds each packet's image terms, the superposition every
    pair.  Each term is bounded by its envelope.  The wall then cuts the
    relative coordinate to |r| < 2|R|, which removes at most
    (1 / (pi hb N)) sum_phi integral_0^inf |phi(-x)| |phi(2R - x)| dx.
    """
    ens = state.ens
    a, b = ens.a, ens.b
    if ens.kind == "mixed":
        pairs = [(a, mirror(a)), (mirror(a), mirror(a)), (b, mirror(b)), (mirror(b), mirror(b))]
    else:
        gs = [a, mirror(a), b, mirror(b)]
        pairs = [(gs[i], gs[j]) for i in range(4) for j in range(i, 4) if (i, j) not in ((0, 0), (2, 2))]
    scale = 1.0 / (math.pi * ens.hb * state.norm)
    terms = sum(cross_wigner_envelope(p, q, ens.hb, ens.mass, R, u, t) for p, q in pairs)
    lo, _ = state.support(t)
    x = np.linspace(0.0, -lo, int(math.ceil(-lo / 0.01)) + 1)
    R_col = np.unique(np.asarray(R, dtype=float))
    cut = sum(
        np.trapezoid(np.abs(phi_out) * np.abs(phi_in), x, axis=1)
        for phi_out, phi_in in zip(
            _components(ens, -x[None, :], t), _components(ens, 2.0 * R_col[:, None] - x[None, :], t)
        )
    )
    return scale * (terms + np.interp(R, R_col, cut))


def classical_arrivals(ens: Ensemble, detector_x: float) -> list[float]:
    """Classical arrival time of each packet centre at the detector.

    A packet kicked away from the wall (p0 < 0) arrives at (X - x0) m / p0;
    one kicked towards it reflects and arrives at (-X - x0) m / p0.
    """
    times = []
    for p in ens.packets:
        if p.p0 < 0.0:
            times.append((detector_x - p.x0) * ens.mass / p.p0)
        else:
            times.append((-detector_x - p.x0) * ens.mass / p.p0)
    return times
