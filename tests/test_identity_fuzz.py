"""Identities of the closed forms on random documents the loader accepts.

Each document draws non-dyadic widths, centres, kicks, hbar and mass, and
epsilon over six decades, with packet a about 8 to 10^5 widths from the
wall: round inputs would hide the rounding of pair integrals expanded about
x = 0 (every product is exact there), and far centres expose it.  Every document
goes through ``parse_config``; a rejected one is drawn again.  Through the
library, at every epsilon and both kinds, at a few times:

- the CDF at the wall, F_t(0) = 1;
- the purity, 1 for the pure state and 1/2 for the mixture, whose packets
  the draws keep at least 10 widths apart, so that their squared overlap,
  which the unitary evolution conserves, is below exp(-25);
- the uncertainty product, at least hbar_tilde / 2;
- both Ehrenfest residuals;
- at t = 0, the Wigner u-marginal against rho(R, R) at a few R.

Each tolerance states its round-off model; the time scale, the momentum
scale and the force scale are the document's own.
"""

import json
import math
import random

import numpy as np

from qctl import ehrenfest_residual, observable_record, position_densities, purity, wigner_transforms
from qctl.config import parse_config
from qctl.ensembles import diagonal_pairs, mass_below
from qctl.errors import ConfigError

DOCUMENTS = 12
EPS = 2.0**-53


def _document(rng: random.Random) -> dict:
    sigma0 = 10.0 ** rng.uniform(-0.5, 0.5)
    x0 = -sigma0 * 10.0 ** rng.uniform(0.9, 5.0)
    gap = sigma0 * 10.0 ** rng.uniform(1.0, 1.5)

    def kick() -> float:
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-0.5, 2.0)

    return {
        "run": "observables",
        "epsilons": [10.0 ** -rng.uniform(0.0, 6.0) for _ in range(rng.randint(1, 2))],
        "hbar": 10.0 ** rng.uniform(-0.5, 0.5),
        "mass": 10.0 ** rng.uniform(-0.5, 0.5),
        "packets": {"sigma0": sigma0, "a": {"x0": x0, "p0": kick()}, "b": {"x0": x0 - gap, "p0": kick()}},
        "grid": {"x_min": x0 - gap - 20.0 * sigma0},
        "time": {"t_max": 10.0 ** rng.uniform(-1.0, 1.5), "n_times": 5},
    }


def _configs():
    rng = random.Random(36)
    configs = []
    while len(configs) < DOCUMENTS:
        try:
            configs.append(parse_config(json.dumps(_document(rng))))
        except ConfigError:
            continue
    return configs


def test_closed_forms_keep_their_identities():
    for config in _configs():
        a, b = config.packet_a, config.packet_b
        sigma0, mass = a.sigma0, config.mass
        times = config.time.points()
        for regime in config.regimes():
            hb = regime.hbar_tilde
            # The document's scales: a speed, the time to cross a width at it,
            # and the momentum and force that go with them.
            speed = (max(abs(a.p0), abs(b.p0)) + hb / sigma0) / mass
            tau = sigma0 / speed
            momentum, force = mass * speed, mass * speed / tau
            for kind in ("pure", "mixed"):
                spec = config.ensemble(kind)
                _check_trace(spec, regime, times)
                _check_purity(spec, regime, times)
                _check_heisenberg(spec, regime, times, 1.0 + momentum * sigma0 / hb)
                _check_ehrenfest(spec, regime, times, tau, speed, force)
                _check_wigner_marginal(spec, regime, a, b, hb)


def _check_trace(spec, regime, times):
    # F_t(0) sums the same-component pairs, each integral exact to within 64
    # ulps of its own magnitude |w c0_i conj(c0_j) J_0| (erfcx is good to
    # about 1e-15 absolute, and the centred exponents have no large parts
    # but the kicks' phases, whose rounding is below that on any pair that
    # overlaps).  So |F - 1| <= 64 eps sum |pair|, with sum |pair| >= 1.
    magnitude = np.abs(diagonal_pairs(spec, regime, times).integrals[0]).sum(axis=-1)
    error = np.abs(mass_below(spec, regime, times, 0.0) - 1.0)
    assert np.all(error <= 64.0 * EPS * magnitude), (spec.kind, regime, error / (EPS * magnitude))


def _check_purity(spec, regime, times):
    # The purity sums squared overlaps of unit-norm components, each overlap
    # a sum of pair integrals like the trace's, within 16 eps of at most 1:
    # 64 eps about 1, and the mixture's overlap term, below exp(-25) / 2
    # here, far inside it.
    expected = 1.0 if spec.kind == "pure" else 0.5
    for t in times:
        assert abs(purity(spec, regime, t) - expected) <= 64.0 * EPS, (spec.kind, regime, t)


def _check_heisenberg(spec, regime, times, bracket):
    # sd_x and sd_p are variances about the means: each term's rounding is
    # eps of the pair sums, and the momentum factors i (p0 - mean_p) / hb
    # keep an absolute error of eps |p0| / hb, so the product holds to about
    # 64 eps (1 + |p0| sigma0 / hb) of hb / 2; ``bracket`` is that bracket.
    record = observable_record(spec, regime, times)
    bound = 0.5 * regime.hbar_tilde * (1.0 - 64.0 * EPS * bracket)
    assert np.all(record.uncertainty_product >= bound), (spec.kind, regime, record.uncertainty_product)
    assert np.all(record.sd_p > 0.0)


def _check_ehrenfest(spec, regime, times, tau, speed, force):
    # Central differences of step dt = tau / 1000: the truncation is
    # dt^2 / 6 times a third derivative of order speed / tau^2 (force /
    # tau^2), 1.7e-7 of the scale, bounded here by 1e-6; and the rounding of
    # a mean, 64 eps of its pair sums (about |mean| + sd), is divided by dt.
    dt = tau / 1000.0
    for t in times[times >= dt][:3]:
        r1, r2 = ehrenfest_residual(spec, regime, t, dt)
        record = observable_record(spec, regime, t)
        round_x = 64.0 * EPS * (abs(record.mean_x) + record.sd_x) / dt
        round_p = 64.0 * EPS * (abs(record.mean_p) + record.sd_p) / dt
        assert abs(r1) <= 1e-6 * speed + round_x, (spec.kind, regime, t, r1 / speed)
        assert abs(r2) <= 1e-6 * force + round_p, (spec.kind, regime, t, r2 / force)


def _check_wigner_marginal(spec, regime, a, b, hb):
    # At t = 0 the packets are at least 8 widths from the wall.  Summed on a
    # lattice of step du, the u-marginal is the sum over n of rho(R + n L, R -
    # n L), L = pi hb / du (Poisson); with L beyond half the packets' gap plus
    # 12 widths the aliases are below exp(-36) of the peak, and W is below
    # exp(-72) outside 6 hb / sigma0 of each kick and of their mean.  W is
    # conditioned by its phases: in each pair's exponent u / hb cancels p0 /
    # hb to within 6 / sigma0, which the exponent's peak turns into an error
    # of about 24 sigma0 |p0| eps / hb, and a cross pair's phase reaches |p0|
    # times the gap over hb; each rounds to eps of itself.  So the marginal
    # holds to 8 eps (1 + |p0| (gap + 24 sigma0) / hb) of the peak density.
    sigma0 = a.sigma0
    du = math.pi * hb / (0.5 * abs(a.x0 - b.x0) + 12.0 * sigma0)
    centres = (a.p0, b.p0, 0.5 * (a.p0 + b.p0))
    lattice = np.unique(np.concatenate([np.arange(math.floor((p - 6.0 * hb / sigma0) / du),
                                                  math.ceil((p + 6.0 * hb / sigma0) / du) + 1)
                                        for p in centres]))
    R = np.array([a.x0, 0.5 * (a.x0 + b.x0), b.x0]) + 0.3 * sigma0
    field = wigner_transforms([spec], regime, 0.0, R, lattice * du)[0]
    marginal = field.values.sum(axis=1) * du
    rho = position_densities([spec], regime, R, 0.0)[0]
    peak = 1.0 / (math.sqrt(2.0 * math.pi) * sigma0)
    phase = max(abs(a.p0), abs(b.p0)) * (abs(a.x0 - b.x0) + 24.0 * sigma0) / hb
    assert np.all(np.abs(marginal - rho) <= 8.0 * EPS * (1.0 + phase) * peak), (spec.kind, regime, marginal - rho)
