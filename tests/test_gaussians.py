import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import qctl
from qctl import GaussianPacket, make_regime
from qctl.gaussians import gaussian_moments
from qctl.packets import packet_terms

PACKETS = (
    GaussianPacket(sigma0=1.0, x0=-5.0, p0=-2.0, mass=1.0),
    GaussianPacket(sigma0=1.0, x0=-15.0, p0=2.0, mass=1.0),
)


def simpson(x, f):
    """Composite Simpson with the step from the interval, not from a grid difference."""
    h = (x[-1] - x[0]) / (x.size - 1)
    return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())


def pair_exponent(epsilon, t, i, j, wall=True):
    """(alpha, beta, gamma) of g_i conj(g_j) for terms (packet, term) i and j."""
    _, A, B, G = packet_terms(PACKETS, make_regime(epsilon), t, wall)
    return tuple(E[i] + np.conj(E[j]) for E in (A, B, G))


# (epsilon, t, term i, term j, wall, integration range of the reference)
CASES = {
    "left of the wall": (1.0, 0.0, (0, 0), (0, 0), True, (-60.0, 0.0)),
    "right of the wall, image-image": (1.0, 0.0, (0, 1), (0, 1), True, (-60.0, 0.0)),
    "far right, image-image": (1.0, 0.0, (1, 1), (1, 1), True, (-60.0, 0.0)),
    "direct-image, eps 0.01": (0.01, 0.0, (0, 0), (0, 1), True, (-60.0, 0.0)),
    "direct-image, eps 0.01, t 3": (0.01, 3.0, (1, 0), (1, 1), True, (-60.0, 0.0)),
    "no wall": (1.0, 3.0, (0, 0), (1, 0), False, (-60.0, 40.0)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_moments_match_simpson(case):
    epsilon, t, i, j, wall, (lo, hi) = CASES[case]
    alpha, beta, gamma = pair_exponent(epsilon, t, i, j, wall)
    if case.startswith("direct-image"):
        assert abs(beta.imag) > 35.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        moments = gaussian_moments(alpha, beta, gamma, wall=wall)
    # Far in the tail each recurrence step loses about 2 |w|^2 in relative
    # accuracy (w = beta / 2 sqrt(-alpha) is 10.6 for the far-right pair).
    x = np.linspace(lo, hi, 400_001)
    f = np.exp((alpha * x + beta) * x + gamma)
    for n in range(3):
        reference = simpson(x, x**n * f)
        scale = simpson(x, np.abs(x**n * f))
        assert abs(moments[n] - reference) < 1e-10 * scale, (n, moments[n], reference)


def test_moments_broadcast_over_pairs():
    wall_cases = [case[:5] for case in CASES.values() if case[4]]
    alpha, beta, gamma = np.array([pair_exponent(*case) for case in wall_cases]).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = gaussian_moments(alpha, beta, gamma)
    assert batch.shape == (3, alpha.size)
    for k in range(alpha.size):
        assert np.array_equal(batch[:, k], gaussian_moments(alpha[k], beta[k], gamma[k]))


def test_faddeeva_literals_equal_their_fft():
    # Weideman's construction: the real part of an 80-point FFT of
    # exp(-s^2) (L^2 + s^2) at s = L tan(theta / 2), highest power first.
    n = 40
    m = 2 * n
    scale = np.sqrt(n / np.sqrt(2.0))
    theta = np.arange(-m + 1, m) * np.pi / m
    s = scale * np.tan(0.5 * theta)
    f = np.concatenate(([0.0], np.exp(-s * s) * (scale * scale + s * s)))
    a = np.fft.fft(np.fft.fftshift(f)).real / (2 * m)
    assert qctl.gaussians._FADDEEVA_SCALE == scale
    assert np.array_equal(np.array(qctl.gaussians._FADDEEVA_COEFFICIENTS), a[n:0:-1])


def test_no_run_imports_the_fft():
    code = (
        "import sys, numpy as np, qctl\n"
        "a = qctl.GaussianPacket(x0=-5.0, p0=-2.0)\n"
        "b = qctl.GaussianPacket(x0=-15.0, p0=2.0)\n"
        "spec = qctl.EnsembleSpec('pure', a, b)\n"
        "qctl.position_density(spec, qctl.make_regime(1.0), np.linspace(-9, 0, 5), 1.0)\n"
        "qctl.wigner_transform(spec, qctl.make_regime(1.0), 1.0, np.linspace(-9, 0, 5), np.linspace(-1, 1, 5))\n"
        "qctl.trajectory_fan(spec, qctl.make_regime(1.0), [-6.0], 0.1, 0.01)\n"
        "qctl.arrival_distribution(spec, qctl.make_regime(1.0), -10.0, np.linspace(0, 5, 51))\n"
        "scipy = [name for name in sys.modules if name.split('.')[0] == 'scipy']\n"
        "sys.exit(int('numpy.fft' in sys.modules) + 2 * bool(scipy))\n"
    )
    src = str(Path(qctl.__file__).parents[1])
    result = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src})
    assert result.returncode == 0
