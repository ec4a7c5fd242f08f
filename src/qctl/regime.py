"""Dynamical regime: transition parameter and the rescaled Planck constant.

The regime is the single knob of the whole library.  Every formula downstream
depends on Planck's constant only through the rescaled value
``hbar_tilde = sqrt(epsilon) * hbar``, so ``epsilon = 1`` is ordinary quantum
mechanics and ``epsilon -> 0`` approaches classical dynamics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = ["Regime", "epsilon_in_range", "epsilon_tag", "make_regime"]


@dataclass(frozen=True)
class Regime:
    """Immutable regime parameters; safe to share across threads."""

    epsilon: float
    hbar: float
    hbar_tilde: float


def epsilon_in_range(epsilon: float) -> bool:
    """Whether ``epsilon`` lies in (0, 1], the range of the transition parameter."""
    return 0.0 < epsilon <= 1.0


def make_regime(epsilon: float, hbar: float = 1.0) -> Regime:
    """Build a :class:`Regime` with ``hbar_tilde = sqrt(epsilon) * hbar``.

    ``epsilon`` must lie in (0, 1] and ``hbar`` must be positive.
    ``epsilon = 0`` is excluded: the velocity field and the propagator
    normalization both divide by ``hbar_tilde``; the classical limit is probed
    with small positive values instead (0.01 is already nearly classical).
    """
    epsilon = float(epsilon)
    hbar = float(hbar)
    if not epsilon_in_range(epsilon):
        raise DomainError(f"epsilon must be in (0, 1], got {epsilon}")
    if not hbar > 0.0:
        raise DomainError(f"hbar must be positive, got {hbar}")
    return Regime(epsilon=epsilon, hbar=hbar, hbar_tilde=math.sqrt(epsilon) * hbar)


def epsilon_tag(epsilon: float) -> str:
    """The name of ``epsilon`` in output file names and diagnostic keys (6 significant digits)."""
    return f"{epsilon:g}"
