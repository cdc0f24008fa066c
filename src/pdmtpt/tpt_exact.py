"""Exactly solvable deformed trigonometric Poschl-Teller baselines.

Two families, both with every bound state in closed form:

* one-parameter: V = A(A-1) sec^2 x on (-pi/2, pi/2) with mass profile
  f = 1 + alpha sin^2 x; spectrum E_n = (lam+n)^2 - alpha(lam - n^2);
* two-parameter: V = A(A-1) sec^2 x + B(B-1) csc^2 x on (0, pi/2) with
  f = 1 + alpha cos 2x; spectrum E_n = (lam+mu+2n)^2 + 2 alpha(lam-mu)(2n+1)
  - 4 alpha^2 n^2.

This module holds the wells' parameters and spectra, which `exact` prints.
The potentials and the Gegenbauer and Jacobi eigenfunctions are test
references (tests/references.py): the tests hold the oracle's levels on
those potentials, and the residuals of those eigenfunctions, against these
spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dsusy_core import DeformingFunction

__all__ = [
    "ExactOneParam",
    "ExactTwoParam",
    "energy_one_param",
    "energy_two_param",
]


@dataclass(frozen=True)
class ExactOneParam:
    """Well depth A > 1 and deformation alpha > -1 (alpha = 0, the
    constant-mass limit, allowed)."""

    big_a: float
    alpha: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.big_a, self.alpha))):
            raise ValueError(
                f"parameters must be finite, got {(self.big_a, self.alpha)}"
            )
        if not self.big_a > 1.0:
            raise ValueError(f"need A > 1, got {self.big_a}")
        DeformingFunction.trig_one(self.alpha)  # checks the alpha range

    @property
    def deforming(self) -> DeformingFunction:
        return DeformingFunction.trig_one(self.alpha)

    @property
    def delta(self) -> float:
        a, al = self.big_a, self.alpha
        return math.sqrt((1.0 + al) ** 2 + 4.0 * a * (a - 1.0))

    @property
    def lam(self) -> float:
        return 0.5 * (1.0 + self.alpha + self.delta)

    @property
    def lam_prime(self) -> float:
        return self.lam + 1.0 + self.alpha


def energy_one_param(p: ExactOneParam, n: int) -> float:
    """E_n = (lam + n)^2 - alpha (lam - n^2)."""
    lam = p.lam
    return (lam + n) ** 2 - p.alpha * (lam - n * n)


@dataclass(frozen=True)
class ExactTwoParam:
    """Well depths A, B > 1 and deformation |alpha| < 1 (alpha = 0, the
    constant-mass limit, allowed)."""

    big_a: float
    big_b: float
    alpha: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.big_a, self.big_b, self.alpha))):
            raise ValueError(
                f"parameters must be finite, got {(self.big_a, self.big_b, self.alpha)}"
            )
        if not self.big_a > 1.0:
            raise ValueError(f"need A > 1, got {self.big_a}")
        if not self.big_b > 1.0:
            raise ValueError(f"need B > 1, got {self.big_b}")
        DeformingFunction.trig_two(self.alpha)  # checks the alpha range

    @property
    def deforming(self) -> DeformingFunction:
        return DeformingFunction.trig_two(self.alpha)

    @property
    def delta1(self) -> float:
        a, al = self.big_a, self.alpha
        return math.sqrt((1.0 - al) ** 2 + 4.0 * a * (a - 1.0))

    @property
    def delta2(self) -> float:
        b, al = self.big_b, self.alpha
        return math.sqrt((1.0 + al) ** 2 + 4.0 * b * (b - 1.0))

    @property
    def lam(self) -> float:
        return 0.5 * (1.0 - self.alpha + self.delta1)

    @property
    def mu(self) -> float:
        return 0.5 * (1.0 + self.alpha + self.delta2)

    @property
    def lam_prime(self) -> float:
        return self.lam + 1.0 - self.alpha

    @property
    def mu_prime(self) -> float:
        return self.mu + 1.0 + self.alpha


def energy_two_param(p: ExactTwoParam, n: int) -> float:
    """E_n = (lam + mu + 2n)^2 + 2 alpha (lam - mu)(2n + 1) - 4 alpha^2 n^2."""
    lam, mu, al = p.lam, p.mu, p.alpha
    return (lam + mu + 2 * n) ** 2 + 2.0 * al * (lam - mu) * (2 * n + 1) - 4.0 * al * al * n * n
