"""Shared tolerance and output configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

# Comparison tolerance: prefix-dominance checks, water-level block bounds,
# witness verification. Strict inequalities become ">= -tau" to absorb
# float noise.
DEFAULT_TAU = 1e-9

# Normalization acceptance: how far an input sum may sit from 1, and how
# negative an entry may be before it is an error rather than clamped noise.
DEFAULT_TAU_NORM = 1e-7

POLICIES = ("reject", "renormalize")


@dataclass(frozen=True)
class Config:
    """Run-wide knobs shared by the CLI and the file readers.

    `tau` drives every ordering comparison, `tau_norm` the acceptance of an
    input vector as normalized; `tau` must not exceed `tau_norm`. `base` is
    the logarithm base for entropies (2 for bits, e for nats).
    """

    tau: float = DEFAULT_TAU
    tau_norm: float = DEFAULT_TAU_NORM
    base: float = 2.0
    input_policy: str = "reject"

    def __post_init__(self) -> None:
        if not (0.0 < self.tau < math.inf and 0.0 < self.tau_norm < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if self.tau > self.tau_norm:
            raise ValueError("tau must not exceed tau_norm")
        check_base(self.base)
        if self.input_policy not in POLICIES:
            raise ValueError(f"unknown input policy: {self.input_policy!r}")


def check_tolerance(name: str, tol: float) -> float:
    """A tolerance override as a float; it must lie in [0, inf), so not nan."""
    tol = float(tol)
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"{name} must lie in [0, inf), got {tol}")
    return tol


def check_base(base: float) -> float:
    """A logarithm base as a float; it must lie in (1, inf), so not nan."""
    base = float(base)
    if not 1.0 < base < math.inf:
        raise ValueError(f"log base must lie in (1, inf), got {base}")
    return base
