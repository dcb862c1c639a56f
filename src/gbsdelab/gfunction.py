"""The sublinear function G and its worst-case representation.

Scalar case: G(a) = (1/2)(sigma_high_sq * a+ - sigma_low_sq * a-), the
worst case over instantaneous variances in [sigma_low_sq, sigma_high_sq].
All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GParams:
    """Variance-uncertainty interval [sigma_low_sq, sigma_high_sq]."""

    sigma_low_sq: float
    sigma_high_sq: float

    def __post_init__(self):
        if not (0.0 < self.sigma_low_sq <= self.sigma_high_sq < np.inf):
            raise ValueError(
                "need 0 < sigma_low_sq <= sigma_high_sq < inf, got "
                f"[{self.sigma_low_sq}, {self.sigma_high_sq}]"
            )


def g_value(params: GParams, a):
    """G(a) for scalar (or array) second-order arguments a."""
    a = np.asarray(a, dtype=float)
    out = 0.5 * (
        params.sigma_high_sq * np.maximum(a, 0.0)
        - params.sigma_low_sq * np.maximum(-a, 0.0)
    )
    return float(out) if out.ndim == 0 else out


def worst_case_q(params: GParams, a):
    """Variance attaining G(a); ties at a=0 resolve to sigma_high_sq."""
    a = np.asarray(a, dtype=float)
    out = np.where(a >= 0.0, params.sigma_high_sq, params.sigma_low_sq)
    return float(out) if out.ndim == 0 else out
