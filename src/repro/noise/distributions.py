"""The composite under-rotation distribution of Fig. 9.

Sec. VII models the population of per-coupling under-rotations as:

* a **uniform** density for under-rotations up to the 6 % calibration
  threshold ("for <= 6 % under-rotations, we use a uniform distribution"),
* a **right-tail Gaussian** centred at 6 % for larger values, capturing the
  observed minority of badly miscalibrated gates (Fig. 7C).

Footnote 10 fixes the normalization: the density is flat at height ``a`` up
to the knee and falls off as a Gaussian with peak ``a``, so

    a(sigma) = 1 / (knee + sigma * sqrt(pi / 2)),   knee = 0.06.

Sampling uses the exact mixture decomposition: with probability
``knee * a`` draw uniformly from [0, knee]; otherwise draw the absolute
value of a centred Gaussian and shift it past the knee.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["CompositeUnderRotationDistribution"]


class CompositeUnderRotationDistribution:
    """Uniform-plus-Gaussian-tail distribution of coupling under-rotations.

    Parameters
    ----------
    sigma:
        Spread of the Gaussian tail (the x-axis of Fig. 9's sweeps).
    knee:
        Calibration threshold below which the density is flat (0.06 in the
        paper, i.e. couplings within spec).
    """

    def __init__(self, sigma: float, knee: float = 0.06):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        if knee <= 0:
            raise ValueError("knee must be positive")
        self.sigma = sigma
        self.knee = knee

    @property
    def height(self) -> float:
        """The density height ``a(sigma)`` from footnote 10."""
        return 1.0 / (self.knee + self.sigma * math.sqrt(math.pi / 2.0))

    @property
    def tail_weight(self) -> float:
        """Probability mass in the Gaussian tail beyond the knee."""
        return self.height * self.sigma * math.sqrt(math.pi / 2.0)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` under-rotation values from the composite law."""
        if size < 0:
            raise ValueError("size must be non-negative")
        a = self.height
        uniform_mass = self.knee * a
        pick_uniform = rng.random(size) < uniform_mass
        out = np.empty(size)
        n_uniform = int(pick_uniform.sum())
        out[pick_uniform] = rng.uniform(0.0, self.knee, size=n_uniform)
        n_tail = size - n_uniform
        out[~pick_uniform] = self.knee + np.abs(
            rng.normal(0.0, self.sigma, size=n_tail)
        )
        return out

    def mean(self) -> float:
        """Analytic mean of the distribution."""
        a = self.height
        uniform_part = a * self.knee**2 / 2.0
        # Tail: integral of (knee + x) * a * exp(-x^2 / 2 sigma^2) dx over x>0.
        tail_part = self.tail_weight * self.knee + a * self.sigma**2
        return uniform_part + tail_part
