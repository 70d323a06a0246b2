"""Sampler configuration shared by the downscaler and ensemble fitters."""

from __future__ import annotations

import sys
from dataclasses import dataclass
from numbers import Integral, Real

from .errors import DomainError


@dataclass(frozen=True)
class MCMCConfig:
    """Chain length and proposal/prior settings.

    Defaults follow the reference run: 10,000 iterations, 5,000 burn-in,
    thinning by 4 (1,250 retained samples). kappa_w and kappa_rho are the
    initial random-walk proposal variances for the weight logits and the
    spatial range; both adapt during burn-in toward 30-45% acceptance and
    are frozen afterwards. ig_a/ig_b parameterize the Inverse-Gamma priors
    on variance parameters; the Gamma prior on range parameters has shape
    rho_prior_shape and rate rho_prior_rate (prior mean 100 km).
    """

    n_iter: int = 10_000
    burn_in: int = 5_000
    thin: int = 4
    seed: int = 0
    kappa_w: float = 0.25
    kappa_rho: float = 0.09
    ig_a: float = 0.001
    ig_b: float = 0.001
    rho_prior_shape: float = 0.5
    rho_prior_rate: float = 0.005

    def __post_init__(self):
        for name in ("n_iter", "burn_in", "thin", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")
        if self.n_iter <= 0:
            raise DomainError("n_iter must be positive")
        if not 0 <= self.burn_in < self.n_iter:
            raise DomainError(
                f"burn_in must satisfy 0 <= burn_in < n_iter, got burn_in={self.burn_in}, n_iter={self.n_iter}"
            )
        if self.thin < 1:
            raise DomainError("thin must be >= 1")
        for name in ("kappa_w", "kappa_rho", "ig_a", "ig_b", "rho_prior_shape", "rho_prior_rate"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real):
                raise DomainError(f"{name} must be a number, got {value!r}")
            if not abs(value) <= sys.float_info.max:
                raise DomainError(f"{name} must be finite, got {value!r}")
        if self.kappa_w <= 0 or self.kappa_rho <= 0:
            raise DomainError("proposal variances must be positive")
        if min(self.ig_a, self.ig_b, self.rho_prior_shape, self.rho_prior_rate) <= 0:
            raise DomainError("prior hyperparameters must be positive")

    @property
    def n_kept(self) -> int:
        return (self.n_iter - self.burn_in + self.thin - 1) // self.thin

    def kept_iterations(self) -> range:
        return range(self.burn_in, self.n_iter, self.thin)
