"""Bookkeeping shared by the package's MCMC samplers.

A Chain runs the iterations of one MCMCConfig, gives each kept iteration its
slot in the output arrays, counts Metropolis-Hastings acceptances since
burn-in, and adapts each named random-walk step during burn-in only
(Roberts & Rosenthal 2009, "Examples of adaptive MCMC"): after every
ADAPT_WINDOW iterations, a step accepted more often than ADAPT_HIGH in that
window grows by 1.25 and one accepted less often than ADAPT_LOW shrinks by
0.8. Steps are frozen from burn-in on, so the kept draws come from a fixed
Markov kernel.
"""

from __future__ import annotations

import numpy as np

from .config import MCMCConfig

ADAPT_WINDOW = 50
ADAPT_LOW = 0.30
ADAPT_HIGH = 0.45


class Chain:
    """Keep schedule, acceptance counts and step adaptation of one run.

    Each keyword names a random-walk step: a float, or an array with one
    step per element (e.g. per site). `step(name)` returns the current
    value, a float or the array itself, which adaptation updates in place.
    """

    def __init__(self, mcmc: MCMCConfig, **steps):
        self.mcmc = mcmc
        self._scalar = {name for name, s in steps.items() if np.ndim(s) == 0}
        self._steps = {name: np.atleast_1d(np.array(s, dtype=float)) for name, s in steps.items()}
        self._window = {name: np.zeros(s.shape) for name, s in self._steps.items()}
        self._accepted = {name: np.zeros(s.shape) for name, s in self._steps.items()}

    def step(self, name: str):
        s = self._steps[name]
        return float(s[0]) if name in self._scalar else s

    def tried(self, name: str, accepted) -> None:
        """Count one try of step `name`: a bool, or a bool array for an array step."""
        self._window[name] += accepted
        self._accepted[name] += accepted

    def __iter__(self):
        """Yield (iteration, kept slot or None) for every iteration.

        The loop body runs between yields, so a step is adapted after the
        body of the iteration that closes a burn-in window, and acceptance
        counts restart where burn-in ends.
        """
        mcmc = self.mcmc
        kept = {it: j for j, it in enumerate(mcmc.kept_iterations())}
        for it in range(mcmc.n_iter):
            if it == mcmc.burn_in:
                for counts in self._accepted.values():
                    counts[:] = 0.0
            yield it, kept.get(it)
            if it < mcmc.burn_in and (it + 1) % ADAPT_WINDOW == 0:
                for name, step in self._steps.items():
                    rate = self._window[name] / ADAPT_WINDOW
                    step[rate > ADAPT_HIGH] *= 1.25
                    step[rate < ADAPT_LOW] *= 0.8
                    self._window[name][:] = 0.0

    def acceptance(self) -> dict[str, float]:
        """Acceptance rate of each step since burn-in, averaged over its elements."""
        post = self.mcmc.n_iter - self.mcmc.burn_in
        return {name: float(np.mean(a) / post) for name, a in self._accepted.items()}

    def acceptance_of(self, name: str) -> np.ndarray:
        """Acceptance rate of each element of step `name` since burn-in."""
        return self._accepted[name] / (self.mcmc.n_iter - self.mcmc.burn_in)
