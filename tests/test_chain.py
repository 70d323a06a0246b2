"""The chain driver's bookkeeping, and the samplers' contract with the tracer."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmfusion.chain import ADAPT_HIGH, ADAPT_LOW, ADAPT_WINDOW, Chain
from pmfusion.config import MCMCConfig
from pmfusion.errors import DomainError


def drive(mcmc, accept, **steps):
    """Run a Chain with accept(it) as the outcome of every try of step "s".

    Returns the chain, the step in force at each iteration and the
    (iteration, slot) pairs of the kept iterations.
    """
    chain = Chain(mcmc, **steps)
    seen, kept = [], []
    for it, j in chain:
        s = chain.step("s")
        seen.append(s.copy() if isinstance(s, np.ndarray) else s)
        chain.tried("s", accept(it))
        if j is not None:
            kept.append((it, j))
    return chain, seen, kept


def window_pattern(counts):
    """accept(it) accepting the first counts[k] tries of window k, all tries after."""

    def accept(it):
        k, pos = divmod(it, ADAPT_WINDOW)
        return pos < counts[k] if k < len(counts) else True

    return accept


class TestStepRule:
    def test_constants(self):
        assert (ADAPT_WINDOW, ADAPT_LOW, ADAPT_HIGH) == (50, 0.30, 0.45)

    def test_fixed_sequence_of_windows(self):
        # windows of burn-in accept 25, 10, 19, 15 and 23 of 50 tries:
        # 50% grows the step, 20% shrinks it, 38% and exactly 30% keep it,
        # 46% grows it; after burn-in every try is accepted and nothing moves
        mcmc = MCMCConfig(n_iter=500, burn_in=250, thin=1)
        chain, seen, _ = drive(mcmc, window_pattern([25, 10, 19, 15, 23]), s=0.5)
        want = [0.5, 0.5 * 1.25, 0.5 * 1.25 * 0.8, 0.5 * 1.25 * 0.8, 0.5 * 1.25 * 0.8, 0.5 * 1.25 * 0.8 * 1.25]
        for k, step in enumerate(want):
            window = seen[k * ADAPT_WINDOW:(k + 1) * ADAPT_WINDOW] if k < 5 else seen[250:]
            assert all(s == step for s in window), k
        assert chain.step("s") == want[-1]
        assert isinstance(chain.step("s"), float)

    def test_array_steps_adapt_element_by_element(self):
        mcmc = MCMCConfig(n_iter=100, burn_in=50, thin=1)
        counts = np.array([40, 5, 18])  # 80%, 10%, 36% in the one burn-in window

        def accept(it):
            return it % ADAPT_WINDOW < counts if it < 50 else np.ones(3, dtype=bool)

        chain, seen, _ = drive(mcmc, accept, s=np.full(3, 0.2))
        assert all(np.array_equal(s, [0.2, 0.2, 0.2]) for s in seen[:50])
        assert all(np.array_equal(s, [0.2 * 1.25, 0.2 * 0.8, 0.2]) for s in seen[50:])

    def test_nothing_adapts_after_burn_in(self):
        # no burn-in: every window accepts everything, and the step stays put
        mcmc = MCMCConfig(n_iter=300, burn_in=0, thin=1)
        chain, seen, _ = drive(mcmc, lambda it: True, s=0.7)
        assert set(seen) == {0.7}
        # a burn-in shorter than one window never closes a window either
        chain, seen, _ = drive(MCMCConfig(n_iter=300, burn_in=49, thin=1), lambda it: False, s=0.7)
        assert set(seen) == {0.7}


class TestKeepAndCount:
    @pytest.mark.parametrize("n_iter,burn_in,thin", [(100, 40, 3), (10, 0, 1), (401, 200, 4), (7, 6, 5)])
    def test_kept_iterations_follow_the_config(self, n_iter, burn_in, thin):
        mcmc = MCMCConfig(n_iter=n_iter, burn_in=burn_in, thin=thin)
        _, _, kept = drive(mcmc, lambda it: True, s=1.0)
        assert kept == [(it, j) for j, it in enumerate(mcmc.kept_iterations())]
        assert len(kept) == mcmc.n_kept

    def test_acceptance_counts_only_post_burn_in_tries(self):
        mcmc = MCMCConfig(n_iter=300, burn_in=100, thin=1)
        # everything accepted in burn-in, every fourth try after it
        chain, _, _ = drive(mcmc, lambda it: it < 100 or it % 4 == 0, s=1.0)
        assert chain.acceptance() == {"s": 0.25}

    def test_array_acceptance_is_the_mean_over_elements(self):
        mcmc = MCMCConfig(n_iter=120, burn_in=20, thin=5)

        def accept(it):
            return np.array([True, it % 2 == 0, False]) if it >= 20 else np.zeros(3, dtype=bool)

        chain, _, _ = drive(mcmc, accept, s=np.ones(3))
        assert chain.acceptance() == {"s": 0.5}

    def test_array_steps_behave_as_separate_scalar_chains(self):
        # one array step of four elements against four scalar chains, each
        # element with its own pattern of accepted tries
        mcmc = MCMCConfig(n_iter=400, burn_in=200, thin=2)
        patterns = [
            window_pattern([25, 10, 19, 15]),
            lambda it: it % 3 == 0,
            lambda it: it % 5 != 0,
            lambda it: it % 7 < 2,
        ]
        chain, seen, _ = drive(mcmc, lambda it: np.array([p(it) for p in patterns]), s=np.full(4, 0.5))
        rates = []
        for f, pattern in enumerate(patterns):
            single, single_seen, _ = drive(mcmc, pattern, s=0.5)
            assert [s[f] for s in seen] == single_seen
            assert chain.acceptance_of("s")[f] == single.acceptance()["s"]
            rates.append(single.acceptance()["s"])
        assert len(set(rates)) == 4
        assert chain.acceptance() == {"s": pytest.approx(np.mean(rates), rel=1e-12)}

    def test_no_steps_gives_the_keep_schedule_only(self):
        mcmc = MCMCConfig(n_iter=30, burn_in=10, thin=4)
        chain = Chain(mcmc)
        assert [j for _, j in chain if j is not None] == list(range(mcmc.n_kept))
        assert chain.acceptance() == {}


class TestConfigValidation:
    @pytest.mark.parametrize("name", ["kappa_w", "kappa_rho", "ig_a", "ig_b", "rho_prior_shape", "rho_prior_rate"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_a_domain_error(self, name, value):
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            MCMCConfig(**{name: value})

    @pytest.mark.parametrize("name", ["kappa_w", "kappa_rho", "ig_a", "ig_b", "rho_prior_shape", "rho_prior_rate"])
    def test_non_positive_float_is_a_domain_error(self, name):
        with pytest.raises(DomainError):
            MCMCConfig(**{name: 0.0})


TRACED_CHAINS = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer

import pmfusion
from pmfusion import downscaler, ensemble
from pmfusion.config import MCMCConfig
from pmfusion.pipeline import combine_predictions
from pmfusion.synth import SceneConfig, generate_scene

data = generate_scene(SceneConfig(n_sites=6, n_days=8, seed=3)).obs
tracer = Tracer("contract")
tracer.install()
n = 60
mcmc = MCMCConfig(n_iter=n, burn_in=30, thin=2, seed=1)


def count(name):
    return sum(1 for span in tracer.spans if span[0] == name)


out = {"n": n, "missing": tracer.missing}
fit = downscaler.fit_downscaler(data, "ctm", mcmc)
out["sweeps"] = count("downscaler.sweep")
batch = (data.day, data.x_ctm, None, 2)
pred = downscaler.predict_batches(fit, data.sites, data.site_idx, data.record_ids, [batch])[0]
inputs = combine_predictions(data, pred, pred)
ensemble.fit_joint(data.y, inputs, data.sites, mcmc)
out["joint_q"] = count("ensemble.update_q")
out["joint_rho"] = count("ensemble.update_rho")
ensemble.fit_two_stage(data.y, inputs, data.sites, mcmc)
out["two_stage_q"] = count("ensemble.update_q") - out["joint_q"]
out["two_stage_rho"] = count("ensemble.update_rho") - out["joint_rho"]
out["counters"] = dict(tracer.counters)
print(json.dumps(out))
"""


def test_tracer_sees_every_sampler_step(pmfusion_env):
    """perfbench's tracer rebinds module globals; the samplers must call their
    steps through them, or the benchmark's acceptance and sweep metrics read 0."""
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_CHAINS, str(perfbench)],
        capture_output=True, text=True, env=pmfusion_env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    n = out["n"]
    # every program target resolves but two that perfbench's TARGETS still
    # lists: pipeline._stage3_fits (each source's full-data fit now runs inside
    # its Stage-1 batch, so there is no such stage left to time) and
    # downscaler.predict_at (its callers call predict_batches)
    missing = [m for m in out["missing"] if m.startswith("pmfusion.")]
    assert missing == ["pmfusion.pipeline._stage3_fits", "pmfusion.downscaler.predict_at"]
    assert out["sweeps"] == n
    assert out["joint_q"] == n and out["two_stage_q"] == 0
    assert out["joint_rho"] == n and out["two_stage_rho"] == n
    assert out["counters"]["ensemble.q_tried"] == n * 6
    assert out["counters"]["downscaler.theta_tried"] == 2 * (n - 30)
