"""Weight-field MCMC steps against scalar and grid oracles, mixture math.

Each sampler step is exercised in isolation against an independent oracle:
scalar density-ratio arithmetic for memberships, 1-D grid integration for
the logit update, closed-form Inverse-Gamma moments for the field variance,
and prior recovery for the range. The fitters are then checked end to end
on separable synthetic problems.
"""

import inspect
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr
from scipy.stats import gamma as gamma_dist
from scipy.stats import norm

from pmfusion import ensemble, kernels
from pmfusion.config import MCMCConfig
from pmfusion.ensemble import (
    MixtureDistribution,
    WeightFieldSamples,
    _EnsembleProblem,
    fit_joint,
    fit_site_weights,
    fit_two_stage,
    krige_weights,
    mixture_quantiles_arrays,
    predict_mixture,
    update_q,
    update_rho,
    update_tau2,
)
from pmfusion.errors import DomainError, NoInputsError, SchemaError
from pmfusion.geo import Location, distance_matrix
from pmfusion.kernels import clipped_logit, inv_logit, jittered_cholesky, logit
from pmfusion.tables import PredictiveTable

from oracles import (
    bisection_mixture_quantiles,
    brute_force_weight_posterior,
    masked_inv_logit,
    membership_prob,
    inv_logit_assignment_sums,
    numpy_scalar_update_q,
    scipy_kriging,
    solving_update_rho,
    weight_posterior_mean,
)

# frozen oracle values for the reference mixture
# w=0.3, mu1=-1, var1=0.5, mu2=2, var2=4
REF_Q025 = -2.2175725534050366
REF_Q500 = 0.8780590814372883
REF_Q975 = 5.605486181478389


def scalar_membership(y, mu1, var1, mu2, var2, w):
    """Pure-python density-ratio route, kept intentionally naive."""
    d1 = math.exp(-0.5 * (y - mu1) ** 2 / var1) / math.sqrt(2 * math.pi * var1)
    d2 = math.exp(-0.5 * (y - mu2) ** 2 / var2) / math.sqrt(2 * math.pi * var2)
    return w * d1 / (w * d1 + (1 - w) * d2)


def make_inputs(ids, day, mu1, var1, mu2, var2, avail1=None, avail2=None):
    n = len(ids)
    mu = np.column_stack([mu1, mu2])
    var = np.column_stack([var1, var2])
    avail = np.column_stack([
        np.ones(n, dtype=bool) if avail1 is None else avail1,
        np.ones(n, dtype=bool) if avail2 is None else avail2,
    ])
    return PredictiveTable(
        ids=np.array(ids, dtype=object),
        day=np.asarray(day, dtype=np.int64),
        mu=mu,
        var=var,
        available=avail,
    )


def site_membership(y, mu1, var1, mu2, var2, w):
    """_EnsembleProblem.assignment_probs over one site per row, with q =
    clipped_logit(w): the membership probability the samplers draw from."""
    y, mu1, var1, mu2, var2, w = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float))
                                                         for a in (y, mu1, var1, mu2, var2, w)))
    ids = [f"s{i}" for i in range(y.size)]
    locs = [Location(sid, float(i), 0.0) for i, sid in enumerate(ids)]
    prob = _EnsembleProblem(y, make_inputs(ids, np.ones(y.size), mu1, var1, mu2, var2), locs)
    p = prob.assignment_probs(clipped_logit(w))
    return float(p[0]) if p.size == 1 else p


class TestMembershipProb:
    def test_equal_densities_give_half(self):
        assert site_membership(5.0, 5.0, 2.0, 5.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_three_to_one_density_ratio(self):
        # equal means, sd2 = 3*sd1 makes the density ratio exactly 3 at the mean
        p = site_membership(5.0, 5.0, 1.0, 5.0, 9.0, 0.5)
        assert p == pytest.approx(0.75, abs=1e-14)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(2_000):
            y = rng.normal(10, 5)
            mu1, mu2 = rng.normal(10, 3, 2)
            var1, var2 = rng.uniform(0.2, 6.0, 2)
            w = rng.uniform(0.01, 0.99)
            got = site_membership(y, mu1, var1, mu2, var2, w)
            want = scalar_membership(y, mu1, var1, mu2, var2, w)
            assert abs(got - want) < 1e-12
            assert abs(membership_prob(y, mu1, var1, mu2, var2, w) - want) < 1e-12

    def test_extreme_logits_saturate_cleanly(self):
        assert site_membership(0.0, 0.0, 1.0, 60.0, 1.0, 0.5) == pytest.approx(1.0)
        assert site_membership(60.0, 0.0, 1.0, 60.0, 1.0, 0.5) == pytest.approx(0.0)


class TestUpdateZ:
    """Step 1 as the fitters run it: _EnsembleProblem.draw_assignment_sums."""

    def make_problem(self):
        rng = np.random.default_rng(111)
        locs = [Location("a", 0.0, 0.0), Location("b", 30.0, 0.0)]
        ids = ["a", "a", "b", "b", "b"]
        day = [1, 2, 1, 2, 3]
        mu1 = rng.normal(10, 1, 5)
        mu2 = rng.normal(10, 1, 5)
        inputs = make_inputs(ids, day, mu1, 1.0 + np.zeros(5), mu2, 2.0 + np.zeros(5),
                             avail2=np.array([True, False, True, True, True]))
        y = rng.normal(10, 1, 5)
        return locs, inputs, y

    def test_only_rows_with_both_components(self):
        locs, inputs, y = self.make_problem()
        prob = _EnsembleProblem(y, inputs, locs)
        assert prob.rows.tolist() == [0, 2, 3, 4]
        assert prob.row_site.tolist() == [0, 1, 1, 1]
        assert prob.t_s.tolist() == [1.0, 3.0]
        z_sum = prob.draw_assignment_sums(np.zeros(2), np.random.default_rng(0))
        assert np.all(z_sum == np.round(z_sum)) and np.all((0 <= z_sum) & (z_sum <= prob.t_s))

    def test_probabilities_match_membership_oracle(self):
        locs, inputs, y = self.make_problem()
        q = np.array([0.7, -0.4])
        prob = _EnsembleProblem(y, inputs, locs)
        p = prob.assignment_probs(q)
        for k, i in enumerate(prob.rows):
            want = scalar_membership(
                y[i], inputs.mu[i, 0], inputs.var[i, 0],
                inputs.mu[i, 1], inputs.var[i, 1], inv_logit(q[prob.row_site[k]]),
            )
            assert p[k] == pytest.approx(want, abs=1e-12)

    def test_draw_frequencies_follow_probabilities(self):
        locs, inputs, y = self.make_problem()
        q = np.array([0.3, -0.2])
        prob = _EnsembleProblem(y, inputs, locs)
        rng = np.random.default_rng(2)
        total = np.zeros(2)
        m = 4_000
        for _ in range(m):
            total += prob.draw_assignment_sums(q, rng)
        p = prob.assignment_probs(q)
        # each site's sum of z is a sum of independent Bernoulli(p) draws
        mean = np.bincount(prob.row_site, weights=p, minlength=2)
        var = np.bincount(prob.row_site, weights=p * (1 - p), minlength=2)
        se = np.sqrt(var / m)
        assert np.all(np.abs(total / m - mean) < 4 * se + 1e-9)

    def test_unknown_site_id_rejected(self):
        locs, inputs, y = self.make_problem()
        mcmc = MCMCConfig(n_iter=10, burn_in=5, thin=1)
        for fitter in (fit_joint, fit_two_stage):
            with pytest.raises(SchemaError, match="'b' not among"):
                fitter(y, inputs, [locs[0]], mcmc)


class TestUpdateQ:
    def test_zero_step_proposal_always_accepted(self):
        q = np.array([0.4, -1.2, 0.8])
        prec = np.linalg.inv(np.array([
            [1.0, 0.3, 0.1], [0.3, 1.0, 0.3], [0.1, 0.3, 1.0],
        ]))
        r = prec @ q
        accepted = update_q(
            np.array([3.0, 1.0, 2.0]), np.array([5.0, 5.0, 5.0]),
            q, prec, r, np.zeros(3), np.random.default_rng(7),
        )
        assert accepted.all()
        assert_allclose(q, [0.4, -1.2, 0.8])

    def test_single_site_matches_grid_integration(self):
        """All 10 of 10 days assigned to component 1 under a weak prior:
        the long-run weight matches 1-D quadrature and exceeds 0.9."""
        tau2 = 25.0
        prec = np.array([[1.0 / tau2]])
        z_sum = np.array([10.0])
        t_s = np.array([10.0])
        q = np.zeros(1)
        r = prec @ q
        step = np.array([1.5])
        rng = np.random.default_rng(121)
        n_iter, burn = 22_000, 2_000
        total, count = 0.0, 0
        for it in range(n_iter):
            update_q(z_sum, t_s, q, prec, r, step, rng)
            if it >= burn:
                total += inv_logit(q[0])
                count += 1
        chain_mean = total / count

        grid = np.linspace(-12.0, 20.0, 64_001)
        logp = z_sum[0] * grid - t_s[0] * np.log1p(np.exp(grid)) - grid**2 / (2 * tau2)
        p = np.exp(logp - logp.max())
        oracle = float(np.trapezoid(inv_logit(grid) * p, grid) / np.trapezoid(p, grid))
        assert oracle > 0.9
        assert abs(chain_mean - oracle) < 0.02

    def test_near_duplicate_sites_stay_glued(self):
        tau2, rho = 1.0, 50.0
        c = np.exp(-0.01 / rho)
        cov = tau2 * (np.array([[1.0, c], [c, 1.0]]) + 1e-8 * np.eye(2))
        prec = np.linalg.inv(cov)
        cond_sd = math.sqrt(1.0 / prec[0, 0])
        q = np.zeros(2)
        r = prec @ q
        step = np.full(2, cond_sd)
        z_sum = np.array([3.0, 3.0])
        t_s = np.array([6.0, 6.0])
        rng = np.random.default_rng(122)
        keep = np.empty((25_000, 2))
        for it in range(keep.shape[0]):
            update_q(z_sum, t_s, q, prec, r, step, rng)
            keep[it] = q
        keep = keep[5_000:]
        assert keep[:, 0].std() > 1e-3  # the glued pair does move
        corr = np.corrcoef(keep[:, 0], keep[:, 1])[0, 1]
        assert corr > 0.9

    def test_running_product_stays_in_sync(self):
        rng = np.random.default_rng(123)
        locs = [Location(f"s{i}", *rng.uniform(0, 100, 2)) for i in range(8)]
        from pmfusion.geo import distance_matrix

        cov = 1.3 * np.exp(-distance_matrix(locs) / 40.0) + 1e-8 * np.eye(8)
        prec = np.linalg.inv(cov)
        q = rng.normal(0, 1, 8)
        r = prec @ q
        z_sum = rng.integers(0, 11, 8).astype(float)
        t_s = np.full(8, 10.0)
        step = np.full(8, 0.6)
        for _ in range(500):
            update_q(z_sum, t_s, q, prec, r, step, rng)
        assert_allclose(r, prec @ q, atol=1e-9)


class TestScalarSamplerLoops:
    """update_q on Python floats and the one-pass inv_logit change no bit of
    any weight-field fit: each equals a run with the numpy-scalar references."""

    @pytest.fixture
    def references(self, monkeypatch):
        def use():
            monkeypatch.setattr(ensemble, "update_q", numpy_scalar_update_q)
            monkeypatch.setattr(ensemble, "inv_logit", masked_inv_logit)

        return use

    def test_update_q_matches_the_numpy_scalar_sweep(self):
        rng = np.random.default_rng(124)
        locs = [Location(f"s{i}", *rng.uniform(0, 100, 2)) for i in range(12)]
        prec = np.linalg.inv(0.8 * np.exp(-distance_matrix(locs) / 30.0) + 1e-8 * np.eye(12))
        z_sum = rng.integers(0, 21, 12).astype(float)
        t_s = np.full(12, 20.0)
        t_s[3] = z_sum[3] = 0.0  # a site without usable days
        step = rng.uniform(0.2, 1.5, 12)
        q_a = rng.normal(0.0, 1.0, 12)
        q_b = q_a.copy()
        r_a, r_b = prec @ q_a, prec @ q_a
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        accepts = 0
        for _ in range(300):
            got = update_q(z_sum, t_s, q_a, prec, r_a, step, rng_a)
            want = numpy_scalar_update_q(z_sum, t_s, q_b, prec, r_b, step, rng_b)
            assert got.dtype == bool and np.array_equal(got, want)
            assert np.array_equal(q_a, q_b) and np.array_equal(r_a, r_b)
            accepts += int(got.sum())
        assert 0 < accepts < 300 * 12

    def test_fit_joint_is_bit_identical(self, references):
        locs, inputs, y, _ = separation_problem(n_side=4, t_days=30)
        mcmc = MCMCConfig(n_iter=600, burn_in=300, thin=3, seed=12)
        got = fit_joint(y, inputs, locs, mcmc)
        references()
        want = fit_joint(y, inputs, locs, mcmc)
        for name in ("q", "tau2", "rho", "t_s"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.acceptance == want.acceptance
        assert 0 < got.acceptance["q"] < 1 and 0 < got.acceptance["rho"] < 1

    def test_fit_site_weights_and_two_stage_are_bit_identical(self, references):
        locs, inputs, y, _ = separation_problem(n_side=4, t_days=30)
        mcmc = MCMCConfig(n_iter=600, burn_in=300, thin=3, seed=13)
        w_got, t_got = fit_site_weights(y, inputs, locs, mcmc)
        two_got = fit_two_stage(y, inputs, locs, mcmc)
        references()
        w_want, t_want = fit_site_weights(y, inputs, locs, mcmc)
        two_want = fit_two_stage(y, inputs, locs, mcmc)
        assert np.array_equal(w_got, w_want) and np.array_equal(t_got, t_want)
        for name in ("q", "tau2", "rho", "t_s"):
            assert np.array_equal(getattr(two_got, name), getattr(two_want, name)), name
        assert two_got.acceptance == two_want.acceptance
        assert np.array_equal(two_got.w_samples(), masked_inv_logit(two_want.q))


class TestUpdateTau2:
    def test_matches_inverse_gamma_moments(self):
        rng = np.random.default_rng(131)
        locs = [Location(f"s{i}", *rng.uniform(0, 150, 2)) for i in range(12)]
        q = rng.normal(0, 1.4, 12)
        rho = 60.0
        corr = np.exp(-distance_matrix(locs) / rho)
        quad = float(q @ np.linalg.solve(corr, q))
        shape = 0.001 + 6.0
        rate = 0.001 + 0.5 * quad
        mean = rate / (shape - 1.0)
        sd = mean / math.sqrt(shape - 2.0)
        m = 20_000
        draw_rng = np.random.default_rng(132)
        mcmc = MCMCConfig()
        draws = np.array([update_tau2(quad, 12, mcmc, draw_rng) for _ in range(m)])
        assert abs(draws.mean() - mean) < 3 * sd / math.sqrt(m)
        assert abs(draws.var(ddof=1) - sd * sd) < 4 * sd * sd * math.sqrt(2.0 / m)

    def test_deterministic_given_rng(self):
        one = update_tau2(0.7, 2, MCMCConfig(), np.random.default_rng(9))
        two = update_tau2(0.7, 2, MCMCConfig(), np.random.default_rng(9))
        assert one == two


class TestUpdateRho:
    def test_single_site_recovers_prior(self):
        """With one site the field likelihood is constant in the range, so
        the chain must sample its Gamma(0.5, 0.005) prior (mean 100)."""
        d = distance_matrix([Location("only", 0.0, 0.0)])
        q = np.array([0.4])
        rho = 100.0
        chol, _ = jittered_cholesky(np.exp(-d / rho))
        rng = np.random.default_rng(141)
        mcmc = MCMCConfig()
        n_iter = 30_000
        draws = np.empty(n_iter)
        accepts = 0
        for it in range(n_iter):
            rho, acc, chol = update_rho(q, 1.0, rho, d, chol, math.sqrt(2.0), rng, mcmc)
            draws[it] = rho
            accepts += acc
        draws = draws[5_000:]
        assert 0.1 < accepts / n_iter < 0.9
        assert abs(draws.mean() - 100.0) < 15.0
        med = gamma_dist.ppf(0.5, 0.5, scale=1.0 / 0.005)
        assert abs(np.mean(draws < med) - 0.5) < 0.05

    def test_returned_factor_matches_accepted_range(self):
        rng = np.random.default_rng(142)
        locs = [Location(f"s{i}", *rng.uniform(0, 80, 2)) for i in range(5)]
        d = distance_matrix(locs)
        q = rng.normal(0, 1, 5)
        rho = 40.0
        chol, _ = jittered_cholesky(np.exp(-d / rho))
        for _ in range(50):
            rho, _, chol = update_rho(q, 1.0, rho, d, chol, math.sqrt(0.3), rng, MCMCConfig())
            want, _ = jittered_cholesky(np.exp(-d / rho))
            assert_allclose(chol, want, rtol=1e-12)


class TestQuadraticForm:
    """The quadratic form each fitter hands to update_tau2 is q' C(rho)^{-1} q
    at the q and rho of that iteration: fit_joint keeps it as a running
    tau2 * q' r, fit_two_stage solves with the range factor."""

    @pytest.mark.parametrize("fitter", [fit_joint, fit_two_stage])
    def test_matches_a_dense_solve_at_every_iteration(self, fitter, monkeypatch):
        locs, inputs, y, _ = separation_problem(n_side=4, t_days=30)
        mcmc = MCMCConfig(n_iter=300, burn_in=150, thin=3, seed=17)
        quads, states, rho_quads = [], [], []

        def tau2_step(quad, s_count, mcmc, rng):
            quads.append(quad)
            return update_tau2(quad, s_count, mcmc, rng)

        def rho_step(q, tau2, rho, d, corr_chol, step, rng, mcmc, quad, logdet):
            # called right after the tau2 draw, with the same q and rho
            states.append((q.copy(), rho, d))
            rho_quads.append(quad)
            return update_rho(q, tau2, rho, d, corr_chol, step, rng, mcmc, quad, logdet)

        monkeypatch.setattr(ensemble, "update_tau2", tau2_step)
        monkeypatch.setattr(ensemble, "update_rho", rho_step)
        fitter(y, inputs, locs, mcmc)
        assert len(quads) == len(states) == mcmc.n_iter
        assert rho_quads == quads  # the range move reuses the tau2 draw's form
        assert len({rho for _, rho, _ in states}) > 1  # the range moves
        for quad, (q, rho, d) in zip(quads, states):
            want = float(q @ np.linalg.solve(np.exp(-d / rho), q))
            assert quad == pytest.approx(want, rel=1e-9)


def overflow_problem(n_side, t_days, seed):
    """separation_problem with every seventh row's other component 60 units
    off at unit variance, so that |delta_ll| > 745 and exp(-delta_ll)
    overflows or underflows on those rows; the "empty" site keeps no
    usable day."""
    locs, inputs, y, _ = separation_problem(n_side=n_side, t_days=t_days, seed=seed)
    mu, var = inputs.mu.copy(), inputs.var.copy()
    rows = np.arange(0, y.size, 7)
    for col, picked in ((1, rows[0::2]), (0, rows[1::2])):
        mu[picked, col] = y[picked] + 60.0
        var[picked, col] = 1.0
    inputs = make_inputs(inputs.ids, inputs.day, mu[:, 0], var[:, 0], mu[:, 1], var[:, 1],
                         avail2=inputs.available[:, 1])
    return locs, inputs, y


class ZeroUniforms:
    """A generator whose uniforms are all exactly 0.0; normals come from a
    seeded generator."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def standard_normal(self, size=None):
        return self._rng.standard_normal(size)

    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


class TestAcceptTestsOnArrays:
    """The accept tests formed on arrays and from the state the samplers
    keep make every decision that the per-site, re-solving and per-row
    forms in tests/oracles.py make: the fits are equal bit for bit."""

    @pytest.mark.parametrize("n_side, t_days, seed", [(2, 20, 3), (4, 30, 4), (6, 25, 5)])
    def test_fits_equal_the_old_steps(self, n_side, t_days, seed, monkeypatch):
        locs, inputs, y = overflow_problem(n_side, t_days, seed)
        prob = _EnsembleProblem(y, inputs, locs)
        assert (prob.delta_ll > 745).any() and (prob.delta_ll < -745).any()
        assert prob.t_s[[l.site_id for l in locs].index("empty")] == 0.0
        mcmc = MCMCConfig(n_iter=500, burn_in=250, thin=2, seed=seed)
        got = [fitter(y, inputs, locs, mcmc) for fitter in (fit_joint, fit_site_weights, fit_two_stage)]
        monkeypatch.setattr(ensemble, "update_q", numpy_scalar_update_q)
        monkeypatch.setattr(ensemble, "update_rho", solving_update_rho)
        monkeypatch.setattr(_EnsembleProblem, "draw_assignment_sums", inv_logit_assignment_sums)
        want = [fitter(y, inputs, locs, mcmc) for fitter in (fit_joint, fit_site_weights, fit_two_stage)]
        for g, w in (got[0], want[0]), (got[2], want[2]):
            for name in ("q", "tau2", "rho", "t_s"):
                assert np.array_equal(getattr(g, name), getattr(w, name)), name
            assert g.acceptance == w.acceptance
            assert all(0 < a < 1 for a in g.acceptance.values())
        assert all(np.array_equal(g, w) for g, w in zip(got[1], want[1]))

    def test_probabilities_at_extreme_logits_and_log_ratios(self):
        locs = [Location(f"s{i}", 10.0 * i, 0.0) for i in range(7)]
        ll = np.array([-1000.0, -800.0, -700.0, -650.0, -301.0, -299.0, -30.0, 0.0, 30.0, 299.0, 301.0, 650.0, 700.0, 800.0])
        # one row per (site, log ratio) pair; var1 = var2 = 1 and mu1 = y
        # make delta_ll = (y - mu2)**2 / 2 >= 0, so mu1 carries the sign
        ids = [f"s{i}" for i in range(7) for _ in ll]
        gap = np.sqrt(2.0 * np.abs(np.tile(ll, 7)))
        sign = np.sign(np.tile(ll, 7))
        ones = np.ones(gap.size)
        inputs = make_inputs(ids, np.arange(gap.size), np.where(sign < 0, gap, 0.0), ones,
                             np.where(sign < 0, 0.0, gap), ones)
        prob = _EnsembleProblem(np.zeros(gap.size), inputs, locs)
        assert_allclose(prob.delta_ll, np.tile(ll, 7), rtol=1e-12)
        q = np.array([-800.0, -720.0, -400.5, 0.0, 400.5, 720.0, 800.0])
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = prob.assignment_probs(q)
        want = inv_logit(q[prob.row_site] + prob.delta_ll)
        # below the smallest positive uniform, 2**-53, only u = 0 tells values apart
        small = want < 2.0**-53
        assert small.any() and (~small).any()
        assert np.all(got[small] < 2.0**-53)
        assert_allclose(got[~small], want[~small], rtol=1e-12)

    def test_update_rho_with_the_callers_form_equals_the_solving_move(self):
        rng = np.random.default_rng(143)
        locs = [Location(f"s{i}", *rng.uniform(0, 80, 2)) for i in range(9)]
        d = distance_matrix(locs)
        q = rng.normal(0, 1, 9)
        rho = 40.0
        chol, _ = jittered_cholesky(np.exp(-d / rho))
        rng_a, rng_b = np.random.default_rng(11), np.random.default_rng(11)
        accepts = 0
        for _ in range(300):
            half = kernels.tri_solve(chol, q)
            got = update_rho(q, 0.7, rho, d, chol, 0.5, rng_a, MCMCConfig(), float(half @ half))
            want = solving_update_rho(q, 0.7, rho, d, chol, 0.5, rng_b, MCMCConfig())
            assert got[:2] == want[:2] and np.array_equal(got[2], want[2])
            rho, accepted, chol = got
            accepts += accepted
        assert 0 < accepts < 300

    @pytest.mark.parametrize("fitter", [fit_joint, fit_two_stage])
    def test_the_kept_log_determinant_changes_no_bit(self, fitter, monkeypatch):
        """The fits equal those whose range move takes the log-determinant of
        the current factor afresh at every iteration, and the kept one is
        that of the factor the field holds."""
        locs, inputs, y = overflow_problem(3, 30, 6)
        mcmc = MCMCConfig(n_iter=400, burn_in=200, thin=2, seed=6)
        got = fitter(y, inputs, locs, mcmc)
        kept = []

        def fresh(*args):
            *args, logdet = args
            kept.append(logdet == 2.0 * np.log(np.diag(args[4])).sum())
            return update_rho(*args)

        monkeypatch.setattr(ensemble, "update_rho", fresh)
        want = fitter(y, inputs, locs, mcmc)
        assert len(kept) == mcmc.n_iter and all(kept)
        for name in ("q", "tau2", "rho"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.acceptance == want.acceptance and 0 < got.acceptance["rho"] < 1

    def test_a_zero_uniform_accepts_the_logit_moves(self):
        # log(0) = -inf is below any finite log ratio, so every move is taken
        prec = np.linalg.inv(np.array([[1.0, 0.3], [0.3, 1.0]]))
        z_sum, t_s = np.array([20.0, 0.0]), np.array([20.0, 20.0])
        q = np.array([3.0, -3.0])
        r = prec @ q
        step = np.array([8.0, 8.0])
        rng = ZeroUniforms(5)
        accepted = update_q(z_sum, t_s, q, prec, r, step, rng)
        assert accepted.dtype == bool and accepted.all()
        assert_allclose(r, prec @ q, atol=1e-12)

    def test_a_zero_uniform_accepts_the_range_move(self):
        d = distance_matrix([Location("a", 0.0, 0.0), Location("b", 5.0, 0.0)])
        chol, _ = jittered_cholesky(np.exp(-d / 40.0))
        rho, accepted, _ = update_rho(np.array([0.2, 0.1]), 1.0, 40.0, d, chol, 6.0, ZeroUniforms(1), MCMCConfig())
        assert accepted and rho != 40.0


class TestTracerContract:
    """The shapes the benchmark's tracer reads from the weight-field steps."""

    def test_update_q_returns_a_bool_per_site(self):
        prec = np.eye(3)
        q = np.zeros(3)
        out = update_q(np.ones(3), np.full(3, 2.0), q, prec, prec @ q, np.full(3, 0.5), np.random.default_rng(1))
        assert isinstance(out, np.ndarray) and out.dtype == bool and out.shape == (3,)

    def test_update_rho_puts_the_accepted_flag_at_index_1(self):
        d = distance_matrix([Location("a", 0.0, 0.0), Location("b", 5.0, 0.0)])
        chol, _ = jittered_cholesky(np.exp(-d / 40.0))
        out = update_rho(np.array([0.2, 0.1]), 1.0, 40.0, d, chol, 0.3, np.random.default_rng(2), MCMCConfig())
        assert isinstance(out[1], bool) and out[1] == (out[0] != 40.0)

    @pytest.mark.parametrize("fitter", [fit_joint, fit_two_stage])
    def test_mcmc_is_the_fourth_positional_argument(self, fitter):
        params = list(inspect.signature(fitter).parameters.values())
        assert params[3].name == "mcmc"
        assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[:4])


class TestMixtureDistribution:
    def ref(self):
        return MixtureDistribution(0.3, -1.0, 0.5, 2.0, 4.0)

    def test_frozen_quantiles(self):
        m = self.ref()
        assert m.quantile(0.025) == pytest.approx(REF_Q025, abs=1e-9)
        assert m.quantile(0.5) == pytest.approx(REF_Q500, abs=1e-9)
        assert m.quantile(0.975) == pytest.approx(REF_Q975, abs=1e-9)

    def test_cdf_is_scipy_mixture(self):
        m = self.ref()
        xs = np.linspace(-8, 12, 101)
        want = 0.3 * norm.cdf(xs, -1.0, math.sqrt(0.5)) + 0.7 * norm.cdf(xs, 2.0, 2.0)
        assert_allclose(m.cdf(xs), want, atol=1e-14)

    def test_quantile_round_trip(self):
        rng = np.random.default_rng(151)
        for _ in range(200):
            m = MixtureDistribution(
                rng.uniform(0, 1), rng.normal(0, 5), rng.uniform(0.1, 9),
                rng.normal(0, 5), rng.uniform(0.1, 9),
            )
            for p in (0.025, 0.2, 0.5, 0.8, 0.975):
                assert abs(m.cdf(m.quantile(p)) - p) < 1e-10

    def test_moments_match_quadrature(self):
        m = self.ref()
        sd = max(math.sqrt(m.var1), math.sqrt(m.var2))
        xs = np.linspace(min(m.mu1, m.mu2) - 12 * sd, max(m.mu1, m.mu2) + 12 * sd, 200_001)
        pdf = 0.3 * norm.pdf(xs, -1.0, math.sqrt(0.5)) + 0.7 * norm.pdf(xs, 2.0, 2.0)
        mean = float(np.trapezoid(xs * pdf, xs))
        var = float(np.trapezoid((xs - mean) ** 2 * pdf, xs))
        assert m.mean == pytest.approx(mean, abs=1e-8)
        assert m.variance == pytest.approx(var, abs=1e-7)

    def test_component_swap_symmetry(self):
        a = MixtureDistribution(0.3, -1.0, 0.5, 2.0, 4.0)
        b = MixtureDistribution(0.7, 2.0, 4.0, -1.0, 0.5)
        xs = np.linspace(-6, 10, 33)
        assert_allclose(a.cdf(xs), b.cdf(xs), atol=1e-15)
        assert a.quantile(0.31) == pytest.approx(b.quantile(0.31), abs=1e-11)

    def test_validation(self):
        with pytest.raises(DomainError):
            MixtureDistribution(1.2, 0, 1, 0, 1)
        with pytest.raises(DomainError):
            MixtureDistribution(0.5, 0, 0.0, 0, 1)
        with pytest.raises(DomainError):
            self.ref().quantile(0.0)
        with pytest.raises(DomainError):
            self.ref().quantile(1.0)
        with pytest.raises(DomainError):
            self.ref().quantile(1e-30)

    @pytest.mark.parametrize("field, value", [
        ("w", math.nan),
        ("mu1", math.nan), ("mu1", math.inf), ("mu2", math.nan), ("mu2", -math.inf),
        ("var1", math.nan), ("var1", math.inf), ("var1", 0.0), ("var1", -1.0),
        ("var2", math.nan), ("var2", math.inf), ("var2", 0.0), ("var2", -1.0),
    ])
    def test_each_field_refuses_a_bad_value(self, field, value):
        good = {"w": 0.3, "mu1": -1.0, "var1": 0.5, "mu2": 2.0, "var2": 4.0}
        named = {"w": "weight", "mu1": "means", "mu2": "means", "var1": "variances", "var2": "variances"}
        with pytest.raises(DomainError, match=named[field]):
            MixtureDistribution(**{**good, field: value})
        arrays = {k: np.full(3, v) for k, v in good.items()}
        arrays[field][1] = value
        with pytest.raises(DomainError):
            MixtureDistribution(**arrays)

    def test_predict_mixture_degenerate_components(self):
        mu = np.array([[3.0, 7.0], [3.0, 7.0], [3.0, 7.0]])
        var = np.array([[1.5, 2.0], [1.5, 2.0], [1.5, 2.0]])
        avail = np.array([[True, False], [False, True], [True, True]])
        mix = predict_mixture(0.42, mu, var, avail)
        assert mix.w[0] == 1.0
        assert mix.quantile(0.5)[0] == pytest.approx(3.0, abs=1e-10)
        assert mix.quantile(0.975)[0] == pytest.approx(
            norm.ppf(0.975, 3.0, math.sqrt(1.5)), abs=1e-9
        )
        assert mix.w[1] == 0.0
        assert mix.mean[1] == pytest.approx(7.0)
        assert mix.w[2] == 0.42
        with pytest.raises(NoInputsError):
            predict_mixture(0.5, mu, var, np.array([[True, False], [False, False], [True, True]]))

    def test_vectorized_quantiles_match_scalar(self):
        rng = np.random.default_rng(152)
        n = 100
        w = rng.uniform(0, 1, n)
        mu1, mu2 = rng.normal(0, 5, n), rng.normal(0, 5, n)
        var1, var2 = rng.uniform(0.1, 9, n), rng.uniform(0.1, 9, n)
        for p in (0.025, 0.5, 0.975):
            got = mixture_quantiles_arrays(w, mu1, var1, mu2, var2, p)
            for i in range(n):
                want = MixtureDistribution(w[i], mu1[i], var1[i], mu2[i], var2[i]).quantile(p)
                scale = max(math.sqrt(var1[i]), math.sqrt(var2[i]))
                assert abs(got[i] - want) < 1e-8 * scale

    def test_vectorized_quantiles_hit_frozen_reference(self):
        got = mixture_quantiles_arrays(
            np.array([0.3]), np.array([-1.0]), np.array([0.5]),
            np.array([2.0]), np.array([4.0]), 0.025,
        )
        assert got[0] == pytest.approx(REF_Q025, abs=1e-8)


TOL = 1e-10
EDGE_MIXTURES = {
    # w, mu1, var1, mu2, var2
    "w-zero": (0.0, -3.0, 2.0, 4.0, 0.5),
    "w-one": (1.0, -3.0, 2.0, 4.0, 0.5),
    "identical": (0.4, 1.5, 2.25, 1.5, 2.25),
    "bimodal": (0.3, 0.0, 1.0, 1000.0, 1.0),
    "variance-ratio-1e4": (0.6, 2.0, 1.0, 2.0, 1e4),
    "variance-ratio-1e4-apart": (0.2, 0.0, 1e-2, 5.0, 1e2),
}
LEVELS = (float(ndtr(-10.0)), 0.025, 0.2, 0.5, 0.975, 1.0 - 1e-12)


def bisection_reference(w, mu1, var1, mu2, var2, p):
    """The bisection oracle; above 1/2 on the mirrored mixture at 1 - p.

    Near 1 the computed CDF is flat over whole ranges of x (at 1 - 1e-12 one
    ulp of p spans about 1e-5 SD), so the bisection at p itself cannot
    resolve the root to tol; at 1 - p in the lower tail it can.
    """
    if p > 0.5:
        return -bisection_mixture_quantiles(w, -np.asarray(mu1), var1, -np.asarray(mu2), var2, 1.0 - p, TOL)
    return bisection_mixture_quantiles(w, mu1, var1, mu2, var2, p, TOL)


def counted_quantiles(monkeypatch, *args):
    """(quantiles, passes): each pass evaluates ndtr once per component."""
    calls = []
    monkeypatch.setattr(ensemble, "ndtr", lambda u: calls.append(1) or ndtr(u))
    got = mixture_quantiles_arrays(*args, tol=TOL)
    monkeypatch.undo()
    return got, len(calls) // 2


class TestBracketedNewtonQuantiles:
    @pytest.mark.parametrize("p", LEVELS)
    @pytest.mark.parametrize("name", sorted(EDGE_MIXTURES))
    def test_edge_cases_match_the_bisection(self, name, p, monkeypatch):
        w, mu1, var1, mu2, var2 = (np.array([v]) for v in EDGE_MIXTURES[name])
        got, passes = counted_quantiles(monkeypatch, w, mu1, var1, mu2, var2, p)
        want = bisection_reference(w, mu1, var1, mu2, var2, p)
        scale = max(math.sqrt(var1[0]), math.sqrt(var2[0]))
        assert abs(got[0] - want[0]) <= TOL * scale
        assert passes <= 25

    @pytest.mark.parametrize("p", LEVELS)
    def test_random_mixtures_match_the_bisection(self, p, monkeypatch):
        rng = np.random.default_rng(153)
        n = 2000
        w = rng.uniform(0, 1, n)
        w[:50], w[50:100] = 0.0, 1.0
        mu1, mu2 = rng.normal(0, 20, n), rng.normal(0, 20, n)
        var1, var2 = np.exp(rng.uniform(-4, 4, n)), np.exp(rng.uniform(-4, 4, n))
        got, passes = counted_quantiles(monkeypatch, w, mu1, var1, mu2, var2, p)
        want = bisection_reference(w, mu1, var1, mu2, var2, p)
        assert np.all(np.abs(got - want) <= TOL * np.maximum(np.sqrt(var1), np.sqrt(var2)))
        assert passes <= 25

    @pytest.mark.parametrize("p", (0.025, 0.975))
    def test_surface_like_mixtures_converge_in_few_passes(self, p, monkeypatch):
        rng = np.random.default_rng(154)
        n = 6400
        w = rng.uniform(0, 1, n)
        mu1, mu2 = rng.normal(10, 3, n), rng.normal(10, 3, n)
        var1, var2 = rng.uniform(1, 9, n), rng.uniform(1, 9, n)
        got, passes = counted_quantiles(monkeypatch, w, mu1, var1, mu2, var2, p)
        want = bisection_mixture_quantiles(w, mu1, var1, mu2, var2, p, TOL)
        assert np.all(np.abs(got - want) <= TOL * np.maximum(np.sqrt(var1), np.sqrt(var2)))
        # the bisection takes about 38 passes over every row here
        assert passes <= 12

    @pytest.mark.parametrize("p", LEVELS)
    def test_scalar_fields(self, p):
        m = MixtureDistribution(0.3, -1.0, 0.5, 2.0, 4.0)
        got = m.quantile(p)
        assert np.ndim(got) == 0
        assert abs(got - bisection_reference(0.3, -1.0, 0.5, 2.0, 4.0, p)) <= TOL * 2.0

    def test_array_shape_is_kept(self):
        rng = np.random.default_rng(155)
        w, mu1, mu2 = rng.uniform(0, 1, (3, 4)), rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (3, 4))
        got = mixture_quantiles_arrays(w, mu1, 1.0, mu2, 2.0, 0.975)
        assert got.shape == (3, 4)
        want = bisection_mixture_quantiles(w, mu1, 1.0, mu2, 2.0, 0.975)
        assert np.all(np.abs(got - want) <= TOL * math.sqrt(2.0))


def single_site_problem():
    """One monitor, 15 days, inputs mildly favoring component 1."""
    rng = np.random.default_rng(123)
    t = 15
    truth = rng.normal(12.0, 2.0, t)
    mu1 = truth + 0.8 * rng.standard_normal(t)
    mu2 = truth + 1.1 * rng.standard_normal(t)
    y = truth + 0.5 * rng.standard_normal(t)
    var1 = np.full(t, 0.8**2 + 0.25)
    var2 = np.full(t, 1.1**2 + 0.25)
    locs = [Location("s00", 12.0, 7.0)]
    inputs = make_inputs(["s00"] * t, np.arange(1, t + 1), mu1, var1, mu2, var2)
    return locs, inputs, y


class TestFitSiteWeights:
    def test_single_site_matches_grid_posterior(self):
        locs, inputs, y = single_site_problem()
        w_samples, t_s = fit_site_weights(
            y, inputs, locs, MCMCConfig(n_iter=6_000, burn_in=2_000, thin=1, seed=5)
        )
        assert t_s.tolist() == [15.0]
        grid, post = brute_force_weight_posterior(
            y, inputs.mu[:, 0], inputs.var[:, 0], inputs.mu[:, 1], inputs.var[:, 1]
        )
        oracle = weight_posterior_mean(grid, post)
        assert abs(float(w_samples.mean()) - oracle) < 0.02

    def test_brute_force_route_agrees_with_scipy(self):
        locs, inputs, y = single_site_problem()
        grid, post = brute_force_weight_posterior(
            y, inputs.mu[:, 0], inputs.var[:, 0], inputs.mu[:, 1], inputs.var[:, 1]
        )
        logp = np.zeros_like(grid)
        for t in range(y.shape[0]):
            logp += np.log(
                grid * norm.pdf(y[t], inputs.mu[t, 0], math.sqrt(inputs.var[t, 0]))
                + (1 - grid) * norm.pdf(y[t], inputs.mu[t, 1], math.sqrt(inputs.var[t, 1]))
            )
        p = np.exp(logp - logp.max())
        p /= p.sum()
        assert_allclose(post, p, atol=1e-10)

    def test_site_without_usable_days_keeps_uniform_prior(self):
        locs, inputs, y = single_site_problem()
        locs = locs + [Location("s01", 40.0, 40.0)]
        w_samples, t_s = fit_site_weights(
            y, inputs, locs, MCMCConfig(n_iter=4_000, burn_in=0, thin=1, seed=6)
        )
        assert t_s.tolist() == [15.0, 0.0]
        empty = w_samples[:, 1]
        assert abs(float(empty.mean()) - 0.5) < 0.05
        assert float(empty.min()) < 0.1 and float(empty.max()) > 0.9


def separation_problem(n_side=6, t_days=60, gap=160.0, seed=201):
    """Data generated from the mixture model itself: true weight 0.85 on the
    left, 0.15 on the right, plus one site that never has both components.

    Interior true weights keep the daily memberships genuinely random; a
    hand-tuned near-deterministic assignment would park the logits on the
    flat part of the Bernoulli likelihood, where the conjugate variance
    update can chase the drifting field instead of constraining it.
    """
    rng = np.random.default_rng(seed)
    locs, w_true = [], []
    for i in range(n_side):
        locs.append(Location(f"L{i}", float(rng.uniform(0, 40)), float(rng.uniform(0, 120))))
        w_true.append(0.85)
    for i in range(n_side):
        locs.append(Location(f"R{i}", float(rng.uniform(gap, gap + 40)), float(rng.uniform(0, 120))))
        w_true.append(0.15)
    locs.append(Location("empty", 100.0, 60.0))
    w_true.append(0.5)
    s = len(locs)
    sigma2 = 0.36
    ids, day, mu1, mu2, y, av2 = [], [], [], [], [], []
    for i, loc in enumerate(locs):
        truth = rng.normal(10.0, 2.0, t_days)
        e1 = rng.standard_normal(t_days)
        e2 = rng.standard_normal(t_days)
        regime1 = rng.random(t_days) < w_true[i]
        for t in range(t_days):
            ids.append(loc.site_id)
            day.append(t + 1)
            m1 = truth[t] + e1[t]
            m2 = truth[t] + e2[t]
            mu1.append(m1)
            mu2.append(m2)
            y.append((m1 if regime1[t] else m2) + math.sqrt(sigma2) * rng.standard_normal())
            av2.append(loc.site_id != "empty")
    var = np.full(len(ids), sigma2)
    inputs = make_inputs(ids, day, np.array(mu1), var, np.array(mu2), var.copy(),
                         avail2=np.array(av2))
    return locs, inputs, np.array(y), s


@pytest.fixture(scope="module")
def fitted():
    locs, inputs, y, s = separation_problem()
    field = fit_joint(y, inputs, locs, MCMCConfig(n_iter=4_000, burn_in=2_000, thin=2, seed=11))
    return locs, inputs, y, s, field


class TestFitJoint:
    def test_weights_separate_by_side(self, fitted):
        locs, _, _, s, field = fitted
        summ = field.summary()
        for i, loc in enumerate(locs):
            if loc.site_id.startswith("L"):
                assert summ["w_mean"][i] > 0.65
            elif loc.site_id.startswith("R"):
                assert summ["w_mean"][i] < 0.35

    def test_site_without_data_reverts_to_prior(self, fitted):
        locs, _, _, s, field = fitted
        i = next(k for k, l in enumerate(locs) if l.site_id == "empty")
        assert field.t_s[i] == 0.0
        summ = field.summary()
        assert 0.1 < summ["w_mean"][i] < 0.9
        assert summ["w_hi"][i] - summ["w_lo"][i] > 0.3

    def test_acceptance_lands_in_working_band(self, fitted):
        locs, inputs, y, _, field = fitted
        assert 0.15 < field.acceptance["q"] < 0.7
        assert 0.1 < field.acceptance["rho"] < 0.8
        # the two-stage range step adapts and is counted the same way
        two = fit_two_stage(y, inputs, locs, MCMCConfig(n_iter=4_000, burn_in=2_000, thin=2, seed=11))
        assert set(two.acceptance) == {"rho"}
        assert 0.1 < two.acceptance["rho"] < 0.8

    def test_hyperparameters_are_positive_and_mix(self, fitted):
        _, _, _, _, field = fitted
        assert np.all(field.tau2 > 0)
        assert np.all(field.rho > 0)
        assert np.unique(field.rho).size > 50

    def test_deterministic_given_seed(self):
        locs, inputs, y, _ = separation_problem(n_side=2, t_days=15)
        mcmc = MCMCConfig(n_iter=300, burn_in=100, thin=2, seed=77)
        one = fit_joint(y, inputs, locs, mcmc)
        two = fit_joint(y, inputs, locs, mcmc)
        assert np.array_equal(one.q, two.q)
        assert np.array_equal(one.tau2, two.tau2)
        assert np.array_equal(one.rho, two.rho)

    def test_y_length_checked(self):
        locs, inputs, y, _ = separation_problem(n_side=2, t_days=10)
        with pytest.raises(ValueError, match="length"):
            fit_joint(y[:-1], inputs, locs, MCMCConfig(n_iter=10, burn_in=5, thin=1))

    def test_y_length_is_a_schema_error(self):
        locs, inputs, y, _ = separation_problem(n_side=2, t_days=10)
        with pytest.raises(SchemaError, match=f"y length {y.size + 1} "):
            fit_two_stage(np.append(y, 1.0), inputs, locs, MCMCConfig(n_iter=10, burn_in=5, thin=1))


class TestFitTwoStage:
    def test_matches_joint_weights_and_drops_empty_sites(self):
        locs, inputs, y, s = separation_problem()
        mcmc = MCMCConfig(n_iter=4_000, burn_in=2_000, thin=2, seed=21)
        joint = fit_joint(y, inputs, locs, mcmc)
        two = fit_two_stage(y, inputs, locs, mcmc)
        assert "empty" not in two.site_ids
        assert len(two.locations) == s - 1
        # logits are pinned at the stage-A medians: constant across samples
        assert np.all(two.q == two.q[0])
        joint_w = joint.summary()["w_mean"]
        two_w = two.summary()["w_mean"]
        joint_ids = joint.site_ids
        for i, sid in enumerate(two.site_ids):
            j = joint_ids.index(sid)
            assert abs(two_w[i] - joint_w[j]) < 0.15
        assert np.all(two.tau2 > 0)
        assert np.unique(two.rho).size > 50


class TestKrigeWeights:
    def synthetic_field(self, rng, s=8, n_samples=400):
        locs = [Location(f"s{i}", *rng.uniform(0, 120, 2)) for i in range(s)]
        q = rng.normal(0.0, 1.0, (n_samples, s))
        return WeightFieldSamples(
            locations=locs,
            q=q,
            tau2=np.full(n_samples, 1.0),
            rho=np.full(n_samples, 45.0),
            t_s=np.full(s, 10.0),
        )

    def test_exact_at_monitor_locations(self):
        rng = np.random.default_rng(161)
        field = self.synthetic_field(rng)
        out = krige_weights(field, field.locations, seed=3)
        want = inv_logit(field.q).mean(axis=0)
        assert_allclose(out["w_mean"], want, atol=1e-3)
        assert_allclose(out["q_mean"], field.q.mean(axis=0), atol=1e-3)

    def test_far_field_reverts_to_half(self):
        rng = np.random.default_rng(162)
        field = self.synthetic_field(rng)
        far = [Location("far", 1.0e7, 1.0e7)]
        out = krige_weights(field, far, seed=4)
        assert abs(out["w_mean"][0] - 0.5) < 0.04
        assert out["w_lo"][0] < 0.2
        assert out["w_hi"][0] > 0.8

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(163)
        field = self.synthetic_field(rng, n_samples=60)
        targets = [Location("t0", 30.0, 30.0), Location("t1", 90.0, 10.0)]
        one = krige_weights(field, targets, seed=9)
        two = krige_weights(field, targets, seed=9)
        assert_allclose(one["w_mean"], two["w_mean"], rtol=0, atol=0)

    def test_chunk_sizes_match_the_chunk_major_reference(self):
        rng = np.random.default_rng(164)
        field = self.synthetic_field(rng, n_samples=30)
        field = WeightFieldSamples(
            locations=field.locations,
            q=field.q,
            tau2=rng.uniform(0.5, 2.0, 30),
            rho=rng.uniform(20.0, 80.0, 30),
            t_s=field.t_s,
        )
        targets = [Location(f"t{i}", *rng.uniform(0, 150, 2)) for i in range(12)]
        # 4 and 12 divide the 12 targets, 5 does not; 2048 is the default
        for chunk in (4, 5, 12, 2048):
            got = krige_weights(field, targets, seed=7, chunk=chunk)
            want = krige_per_chunk_reference(field, targets, seed=7, chunk=chunk)
            for key in ("w_mean", "w_lo", "w_hi", "q_mean"):
                assert np.array_equal(got[key], want[key]), (chunk, key)

    def test_repeated_ranges_reuse_the_operators_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(165)
        field = self.synthetic_field(rng, n_samples=30)
        # runs of one range, as rejected proposals leave them
        rho = np.repeat(rng.uniform(20.0, 80.0, 10), 3)
        rho[[4, 5, 17]] = rho[[3, 3, 16]]
        field = WeightFieldSamples(
            locations=field.locations,
            q=field.q,
            tau2=rng.uniform(0.5, 2.0, 30),
            rho=rho,
            t_s=field.t_s,
        )
        distinct = 1 + np.count_nonzero(np.diff(rho))
        targets = [Location(f"t{i}", *rng.uniform(0, 150, 2)) for i in range(12)]
        for chunk in (5, 2048):
            calls = []
            factor = kernels.jittered_cholesky
            monkeypatch.setattr(kernels, "jittered_cholesky", lambda c: calls.append(1) or factor(c))
            got = krige_weights(field, targets, seed=8, chunk=chunk)
            monkeypatch.undo()
            assert len(calls) == distinct * -(-len(targets) // chunk)
            want = krige_per_chunk_reference(field, targets, seed=8, chunk=chunk)
            for key in ("w_mean", "w_lo", "w_hi", "q_mean"):
                assert np.array_equal(got[key], want[key]), (chunk, key)


def krige_per_chunk_reference(field, targets, seed, chunk):
    """krige_weights spelled out: each target chunk takes every sample's
    conditional draw in turn (chunk-major order), so the output depends on the
    chunk size only through that order."""
    rng = np.random.default_rng(seed)
    d_obs = distance_matrix(field.locations)
    d_cross = distance_matrix(field.locations, targets)
    n_t = d_cross.shape[1]
    out = {key: np.zeros(n_t) for key in ("w_mean", "w_lo", "w_hi", "q_mean")}
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        draws = np.zeros((len(field), stop - start))
        for j in range(len(field)):
            mean, resid = scipy_kriging(d_obs, d_cross[:, start:stop], field.q[j], float(field.rho[j]))
            var = float(field.tau2[j]) * resid
            draws[j] = mean + np.sqrt(var) * rng.standard_normal(stop - start)
        w = inv_logit(draws)
        out["w_mean"][start:stop] = w.mean(axis=0)
        out["w_lo"][start:stop] = np.quantile(w, 0.025, axis=0)
        out["w_hi"][start:stop] = np.quantile(w, 0.975, axis=0)
        out["q_mean"][start:stop] = draws.mean(axis=0)
    return out
