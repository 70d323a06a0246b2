"""Cholesky jitter policy, LAPACK solves, CAR machinery, kriging kernel."""

import importlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import linalg, special

from pmfusion import kernels
from pmfusion.errors import DomainError, NotPositiveDefiniteError
from pmfusion.geo import CTM, SAT, GridSpec, Location, distance_matrix
from pmfusion.ensemble import _log1pexp
from pmfusion.kernels import (
    ETA_GRID,
    GaussianSummary,
    car_logdet_table,
    car_neighbor_count,
    car_precision_tridiag,
    car_normalized_eigvals,
    chol_factor_solve,
    chol_factor_solve_stack,
    cholesky_stack,
    ExpKriging,
    inv_logit,
    jittered_cholesky,
    logit,
    norm_logpdf,
    sample_from_log_weights,
    sample_tridiag_mvn,
    sample_tridiag_mvn_stack,
    tri_solve,
    tri_solve_stack,
)
from pmfusion.synth import SceneConfig, generate_scene
from oracles import (
    masked_inv_logit,
    car_full_conditional,
    mvn_logpdf_zero_mean,
    scipy_chol_factor_solve,
    scipy_tri_solve,
    scipy_tridiag_mvn,
)


def _random_points(rng, n, scale=100.0):
    return [Location(f"s{i}", *rng.uniform(0, scale, 2)) for i in range(n)]


class TestJitteredCholesky:
    def test_pd_matrix_needs_no_jitter(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((8, 8))
        c = a @ a.T + 8 * np.eye(8)
        chol, eps = jittered_cholesky(c)
        assert eps == 0.0
        np.testing.assert_allclose(chol @ chol.T, c, atol=1e-10)

    def test_singular_matrix_gets_smallest_working_jitter(self):
        # rank-deficient: duplicated point makes the kernel matrix singular
        ones = np.ones((4, 4))
        chol, eps = jittered_cholesky(ones)
        assert eps > 0
        assert eps <= 1e-4 * np.mean(np.diag(ones)) + 1e-15
        np.testing.assert_allclose(chol @ chol.T, ones + eps * np.eye(4), atol=1e-10)

    def test_indefinite_matrix_raises(self):
        bad = np.array([[1.0, 0.0], [0.0, -5.0]])
        with pytest.raises(NotPositiveDefiniteError):
            jittered_cholesky(bad)

    def test_solve_and_logdet_agree_with_dense(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((10, 10))
        c = a @ a.T + 10 * np.eye(10)
        b = rng.standard_normal(10)
        chol, _ = jittered_cholesky(c)
        np.testing.assert_allclose(chol_factor_solve(chol, b), np.linalg.solve(c, b), atol=1e-9)
        # the samplers' log-determinant: twice the log diagonal of the factor
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
        np.testing.assert_allclose(logdet, np.linalg.slogdet(c)[1], atol=1e-9)


class TestMvnLogpdf:
    def test_matches_scipy(self):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        c = a @ a.T + 6 * np.eye(6)
        x = rng.standard_normal(6)
        chol, _ = jittered_cholesky(c)
        expect = multivariate_normal(mean=np.zeros(6), cov=c).logpdf(x)
        np.testing.assert_allclose(mvn_logpdf_zero_mean(x, chol), expect, atol=1e-9)


def _spd_factor(rng, s):
    a = rng.standard_normal((s, s))
    return np.linalg.cholesky(a @ a.T + s * np.eye(s))


def _rhs(rng, s, kind):
    if kind == "eye":
        return np.eye(s)
    if kind == "strided":
        return rng.standard_normal((s, 9))[:, ::2]
    return rng.standard_normal(s if kind == "1d" else (s, kind))


def _spd_tridiag(rng, t):
    off = -rng.uniform(0.1, 1.0, t - 1)
    diag = np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off]) + rng.uniform(0.1, 2.0, t)
    return diag, off


class TestLapackSolves:
    """The direct LAPACK solves equal the scipy calls they replace, bit for bit."""

    @pytest.mark.parametrize("s", [3, 20, 63])
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("kind", ["1d", 1, 7, "eye", "strided"])
    def test_tri_solve_equals_solve_triangular(self, s, trans, kind):
        rng = np.random.default_rng(10 * s + trans)
        l = _spd_factor(rng, s)
        b = _rhs(rng, s, kind)
        assert np.array_equal(tri_solve(l, b, trans=trans), scipy_tri_solve(l, b, trans))
        # a Fortran-ordered factor goes to trtrs untransposed, as in scipy
        lf = np.asfortranarray(l)
        assert np.array_equal(tri_solve(lf, b, trans=trans), scipy_tri_solve(lf, b, trans))

    @pytest.mark.parametrize("s", [3, 20, 63])
    @pytest.mark.parametrize("kind", ["1d", 1, 7, "eye", "strided"])
    def test_chol_factor_solve_equals_cho_solve(self, s, kind):
        rng = np.random.default_rng(s)
        l = _spd_factor(rng, s)
        b = _rhs(rng, s, kind)
        assert np.array_equal(chol_factor_solve(l, b), scipy_chol_factor_solve(l, b))

    def test_range_correlation_factors(self):
        # the factors the samplers solve with: exponential correlations
        rng = np.random.default_rng(8)
        d = distance_matrix(_random_points(rng, 63))
        for theta in (5.0, 40.0, 400.0):
            l, _ = jittered_cholesky(np.exp(-d / theta))
            v = rng.standard_normal(63)
            k = np.exp(-d[:, :40] / theta)
            assert np.array_equal(tri_solve(l, v), scipy_tri_solve(l, v))
            assert np.array_equal(tri_solve(l, k), scipy_tri_solve(l, k))
            assert np.array_equal(tri_solve(l, v, trans=1), scipy_tri_solve(l, v, 1))
            eye = np.eye(63)
            assert np.array_equal(chol_factor_solve(l, eye), scipy_chol_factor_solve(l, eye))

    @pytest.mark.parametrize("t", [2, 5, 90, 365])
    def test_tridiag_draw_equals_the_scipy_banded_calls(self, t):
        # U x = z by the triangular banded solve tbtrs, against solve_banded's pivoting LU (gbsv)
        rng = np.random.default_rng(t)
        for k in range(30):
            diag, off = _spd_tridiag(rng, t)
            b = rng.standard_normal(t)
            got = sample_tridiag_mvn(diag, off, b, np.random.default_rng(k))
            want = scipy_tridiag_mvn(diag, off, b, np.random.default_rng(k))
            assert np.array_equal(got, want)

    def test_stack_kernels_equal_the_lone_calls_row_by_row(self):
        rng = np.random.default_rng(9)
        l = np.array([_spd_factor(rng, 7) for _ in range(4)])
        b = rng.standard_normal((4, 7))
        assert np.array_equal(cholesky_stack(l @ l.transpose(0, 2, 1)), [jittered_cholesky(m @ m.T)[0] for m in l])
        for trans in (0, 1):
            assert np.array_equal(tri_solve_stack(l, b, trans), [tri_solve(*fb, trans=trans) for fb in zip(l, b)])
        assert np.array_equal(chol_factor_solve_stack(l, b), [chol_factor_solve(*fb) for fb in zip(l, b)])
        diag, off = map(np.array, zip(*(_spd_tridiag(rng, 9) for _ in range(4))))
        rhs = rng.standard_normal((4, 9))
        got = sample_tridiag_mvn_stack(diag, off, rhs, [np.random.default_rng(k) for k in range(4)])
        want = [sample_tridiag_mvn(*row, np.random.default_rng(k)) for k, row in enumerate(zip(diag, off, rhs))]
        assert np.array_equal(got, want)
        b[2, 3] = np.nan
        with pytest.raises(ValueError, match="infs or NaNs"):
            tri_solve_stack(l, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_value_error(self, bad):
        rng = np.random.default_rng(4)
        l = _spd_factor(rng, 6)
        b = rng.standard_normal(6)
        for solve in (tri_solve, chol_factor_solve):
            l_bad = l.copy()
            l_bad[4, 2] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(l_bad, b)
            b_bad = b.copy()
            b_bad[1] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(l, b_bad)
        diag, off = _spd_tridiag(rng, 6)
        for which in range(3):
            args = [diag.copy(), off.copy(), b.copy()]
            args[which][2] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                sample_tridiag_mvn(*args, rng)

    def test_singular_triangle_raises_linalg_error(self):
        l = _spd_factor(np.random.default_rng(5), 5)
        l[2, 2] = 0.0
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            tri_solve(l, np.ones(5))

    def test_non_pd_tridiagonal_raises(self):
        diag = np.array([1.0, -2.0, 1.0])
        off = np.array([0.1, 0.1])
        with pytest.raises(NotPositiveDefiniteError):
            sample_tridiag_mvn(diag, off, np.zeros(3), np.random.default_rng(0))

    def test_shape_mismatch_raises_value_error(self):
        l = _spd_factor(np.random.default_rng(6), 5)
        for solve in (tri_solve, chol_factor_solve):
            with pytest.raises(ValueError, match="incompatible"):
                solve(l, np.ones(4))
            with pytest.raises(ValueError, match="square"):
                solve(l[:, :4], np.ones(5))


# in a fresh interpreter: each kernel routine is the object scipy's own
# lookup returns for float64, whichever of scipy and pmfusion loads first,
# and also where the loader finds no extension file and imports scipy's
# public modules instead
_SAME_ROUTINES = """
{first}
import numpy as np
import scipy.linalg, scipy.special
from pmfusion import kernels
x = (np.empty(0),)
lapack = ("trtrs", "trtri", "potrs", "pbtrf", "pbtrs", "tbtrs")
same = [getattr(kernels, "_" + n.upper()) is scipy.linalg.get_lapack_funcs(n, x) for n in lapack]
same.append(kernels._FLAPACK.dstevd is scipy.linalg.get_lapack_funcs("stevd", x))
same.append(kernels._TRMM is scipy.linalg.get_blas_funcs("trmm", x))
same.append(kernels.ndtr is scipy.special.ndtr)
print(same)
"""


class TestScipyExtensions:
    @pytest.mark.parametrize(
        "first",
        [
            "import scipy.linalg, scipy.special",
            "import pmfusion.cli",
            "import importlib.abc, importlib.machinery, types\n"
            "finder, importlib.machinery.PathFinder = importlib.machinery.PathFinder, types.SimpleNamespace(\n"
            "    find_spec=lambda name, path: None)\n"
            "import pmfusion.cli\n"
            "importlib.machinery.PathFinder = finder",
        ],
    )
    def test_routines_are_the_ones_scipy_looks_up(self, first, pmfusion_env):
        code = _SAME_ROUTINES.format(first=first)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=pmfusion_env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == str([True] * 9)

    def test_ndtr_is_scipys_bit_for_bit(self):
        x = np.concatenate((np.linspace(-40.0, 10.0, 200_001), [-1e300, -38.5, 8.3, 1e300, -np.inf, np.inf]))
        assert kernels.ndtr(x).tobytes() == special.ndtr(x).tobytes()
        assert kernels.ndtr(-10.0) == special.ndtr(-10.0)

    @pytest.mark.parametrize("horizon", [2, 3, 60, 90, 120, 365])
    def test_car_eigvals_are_eigh_tridiagonal_bit_for_bit(self, horizon):
        n_t = car_neighbor_count(horizon)
        want = linalg.eigh_tridiagonal(np.zeros(horizon), 1.0 / np.sqrt(n_t[:-1] * n_t[1:]), eigvals_only=True)
        assert car_normalized_eigvals(horizon).tobytes() == want.tobytes()

    def test_ndtri_within_1e14_of_scipy(self):
        tail = np.logspace(-12.0, np.log10(0.5), 20_001)
        p = np.concatenate((tail, 1.0 - tail, np.linspace(1e-6, 1.0 - 1e-6, 20_001)))
        got = np.array([kernels.ndtri(v) for v in p.tolist()])
        np.testing.assert_allclose(got, special.ndtri(p), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize(
        "private, public, routine",
        [("linalg._flapack", "linalg.lapack", "dtrtrs"), ("linalg._fblas", "linalg.blas", "dtrmm"),
         ("special._special_ufuncs", "special", "ndtr")],
    )
    def test_missing_file_falls_back_to_the_public_module(self, monkeypatch, private, public, routine):
        monkeypatch.setattr(kernels, "PathFinder", SimpleNamespace(find_spec=lambda name, path: None))
        monkeypatch.delitem(sys.modules, f"scipy.{private}")
        module = kernels._scipy_extension(private, public)
        assert module is importlib.import_module(f"scipy.{public}") and f"scipy.{private}" not in sys.modules
        assert getattr(module, routine) in (kernels._TRTRS, kernels._TRMM, kernels.ndtr)

    def test_loaded_module_is_returned_as_imported(self):
        for private in ("linalg._flapack", "linalg._fblas", "special._special_ufuncs"):
            assert kernels._scipy_extension(private, "") is sys.modules[f"scipy.{private}"]


class TestGaussianSummary:
    def test_quantiles(self):
        g = GaussianSummary(mean=2.0, variance=4.0)
        np.testing.assert_allclose(g.sd, 2.0)
        np.testing.assert_allclose(g.quantile(0.5), 2.0, atol=1e-12)
        np.testing.assert_allclose(g.quantile(0.975), 2.0 + 2.0 * 1.959963984540054, atol=1e-9)

    def test_validation(self):
        with pytest.raises(DomainError, match="nonnegative"):
            GaussianSummary(0.0, -1.0)
        with pytest.raises(DomainError, match="finite"):
            GaussianSummary(np.array([0.0, np.nan]), np.ones(2))
        with pytest.raises(DomainError):
            GaussianSummary(0.0, 1.0).quantile(0.0)


class TestLogitFunctions:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(1e-6, 1 - 1e-6, 1000)
        np.testing.assert_allclose(inv_logit(logit(w)), w, atol=1e-12)

    def test_logit_domain(self):
        with pytest.raises(DomainError):
            logit(0.0)
        with pytest.raises(DomainError):
            logit(1.0)

    def test_inv_logit_saturates_without_overflow(self):
        assert inv_logit(1000.0) == 1.0
        assert inv_logit(-1000.0) == 0.0

    def test_inv_logit_equals_the_masked_form_bit_for_bit(self):
        nans = np.array([0xFFF8000000000001, 0x7FF8000000000123], dtype=np.uint64).view(float)
        special = np.concatenate([[0.0, -0.0, 700.0, -700.0, np.inf, -np.inf, np.nan, 36.0, -36.0], nans])
        normals = np.random.default_rng(5).standard_normal(100_000)
        for q in (special, normals, normals.reshape(400, 250), np.float64(-0.0)):
            got, want = inv_logit(q), masked_inv_logit(q)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(np.asarray(got).view(np.uint64), np.asarray(want).view(np.uint64))
        for q in (0.0, -0.0, 700.0, -700.0, -np.inf, np.nan):
            got, want = inv_logit(q), masked_inv_logit(q)
            assert type(got) is float and (got == want or (np.isnan(got) and np.isnan(want)))

    def test_log1pexp_stable(self):
        # the log(1 + e^x) of the logit update
        x = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        out = _log1pexp(x)
        np.testing.assert_allclose(out[2], np.log(2.0))
        np.testing.assert_allclose(out[4], 800.0)
        assert np.isfinite(out).all()
        # matches naive formula where that formula is stable
        np.testing.assert_allclose(out[1:4], np.log1p(np.exp(x[1:4])), atol=1e-12)

    def test_norm_logpdf_matches_scipy(self):
        from scipy.stats import norm

        rng = np.random.default_rng(5)
        y = rng.normal(0, 3, 200)
        mu = rng.normal(0, 1, 200)
        var = rng.uniform(0.1, 4.0, 200)
        np.testing.assert_allclose(
            norm_logpdf(y, mu, var), norm.logpdf(y, mu, np.sqrt(var)), atol=1e-10
        )


class TestCar:
    def test_neighbor_counts(self):
        np.testing.assert_array_equal(car_neighbor_count(5), [1, 2, 2, 2, 1])

    def test_full_conditional_interior(self):
        # eta * mean of the two lag neighbors, variance sigma2 / 2
        mean, var = car_full_conditional(2, np.array([1.0, 2.0, 0.5]), eta=0.8, sigma2=0.3)
        np.testing.assert_allclose(mean, 0.8 * (1.0 + 0.5) / 2.0)
        np.testing.assert_allclose(var, 0.3 / 2.0)

    def test_full_conditional_endpoints(self):
        series = np.array([2.0, -1.0, 3.0, 0.5])
        m1, v1 = car_full_conditional(1, series, eta=0.6, sigma2=1.0)
        m4, v4 = car_full_conditional(4, series, eta=0.6, sigma2=1.0)
        np.testing.assert_allclose(m1, 0.6 * -1.0)
        np.testing.assert_allclose(v1, 1.0)
        np.testing.assert_allclose(m4, 0.6 * 3.0)
        np.testing.assert_allclose(v4, 1.0)

    def test_precision_matches_conditionals(self):
        # the prior precision the daily-series draws use must reproduce
        # every full conditional of the CAR model
        t = 6
        diag, off = car_precision_tridiag(car_neighbor_count(t), 0.7, 0.5)
        q = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        rng = np.random.default_rng(6)
        series = rng.standard_normal(t)
        for i in range(t):
            cond_var = 1.0 / q[i, i]
            cond_mean = -cond_var * (q[i] @ series - q[i, i] * series[i])
            m, v = car_full_conditional(i + 1, series, eta=0.7, sigma2=0.5)
            np.testing.assert_allclose(m, cond_mean, atol=1e-12)
            np.testing.assert_allclose(v, cond_var, atol=1e-12)

    def test_eta_grid_structure(self):
        assert ETA_GRID.shape == (1000,)
        assert ETA_GRID[0] == 0.0005
        assert ETA_GRID[-1] == 0.9995
        assert (np.diff(ETA_GRID) > 0).all()

    def test_normalized_eigvals_max_one(self):
        lam = car_normalized_eigvals(12)
        np.testing.assert_allclose(lam.max(), 1.0, atol=1e-12)
        assert lam.min() > -1.0 - 1e-12

    def test_logdet_table_matches_dense(self):
        t = 5
        table = car_logdet_table(t)
        w = np.diag(np.ones(t - 1), 1) + np.diag(np.ones(t - 1), -1)
        d = np.diag(car_neighbor_count(t).astype(float))
        for idx in (0, 250, 499, 999):
            eta = ETA_GRID[idx]
            sign, ld = np.linalg.slogdet(d - eta * w)
            assert sign > 0
            np.testing.assert_allclose(table[idx], ld, atol=1e-9)

    def test_logdet_table_frozen_value(self):
        # |D - 0.4995 W| at T=5, value fixed by an independent dense eval
        table = car_logdet_table(5)
        idx = np.argmin(np.abs(ETA_GRID - 0.4995))
        np.testing.assert_allclose(table[idx], 1.6591797186961905, atol=1e-9)


class _FixedNormals:
    """Generator stand-in whose standard_normal returns the given vector."""

    def __init__(self, z):
        self.z = z

    def standard_normal(self, n):
        assert n == self.z.shape[0]
        return self.z


class TestTridiagSampling:
    def test_conditional_moments_match_dense_oracle(self):
        # frozen dense-solve values for a 4-long chain with partial data; the
        # draw is mean + U^{-1} z with Q = U^T U, so z = 0 gives the mean and
        # z = e_i the i-th column of U^{-1}, whose row sums of squares are
        # the diagonal of Q^{-1}
        nt = np.array([1, 2, 2, 1.0])
        diag = nt / 1.0 + np.array([1, 0, 2, 1.0])
        off = np.full(3, -0.9)
        b = np.array([1, 0, 2, 1.0]) * np.array([1.0, 0, -0.5, 2.0])
        mean = sample_tridiag_mvn(diag, off, b, _FixedNormals(np.zeros(4)))
        u_inv = np.column_stack(
            [sample_tridiag_mvn(diag, off, np.zeros(4), _FixedNormals(e)) for e in np.eye(4)]
        )
        cov = u_inv @ u_inv.T
        np.testing.assert_allclose(
            mean,
            [0.6396190108701723, 0.3102644686003828, 0.04985758601956732, 1.0224359137088053],
            atol=1e-12,
        )
        np.testing.assert_allclose(
            np.diag(cov),
            [0.6478439894192252, 0.7300937749097538, 0.3239219947096126, 0.5655942039286965],
            atol=1e-12,
        )

    def test_sampler_moments(self):
        # empirical mean/cov of the banded sampler vs the dense answer
        rng = np.random.default_rng(7)
        t = 5
        diag = np.array([2.0, 3.0, 2.5, 3.0, 2.0])
        off = np.array([-0.8, -0.9, -0.7, -0.8])
        b = np.array([1.0, -2.0, 0.5, 0.0, 1.5])
        q = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        target_mean = np.linalg.solve(q, b)
        target_cov = np.linalg.inv(q)
        draws = np.array([sample_tridiag_mvn(diag, off, b, rng) for _ in range(20000)])
        se = np.sqrt(np.diag(target_cov) / draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - target_mean) < 4 * se)
        emp_cov = np.cov(draws.T)
        assert np.max(np.abs(emp_cov - target_cov)) < 0.03

    def test_sampler_deterministic_given_rng(self):
        diag = np.array([2.0, 2.0, 2.0])
        off = np.array([-0.5, -0.5])
        b = np.zeros(3)
        a = sample_tridiag_mvn(diag, off, b, np.random.default_rng(42))
        c = sample_tridiag_mvn(diag, off, b, np.random.default_rng(42))
        np.testing.assert_array_equal(a, c)


class TestGpConditional:
    def test_univariate_conditional_matches_dense(self):
        # one site kriged from the others is its GP full conditional
        rng = np.random.default_rng(8)
        pts = _random_points(rng, 10)
        d = distance_matrix(pts)
        c = np.exp(-d / 35.0)
        vals = np.linalg.cholesky(c + 1e-10 * np.eye(10)) @ rng.standard_normal(10)
        for i in (0, 4, 9):
            others = np.delete(np.arange(10), i)
            krige = ExpKriging(d[np.ix_(others, others)], d[others][:, [i]])
            cond_mean, cond_var = krige(vals[others], 35.0)
            coo = c[np.ix_(others, others)]
            cio = c[i, others]
            expect_mean = cio @ np.linalg.solve(coo, vals[others])
            expect_var = c[i, i] - cio @ np.linalg.solve(coo, cio)
            np.testing.assert_allclose(cond_mean[0], expect_mean, atol=1e-9)
            np.testing.assert_allclose(cond_var[0], expect_var, atol=1e-9)


class TestKriging:
    """ExpKriging on a unit-variance field; a field with sill s has variance s * residual."""

    def test_exact_at_observed_locations(self):
        rng = np.random.default_rng(9)
        pts = _random_points(rng, 15)
        d = distance_matrix(pts)
        c = 1.5 * np.exp(-d / 40.0)
        vals = np.linalg.cholesky(c + 1e-12 * np.eye(15)) @ rng.standard_normal(15)
        mean, resid = ExpKriging(d, d)(vals, 40.0)
        np.testing.assert_allclose(mean, vals, atol=1e-6)
        assert (1.5 * resid < 1e-6).all()

    def test_reverts_to_prior_far_away(self):
        rng = np.random.default_rng(10)
        pts = _random_points(rng, 10)
        vals = rng.standard_normal(10)
        far = [Location("far", 1e6, 1e6)]
        mean, resid = ExpKriging(distance_matrix(pts), distance_matrix(pts, far))(vals, 30.0)
        np.testing.assert_allclose(mean[0], 0.0, atol=1e-8)
        np.testing.assert_allclose(2.0 * resid[0], 2.0, atol=1e-8)

    def test_matches_dense_gls_formula(self):
        rng = np.random.default_rng(11)
        obs = _random_points(rng, 12)
        targets = _random_points(rng, 5, scale=120.0)
        d, d_cross = distance_matrix(obs), distance_matrix(obs, targets)
        c = np.exp(-d / 50.0)
        k = np.exp(-d_cross / 50.0)
        vals = rng.standard_normal(12)
        mu, var = ExpKriging(d, d_cross)(vals, 50.0)
        expect_mu = k.T @ np.linalg.solve(c, vals)
        expect_var = 1.0 - np.sum(k * np.linalg.solve(c, k), axis=0)
        np.testing.assert_allclose(mu, expect_mu, atol=1e-8)
        np.testing.assert_allclose(var, expect_var, atol=1e-8)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(12)
        obs = _random_points(rng, 20, scale=10.0)  # tight cluster stresses conditioning
        vals = rng.standard_normal(20)
        d_cross = distance_matrix(obs, _random_points(rng, 50))
        _, var = ExpKriging(distance_matrix(obs), d_cross)(vals, 200.0)
        assert (var >= 0).all()


class TestKrigingAccuracy:
    """ExpKriging against a dense solve, over ranges from 5 km to 3,000 km."""

    RANGES = (5.0, 50.0, 300.0, 3000.0)

    @staticmethod
    def gate10_sites():
        # the 63 monitors of the gate-10 scene: their positions are drawn first
        scene = SceneConfig(
            n_sites=63, n_days=2, seed=77,
            ctm_grid=GridSpec(-12.0, -12.0, 12.0, 11, 11, CTM),
            sat_grid=GridSpec(0.0, 0.0, 4.0, 25, 25, SAT),
        )
        return generate_scene(scene).sites

    @staticmethod
    def cluster_sites():
        return _random_points(np.random.default_rng(14), 20, scale=10.0)

    @pytest.mark.parametrize("layout", ["gate10", "cluster"])
    @pytest.mark.parametrize("range_km", RANGES)
    def test_matches_a_dense_solve(self, layout, range_km):
        rng = np.random.default_rng(15)
        obs = self.gate10_sites() if layout == "gate10" else self.cluster_sites()
        targets = [Location(f"t{i}", *rng.uniform(-20.0, 120.0, 2)) for i in range(300)]
        d, d_cross = distance_matrix(obs), distance_matrix(obs, targets)
        c, k = np.exp(-d / range_km), np.exp(-d_cross / range_km)
        vals = np.linalg.cholesky(c) @ rng.standard_normal(len(obs))
        mean, resid = ExpKriging(d, d_cross)(vals, range_km)
        # condition numbers reach about 2e5 at 3,000 km; the errors stay near 1e-13
        np.testing.assert_allclose(mean, k.T @ np.linalg.solve(c, vals), rtol=0, atol=1e-10)
        want = np.maximum(1.0 - np.sum(k * np.linalg.solve(c, k), axis=0), 0.0)
        np.testing.assert_allclose(resid, want, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("layout", ["gate10", "cluster"])
    @pytest.mark.parametrize("range_km", RANGES)
    def test_exact_at_the_observed_sites(self, layout, range_km):
        obs = self.gate10_sites() if layout == "gate10" else self.cluster_sites()
        d = distance_matrix(obs)
        vals = np.linalg.cholesky(np.exp(-d / range_km)) @ np.random.default_rng(16).standard_normal(len(obs))
        mean, resid = ExpKriging(d, d)(vals, range_km)
        np.testing.assert_allclose(mean, vals, rtol=0, atol=1e-9)
        assert resid.max() <= 1e-12

    def test_a_repeated_range_neither_factors_nor_inverts(self, monkeypatch):
        rng = np.random.default_rng(17)
        obs = self.cluster_sites()
        d, d_cross = distance_matrix(obs), distance_matrix(obs, _random_points(rng, 40))
        calls = {"factor": 0, "invert": 0}
        factor, invert = kernels.jittered_cholesky, kernels._TRTRI

        def counted_factor(c):
            calls["factor"] += 1
            return factor(c)

        def counted_invert(*args, **kwargs):
            calls["invert"] += 1
            return invert(*args, **kwargs)

        monkeypatch.setattr(kernels, "jittered_cholesky", counted_factor)
        monkeypatch.setattr(kernels, "_TRTRI", counted_invert)
        krige = ExpKriging(d, d_cross)
        values = rng.standard_normal((4, len(obs)))
        got = [krige(v, r) for v, r in zip(values, (30.0, 30.0, 45.0, 45.0))]
        assert calls == {"factor": 2, "invert": 2}
        monkeypatch.undo()
        for (mean, resid), v, r in zip(got[1::2], values[1::2], (30.0, 45.0)):
            want_mean, want_resid = ExpKriging(d, d_cross)(v, r)
            assert np.array_equal(mean, want_mean) and np.array_equal(resid, want_resid)


class TestDiscreteSampling:
    def test_sample_from_log_weights_uniformity(self):
        # flat weights over the grid: selection frequencies must be uniform
        rng = np.random.default_rng(13)
        k = 50
        logw = np.zeros(k)
        counts = np.bincount(
            [sample_from_log_weights(logw[None], [rng])[0] for _ in range(50000)], minlength=k
        )
        expected = 50000 / k
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square(49) central 99.9% bound
        assert chi2 < 85.4

    def test_sample_from_log_weights_respects_weights(self):
        rng = np.random.default_rng(14)
        logw = np.log(np.array([0.7, 0.2, 0.1]))
        draws = np.bincount(
            [sample_from_log_weights(logw[None], [rng])[0] for _ in range(30000)], minlength=3
        )
        np.testing.assert_allclose(draws / 30000, [0.7, 0.2, 0.1], atol=0.02)

    def test_shift_invariance(self):
        rng1 = np.random.default_rng(15)
        rng2 = np.random.default_rng(15)
        logw = np.array([-3.0, -1.0, -2.0])
        a = [sample_from_log_weights(logw[None], [rng1])[0] for _ in range(100)]
        b = [sample_from_log_weights(logw[None] + 500.0, [rng2])[0] for _ in range(100)]
        assert a == b
