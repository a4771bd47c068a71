import numpy as np
import pytest
from dataclasses import replace
from scipy.special import expit

from netcov import CommunityMap, FeatureIndex
from netcov.groups import ExpansionMap
from netcov.preprocess import orthonormalize, standardize
from netcov.solver import (ConvergenceError, PenalizedProblem, deviance,
                           fit_at_lambda, fit_path, group_update,
                           kkt_residual, lambda_grid, lambda_max, objective,
                           smooth_gradient)
from oracles import (fd_gradient, ista_objective, ista_solve, random_grouping,
                     stationarity_residual)


def build_problem(rng, N=50, p=12, family="gaussian", kind="partition",
                  beta_scale=1.0, lam=0.1, signal_groups=1):
    """Random standardized + orthonormalized problem and its raw pieces."""
    Z = rng.standard_normal((N, p))
    groups = random_grouping(rng, p, kind)
    mapping = np.concatenate(groups)
    slices, start = [], 0
    for g in groups:
        slices.append((start, start + g.size))
        start += g.size
    emap = ExpansionMap(expanded_to_original=mapping, slices=tuple(slices),
                        p=p)
    means = Z.mean(0)
    sds = Z.std(0)
    Zs = (Z - means) / sds
    beta_true = np.zeros(p)
    for g in groups[:signal_groups]:
        beta_true[g] = beta_scale
    eta = Zs @ beta_true
    if family == "gaussian":
        y = eta + rng.standard_normal(N)
        y = (y - y.mean()) / y.std()
    else:
        y = (rng.random(N) < expit(eta)).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
    U, basis, mult = orthonormalize(emap.expand_design(Zs), emap)
    names = tuple(str(i) for i in range(len(basis.kept)))
    problem = PenalizedProblem(U=U, y=y, family=family,
                               slices=basis.u_slices, multipliers=mult,
                               names=names, lam=lam)
    return problem, basis, emap, Zs


class TestDeviance:
    def test_gaussian_half_rss(self):
        assert deviance("gaussian", np.array([1.0, 0.0]),
                        np.array([0.0, 0.0])) == pytest.approx(0.5)

    def test_binomial_at_zero(self):
        val = deviance("binomial", np.array([1.0, 0.0]),
                       np.array([0.0, 0.0]))
        assert val == pytest.approx(4.0 * np.log(2.0))

    def test_binomial_saturation(self):
        val = deviance("binomial", np.array([1.0]), np.array([30.0]))
        assert abs(val) < 1e-8

    def test_binomial_clip_guards_overflow(self):
        val = deviance("binomial", np.array([0.0]), np.array([1e6]))
        assert np.isfinite(val)


class TestGroupUpdate:
    def test_plain_shrink(self):
        z = np.array([1.2, 1.6])  # norm 2
        np.testing.assert_allclose(group_update(z, 1.0), 0.5 * z)

    def test_boundary_exact_zero(self):
        z = np.array([0.6, 0.8])  # norm 1
        out = group_update(z, 1.0)
        assert np.all(out == 0.0)

    def test_zero_threshold_identity(self, rng):
        z = rng.standard_normal(5)
        np.testing.assert_array_equal(group_update(z, 0.0), z)

    def test_zero_vector(self):
        np.testing.assert_array_equal(group_update(np.zeros(3), 1.0),
                                      np.zeros(3))


class TestLambdaMax:
    def test_hand_computed_single_group(self, rng):
        # orthonormal single group, ||U^T (y - ybar)|| = 3, N = 10, r = 4
        N, r = 10, 4
        base = rng.standard_normal((N, r))
        base -= base.mean(0)
        U, _ = np.linalg.qr(base)
        v = rng.standard_normal(r)
        v *= 3.0 / np.linalg.norm(v)
        y = U @ v
        y = y - y.mean() + 0.7
        problem = PenalizedProblem(U=U, y=y, family="gaussian",
                                   slices=((0, r),),
                                   multipliers=np.array([2.0]),
                                   names=("g",))
        assert lambda_max(problem) == pytest.approx(3.0 / (10 * 2.0),
                                                    rel=1e-9)

    def test_orthogonal_response_errors(self, rng):
        # y = constant + component orthogonal to the columns and to 1
        base = rng.standard_normal((10, 3))
        base -= base.mean(0)
        U, _ = np.linalg.qr(base)  # mean-zero orthonormal columns
        w = rng.standard_normal(10)
        w -= w.mean()
        w -= U @ (U.T @ w)
        problem = PenalizedProblem(U=U, y=0.5 + w, family="gaussian",
                                   slices=((0, 3),),
                                   multipliers=np.array([1.0]),
                                   names=("g",))
        with pytest.raises(ValueError, match="degenerates"):
            lambda_max(problem)

    def test_constant_binary_response_errors(self, rng):
        U, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        problem = PenalizedProblem(U=U, y=np.ones(8), family="binomial",
                                   slices=((0, 2),),
                                   multipliers=np.array([1.0]),
                                   names=("g",))
        with pytest.raises(ValueError, match="constant"):
            lambda_max(problem)

    def test_binomial_gradient_at_zero_vs_finite_differences(self, rng):
        problem, *_ = build_problem(rng, family="binomial", lam=0.0)
        mu0 = float(np.log(problem.y.mean() / (1 - problem.y.mean())))
        m = problem.U.shape[1]

        def fun(theta):
            eta = theta[0] + problem.U @ theta[1:]
            return deviance("binomial", problem.y, eta) / problem.N

        theta0 = np.concatenate([[mu0], np.zeros(m)])
        gmu, grad = smooth_gradient(problem, mu0, np.zeros(m))
        fd = fd_gradient(fun, theta0)
        np.testing.assert_allclose(np.concatenate([[gmu], grad]), fd,
                                   rtol=1e-5, atol=1e-8)

    def test_fully_sparse_at_lambda_max(self, rng):
        for family in ("gaussian", "binomial"):
            problem, *_ = build_problem(rng, family=family)
            lam = lambda_max(problem)
            sol = fit_at_lambda(replace(problem, lam=lam))
            assert np.all(sol.beta_tilde == 0.0)
            sol_hi = fit_at_lambda(replace(problem, lam=2.0 * lam))
            assert np.all(sol_hi.beta_tilde == 0.0)

    def test_activates_just_below(self, rng):
        problem, *_ = build_problem(rng, beta_scale=1.0)
        lam = lambda_max(problem)
        sol = fit_at_lambda(replace(problem, lam=0.999 * lam))
        assert np.any(sol.beta_tilde != 0.0)


class TestFitAtLambda:
    def test_lambda_zero_matches_ols_predictions(self, rng):
        problem, *_ = build_problem(rng, N=60, p=10, lam=0.0)
        sol = fit_at_lambda(problem)
        M = np.column_stack([np.ones(problem.N), problem.U])
        coef, *_ = np.linalg.lstsq(M, problem.y, rcond=None)
        pred_ols = M @ coef
        pred_fit = sol.mu + problem.U @ sol.beta_tilde
        assert np.max(np.abs(pred_ols - pred_fit)) < 1e-8

    def test_gaussian_intercept_is_mean(self, rng):
        problem, *_ = build_problem(rng)
        lam = lambda_max(problem)
        sol = fit_at_lambda(replace(problem, lam=lam))
        assert sol.mu == pytest.approx(float(problem.y.mean()), abs=1e-12)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("kind", ["partition", "overlap"])
    def test_oracle_objective_match(self, rng, family, kind):
        problem, *_ = build_problem(rng, N=50, p=12, family=family, kind=kind)
        lam = 0.3 * lambda_max(problem)
        prob = replace(problem, lam=lam)
        sol = fit_at_lambda(prob)
        mu_o, beta_o = ista_solve(prob.U, prob.y, family, prob.slices,
                                  prob.multipliers, lam)
        q_fit = objective(prob, sol.mu, sol.beta_tilde)
        q_oracle = ista_objective(prob.U, prob.y, family, prob.slices,
                                  prob.multipliers, lam, mu_o, beta_o)
        assert abs(q_fit - q_oracle) <= 1e-6 * max(1.0, abs(q_oracle))
        pred_fit = sol.mu + prob.U @ sol.beta_tilde
        pred_o = mu_o + prob.U @ beta_o
        assert np.max(np.abs(pred_fit - pred_o)) < 1e-5

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_kkt_certificate(self, rng, family):
        for kind in ("partition", "overlap", "singleton"):
            problem, *_ = build_problem(rng, family=family, kind=kind, p=10)
            lam = 0.4 * lambda_max(problem)
            prob = replace(problem, lam=lam)
            sol = fit_at_lambda(prob)
            res = stationarity_residual(prob.U, prob.y, family, prob.slices,
                                        prob.multipliers, lam, sol.mu,
                                        sol.beta_tilde)
            assert res <= 1e-6

    def test_nonconvergence_carries_iterate(self, rng):
        problem, *_ = build_problem(rng)
        prob = replace(problem, lam=0.1 * lambda_max(problem))
        with pytest.raises(ConvergenceError) as err:
            fit_at_lambda(prob, max_iter=1)
        assert err.value.beta_tilde is not None
        assert np.isfinite(err.value.kkt_residual)

    def test_objective_never_increases(self, rng):
        from netcov.solver import _fresh_state, _sweep, _Workspace

        for family in ("gaussian", "binomial"):
            problem, *_ = build_problem(rng, family=family)
            prob = replace(problem, lam=0.2 * lambda_max(problem))
            ws = _Workspace(prob)
            mu = float(prob.y.mean()) if family == "gaussian" else 0.0
            beta = np.zeros(prob.U.shape[1])
            state = _fresh_state(prob, mu, beta)
            prev = objective(prob, mu, beta)
            for _ in range(60):
                mu, _ = _sweep(prob, ws, state, mu, beta, ws.all_groups)
                q = objective(prob, mu, beta)
                assert q <= prev + 1e-12
                prev = q

    def test_penalty_scale_invariance(self, rng):
        problem, *_ = build_problem(rng)
        lam = 0.3 * lambda_max(problem)
        c = 3.7
        scaled = replace(problem, multipliers=problem.multipliers * c,
                         lam=lam / c)
        sol_a = fit_at_lambda(replace(problem, lam=lam))
        sol_b = fit_at_lambda(scaled)
        active_a = [np.linalg.norm(sol_a.beta_tilde[s0:s1]) > 0
                    for s0, s1 in problem.slices]
        active_b = [np.linalg.norm(sol_b.beta_tilde[s0:s1]) > 0
                    for s0, s1 in problem.slices]
        assert active_a == active_b
        np.testing.assert_allclose(sol_a.beta_tilde, sol_b.beta_tilde,
                                   atol=1e-6)


class TestGradientCheck:
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_random_points(self, rng, family):
        problem, *_ = build_problem(rng, family=family)
        m = problem.U.shape[1]

        def fun(theta):
            eta = theta[0] + problem.U @ theta[1:]
            return deviance(family, problem.y, eta) / problem.N

        for _ in range(10):
            theta = 0.5 * rng.standard_normal(m + 1)
            gmu, grad = smooth_gradient(problem, theta[0], theta[1:])
            fd = fd_gradient(fun, theta)
            analytic = np.concatenate([[gmu], grad])
            denom = np.maximum(np.abs(fd), 1e-8)
            assert np.max(np.abs(analytic - fd) / denom) < 1e-5


class TestLassoEquivalence:
    def test_singleton_matches_oracle(self, rng):
        problem, *_ = build_problem(rng, p=8, kind="singleton")
        assert np.allclose(problem.multipliers, 1.0)
        lam = 0.3 * lambda_max(problem)
        prob = replace(problem, lam=lam)
        sol = fit_at_lambda(prob)
        mu_o, beta_o = ista_solve(prob.U, prob.y, "gaussian", prob.slices,
                                  prob.multipliers, lam)
        q_fit = objective(prob, sol.mu, sol.beta_tilde)
        q_o = ista_objective(prob.U, prob.y, "gaussian", prob.slices,
                             prob.multipliers, lam, mu_o, beta_o)
        assert abs(q_fit - q_o) <= 1e-6 * max(1.0, abs(q_o))


class TestPath:
    def test_grid_endpoints(self, rng):
        problem, *_ = build_problem(rng)
        lam = lambda_max(problem)
        grid = lambda_grid(lam, grid_size=100, min_ratio=0.05)
        assert grid[0] == pytest.approx(lam, rel=1e-12)
        assert grid[-1] == pytest.approx(0.05 * lam, rel=1e-12)
        assert np.all(np.diff(grid) < 0)

    def test_beta_zero_at_path_start(self, rng):
        problem, basis, emap, _ = build_problem(rng)
        pf = fit_path(problem, basis, emap, grid_size=20)
        assert np.all(pf.entries[0].beta == 0.0)
        assert pf.entries[0].active_groups == ()

    def test_entries_record_diagnostics(self, rng):
        problem, basis, emap, _ = build_problem(rng)
        pf = fit_path(problem, basis, emap, grid_size=15)
        for entry in pf.entries:
            assert entry.kkt_residual <= 1e-6 or entry.lam == 0
            assert entry.n_sweeps >= 1
            assert entry.deviance >= 0
            assert entry.beta.shape == (emap.p,)

    def test_folded_back_beta_matches_invariance(self, rng):
        problem, basis, emap, Zs = build_problem(rng, N=40, p=10,
                                                 kind="overlap")
        pf = fit_path(problem, basis, emap, grid_size=12)
        for entry in pf.entries:
            pred_u = entry.mu + problem.U @ entry.beta_tilde
            pred_z = entry.mu + Zs @ entry.beta
            assert np.max(np.abs(pred_u - pred_z)) < 1e-8

    def test_active_set_growth_tendency_reported(self, rng, capsys):
        # measured, not asserted: the active-set size mostly grows as
        # lambda decreases, but it is not a theorem
        fractions = []
        for seed in range(5):
            r = np.random.default_rng(seed)
            problem, basis, emap, _ = build_problem(r, N=60, p=14,
                                                    kind="partition")
            pf = fit_path(problem, basis, emap, grid_size=40)
            sizes = [len(e.active_groups) for e in pf.entries]
            pairs = list(zip(sizes, sizes[1:]))
            fractions.append(np.mean([b >= a for a, b in pairs]))
        print(f"monotone-tendency fraction: {np.mean(fractions):.3f}")

    def test_retry_is_announced(self):
        # with a 5-sweep budget the last point of this path needs the 10x
        # retry; the retry must warn and still certify the point
        problem, basis, emap, _ = build_problem(np.random.default_rng(0))
        with pytest.warns(RuntimeWarning) as record:
            pf = fit_path(problem, basis, emap, grid_size=3, max_iter=5)
        assert len(record) == 1
        message = str(record[0].message)
        assert message.startswith("lambda index 2: no convergence after "
                                  "5 sweeps")
        assert message.endswith("retrying with 50 sweeps")
        assert pf.entries[2].n_sweeps > 5
        assert all(e.kkt_residual <= 1e-6 for e in pf.entries)

    def test_increasing_grid_rejected(self, rng):
        problem, basis, emap, _ = build_problem(rng)
        with pytest.raises(ValueError, match="decreasing"):
            fit_path(problem, basis, emap, lambdas=np.array([0.1, 0.2]))
