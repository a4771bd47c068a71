import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import expit

from conftest import make_dataset
from netcov import CommunityMap, FeatureIndex, ebg_groups, make_beta
from netcov.groups import ExpansionMap, normalize_group_name
from netcov.pipeline import make_groups, prepare
from netcov.preprocess import orthonormalize, standardize
from netcov.solver import (ANDERSON_K, ETA_CLIP, ConvergenceError,
                           PenalizedProblem,
                           _fresh_state, _group_norms, _intercept_start,
                           deviance,
                           fit_at_lambda, fit_path, kkt_residual, lambda_grid,
                           lambda_max, objective, smooth_gradient)
from oracles import (fd_gradient, ista_objective, ista_solve, random_grouping,
                     stationarity_residual, sweep_groups)


def build_problem(rng, N=50, p=12, family="gaussian", kind="partition",
                  beta_scale=1.0, lam=0.1, signal_groups=1):
    """Random standardized + orthonormalized problem and its raw pieces."""
    Z = rng.standard_normal((N, p))
    groups = random_grouping(rng, p, kind)
    emap = ExpansionMap(expanded_to_original=np.concatenate(groups),
                        offsets=np.cumsum([0] + [g.size for g in groups]),
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
    U, basis, mult = orthonormalize(Zs, emap)
    names = tuple(str(i) for i in range(len(basis.kept)))
    problem = PenalizedProblem(U=U, y=y, family=family,
                               offsets=basis.offsets, multipliers=mult,
                               names=names, lam=lam)
    return problem, basis, emap, Zs


def bound_block(problem, state, mu, beta, order, **fields):
    """One solve's compiled point loop, filled in as fit_at_lambda fills it
    from this point, with the groups ``order`` active first; ``fields``
    set the struct's own, such as ``max_sweeps``, ``tol`` or ``kkt_tol``.
    The record starts as NaN, so a row that no sweep wrote shows."""
    from netcov.solver import _Block

    block = _Block(problem)
    block.start(problem, state, beta, mu, np.asarray(order, dtype=np.int64))
    block.arrays["record"][:] = np.nan
    for name, value in fields.items():
        setattr(block, name, value)
    return block


def run(block):
    """The compiled point on ``block``; whether it certified."""
    import netcov.solver as solver

    return bool(solver._load_kernel()(block))


def columns(problem, order):
    """The coordinates a record row holds after mu, group by group in
    ``order``."""
    return np.concatenate([np.arange(problem.offsets[g],
                                     problem.offsets[g + 1])
                           for g in order] or [np.empty(0, dtype=int)])


def window(block, problem, order):
    """The record rows and the state rows of the block's last window, its
    active set ``order``."""
    width = 1 + columns(problem, order).size
    rows = block.arrays["record"][:(ANDERSON_K + 1) * width]
    return (rows.reshape(ANDERSON_K + 1, width),
            block.arrays["states"].reshape(ANDERSON_K + 1, problem.N))


def tap_points(monkeypatch):
    """The compiled points fit_at_lambda runs from here on, as a list of
    the groups each one starts with and its block."""
    import netcov.solver as solver

    calls, kernel = [], solver._load_kernel()

    def tapped(block):
        calls.append((block.arrays["order"][:block.n_order].tolist(), block))
        return kernel(block)

    monkeypatch.setattr(solver, "_kernel_fn", tapped)
    return calls


def pairs(problem):
    """The problem's groups as the (start, stop) pairs the oracles take."""
    offsets = problem.offsets.tolist()
    return list(zip(offsets[:-1], offsets[1:]))


def struct_fields(source):
    """(name, kind) of each field of ``struct block`` in the C source, in
    order; the kind is ``pointer``, ``int64_t`` or ``double``."""
    body = re.search(r"^struct block \{(.*?)^\};", source, re.M | re.S)[1]
    fields = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        match = re.fullmatch(r"\s*(?:const\s+)?(\w+)\s*(\*?)\s*(\w+)\s*",
                             decl)
        assert match, f"unparsed field {decl!r}"
        ctype, star, name = match.groups()
        fields.append((name, "pointer" if star else ctype))
    return fields


def ctypes_fields(structure):
    """(name, kind) of each field of a ctypes structure, as
    :func:`struct_fields` names them."""
    import ctypes

    kinds = {ctypes.c_void_p: "pointer", ctypes.c_int64: "int64_t",
             ctypes.c_double: "double"}
    return [(name, kinds[ctype]) for name, ctype in structure._fields_]


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


class TestLambdaMax:
    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_hand_computed_single_group(self, rng, family):
        # orthonormal single group of mean-zero columns, N = 10, r = 4, w = 2
        N, r = 10, 4
        base = rng.standard_normal((N, r))
        base -= base.mean(0)
        U, _ = np.linalg.qr(base)
        if family == "gaussian":
            # ||U^T (y - ybar)|| = 3
            v = rng.standard_normal(r)
            v *= 3.0 / np.linalg.norm(v)
            y = U @ v
            y = y - y.mean() + 0.7
            expected = 3.0 / (N * 2.0)
        else:
            # the intercept-only fit has mean ybar, so the gradient is
            # 2 U^T (ybar - y) / N
            y = np.array([1.0, 1, 1, 0, 1, 0, 0, 1, 0, 0])
            expected = 2.0 * np.linalg.norm(U.T @ (y - y.mean())) / (N * 2.0)
        problem = PenalizedProblem(U=U, y=y, family=family,
                                   offsets=np.array([0, r]),
                                   multipliers=np.array([2.0]),
                                   names=("g",))
        assert lambda_max(problem) == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_orthogonal_response_errors(self, rng, family):
        # mean-zero orthonormal columns, all orthogonal to y - ybar: for the
        # gaussian family y is a constant plus a component orthogonal to the
        # columns and to 1, for the binomial family the columns are made
        # orthogonal to a fixed 0/1 response
        base = rng.standard_normal((10, 3))
        base -= base.mean(0)
        if family == "gaussian":
            U, _ = np.linalg.qr(base)
            w = rng.standard_normal(10)
            w -= w.mean()
            w -= U @ (U.T @ w)
            y = 0.5 + w
        else:
            y = np.array([0.0, 1, 1, 0, 1, 0, 0, 1, 1, 0])
            w = y - y.mean()
            base -= np.outer(w, w @ base) / (w @ w)
            U, _ = np.linalg.qr(base)
        problem = PenalizedProblem(U=U, y=y, family=family,
                                   offsets=np.array([0, 3]),
                                   multipliers=np.array([1.0]),
                                   names=("g",))
        with pytest.raises(ValueError, match="degenerates"):
            lambda_max(problem)

    def test_constant_binary_response_errors(self, rng):
        U, _ = np.linalg.qr(rng.standard_normal((8, 2)))
        problem = PenalizedProblem(U=U, y=np.ones(8), family="binomial",
                                   offsets=np.array([0, 2]),
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
        mu_o, beta_o = ista_solve(prob.U, prob.y, family, pairs(prob),
                                  prob.multipliers, lam)
        q_fit = objective(prob, sol.mu, sol.beta_tilde)
        q_oracle = ista_objective(prob.U, prob.y, family, pairs(prob),
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
            res = stationarity_residual(prob.U, prob.y, family, pairs(prob),
                                        prob.multipliers, lam, sol.mu,
                                        sol.beta_tilde)
            assert res <= 1e-6

    def test_nonconvergence_carries_iterate(self, rng, monkeypatch):
        import netcov.solver as solver

        problem, *_ = build_problem(rng)
        prob = replace(problem, lam=0.1 * lambda_max(problem))
        monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as err:
            fit_at_lambda(prob)
        assert err.value.beta_tilde is not None
        assert np.isfinite(err.value.kkt_residual)

    def test_objective_never_increases(self, rng):
        # 60 sweeps over every group in ten full windows, read off the rows
        # each window records: the point run to 6, 12, ..., 60 sweeps at
        # inner tolerance 0, so no window stops.  Between two windows sits
        # an Anderson step, kept only where it lowers the objective
        K1 = ANDERSON_K + 1
        for family in ("gaussian", "binomial"):
            problem, *_ = build_problem(rng, family=family)
            prob = replace(problem, lam=0.2 * lambda_max(problem))
            mu = float(prob.y.mean()) if family == "gaussian" else 0.0
            beta = np.zeros(prob.U.shape[1])
            state = _fresh_state(prob, mu, beta)
            order = range(prob.n_groups)
            prev = objective(prob, mu, beta)
            for n in range(1, 11):
                block = bound_block(prob, state.copy(), mu, beta.copy(),
                                    order, max_sweeps=n * K1, tol=0.0)
                run(block)
                assert block.sweeps == n * K1
                rows, _ = window(block, prob, order)
                for row in rows:
                    q = objective(prob, row[0], row[1:])
                    assert q <= prev + 1e-12
                    prev = q
                assert rows[-1].tolist() == [block.mu,
                                             *block.arrays["beta"].tolist()]

    def test_penalty_scale_invariance(self, rng):
        problem, *_ = build_problem(rng)
        lam = 0.3 * lambda_max(problem)
        c = 3.7
        scaled = replace(problem, multipliers=problem.multipliers * c,
                         lam=lam / c)
        sol_a = fit_at_lambda(replace(problem, lam=lam))
        sol_b = fit_at_lambda(scaled)
        active_a = [np.linalg.norm(sol_a.beta_tilde[s0:s1]) > 0
                    for s0, s1 in pairs(problem)]
        active_b = [np.linalg.norm(sol_b.beta_tilde[s0:s1]) > 0
                    for s0, s1 in pairs(problem)]
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
        mu_o, beta_o = ista_solve(prob.U, prob.y, "gaussian", pairs(prob),
                                  prob.multipliers, lam)
        q_fit = objective(prob, sol.mu, sol.beta_tilde)
        q_o = ista_objective(prob.U, prob.y, "gaussian", pairs(prob),
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

    def test_grid_needs_two_points(self):
        with pytest.raises(ValueError, match="grid_size must be at least 2"):
            lambda_grid(1.0, grid_size=1)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, np.nan])
    def test_grid_ratio_inside_unit_interval(self, ratio):
        with pytest.raises(ValueError, match=r"min_ratio must be in \(0, 1\)"):
            lambda_grid(1.0, min_ratio=ratio)

    def test_beta_zero_at_path_start(self, rng):
        problem, basis, emap, _ = build_problem(rng)
        pf = fit_path(problem, basis, emap,
                      lambdas=lambda_grid(lambda_max(problem), grid_size=20))
        assert np.all(pf.entries[0].beta == 0.0)
        assert pf.entries[0].active_groups == ()

    def test_entries_record_diagnostics(self, rng):
        problem, basis, emap, _ = build_problem(rng)
        pf = fit_path(problem, basis, emap,
                      lambdas=lambda_grid(lambda_max(problem), grid_size=15))
        for entry in pf.entries:
            assert entry.kkt_residual <= 1e-6 or entry.lam == 0
            assert entry.n_sweeps >= 1
            assert entry.deviance >= 0
            assert entry.beta.shape == (emap.p,)

    def test_folded_back_beta_matches_invariance(self, rng):
        problem, basis, emap, Zs = build_problem(rng, N=40, p=10,
                                                 kind="overlap")
        pf = fit_path(problem, basis, emap,
                      lambdas=lambda_grid(lambda_max(problem), grid_size=12))
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
            pf = fit_path(problem, basis, emap, lambdas=lambda_grid(
                lambda_max(problem), grid_size=40))
            sizes = [len(e.active_groups) for e in pf.entries]
            pairs = list(zip(sizes, sizes[1:]))
            fractions.append(np.mean([b >= a for a, b in pairs]))
        print(f"monotone-tendency fraction: {np.mean(fractions):.3f}")

    def test_sweep_cap_raises_without_warning(self, monkeypatch):
        # the last point of this 3-point path needs more than 5 sweeps:
        # under a cap of 5 it raises, carrying the capped sweep count, and
        # nothing is announced on the way
        import warnings

        import netcov.solver as solver

        problem, basis, emap, _ = build_problem(np.random.default_rng(0))
        monkeypatch.setattr(solver, "MAX_SWEEPS", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError) as err:
                fit_path(problem, basis, emap, lambdas=lambda_grid(
                    lambda_max(problem), grid_size=3))
        assert err.value.sweeps == 5

    def test_entry_counts_one_solve(self):
        # the entry counts the sweeps of one solve, none replayed.  Entry 0
        # (lambda_max) is empty, so no predicted start: the point
        # warm-starts from entry 1, handed its lambda and gradient for the
        # strong rule
        problem, basis, emap, _ = build_problem(np.random.default_rng(0))
        pf = fit_path(problem, basis, emap,
                      lambdas=lambda_grid(lambda_max(problem), grid_size=3))
        assert pf.entries[2].n_sweeps > 5
        assert all(e.kkt_residual <= 1e-6 for e in pf.entries)
        assert pf.entries[0].active_groups == ()
        warm = pf.entries[1]
        _, grad = smooth_gradient(problem, warm.mu, warm.beta_tilde)
        once = fit_at_lambda(replace(problem, lam=float(pf.lambdas[2])),
                             beta0=warm.beta_tilde, mu0=warm.mu,
                             lam0=warm.lam, grad0=grad)
        assert pf.entries[2].n_sweeps == once.n_sweeps

    def test_increasing_grid_rejected(self, rng):
        problem, basis, emap, _ = build_problem(rng)
        with pytest.raises(ValueError, match="decreasing"):
            fit_path(problem, basis, emap, lambdas=np.array([0.1, 0.2]))


def kernel_dot(u, r):
    """The kernel's dot in numpy: eight lane sums, each a left-to-right sum
    from 0.0 over every eighth product, its combine tree, then the tail."""
    n8 = u.size - u.size % 8
    prod = u * r

    def plain_sum(x):
        return np.cumsum(np.concatenate(([0.0], x)))[-1]

    a = [plain_sum(prod[lane:n8:8]) for lane in range(8)]
    return (((a[0] + a[1]) + (a[2] + a[3]))
            + ((a[4] + a[5]) + (a[6] + a[7]))) + plain_sum(prod[n8:])


def kernel_sweep(problem, state, mu, beta, order):
    """One sweep in numpy with the kernel's own order of every sum, one
    column at a time; returns (mu, the sweep's largest change)."""
    gaussian = problem.family == "gaussian"
    c, k = (1.0, 1.0) if gaussian else (2.0, 0.25)
    resid = state if gaussian else (problem.y - expit(state)) / k
    dmu = float(resid.mean())
    resid -= dmu
    if not gaussian:
        state += dmu
    max_delta = abs(dmu)
    thresh_scale = problem.N * problem.lam / (c * k)
    for g in order:
        s0, s1 = problem.offsets[g], problem.offsets[g + 1]
        t = thresh_scale * problem.multipliers[g]
        U, b = problem.U.T[s0:s1], beta[s0:s1]
        if s1 - s0 == 1:
            zs = kernel_dot(U[0], resid) + b[0]
            z = np.array([zs - t if zs > t else zs + t if zs < -t
                          else 0.0])
        else:
            z = np.array([kernel_dot(u, resid) for u in U]) + b
            nz2 = 0.0
            for zk in z:
                nz2 += zk * zk
            nz = np.sqrt(nz2)
            if nz <= t and not b.any():
                continue
            z = np.zeros_like(z) if nz <= t else (1.0 - t / nz) * z
        step = float(np.abs(z - b).max())
        if not step > 0.0:
            continue
        shift = (z[0] - b[0]) * U[0]
        for zk, bk, u in zip(z[1:], b[1:], U[1:]):
            shift = shift + (zk - bk) * u
        resid -= shift
        if not gaussian:
            state += shift
        max_delta = max(max_delta, step)
        b[:] = z
    return mu + dmu, max_delta


def kernel_anderson(rows, states):
    """The kernel's Anderson step on a window's K + 1 rows and states, in
    Python floats with the kernel's order of every operation: the Gram of
    the row differences by kernel_dot, LU with partial pivoting, and the
    trial as the last row less the differences weighted by the running
    sums of the weights.  Returns the trial row and state, or None where
    the kernel finds no weights."""
    K = len(rows) - 1
    D = rows[1:] - rows[:-1]
    G = [[kernel_dot(D[a], D[b]) for b in range(K)] for a in range(K)]
    z = [1.0] * K
    for c in range(K):
        p = c
        for r in range(c + 1, K):
            if abs(G[r][c]) > abs(G[p][c]):
                p = r
        if G[p][c] == 0.0:
            return None
        G[c], G[p], z[c], z[p] = G[p], G[c], z[p], z[c]
        for r in range(c + 1, K):
            f = G[r][c] / G[c][c]
            for k in range(c + 1, K):
                G[r][k] -= f * G[c][k]
            z[r] -= f * z[c]
    for c in reversed(range(K)):
        acc = z[c]
        for k in range(c + 1, K):
            acc -= G[c][k] * z[k]
        z[c] = acc / G[c][c]
    total = 0.0
    for v in z:
        total += v
    if not np.isfinite(total) or total == 0.0:
        return None
    W, running = [], 0.0
    for v in z:
        W.append(running)
        running += v / total

    def extrapolate(x):
        out = np.zeros_like(x[K])
        for c in range(1, K):
            out = out + W[c] * (x[c + 1] - x[c])
        return x[K] - out

    return extrapolate(rows), extrapolate(states)


def kernel_objective(problem, state, row):
    """The objective as the kernel prices an Anderson step, in Python
    floats with its order of every sum: the deviance from a state, the
    penalty from a record row over every group."""
    if problem.family == "gaussian":
        dev = 0.5 * kernel_dot(state, state)
    else:
        terms = []
        for y, e in zip(problem.y.tolist(), state.tolist()):
            e = min(max(e, -ETA_CLIP), ETA_CLIP)
            soft = (0.693147180559945309417232121458176568 if e == 0.0
                    else math.log1p(math.exp(e)) if e < 0.0
                    else e + math.log1p(math.exp(-e)))
            terms.append(y * e - soft)
        dev = -2.0 * float(np.sum(terms))
    pen = 0.0
    for w, s0, s1 in zip(problem.multipliers, problem.offsets[:-1],
                         problem.offsets[1:]):
        nb2 = 0.0
        for v in row[1 + s0:1 + s1]:
            nb2 += v * v
        pen += w * math.sqrt(nb2)
    return dev / problem.N + problem.lam * pen


def scheme_problem(scheme, family, seed=3, N=60):
    """Small real NBG / EBG / LASSO problem with one signal group."""
    rng = np.random.default_rng(seed)
    communities = [1, 1, 2, 2, 3, 3, 4, 4]
    cm = CommunityMap(assignments=communities)
    idx = FeatureIndex(n=cm.n, d=1)
    truth = make_beta(ebg_groups(cm, idx), ("(1,1)",), 0.6)
    ds = make_dataset(rng, communities, d=1, N=N, family=family,
                      beta=truth.beta)
    spec, _ = make_groups(ds, scheme)
    return prepare(ds, spec)


class TestAcceleration:
    """Anderson steps and the path predictor change the route, never the
    certified answer."""

    @staticmethod
    def window_ends(prob, n_windows=12, beta=None):
        """A point over every group from ``beta`` (default: a cold start)
        and the intercept-only mu, at inner tolerance 0, so that each
        window runs its K + 1 sweeps.  At each window end: the rows and
        states of the point run to it, and the first row and state of the
        point run one sweep further, with whether the Anderson step
        between them was kept."""
        K1 = ANDERSON_K + 1
        order = range(prob.n_groups)
        mu = _intercept_start(prob)
        if beta is None:
            beta = np.zeros(prob.U.shape[1])
        state = _fresh_state(prob, mu, beta)

        def point(n):
            block = bound_block(prob, state.copy(), mu, beta.copy(), order,
                                max_sweeps=n, tol=0.0)
            run(block)
            assert block.sweeps == n
            return block

        ends = []
        for j in range(1, n_windows + 1):
            at, after = point(j * K1), point(j * K1 + 1)
            assert (at.tried, after.tried) == (j - 1, j)
            rows, states = window(at, prob, order)
            first, first_state = (x[0] for x in window(after, prob, order))
            ends.append(dict(rows=rows.copy(), states=states.copy(),
                             kept=after.accepted - at.accepted,
                             next_row=first.copy(),
                             next_state=first_state.copy()))
        return ends

    @staticmethod
    def sweeps_on(prob, row, state, end):
        """Whether the point run one sweep past a window end started that
        sweep from ``row`` and ``state``, to the bit."""
        beta, state = row[1:].copy(), state.copy()
        mu, _ = kernel_sweep(prob, state, row[0], beta, range(prob.n_groups))
        return (end["next_row"].tolist() == [mu, *beta.tolist()]
                and end["next_state"].tobytes() == state.tobytes())

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_objective_never_increases_across_iterates(self, rng, family,
                                                       monkeypatch):
        # the objective after every sweep of a cold solve, each read from
        # the solve capped at that sweep: between two sits one sweep and
        # any Anderson step or screening pass before it
        import netcov.solver as solver

        problem, *_ = build_problem(rng, N=80, p=24, family=family)
        prob = replace(problem, lam=0.05 * lambda_max(problem))
        sol = fit_at_lambda(prob)
        assert sol.n_extrapolated > 0
        values = [objective(prob, _intercept_start(prob),
                            np.zeros(prob.U.shape[1]))]
        for n in range(1, sol.n_sweeps + 1):
            monkeypatch.setattr(solver, "MAX_SWEEPS", n)
            try:
                capped = fit_at_lambda(prob)
            except ConvergenceError as err:
                capped = err
            values.append(objective(prob, capped.mu, capped.beta_tilde))
        assert capped.beta_tilde.tobytes() == sol.beta_tilde.tobytes()
        for prev, q in zip(values, values[1:]):
            assert q <= prev + 1e-12 * max(1.0, abs(prev))
        # every accepted step alone: the next sweep starts from
        # kernel_anderson's trial, a strict drop as the guard prices it and
        # no rise in the objective
        kept = 0
        for end in self.window_ends(prob):
            if end["kept"]:
                kept += 1
                row, state = kernel_anderson(end["rows"], end["states"])
                assert self.sweeps_on(prob, row, state, end)
                last = end["rows"][-1]
                assert (kernel_objective(prob, state, row)
                        < kernel_objective(prob, end["states"][-1], last))
                q = objective(prob, last[0], last[1:])
                assert (objective(prob, row[0], row[1:])
                        <= q + 1e-12 * max(1.0, abs(q)))
        assert kept > 0

    @pytest.mark.parametrize("scheme,family", [
        ("nbg", "gaussian"), ("ebg", "gaussian"), ("lasso", "gaussian"),
        ("nbg", "binomial")])
    def test_path_entries_match_oracle(self, scheme, family, monkeypatch):
        # every entry of a path that uses the predictor, against the
        # independent ISTA solution
        import netcov.solver as solver

        solve = solver.fit_at_lambda
        anderson, starts = [], []

        def counted(problem, beta0=None, mu0=None, **kwargs):
            starts.append((problem, mu0, beta0))
            sol = solve(problem, beta0=beta0, mu0=mu0, **kwargs)
            anderson.append(sol.n_extrapolated)
            return sol

        monkeypatch.setattr(solver, "fit_at_lambda", counted)
        prep = scheme_problem(scheme, family)
        prob = prep.problem
        pf = fit_path(prob, prep.basis, prep.emap, lambdas=lambda_grid(
            lambda_max(prob), grid_size=10, min_ratio=0.3))
        predicted = sum(e.n_extrapolated - a
                        for e, a in zip(pf.entries, anderson))
        assert predicted > 0
        # a predicted start is taken only when it beats the plain one
        for last, (at, mu0, beta0) in zip(pf.entries, starts[1:]):
            if not np.array_equal(beta0, last.beta_tilde):
                assert (objective(at, mu0, beta0)
                        < objective(at, last.mu, last.beta_tilde))
        for entry in pf.entries:
            mu_o, beta_o = ista_solve(prob.U, prob.y, family, pairs(prob),
                                      prob.multipliers, entry.lam)
            q_fit = objective(replace(prob, lam=entry.lam), entry.mu,
                              entry.beta_tilde)
            q_o = ista_objective(prob.U, prob.y, family, pairs(prob),
                                 prob.multipliers, entry.lam, mu_o, beta_o)
            assert abs(q_fit - q_o) <= 1e-6 * max(1.0, abs(q_o))
            pred = entry.mu + prob.U @ entry.beta_tilde
            pred_o = mu_o + prob.U @ beta_o
            assert np.max(np.abs(pred - pred_o)) < 1e-5

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_worse_extrapolation_is_rejected(self, rng, family):
        # a step that is refused leaves mu, beta and the state as they
        # were: the next sweep starts from the window's last row and state,
        # to the bit.  From a start far from the solution, some steps find
        # no weights and some are refused by the guard, their trial
        # (kernel_anderson's) no lower than the window's last row as the
        # guard prices both
        problem, *_ = build_problem(rng, family=family)
        prob = replace(problem, lam=0.05 * lambda_max(problem))
        far = 50.0 * rng.standard_normal(prob.U.shape[1])
        guarded = 0
        for end in self.window_ends(prob, n_windows=20, beta=far):
            if end["kept"]:
                continue
            rows, states = end["rows"], end["states"]
            assert self.sweeps_on(prob, rows[-1], states[-1], end)
            trial = kernel_anderson(rows, states)
            if trial is not None:
                guarded += 1
                row, state = trial
                assert not (kernel_objective(prob, state, row)
                            < kernel_objective(prob, states[-1], rows[-1]))
        assert guarded > 0

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_zero_groups_are_exact_zeros(self, family):
        # a cold solve with accepted Anderson steps: its zero groups are
        # exactly 0.0, and they are the groups the ISTA oracle zeroes
        prep = scheme_problem("ebg", family)
        prob = replace(prep.problem, lam=0.2 * lambda_max(prep.problem))
        sol = fit_at_lambda(prob)
        assert sol.n_extrapolated > 0
        _, beta_o = ista_solve(prob.U, prob.y, family, pairs(prob),
                               prob.multipliers, prob.lam)
        zero = [not sol.beta_tilde[s0:s1].any() for s0, s1 in pairs(prob)]
        zero_o = [not beta_o[s0:s1].any() for s0, s1 in pairs(prob)]
        assert zero == zero_o
        assert any(zero) and not all(zero)
        for (s0, s1), z in zip(pairs(prob), zero):
            if z:
                assert np.all(sol.beta_tilde[s0:s1] == 0.0)

    def test_reruns_are_bit_identical(self):
        # the LASSO path leans on the strong rule, the NBG one on the
        # extrapolations; every field of every entry repeats, to the byte
        for scheme, family in (("nbg", "binomial"), ("lasso", "gaussian")):
            prep = scheme_problem(scheme, family)
            lambdas = lambda_grid(lambda_max(prep.problem), grid_size=30)
            runs = [fit_path(prep.problem, prep.basis, prep.emap,
                             lambdas=lambdas) for _ in range(2)]
            for a, b in zip(*(pf.entries for pf in runs)):
                assert (a.mu, a.active_groups, a.deviance, a.n_sweeps,
                        a.kkt_residual, a.n_extrapolated) == (
                    b.mu, b.active_groups, b.deviance, b.n_sweeps,
                    b.kkt_residual, b.n_extrapolated)
                assert a.beta_tilde.tobytes() == b.beta_tilde.tobytes()
                assert a.beta.tobytes() == b.beta.tobytes()

    @pytest.mark.parametrize("family,measured", [("gaussian", 401),
                                                 ("binomial", 965)])
    def test_path_sweep_count_guard(self, family, measured):
        # total sweeps of the default 100-point path; without the Anderson
        # steps and the predictor this path took 508 (gaussian) and 2,837
        # (binomial) sweeps.  10% headroom over the measured count
        problem, basis, emap, _ = build_problem(np.random.default_rng(0),
                                                family=family)
        pf = fit_path(problem, basis, emap,
                      lambdas=lambda_grid(lambda_max(problem)))
        total = sum(e.n_sweeps for e in pf.entries)
        assert total <= 1.1 * measured
        assert sum(e.n_extrapolated for e in pf.entries) > 0


class TestSweepKernel:
    """The compiled sweeps against the interpreted reference loop in
    ``oracles.sweep_groups`` and, bit for bit, against ``kernel_sweep``
    (the kernel's own order of every sum, in numpy), and how the kernel
    is built and cached."""

    LAYOUTS = {
        "singleton": [1] * 9,
        "block": [3, 2, 4, 2],
        "mixed": [1, 3, 1, 1, 4, 2, 1],
    }

    @staticmethod
    def problem(rng, widths, family, N=37):
        # N not a multiple of the kernel's 8 partial sums, so the tail runs
        m = sum(widths)
        U = rng.standard_normal((N, m)) / np.sqrt(N)
        y = (rng.standard_normal(N) if family == "gaussian"
             else (rng.random(N) < 0.5).astype(float))
        return PenalizedProblem(
            U=U, y=y, family=family, offsets=np.cumsum([0] + widths),
            multipliers=np.sqrt(np.asarray(widths, dtype=float)),
            names=tuple(map(str, range(len(widths)))))

    @staticmethod
    def reference_sweep(problem, state, mu, beta, order):
        # the kernel's intercept step, then the interpreted group pass
        starts, ends = problem.offsets[:-1], problem.offsets[1:]
        N, lam = problem.N, problem.lam
        if problem.family == "gaussian":
            resid, eta, scale = state, None, N * lam
        else:
            eta = state
            resid = 4.0 * (problem.y - expit(eta))
            scale = 2.0 * N * lam
        dmu = float(resid.mean())
        resid -= dmu
        if eta is not None:
            eta += dmu
        delta = sweep_groups(problem.U.T, resid, eta, eta is not None, beta,
                             starts, ends, problem.multipliers, scale, order)
        return mu + dmu, max(abs(dmu), delta)

    @staticmethod
    def close(a, b):
        return np.max(np.abs(a - b), initial=0.0) <= 1e-12 * max(
            1.0, np.max(np.abs(b), initial=0.0))

    @staticmethod
    def start(rng, problem):
        # a random point with some zero coefficients and a lambda at which
        # some groups move and some are shrunk
        m = problem.U.shape[1]
        beta = rng.standard_normal(m) * (rng.random(m) < 0.6)
        mu = float(rng.standard_normal())
        state = _fresh_state(problem, mu, beta)
        scale = (problem.N if problem.family == "gaussian"
                 else 2 * problem.N)
        z = np.abs(problem.U.T @ state).max() + np.abs(beta).max()
        prob = replace(problem, lam=rng.uniform(0.05, 1.0) * z / scale)
        return prob, mu, beta, state

    @staticmethod
    def one_sweep_stops(problem, state, mu, beta, order, tol):
        # whether one sweep from copies of this point stops its window at
        # tol: a sweep that stops one records no row
        block = bound_block(problem, state.copy(), mu, beta.copy(), order,
                            max_sweeps=1, tol=tol)
        run(block)
        return bool(np.isnan(block.arrays["record"][0]))

    @staticmethod
    def one_sweep(problem, state, mu, beta, order):
        # one sweep on this point, in place; returns its block and the
        # state the sweep left, which the cap's certificate pass refreshes
        block = bound_block(problem, state, mu, beta, order, max_sweeps=1,
                            tol=0.0)
        run(block)
        assert block.sweeps == 1
        return block, window(block, problem, order)[1][0]

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("N", [37, 64])
    def test_sweeps_equal_the_kernel_arithmetic(self, rng, N, family):
        # points capped at 1 to K+1 sweeps over every width from a
        # singleton to three four-column blocks plus one, at an N with a
        # dot tail and one without: the blocked kernel must give exactly
        # the bits of one column at a time, in the iterate and every row
        # and state it records
        for trial in range(4):
            widths = rng.permutation([1, 2, 4, 5, 7, 8, 9, 13]).tolist()
            prob, mu, beta, state = self.start(
                rng, self.problem(rng, widths, family, N=N))
            order = rng.permutation(prob.n_groups).astype(np.int64)
            cols = columns(prob, order)
            for n_max in range(1, ANDERSON_K + 2):
                b = beta.copy()
                block = bound_block(prob, state.copy(), mu, b, order,
                                    max_sweeps=n_max, tol=0.0)
                run(block)
                assert block.sweeps == n_max and block.tried == 0
                mu_ref, b_ref, s_ref = mu, beta.copy(), state.copy()
                rows, states = window(block, prob, order)
                for row, s_row in zip(rows[:n_max], states):
                    mu_ref, _ = kernel_sweep(prob, s_ref, mu_ref, b_ref,
                                             order)
                    assert row[0] == mu_ref
                    assert row[1:].tobytes() == b_ref[cols].tobytes()
                    assert s_row.tobytes() == s_ref.tobytes()
                assert block.mu == mu_ref
                assert b.tobytes() == b_ref.tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_block_stops_after_the_first_small_change(self, rng, family):
        # with tol just above one sweep's change, and at it, the window
        # stops after the first sweep whose change is below tol: the
        # kernel's changes are the reference's to the bit.  Any KKT
        # residual certifies, so the point returns at the first stop; with
        # none, the window's K+1 sweeps and one more run to the cap
        K1 = ANDERSON_K + 1
        for trial in range(6):
            prob, mu, beta, state = self.start(
                rng, self.problem(rng, self.LAYOUTS["mixed"], family))
            order = rng.permutation(prob.n_groups).astype(np.int64)
            mus, deltas = [], []
            mu_ref, b_ref, s_ref = mu, beta.copy(), state.copy()
            for _ in range(K1):
                mu_ref, d = kernel_sweep(prob, s_ref, mu_ref, b_ref, order)
                mus.append(mu_ref)
                deltas.append(d)
            j = int(rng.integers(K1))
            for tol in (np.nextafter(deltas[j], np.inf), deltas[j]):
                stop = next((i for i, d in enumerate(deltas) if d < tol), None)
                block = bound_block(prob, state.copy(), mu, beta.copy(), order,
                                    max_sweeps=K1 + 1, tol=tol,
                                    kkt_tol=np.inf)
                assert run(block) and block.passes == 1
                if stop is None:
                    assert block.sweeps == K1 + 1
                else:
                    assert block.sweeps == stop + 1
                    assert block.mu == mus[stop]

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("layout", ["singleton", "block", "mixed"])
    def test_one_sweep_matches_reference(self, rng, layout, family):
        for trial in range(5):
            prob, mu, beta, state = self.start(
                rng, self.problem(rng, self.LAYOUTS[layout], family))
            order = rng.permutation(prob.n_groups)[
                :rng.integers(1, prob.n_groups + 1)].astype(np.int64)
            b_ref, s_ref = beta.copy(), state.copy()
            mu_ref, d_ref = self.reference_sweep(prob, s_ref, mu, b_ref,
                                                 order)
            # the change within 1e-12 of the reference's: a window stops
            # just above that band and not below it
            slack = 1e-12 * max(1.0, d_ref)
            assert self.one_sweep_stops(prob, state, mu, beta, order,
                                        np.nextafter(d_ref + slack, np.inf))
            assert not self.one_sweep_stops(prob, state, mu, beta, order,
                                            d_ref - slack)
            block, swept = self.one_sweep(prob, state, mu, beta, order)
            assert self.close(beta, b_ref) and self.close(swept, s_ref)
            assert abs(block.mu - mu_ref) <= 1e-12 * max(1.0, abs(mu_ref))
            # a coordinate the reference leaves at zero the kernel does too
            np.testing.assert_array_equal(beta == 0.0, b_ref == 0.0)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_empty_order_moves_only_the_intercept(self, rng, family):
        problem = replace(self.problem(rng, self.LAYOUTS["mixed"], family),
                          lam=0.01)
        beta = rng.standard_normal(problem.U.shape[1])
        state = _fresh_state(problem, 0.3, beta)
        b_ref, s_ref = beta.copy(), state.copy()
        order = np.empty(0, dtype=np.int64)
        mu_ref, d_ref = self.reference_sweep(problem, s_ref, 0.3, b_ref,
                                             order)
        # the change is |dmu| to the bit
        assert self.one_sweep_stops(problem, state, 0.3, beta, order,
                                    np.nextafter(d_ref, np.inf))
        assert not self.one_sweep_stops(problem, state, 0.3, beta, order,
                                        d_ref)
        block, swept = self.one_sweep(problem, state, 0.3, beta, order)
        assert block.mu == mu_ref
        np.testing.assert_array_equal(beta, b_ref)
        np.testing.assert_array_equal(swept, s_ref)

    def test_intercept_step_is_numpy_mean(self, rng):
        # numpy's pairwise sum: a plain sum below 8 elements, eight partial
        # sums up to 128, halves of a multiple of 8 above (785, 900 and
        # 1,000 split unevenly and down to each branch)
        for N in [*range(1, 301), 785, 900, 1000]:
            problem = PenalizedProblem(
                U=np.zeros((N, 1)), y=np.zeros(N), family="gaussian",
                offsets=[0, 1], multipliers=[1.0], names=("g",), lam=1.0)
            state = (rng.standard_normal(N) * 10.0 ** rng.integers(-3, 4)
                     + rng.standard_normal())
            mean = float(np.mean(state))
            moved = state - mean
            block, swept = self.one_sweep(problem, state, 0.0, np.zeros(1),
                                          [])
            assert block.mu == mean, N
            assert swept.tobytes() == moved.tobytes(), N

    def test_binomial_step_residual_is_expit(self, rng):
        # the step residual (y - expit(eta)) / 0.25, the logistic bound,
        # including where exp(-eta) overflows or underflows
        N = 1000
        eta = np.concatenate([8.0 * rng.standard_normal(N - 7),
                              [-800.0, -40.0, -1e-300, 0.0, 1e-300, 40.0,
                               800.0]])
        y = (rng.random(N) < 0.5).astype(float)
        problem = PenalizedProblem(
            U=np.zeros((N, 1)), y=y, family="binomial", offsets=[0, 1],
            multipliers=[1.0], names=("g",), lam=1.0)
        r = (y - expit(eta)) / 0.25
        mean = float(r.mean())
        block, swept = self.one_sweep(problem, eta.copy(), 0.0, np.zeros(1),
                                      [])
        # the binomial step-residual buffer, which the certificate pass
        # leaves alone
        assert block.arrays["resid"].tobytes() == (r - mean).tobytes()
        assert block.mu == mean
        assert swept.tobytes() == (eta + mean).tobytes()

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("width", [1, 3])
    def test_shrunk_group_is_exact_zero(self, rng, family, width):
        problem = self.problem(rng, [2, width, 2], family)
        beta = rng.standard_normal(problem.U.shape[1])
        # targets of both signs, so a zero formed as 0 * z would show -0.0
        beta[2:2 + width] = 5.0 * np.resize([-1.0, 1.0], width)
        state = _fresh_state(problem, 0.0, beta)
        # the middle group's threshold beats any target it can reach
        prob = replace(problem, lam=1.0,
                       multipliers=np.array([1e-9, 1e9, 1e-9]))
        self.one_sweep(prob, state, 0.0, beta, range(3))
        shrunk = beta[2:2 + width]
        assert np.all(shrunk == 0.0) and not np.any(np.signbit(shrunk))
        assert np.all(beta[:2] != 0.0) and np.all(beta[2 + width:] != 0.0)

    def test_target_on_the_threshold_is_exact_zero(self):
        # unit-vector columns make every product exact: the target
        # z = U_G^T r + b_G = (0.75, 1.0) has norm 1.25, exactly the
        # threshold N * lam * w_G, so the group leaves as +0.0
        problem = PenalizedProblem(
            U=np.eye(4)[:, :2], y=np.zeros(4), family="gaussian",
            offsets=np.array([0, 2]), multipliers=np.array([1.25]),
            names=("g",),
            lam=0.25)
        beta = np.array([0.25, 0.5])
        state = np.array([0.5, 0.5, -0.5, -0.5])  # mean 0: mu stays put
        order = np.zeros(1, dtype=np.int64)
        # the change is 0.5, the largest coefficient's
        assert self.one_sweep_stops(problem, state, 0.0, beta, order,
                                    np.nextafter(0.5, 1.0))
        assert not self.one_sweep_stops(problem, state, 0.0, beta, order, 0.5)
        block, swept = self.one_sweep(problem, state, 0.0, beta, order)
        assert np.all(beta == 0.0) and not np.any(np.signbit(beta))
        assert block.mu == 0.0
        np.testing.assert_array_equal(swept, [0.75, 1.0, -0.5, -0.5])

    @pytest.mark.parametrize("which", ["order", "coords"])
    def test_block_indices_must_be_contiguous_int64(self, rng, which):
        # the kernel reads both as raw int64 memory: the order each solve
        # starts from, and the offsets it derives each record row's
        # coordinates from.  An int32 or a strided one is copied into a
        # contiguous int64 buffer, and sweeps and records the same bits as
        # the same indices given as contiguous int64
        widths = [1, 2, 3]
        problem = replace(self.problem(rng, widths, "gaussian"), lam=0.1)
        beta = rng.standard_normal(6)
        state = _fresh_state(problem, 0.0, beta)
        order = np.array([2, 0], dtype=np.int64)
        offsets = np.cumsum([0] + widths).astype(np.int64)
        swept = []
        for bad in (None, np.int32, "strided"):
            indices = {"order": order, "coords": offsets}
            if bad is np.int32:
                indices[which] = indices[which].astype(np.int32)
            elif bad == "strided":
                indices[which] = np.repeat(indices[which], 2)[::2]
            given = indices[which]
            assert (bad is None) == (given.dtype == np.int64
                                     and given.flags.c_contiguous)
            prob = replace(problem, offsets=indices["coords"])
            b = beta.copy()
            block, s = self.one_sweep(prob, state.copy(), 0.0, b,
                                      indices["order"])
            for name in ("order", "offsets"):
                arr = block.arrays[name]
                assert arr.dtype == np.int64 and arr.flags.c_contiguous
                assert getattr(block, name) == arr.ctypes.data
            row = window(block, prob, order)[0][0]
            swept.append((block.mu, b.tobytes(), s.tobytes(), row.tobytes()))
        assert swept[1] == swept[0] and swept[2] == swept[0]

    def test_cap_inside_a_window_raises_at_the_cap(self, monkeypatch):
        # a cap of 7 sweeps, not a multiple of the K+1 window: the fit
        # raises at exactly 7, and the point capped there runs one full
        # window, one Anderson step, and one sweep of the next window, which
        # rewrites only that window's first row
        import netcov.solver as solver

        problem, *_ = build_problem(np.random.default_rng(0), N=80, p=24)
        prob = replace(problem, lam=0.05 * lambda_max(problem))
        # every group active from the start, so the first window is full
        start = dict(beta0=np.full(prob.U.shape[1], 0.1), mu0=0.0)
        assert fit_at_lambda(prob, **start).n_sweeps > 7
        monkeypatch.setattr(solver, "MAX_SWEEPS", 7)
        with pytest.raises(ConvergenceError) as err:
            fit_at_lambda(prob, **start)
        assert err.value.sweeps == 7
        monkeypatch.undo()
        beta = start["beta0"]
        state = _fresh_state(prob, 0.0, beta)
        order = range(prob.n_groups)
        full, capped = (bound_block(prob, state.copy(), 0.0, beta.copy(),
                                    order, max_sweeps=n)
                        for n in (ANDERSON_K + 1, 7))
        assert not run(full) and not run(capped)
        assert (full.sweeps, full.tried) == (ANDERSON_K + 1, 0)
        assert (capped.sweeps, capped.tried) == (7, 1)
        rows_full, rows_capped = (window(b, prob, order)[0]
                                  for b in (full, capped))
        assert rows_capped[1:].tobytes() == rows_full[1:].tobytes()
        assert rows_capped[0].tobytes() != rows_full[0].tobytes()
        assert rows_capped[0].tolist() == [capped.mu,
                                           *capped.arrays["beta"].tolist()]

    def test_block_struct_matches_ctypes(self):
        # a ctypes call whose structure or argtypes disagree with the C
        # source is undefined behaviour, not an error: compare the name,
        # order and kind of every field of struct block with _Block, then
        # count and kind of every parameter and the return type.  The
        # source defines one function that is not static, the entry
        # _load_kernel loads
        import ctypes

        import netcov.solver as solver

        source = Path(solver._SOURCE).read_text()
        assert struct_fields(source) == ctypes_fields(solver._Block)
        assert ctypes.sizeof(solver._Block) == 8 * len(solver._Block._fields_)
        defined = re.findall(r"^(static\s+)?(\w+)\s+(\w+)\(([^)]*)\)\s*\{",
                             source, re.M)
        assert len(defined) > 1
        exported = [d[1:] for d in defined if not d[0]]
        assert len(exported) == 1
        restype, name, params = exported[0]

        def kind(decl):
            if "*" in decl:
                return (ctypes.POINTER(solver._Block)
                        if decl.split()[:2] == ["struct", "block"]
                        else ctypes.c_void_p)
            ctype = decl.split()[-2]
            return {"int64_t": ctypes.c_int64, "double": ctypes.c_double}[ctype]

        fn = solver._load_kernel()
        assert fn.__name__ == name
        assert [kind(p) for p in params.split(",")] == list(fn.argtypes)
        assert kind(f"{restype} result") == fn.restype

    def test_the_layout_check_sees_a_mismatch(self):
        # the parser reads the real struct as _Block's fields and each
        # doctored copy as a mismatch: two fields of one kind swapped, mu
        # retyped to int64_t and one field dropped
        import netcov.solver as solver

        source = Path(solver._SOURCE).read_text()
        fields = ctypes_fields(solver._Block)
        assert struct_fields(source) == fields
        for old, new in (("double *eta;\n    double *beta;",
                          "double *beta;\n    double *eta;"),
                         ("double mu;", "int64_t mu;"),
                         ("int64_t n_order;\n", "")):
            assert source.count(old) == 1
            assert struct_fields(source.replace(old, new)) != fields

    def test_missing_compiler_is_named(self, tmp_path, monkeypatch):
        import netcov.solver as solver

        monkeypatch.setattr(solver, "_kernel_fn", None)
        monkeypatch.setattr(solver, "_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(solver, "_CC", str(tmp_path / "no-such-cc"))
        with pytest.raises(RuntimeError, match="no-such-cc"):
            solver._load_kernel()

    def test_failing_compiler_shows_its_output(self, tmp_path, monkeypatch):
        import netcov.solver as solver

        monkeypatch.setattr(solver, "_kernel_fn", None)
        monkeypatch.setattr(solver, "_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(solver, "_CFLAGS",
                            solver._CFLAGS + ("-fno-such-flag",))
        with pytest.raises(RuntimeError, match="(?s)gcc.*no-such-flag"):
            solver._load_kernel()
        assert os.listdir(tmp_path / "cache") == []

    def test_host_cpu_tells_arm64_cpus_apart(self, tmp_path, monkeypatch):
        # an arm64 cpuinfo lists no model name or flags; its CPU part and
        # Features key the cache instead, and a cpuinfo with neither, or
        # none at all, falls back to the machine type
        import netcov.solver as solver

        cpu = ("processor\t: {n}\nBogoMIPS\t: 50.00\nFeatures\t: {features}\n"
               "CPU implementer\t: 0x41\nCPU architecture: 8\n"
               "CPU variant\t: 0x1\nCPU part\t: 0xd0c\nCPU revision\t: 1\n\n")
        base = "fp asimd evtstrm aes pmull sha1 sha2 crc32 atomics"
        keys = []
        for i, text in enumerate((
                "".join(cpu.format(n=n, features=base) for n in range(2)),
                "".join(cpu.format(n=n, features=base + " sve")
                        for n in range(2)),
                "processor\t: 0\n\n")):
            path = tmp_path / f"cpuinfo{i}"
            path.write_text(text)
            monkeypatch.setattr(solver, "_CPUINFO", str(path))
            keys.append(solver._host_cpu())
        monkeypatch.setattr(solver, "_CPUINFO", str(tmp_path / "missing"))
        keys.append(solver._host_cpu())
        assert all(key.strip() for key in keys)
        assert keys[0] != keys[1]
        assert keys[2] == keys[3]

    def test_concurrent_cold_builds_load_one_library(self, tmp_path):
        # two processes build into one empty cache at once; both must
        # succeed, agree, and leave exactly one library behind
        cache = tmp_path / "cache"
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from netcov import solver\n"
            "solver._CACHE_DIR = sys.argv[1]\n"
            "p = solver.PenalizedProblem(\n"
            "    U=np.eye(12)[:, :4], y=np.arange(12.0), family='gaussian',\n"
            "    offsets=np.array([0, 1, 4]), multipliers=np.ones(2),\n"
            "    names=('a', 'b'), lam=0.01)\n"
            "sol = solver.fit_at_lambda(p)\n"
            "maps = [line.split(None, 5)[-1].replace(' (deleted)', '').strip()\n"
            "        for line in open('/proc/self/maps') if 'sweep_kernel' in line]\n"
            "print(sorted(set(maps)), repr(sol.mu), sol.beta_tilde.tolist())\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        procs = [subprocess.Popen([sys.executable, "-c", script, str(cache)],
                                  env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True)
                 for _ in range(2)]
        outputs = [proc.communicate(timeout=120) for proc in procs]
        for proc, (_, err) in zip(procs, outputs):
            assert proc.returncode == 0, err[-2000:]
        libraries = os.listdir(cache)
        assert len(libraries) == 1 and libraries[0].endswith(".so")
        assert outputs[0][0] == outputs[1][0]
        assert f"['{cache / libraries[0]}']" in outputs[0][0]


    def test_points_run_clean_under_asan_and_ubsan(self, tmp_path):
        # short LASSO, NBG and EBG paths in both families with the kernel
        # built for AddressSanitizer and UndefinedBehaviorSanitizer, in a
        # process that preloads the ASan runtime: a read or write past a
        # buffer, or undefined behaviour, aborts it
        import netcov.solver as solver

        asan = subprocess.run([solver._CC, "-print-file-name=libasan.so"],
                              capture_output=True, text=True).stdout.strip()
        if not os.path.isabs(asan) or not os.path.exists(asan):
            pytest.skip(f"{solver._CC} has no libasan")
        script = (
            "import sys\n"
            "from netcov import solver\n"
            "solver._CFLAGS += ('-g', '-fsanitize=address,undefined',\n"
            "                   '-fno-sanitize-recover=all')\n"
            "from test_solver import scheme_problem\n"
            "for scheme in ('lasso', 'nbg', 'ebg'):\n"
            "    for family in ('gaussian', 'binomial'):\n"
            "        prep = scheme_problem(scheme, family)\n"
            "        grid = solver.lambda_grid(\n"
            "            solver.lambda_max(prep.problem), grid_size=8)\n"
            "        pf = solver.fit_path(prep.problem, prep.basis, prep.emap,\n"
            "                             grid)\n"
            "        assert all(e.kkt_residual <= 1e-6 for e in pf.entries)\n"
            "print('clean')\n")
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ, LD_PRELOAD=asan, ASAN_OPTIONS="detect_leaks=0",
                   XDG_CACHE_HOME=str(tmp_path / "cache"))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert proc.stdout.strip() == "clean"
        built = os.listdir(tmp_path / "cache" / "netcov")
        assert len(built) == 1 and built[0].endswith(".so")


class TestStateReuse:
    """The solver's work vector is carried instead of recomputed; what it
    carries must equal a fresh pass over U."""

    def test_kernel_reads_prepared_design_in_place(self):
        # the kernel's block points at U's own memory, transposed by view
        from netcov.solver import _Block

        prep = scheme_problem("ebg", "gaussian")
        block = _Block(prep.problem)
        assert block.UT == prep.problem.U.ctypes.data
        assert np.shares_memory(block.arrays["UT"], prep.problem.U)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_stored_state_pricing_matches_fresh(self, family, monkeypatch):
        # the state an accepted Anderson step combines from the stored
        # states (kernel_anderson's, from which the next sweep starts), and
        # the state 2*s_k - s_{k-1} a predicted start takes, each equal a
        # fresh pass over U at that point
        import netcov.solver as solver
        from netcov.solver import _fresh_state

        solve = solver.fit_at_lambda
        priced, solutions = [], []

        def started(problem, beta0=None, mu0=None, state0=None, **kwargs):
            if solutions and not np.array_equal(beta0,
                                                solutions[-1].beta_tilde):
                priced.append(("predicted", problem, mu0, beta0,
                               state0.copy()))
            solutions.append(solve(problem, beta0=beta0, mu0=mu0,
                                   state0=state0, **kwargs))
            return solutions[-1]

        monkeypatch.setattr(solver, "fit_at_lambda", started)
        prep = scheme_problem("ebg", family)
        fit_path(prep.problem, prep.basis, prep.emap,
                 lambdas=lambda_grid(lambda_max(prep.problem), grid_size=30))
        monkeypatch.undo()
        prob = replace(prep.problem, lam=0.2 * lambda_max(prep.problem))
        for end in TestAcceleration.window_ends(prob):
            if end["kept"]:
                row, state = kernel_anderson(end["rows"], end["states"])
                assert TestAcceleration.sweeps_on(prob, row, state, end)
                priced.append(("anderson", prob, row[0], row[1:], state))
        assert {kind for kind, *_ in priced} == {"anderson", "predicted"}
        for _, problem, mu, beta, state in priced:
            fresh = _fresh_state(problem, mu, beta)
            scale = max(1.0, float(np.abs(fresh).max()))
            np.testing.assert_allclose(state, fresh, rtol=0,
                                       atol=1e-12 * scale)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_plain_warm_starts_are_bit_identical(self, family, monkeypatch):
        # a point that starts where the last one stopped reuses that
        # point's state; solving it again from a fresh pass, handed the
        # same strong-rule input, gives the same bits
        import netcov.solver as solver

        solve = solver.fit_at_lambda
        calls = []

        def recorded(problem, beta0=None, mu0=None, lam0=None, grad0=None,
                     **kwargs):
            sol = solve(problem, beta0=beta0, mu0=mu0, lam0=lam0,
                        grad0=grad0, **kwargs)
            calls.append((problem, mu0, beta0, (lam0, grad0), sol))
            return sol

        monkeypatch.setattr(solver, "fit_at_lambda", recorded)
        prep = scheme_problem("ebg", family)
        fit_path(prep.problem, prep.basis, prep.emap,
                 lambdas=lambda_grid(lambda_max(prep.problem), grid_size=20))
        monkeypatch.undo()
        plain = 0
        for (*_, last), (at, mu0, beta0, (lam0, grad0), sol) in zip(
                calls, calls[1:]):
            if mu0 != last.mu or not np.array_equal(beta0, last.beta_tilde):
                continue
            plain += 1
            again = fit_at_lambda(at, beta0=beta0, mu0=mu0, lam0=lam0,
                                  grad0=grad0)
            assert again.mu == sol.mu
            np.testing.assert_array_equal(again.beta_tilde, sol.beta_tilde)
            assert again.n_sweeps == sol.n_sweeps
            assert again.deviance == sol.deviance
        assert plain > 0

    @pytest.mark.parametrize("shape", [(49,), (51,), (50, 1)])
    def test_misshapen_start_state_is_refused(self, rng, shape, monkeypatch):
        # the kernel writes the state as raw memory of N doubles: a state
        # of any other shape is refused before a sweep starts
        problem, *_ = build_problem(rng)
        swept = tap_points(monkeypatch)
        with pytest.raises(ValueError, match="start state has shape"):
            fit_at_lambda(problem, state0=np.zeros(shape))
        assert swept == []
        fit_at_lambda(problem, state0=np.zeros(problem.N))
        assert swept

    @pytest.mark.parametrize("extra", [-1, 1, None])
    def test_misshapen_warm_start_is_refused(self, rng, extra, monkeypatch):
        # the kernel writes beta as raw memory of m doubles, like the state
        problem, *_ = build_problem(rng)
        m = problem.U.shape[1]
        shape = (m, 1) if extra is None else (m + extra,)
        swept = tap_points(monkeypatch)
        with pytest.raises(ValueError, match="warm start has shape"):
            fit_at_lambda(problem, beta0=np.zeros(shape))
        assert swept == []
        fit_at_lambda(problem, beta0=np.zeros(m))
        assert swept

    @pytest.mark.parametrize("name", ["beta0", "mu0", "state0", "lam0",
                                      "grad0"])
    def test_non_finite_start_is_refused(self, rng, name, monkeypatch):
        # a NaN start would sweep to the cap and fail on a NaN KKT
        # residual: it is refused, naming the argument, before a sweep
        problem, *_ = build_problem(rng)
        m = problem.U.shape[1]
        start = dict(beta0=np.zeros(m), mu0=0.0,
                     state0=_fresh_state(problem, 0.0, np.zeros(m)),
                     lam0=2.0 * problem.lam, grad0=np.zeros(m))
        swept = tap_points(monkeypatch)
        fit_at_lambda(problem, **start)
        assert len(swept) == 1
        if np.ndim(start[name]):
            start[name] = start[name].copy()
            start[name][1] = np.nan
        else:
            start[name] = np.nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            fit_at_lambda(problem, **start)
        assert len(swept) == 1

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_wrong_start_state_still_certified(self, rng, family):
        # a state0 that is not the state at (mu0, beta0) costs sweeps,
        # never the answer: the fit is certified from scratch and reaches
        # the fresh start's objective
        problem, *_ = build_problem(rng, family=family, lam=0.05)
        beta0 = rng.standard_normal(problem.U.shape[1])
        fresh = fit_at_lambda(problem, beta0=beta0, mu0=0.1)
        state0 = rng.standard_normal(problem.N)
        given = state0.copy()
        wrong = fit_at_lambda(problem, beta0=beta0, mu0=0.1, state0=state0)
        assert kkt_residual(problem, wrong.mu, wrong.beta_tilde) <= 1e-6
        q_fresh = objective(problem, fresh.mu, fresh.beta_tilde)
        q_wrong = objective(problem, wrong.mu, wrong.beta_tilde)
        assert abs(q_wrong - q_fresh) <= 1e-12 * abs(q_fresh)
        # the sweeps ran on a copy
        np.testing.assert_array_equal(state0, given)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_certificate_miss_sweeps_only_the_active_set(self, rng, family,
                                                          monkeypatch):
        # a start state off by noise lets the sweeps settle short of the
        # certificate: the first pass finds no violator and misses (on a
        # group for gaussian, on the intercept for binomial).  The point
        # goes on over the groups nonzero at its start or admitted as
        # violators, never over every group, and returns certified
        from netcov.solver import _group_norms

        problem, *_ = build_problem(rng, family=family, lam=0.05)
        start = fit_at_lambda(problem)
        state0 = (_fresh_state(problem, start.mu, start.beta_tilde)
                  + 0.01 * rng.standard_normal(problem.N))
        allowed = np.flatnonzero(
            _group_norms(problem, start.beta_tilde)).tolist()
        points = tap_points(monkeypatch)
        sol = fit_at_lambda(problem, beta0=start.beta_tilde, mu0=start.mu,
                            state0=state0)
        monkeypatch.undo()
        # a pass with no violator that missed, then the certified one
        assert (sol.n_passes, sol.n_violators, sol.n_tightened) == (2, 0, 1)
        # the active set only grows, so the one it ends with holds every
        # group swept
        (order, block), = points
        assert order == allowed
        ended = block.arrays["order"][:block.n_order].tolist()
        assert ended == allowed and len(ended) < problem.n_groups
        assert kkt_residual(problem, sol.mu, sol.beta_tilde) <= 1e-6
        mu_o, beta_o = ista_solve(problem.U, problem.y, family,
                                  pairs(problem), problem.multipliers,
                                  problem.lam)
        q_fit = objective(problem, sol.mu, sol.beta_tilde)
        q_o = ista_objective(problem.U, problem.y, family, pairs(problem),
                             problem.multipliers, problem.lam, mu_o, beta_o)
        assert abs(q_fit - q_o) <= 1e-6 * max(1.0, abs(q_o))
        pred_fit = sol.mu + problem.U @ sol.beta_tilde
        assert np.max(np.abs(pred_fit - (mu_o + problem.U @ beta_o))) < 1e-5

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_path_starts_need_no_pass_over_u(self, family, monkeypatch):
        # after the first point, every point of a path starts from the
        # state it is handed: the kernel computes a start state for the
        # first point only, and no _fresh_state call comes between a
        # fit's start and its compiled point
        import netcov.solver as solver

        events = []

        def tap(name, fn):
            def wrapped(*args, **kwargs):
                events.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(solver, name, wrapped)

        for name in ("fit_at_lambda", "_fresh_state"):
            tap(name, getattr(solver, name))
        kernel, fresh = solver._load_kernel(), []

        def point(block):
            events.append("point")
            fresh.append(block.start_fresh)
            return kernel(block)

        monkeypatch.setattr(solver, "_kernel_fn", point)
        prep = scheme_problem("ebg", family)
        fit_path(prep.problem, prep.basis, prep.emap,
                 lambdas=lambda_grid(lambda_max(prep.problem), grid_size=20))
        monkeypatch.undo()
        starts = []
        for i, event in enumerate(events):
            if event == "fit_at_lambda":
                starts.append(events[i:events.index("point", i)].count(
                    "_fresh_state"))
        assert starts == [0] * 20
        assert fresh == [1] + [0] * 19


class TestStrongRule:
    """The sequential strong rule picks a point's starting active set from
    the last point's lambda and gradient; the screening pass stays the
    check, so what it predicts moves the route, never the answer."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_predicting_nothing_is_caught_by_screening(self, family,
                                                       monkeypatch):
        # a zero gradient at lam0 = lambda passes no group, so a cold
        # start begins empty: the screening pass admits the joiners and
        # the point is the one solved without the rule, certified
        prep = scheme_problem("ebg", family)
        prob = replace(prep.problem, lam=0.2 * lambda_max(prep.problem))
        m = prob.U.shape[1]
        swept = tap_points(monkeypatch)
        sol = fit_at_lambda(prob, lam0=prob.lam, grad0=np.zeros(m))
        monkeypatch.undo()
        assert swept[0][0] == [] and sol.n_violators > 0
        assert kkt_residual(prob, sol.mu, sol.beta_tilde) <= 1e-6
        plain = fit_at_lambda(prob)
        assert sol.mu == plain.mu and sol.n_sweeps == plain.n_sweeps
        np.testing.assert_array_equal(sol.beta_tilde, plain.beta_tilde)

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_predicting_every_group_keeps_exact_zeros(self, family,
                                                      monkeypatch):
        # lam0 = 3 lambda makes the rule's bound negative, so every group
        # starts active: the first sweep visits them all, no screening
        # round finds a violator, and the groups the ISTA oracle zeroes
        # come back as exact zeros
        prep = scheme_problem("ebg", family)
        prob = replace(prep.problem, lam=0.2 * lambda_max(prep.problem))
        _, grad = smooth_gradient(prob, _intercept_start(prob),
                                  np.zeros(prob.U.shape[1]))
        swept = tap_points(monkeypatch)
        sol = fit_at_lambda(prob, lam0=3.0 * prob.lam, grad0=grad)
        monkeypatch.undo()
        assert swept[0][0] == list(range(prob.n_groups))
        assert sol.n_violators == 0
        assert kkt_residual(prob, sol.mu, sol.beta_tilde) <= 1e-6
        _, beta_o = ista_solve(prob.U, prob.y, family, pairs(prob),
                               prob.multipliers, prob.lam)
        zero = [not sol.beta_tilde[s0:s1].any() for s0, s1 in pairs(prob)]
        assert zero == [not beta_o[s0:s1].any() for s0, s1 in pairs(prob)]
        assert any(zero) and not all(zero)
        for (s0, s1), z in zip(pairs(prob), zero):
            if z:
                assert sol.beta_tilde[s0:s1].tobytes() == bytes(8 * (s1 - s0))

    def test_rule_input_is_checked(self, rng, monkeypatch):
        # half an input, or a gradient of the wrong length, is refused
        # before a sweep starts
        problem, *_ = build_problem(rng)
        m = problem.U.shape[1]
        swept = tap_points(monkeypatch)
        for given in (dict(lam0=problem.lam), dict(grad0=np.zeros(m))):
            with pytest.raises(ValueError, match="both lam0 and grad0"):
                fit_at_lambda(problem, **given)
        for shape in ((m - 1,), (m, 1)):
            with pytest.raises(ValueError, match="gradient has shape"):
                fit_at_lambda(problem, lam0=problem.lam,
                              grad0=np.zeros(shape))
        assert swept == []

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_path_wires_the_rule(self, family, monkeypatch):
        # on a 20-point LASSO path the rule predicts the joiners, so about
        # one certificate pass a point is left; starting each point from
        # the last one's nonzero groups alone took 34 (gaussian) and 36
        # (binomial) passes here
        import netcov.solver as solver

        prep = scheme_problem("lasso", family)
        grid = lambda_grid(lambda_max(prep.problem), grid_size=20)
        solve, passes = solver.fit_at_lambda, []

        def counted(*args, **kwargs):
            sol = solve(*args, **kwargs)
            passes.append(sol.n_passes)
            return sol

        monkeypatch.setattr(solver, "fit_at_lambda", counted)
        pf = fit_path(prep.problem, prep.basis, prep.emap, lambdas=grid)
        monkeypatch.undo()
        assert len(passes) == grid.size
        assert sum(passes) <= grid.size + 2
        assert all(e.kkt_residual <= 1e-6 for e in pf.entries)

    def test_path_swaps_lambda_without_rechecking_the_layout(self,
                                                             monkeypatch):
        # the grid's lambdas are checked, each point's problem shares the
        # path's arrays, and the layout checks run at construction only
        import netcov.solver as solver

        prep = scheme_problem("ebg", "gaussian")
        grid = lambda_grid(lambda_max(prep.problem), grid_size=5)
        problems = []
        solve = solver.fit_at_lambda
        monkeypatch.setattr(solver, "fit_at_lambda", lambda prob, *a, **k: (
            problems.append(prob), solve(prob, *a, **k))[1])
        checks = []
        post_init = PenalizedProblem.__post_init__
        monkeypatch.setattr(PenalizedProblem, "__post_init__",
                            lambda self: (checks.append(1), post_init(self)))
        fit_path(prep.problem, prep.basis, prep.emap, lambdas=grid)
        assert checks == []
        assert [p.lam for p in problems] == grid.tolist()
        for prob in problems:
            assert prob.U is prep.problem.U and prob.y is prep.problem.y
            assert prob.offsets is prep.problem.offsets
        with pytest.raises(ValueError, match="finite number"):
            fit_path(prep.problem, prep.basis, prep.emap,
                     lambdas=np.array([np.inf, 1.0]))


def record_points(monkeypatch):
    """The points fit_at_lambda solves from here on, as a list of
    (problem, Solution, groups active at its start, groups active at its
    end)."""
    import netcov.solver as solver

    solve, kernel = solver.fit_at_lambda, solver._load_kernel()
    solved, points = [], []

    def recorded(problem, *args, **kwargs):
        sol = solve(problem, *args, **kwargs)
        solved.append((problem, sol, *points.pop()))
        return sol

    def point(block):
        started = block.arrays["order"][:block.n_order].tolist()
        certified = kernel(block)
        points.append((started, block.arrays["order"][:block.n_order]
                       .tolist()))
        return certified

    monkeypatch.setattr(solver, "fit_at_lambda", recorded)
    monkeypatch.setattr(solver, "_kernel_fn", point)
    return solved


def path_points(monkeypatch, scheme, family, grid_size=20):
    """:func:`record_points` of a path on scheme_problem."""
    solved = record_points(monkeypatch)
    prep = scheme_problem(scheme, family)
    fit_path(prep.problem, prep.basis, prep.emap, lambdas=lambda_grid(
        lambda_max(prep.problem), grid_size=grid_size))
    monkeypatch.undo()
    assert len(solved) == grid_size
    return solved


class TestCompiledCertificate:
    """The kernel's certificate pass against the public numpy functions,
    which stay the independent check, and the counts a point reports."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    @pytest.mark.parametrize("scheme", ["lasso", "nbg", "ebg"])
    def test_agrees_with_numpy(self, scheme, family, monkeypatch):
        # every entry of a path: the KKT residual (itself relative to
        # lambda w_G) within 1e-12 of kkt_residual's, the certificate
        # gradient and the state within 1e-12 of smooth_gradient's and
        # _fresh_state's, relative to their largest entry
        for prob, sol, *_ in path_points(monkeypatch, scheme, family):
            kkt = kkt_residual(prob, sol.mu, sol.beta_tilde)
            assert abs(sol.kkt_residual - kkt) <= 1e-12 * max(1.0, kkt)
            _, grad = smooth_gradient(prob, sol.mu, sol.beta_tilde)
            state = _fresh_state(prob, sol.mu, sol.beta_tilde)
            for got, want in ((sol.grad, grad), (sol.state, state)):
                assert (np.max(np.abs(got - want))
                        <= 1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_counts_add_up(self, rng, family, monkeypatch):
        # a certificate pass admits violators, or misses and tightens the
        # inner tolerance, or certifies, once, last; the violators are
        # the groups the active set gained; Anderson steps are tried only
        # after full windows and kept at most as often.  On a path, a
        # cold point started empty and a point started from a noisy state
        import netcov.solver as solver

        solved = record_points(monkeypatch)
        prep = scheme_problem("ebg", family)
        fit_path(prep.problem, prep.basis, prep.emap, lambdas=lambda_grid(
            lambda_max(prep.problem), grid_size=20))
        prob = replace(prep.problem, lam=0.2 * lambda_max(prep.problem))
        solver.fit_at_lambda(prob, lam0=prob.lam,
                             grad0=np.zeros(prob.U.shape[1]))
        # the noisy start of test_certificate_miss_sweeps_only_the_active_set
        problem, *_ = build_problem(rng, family=family, lam=0.05)
        start = solver.fit_at_lambda(problem)
        solver.fit_at_lambda(
            problem, beta0=start.beta_tilde, mu0=start.mu,
            state0=(_fresh_state(problem, start.mu, start.beta_tilde)
                    + 0.01 * rng.standard_normal(problem.N)))
        monkeypatch.undo()
        assert len(solved) == 23
        for _, sol, started, ended in solved:
            rounds = sol.n_passes - 1 - sol.n_tightened
            assert 0 <= rounds <= sol.n_violators
            assert (rounds > 0) == (sol.n_violators > 0)
            assert set(started) <= set(ended)
            assert len(ended) == len(started) + sol.n_violators
            assert (sol.n_extrapolated <= sol.n_tried
                    <= sol.n_sweeps // (ANDERSON_K + 1))
        total = {name: sum(getattr(sol, name) for _, sol, *_ in solved)
                 for name in ("n_violators", "n_tightened", "n_tried",
                              "n_extrapolated")}
        assert total["n_violators"] > 0 and total["n_tightened"] > 0, total
        assert total["n_tried"] >= total["n_extrapolated"] > 0


class TestDesignLayout:
    """The kernel reads U as raw memory; whatever dtype or order U
    arrives in, the path is that of its C-ordered float64 copy."""

    @pytest.mark.parametrize("family", ["gaussian", "binomial"])
    def test_float32_and_fortran_u_give_the_same_path(self, family):
        prep = scheme_problem("ebg", family)
        problem = prep.problem
        U32 = problem.U.astype(np.float32)
        cases = [(np.asfortranarray(problem.U),
                  np.ascontiguousarray(problem.U)),
                 (U32, np.ascontiguousarray(U32, dtype=np.float64))]
        for U, reference in cases:
            assert U.flags.f_contiguous or U.dtype != np.float64
            paths = [fit_path(replace(problem, U=u), prep.basis, prep.emap,
                              lambdas=lambda_grid(lambda_max(problem),
                                                  grid_size=15))
                     for u in (U, reference)]
            for a, b in zip(*(pf.entries for pf in paths)):
                assert a.mu == b.mu and a.n_sweeps == b.n_sweeps
                np.testing.assert_array_equal(a.beta_tilde, b.beta_tilde)
                np.testing.assert_array_equal(a.beta, b.beta)
                assert a.kkt_residual == b.kkt_residual

    def test_row_count_must_match_response(self, rng):
        problem, *_ = build_problem(rng)
        with pytest.raises(ValueError, match="rows"):
            replace(problem, U=problem.U[:-1])


class TestGroupLayout:
    """The problem checks its group layout when it is built, before any
    sweep; every reduction and the compiled sweep read the arrays it keeps."""

    OFFSETS = [0, 2, 3, 5]

    @staticmethod
    def build(rng, m=5, **changes):
        fields = dict(U=rng.standard_normal((12, m)),
                      y=rng.standard_normal(12), family="gaussian",
                      offsets=TestGroupLayout.OFFSETS, multipliers=np.ones(3),
                      names=("a", "b", "c"), lam=0.1)
        fields.update(changes)
        return PenalizedProblem(**fields)

    def test_layout_is_kept_as_arrays(self, rng):
        problem = self.build(rng, offsets=np.array([0, 2, 3, 5], np.int32),
                             multipliers=[1, 2, 3])
        np.testing.assert_array_equal(problem.offsets, [0, 2, 3, 5])
        assert problem.offsets.dtype == np.int64 and problem.n_groups == 3
        assert problem.offsets.flags.c_contiguous
        assert not problem.offsets.flags.writeable
        assert problem.multipliers.dtype == np.float64
        assert problem.multipliers.flags.c_contiguous

    # each case is (offsets, U's width); the first eight keep their
    # earlier test ids
    @pytest.mark.parametrize("offsets, m", [
        ([1, 2, 3, 5], 5),  # does not start at 0
        ([0, 2, 3, 4], 5),  # stops short of U's 5 columns
        ([0, 2, 3, 6], 5),  # runs past them
        ([0, 2, 2, 5], 5),  # an empty group
        ([0, 3, 2, 5], 5),  # out of order
        (np.array([0.0, 2.0, 3.0, 5.0]), 5),  # floats, even whole ones
        (np.array([False, True]), 1),  # booleans, even 0 and 1
        (np.array([[0, 2], [3, 5]]), 5),  # not 1-D
        ([0], 0),  # fewer than two entries
    ], ids=[f"slices{i}" for i in range(8)] + ["single"])
    def test_malformed_layout_is_refused(self, rng, offsets, m):
        n = max(np.size(offsets) - 1, 1)
        with pytest.raises(ValueError, match=f"rising strictly from 0 to "
                                             f"U's {m} columns"):
            self.build(rng, m=m, offsets=offsets, multipliers=np.ones(n),
                       names=tuple(map(str, range(n))))

    @pytest.mark.parametrize("multipliers", [
        np.ones(2), np.ones(4), np.ones((3, 1)), [1.0, np.nan, 1.0],
        [1.0, np.inf, 1.0], [1.0, 0.0, 1.0], [1.0, -1.0, 1.0]])
    def test_bad_multipliers_are_refused(self, rng, multipliers):
        with pytest.raises(ValueError, match="one finite positive penalty"):
            self.build(rng, multipliers=multipliers)

    @pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c", "d")])
    def test_wrong_name_count_is_refused(self, rng, names):
        with pytest.raises(ValueError, match="group names for 3 groups"):
            self.build(rng, names=names)

    @pytest.mark.parametrize("bad", [np.nan, 0.5])
    def test_binomial_response_must_be_0_1(self, rng, bad):
        y = np.arange(12) % 2.0
        self.build(rng, family="binomial", y=y)
        y[3] = bad
        with pytest.raises(ValueError, match="coded 0/1"):
            self.build(rng, family="binomial", y=y)

    def test_response_must_be_1d(self, rng):
        # a column y would broadcast the start state to N x N
        with pytest.raises(ValueError, match="need a 1-D y"):
            self.build(rng, y=rng.standard_normal((12, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_gaussian_response_must_be_finite(self, rng, bad):
        # a NaN would give lambda_max nan and a fit that never converges
        y = rng.standard_normal(12)
        y[3] = bad
        with pytest.raises(ValueError, match="responses must be finite"):
            self.build(rng, y=y)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -0.1, "0.1", None])
    def test_bad_lambda_is_refused(self, rng, lam):
        problem = self.build(rng)
        with pytest.raises(ValueError, match="lambda must be"):
            replace(problem, lam=lam)


class TestPositiveLambda:
    """The solver solves lambda > 0 only; lambda = 0 or below is refused
    before any sweep or pass over U."""

    @pytest.mark.parametrize("lam", [0.0, -0.1])
    def test_fit_and_certificate_refuse(self, rng, lam, monkeypatch):
        import netcov.solver as solver

        problem, *_ = build_problem(rng)
        # PenalizedProblem itself refuses lambda < 0: set it past that
        object.__setattr__(problem, "lam", lam)
        touched = []
        solver._load_kernel()
        for name in ("_kernel_fn", "smooth_gradient"):
            monkeypatch.setattr(
                solver, name, lambda *args, name=name, fn=getattr(solver, name):
                (touched.append(name), fn(*args))[1])
        refused = re.escape(f"lambda must be > 0, got {lam!r}")
        with pytest.raises(ValueError, match=refused):
            fit_at_lambda(problem)
        with pytest.raises(ValueError, match=refused):
            kkt_residual(problem, 0.0, np.zeros(problem.U.shape[1]))
        assert touched == []
        # the same taps see a positive lambda's compiled point and pass
        object.__setattr__(problem, "lam", 0.1)
        sol = fit_at_lambda(problem)
        kkt_residual(problem, sol.mu, sol.beta_tilde)
        assert touched == ["_kernel_fn", "smooth_gradient"]

    @pytest.mark.parametrize("grid", [[0.1, 0.0], [0.1, -0.1], [0.0], []])
    def test_path_grid_must_be_positive(self, rng, grid, monkeypatch):
        import netcov.solver as solver

        problem, basis, emap, _ = build_problem(rng)
        solves = []
        monkeypatch.setattr(solver, "fit_at_lambda",
                            lambda *args, **kwargs: solves.append(args))
        with pytest.raises(ValueError, match="non-empty, positive"):
            fit_path(problem, basis, emap, lambdas=np.array(grid))
        assert solves == []


class TestCommunityRelabelling:
    """Community labels are names only: permuting them renames the groups
    and leaves every fitted linear predictor where it was."""

    COMMUNITIES = np.array([1, 1, 2, 2, 3, 3, 4, 4])

    @staticmethod
    def relabelled(name, perm):
        labels = name.strip("()").split(",")
        renamed = ",".join(str(perm[int(k) - 1]) for k in labels)
        return normalize_group_name(f"({renamed})" if "," in name
                                    else renamed)

    @pytest.mark.parametrize("scheme,family", [
        ("nbg", "gaussian"), ("ebg", "gaussian"), ("nbg", "binomial"),
        ("ebg", "binomial")])
    @settings(max_examples=4, deadline=None)
    @given(perm=st.permutations([1, 2, 3, 4]))
    def test_fit_does_not_depend_on_labels(self, scheme, family, perm):
        cm = CommunityMap(assignments=self.COMMUNITIES)
        idx = FeatureIndex(n=cm.n, d=1)
        truth = make_beta(ebg_groups(cm, idx), ("(1,2)",), 0.6)
        ds = make_dataset(np.random.default_rng(5), self.COMMUNITIES, d=1,
                          N=60, family=family, beta=truth.beta)
        moved = replace(ds, communities=CommunityMap(
            assignments=np.asarray(perm)[self.COMMUNITIES - 1]))
        (spec, _), (spec_m, _) = (make_groups(d, scheme) for d in (ds, moved))
        renamed = {name: self.relabelled(name, perm) for name in spec.names}
        members_m = dict(zip(spec_m.names, spec_m.members))
        for name, members in zip(spec.names, spec.members):
            np.testing.assert_array_equal(members, members_m[renamed[name]])

        preps = [prepare(ds, spec), prepare(moved, spec_m)]
        lambdas = lambda_grid(lambda_max(preps[0].problem), grid_size=12,
                              min_ratio=0.1)
        paths = [fit_path(p.problem, p.basis, p.emap, lambdas=lambdas)
                 for p in preps]
        for a, b in zip(*(pf.entries for pf in paths)):
            eta_a = a.mu + preps[0].problem.U @ a.beta_tilde
            eta_b = b.mu + preps[1].problem.U @ b.beta_tilde
            assert np.max(np.abs(eta_a - eta_b)) < 1e-6
            assert {renamed[g] for g in a.active_groups} == set(
                b.active_groups)
