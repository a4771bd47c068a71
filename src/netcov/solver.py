"""Group-penalized GLM solver on an orthonormalized expanded design.

Minimizes

    Q(mu, b) = (1/N) * deviance(y, mu + U b) + lambda * sum_G w_G ||b_G||_2

over groups of columns of the orthonormalized design U, where w_G is the
rank-scaled penalty multiplier sqrt(r_G) and the intercept mu is
unpenalized.  The gaussian deviance is half the residual sum of squares;
the binomial deviance is minus twice the Bernoulli log-likelihood.

Because each group's columns are orthonormal, the per-group coordinate
update is a closed-form multiplicative shrinkage of the group's
residual correlation (:func:`group_update`).  The gaussian family runs
cyclic group descent on residuals; the binomial family runs
majorize-minimize sweeps: the logistic curvature is bounded by 1/4, so
each sweep does exact cyclic descent on the induced quadratic surrogate,
which never increases the true objective.

An active-set strategy makes long regularization paths cheap: sweeps
cycle over the current active groups until stable, then one full
gradient pass screens all groups for violators of the zero-group
optimality condition; the same pass doubles as the exit KKT certificate.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import expit, logit

from .preprocess import back_transform

__all__ = [
    "PenalizedProblem",
    "PathEntry",
    "PathFit",
    "Solution",
    "ConvergenceError",
    "deviance",
    "group_update",
    "smooth_gradient",
    "objective",
    "kkt_residual",
    "lambda_max",
    "lambda_grid",
    "fit_at_lambda",
    "fit_path",
    "write_path_csv",
]

ETA_CLIP = 30.0  # linear-predictor threshold guarding exp/log1p overflow
DEFAULT_MAX_ITER = 10000
DEFAULT_TOL = 1e-7
DEFAULT_KKT_TOL = 1e-6
ZERO_GRAD_TOL = 1e-10  # absolute gradient gate for the unpenalized case


class ConvergenceError(RuntimeError):
    """Solver failed to converge; carries the last iterate and KKT residual."""

    def __init__(self, message, mu, beta_tilde, kkt_residual, sweeps):
        super().__init__(message)
        self.mu = mu
        self.beta_tilde = beta_tilde
        self.kkt_residual = kkt_residual
        self.sweeps = sweeps


@dataclass(frozen=True)
class PenalizedProblem:
    """The solver's view of one fit: orthonormalized design plus penalty.

    ``slices`` locates each group's columns in U, ``multipliers`` holds
    the rank-scaled penalty weights sqrt(r_G), and ``names`` the stable
    group names used in reports.  ``lam`` is the penalty level for
    :func:`fit_at_lambda`; path drivers swap it with ``dataclasses.replace``.
    """

    U: np.ndarray
    y: np.ndarray
    family: str
    slices: tuple
    multipliers: np.ndarray
    names: tuple
    lam: float = 0.0

    def __post_init__(self):
        if self.family not in ("gaussian", "binomial"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.lam < 0:
            raise ValueError("lambda must be nonnegative")
        if np.any(np.asarray(self.multipliers) <= 0):
            raise ValueError("penalty multipliers must be positive")
        if self.family == "binomial" and not np.all(np.isin(self.y, (0.0, 1.0))):
            raise ValueError("binomial responses must be coded 0/1")

    @property
    def N(self):
        return self.y.size

    @property
    def n_groups(self):
        return len(self.slices)


@dataclass
class Solution:
    mu: float
    beta_tilde: np.ndarray
    n_sweeps: int
    kkt_residual: float
    deviance: float


@dataclass
class PathEntry:
    lam: float
    mu: float
    beta_tilde: np.ndarray
    beta: np.ndarray
    active_groups: tuple
    deviance: float
    n_sweeps: int
    kkt_residual: float


@dataclass
class PathFit:
    """Solutions along a strictly decreasing lambda grid."""

    lambdas: np.ndarray
    entries: list
    group_names: tuple
    slices: tuple

    def betas(self):
        """(grid, p) matrix of folded-back coefficients."""
        return np.vstack([e.beta for e in self.entries])


def deviance(family, y, eta):
    """Training loss: half-RSS (gaussian) or -2 log-likelihood (binomial)."""
    y = np.asarray(y, dtype=np.float64)
    eta = np.asarray(eta, dtype=np.float64)
    if family == "gaussian":
        resid = y - eta
        return 0.5 * float(resid @ resid)
    if family == "binomial":
        e = np.clip(eta, -ETA_CLIP, ETA_CLIP)
        return -2.0 * float(np.sum(y * e - np.logaddexp(0.0, e)))
    raise ValueError(f"unknown family {family!r}")


def group_update(z, threshold):
    """Multiplicative shrinkage: ``max(0, 1 - t/||z||) * z`` (0 when ||z|| <= t)."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    nz = np.linalg.norm(z)
    if nz <= threshold:
        return np.zeros_like(z)
    return (1.0 - threshold / nz) * z


def _linear_predictor(problem, mu, beta_tilde):
    if np.any(beta_tilde):
        return mu + problem.U @ beta_tilde
    return np.full(problem.N, mu)


def _fresh_state(problem, mu, beta):
    eta = _linear_predictor(problem, mu, beta)
    if problem.family == "gaussian":
        return {"resid": problem.y - eta}
    return {"eta": eta}


def smooth_gradient(problem, mu, beta_tilde, state=None):
    """Gradient of (1/N)*deviance at (mu, beta_tilde).

    Returns (d/dmu, d/dbeta_tilde).  ``state`` is the work vector of
    :func:`_fresh_state` at the same point, when the caller holds one.
    The binomial gradient uses the exact logistic mean, not the clipped
    deviance, so it is the analytic derivative everywhere the clip is
    inactive.
    """
    if state is None:
        state = _fresh_state(problem, mu, beta_tilde)
    N = problem.N
    if problem.family == "gaussian":
        resid = state["resid"]
        return -float(resid.mean()), -(problem.U.T @ resid) / N
    diff = expit(state["eta"]) - problem.y
    return 2.0 * float(diff.mean()), 2.0 * (problem.U.T @ diff) / N


def objective(problem, mu, beta_tilde):
    """Penalized objective Q at (mu, beta_tilde)."""
    eta = _linear_predictor(problem, mu, beta_tilde)
    pen = 0.0
    for (s0, s1), w in zip(problem.slices, problem.multipliers):
        pen += w * np.linalg.norm(beta_tilde[s0:s1])
    return deviance(problem.family, problem.y, eta) / problem.N + problem.lam * pen


def _group_starts(slices):
    return np.fromiter((s0 for s0, _ in slices), dtype=np.int64,
                       count=len(slices))


def _group_norms(vec, slices):
    sq = np.add.reduceat(vec * vec, _group_starts(slices))
    return np.sqrt(np.maximum(sq, 0.0))


def _kkt_from_gradient(problem, beta_tilde, grad):
    """Max stationarity violation, relative to lambda*w_G (absolute at lambda 0).

    Active groups use the identity ||g + s*b/||b||||^2 =
    ||g||^2 + 2 s <g, b>/||b|| + s^2, so everything reduces to per-group
    norms and inner products computed in one pass.
    """
    starts = _group_starts(problem.slices)
    gnorms2 = np.add.reduceat(grad * grad, starts)
    lam = problem.lam
    if lam == 0.0:
        return float(np.sqrt(np.maximum(gnorms2, 0.0)).max())
    bnorms = np.sqrt(np.maximum(
        np.add.reduceat(beta_tilde * beta_tilde, starts), 0.0))
    dots = np.add.reduceat(grad * beta_tilde, starts)
    scale = lam * problem.multipliers
    active = bnorms > 0
    res = np.empty(len(problem.slices))
    gnorms = np.sqrt(np.maximum(gnorms2, 0.0))
    res[~active] = np.maximum(0.0, gnorms[~active] - scale[~active])
    with np.errstate(invalid="ignore", divide="ignore"):
        inner = (gnorms2[active]
                 + 2.0 * scale[active] * dots[active] / bnorms[active]
                 + scale[active] ** 2)
    res[active] = np.sqrt(np.maximum(inner, 0.0))
    return float((res / scale).max())


def kkt_residual(problem, mu, beta_tilde):
    """Stationarity certificate computed from scratch at (mu, beta_tilde)."""
    _, grad = smooth_gradient(problem, mu, beta_tilde)
    return _kkt_from_gradient(problem, beta_tilde, grad)


def _intercept_start(problem):
    if problem.family == "gaussian":
        return float(problem.y.mean())
    pbar = float(problem.y.mean())
    if pbar <= 0.0 or pbar >= 1.0:
        raise ValueError("binary response is constant; intercept-only fit undefined")
    return float(logit(pbar))


def lambda_max(problem):
    """Smallest penalty level at which the fitted model is fully sparse.

    Computed as ``max_G ||grad_G((1/N) deviance)(mu0, 0)|| / w_G`` with
    mu0 the intercept-only fit.  Raises when the response carries no
    signal at all (constant y, or y orthogonal to every column), since
    the regularization path degenerates.
    """
    mu0 = _intercept_start(problem)
    _, grad = smooth_gradient(problem, mu0, np.zeros(problem.U.shape[1]))
    norms = _group_norms(grad, problem.slices)
    lam = float(np.max(norms / problem.multipliers))
    # largest gradient any unit-norm column could attain; lam below float
    # dust of that scale means the response carries no usable signal
    eta0 = np.full(problem.N, mu0)
    if problem.family == "gaussian":
        reachable = np.linalg.norm(problem.y - eta0) / problem.N
    else:
        reachable = 2.0 * np.linalg.norm(expit(eta0) - problem.y) / problem.N
    if lam <= 1e-12 * reachable or reachable == 0.0:
        raise ValueError(
            "lambda_max is 0: response is orthogonal to every predictor, "
            "the path degenerates"
        )
    # tiny inflation so that refitting at exactly lambda_max cannot activate
    # the boundary group through rounding of norm/(N w) * N w
    return lam * (1.0 + 1e-10)


def lambda_grid(lam_max, grid_size=100, min_ratio=0.05):
    """Logarithmically spaced grid from lam_max down to min_ratio*lam_max."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if not 0 < min_ratio < 1:
        raise ValueError("min_ratio must be in (0, 1)")
    return np.geomspace(lam_max, min_ratio * lam_max, grid_size)


class _Workspace:
    """Per-problem scratch shared across a path: transposed design (rows
    contiguous per column of U) and the group layout as flat arrays."""

    __slots__ = ("UT", "starts", "ends", "multipliers", "all_groups")

    def __init__(self, problem):
        self.UT = np.ascontiguousarray(problem.U.T)
        n_groups = len(problem.slices)
        self.starts = _group_starts(problem.slices)
        self.ends = np.fromiter((s1 for _, s1 in problem.slices),
                                dtype=np.int64, count=n_groups)
        self.multipliers = np.ascontiguousarray(
            np.asarray(problem.multipliers, dtype=np.float64))
        self.all_groups = np.arange(n_groups, dtype=np.int64)


def _sweep_groups(UT, resid, eta, track_eta, beta, starts, ends,
                  multipliers, thresh_scale, order):
    max_delta = 0.0
    for gi in order:
        s0 = starts[gi]
        s1 = ends[gi]
        t = thresh_scale * multipliers[gi]
        if s1 - s0 == 1:
            u = UT[s0]
            z = float(u @ resid) + beta[s0]
            if z > t:
                b_new = z - t
            elif z < -t:
                b_new = z + t
            else:
                b_new = 0.0
            delta = b_new - beta[s0]
            if delta != 0.0:
                shift = u * delta
                resid -= shift
                if track_eta:
                    eta += shift
                beta[s0] = b_new
                step = abs(delta)
                if step > max_delta:
                    max_delta = step
            continue
        b_old = beta[s0:s1]
        z = UT[s0:s1] @ resid
        z += b_old
        nz = float(np.sqrt(z @ z))
        if nz <= t:
            if not b_old.any():
                continue
            b_new = np.zeros_like(z)
        else:
            b_new = (1.0 - t / nz) * z
        delta = b_new - b_old
        step = float(np.abs(delta).max())
        if step > 0.0:
            shift = delta @ UT[s0:s1]
            resid -= shift
            if track_eta:
                eta += shift
            beta[s0:s1] = b_new
            if step > max_delta:
                max_delta = step
    return max_delta


def _sweep(problem, ws, state, mu, beta, order):
    """One cyclic pass (intercept + the given groups); returns (mu, max change).

    ``state`` is the maintained length-N work vector: the residual
    y - eta for the gaussian family, the surrogate residual 4*(y - pi)
    for the binomial family (re-majorized here, at the top of each sweep).
    Exact coordinate minimization per block in both cases, so the
    objective (gaussian) / its majorizer (binomial) never increases.
    """
    N = problem.N
    lam = problem.lam
    gaussian = problem.family == "gaussian"
    if gaussian:
        resid = state["resid"]
        eta = _EMPTY
        thresh_scale = N * lam
    else:
        eta = state["eta"]
        pi = expit(eta)
        resid = 4.0 * (problem.y - pi)
        thresh_scale = 2.0 * N * lam

    dmu = float(resid.mean())
    mu += dmu
    resid -= dmu
    if not gaussian:
        eta += dmu
    max_delta = abs(dmu)

    group_delta = _sweep_groups(ws.UT, resid, eta, not gaussian, beta,
                                ws.starts, ws.ends, ws.multipliers,
                                thresh_scale, order)
    return mu, max(max_delta, group_delta)


_EMPTY = np.empty(0)


def fit_at_lambda(problem, beta0=None, mu0=None, max_iter=DEFAULT_MAX_ITER,
                  tol=DEFAULT_TOL, kkt_tol=DEFAULT_KKT_TOL, workspace=None):
    """Solve the penalized problem at the problem's lambda.

    Cyclic group descent with an active-set strategy: iterate over the
    currently active groups until coordinate changes fall below ``tol``,
    then screen all groups with one gradient pass; groups violating the
    zero-group condition enter the active set.  The fit returns only once
    the stationarity residual is at most ``kkt_tol`` (relative to
    lambda*w_G; absolute when lambda is 0).

    Raises :class:`ConvergenceError` carrying the last iterate after
    ``max_iter`` total sweeps.
    """
    m = problem.U.shape[1]
    beta = np.zeros(m) if beta0 is None else np.array(beta0, dtype=np.float64)
    if beta.size != m:
        raise ValueError(f"warm start has length {beta.size}, expected {m}")
    mu = _intercept_start(problem) if mu0 is None else float(mu0)
    ws = _Workspace(problem) if workspace is None else workspace

    state = _fresh_state(problem, mu, beta)
    norms = _group_norms(beta, problem.slices)
    in_active = norms > 0
    active = np.flatnonzero(in_active)

    sweeps = 0
    while sweeps < max_iter:
        # converge on the current active set
        while sweeps < max_iter:
            mu, delta = _sweep(problem, ws, state, mu, beta, active)
            sweeps += 1
            if delta < tol:
                break

        # full gradient pass: screening + KKT certificate
        state = _fresh_state(problem, mu, beta)  # shed incremental drift
        gmu, grad = smooth_gradient(problem, mu, beta, state)
        if problem.lam > 0:
            gnorms = _group_norms(grad, problem.slices)
            limit = problem.lam * problem.multipliers
            violators = ~in_active & (gnorms > limit)
            if violators.any():
                in_active |= violators
                active = np.flatnonzero(in_active)
                continue
            res = _kkt_from_gradient(problem, beta, grad)
            done = res <= kkt_tol and abs(gmu) <= max(kkt_tol, tol)
        else:
            res = max(_kkt_from_gradient(problem, beta, grad), abs(gmu))
            done = res <= ZERO_GRAD_TOL
        if done:
            dev = deviance(problem.family, problem.y,
                           _linear_predictor(problem, mu, beta))
            return Solution(mu=mu, beta_tilde=beta, n_sweeps=sweeps,
                            kkt_residual=res, deviance=dev)

        # not stationary yet: take a full pass over every group
        if sweeps < max_iter:
            mu, _ = _sweep(problem, ws, state, mu, beta, ws.all_groups)
            sweeps += 1
            norms = _group_norms(beta, problem.slices)
            in_active = norms > 0
            active = np.flatnonzero(in_active)

    final_res = kkt_residual(problem, mu, beta)
    raise ConvergenceError(
        f"no convergence after {sweeps} sweeps (KKT residual {final_res:.3e})",
        mu=mu, beta_tilde=beta, kkt_residual=final_res, sweeps=sweeps,
    )


def fit_path(problem, basis, emap, grid_size=100, min_ratio=0.05,
             lambdas=None, max_iter=DEFAULT_MAX_ITER, tol=DEFAULT_TOL,
             kkt_tol=DEFAULT_KKT_TOL):
    """Fit along a descending lambda grid with warm starts.

    The grid defaults to ``lambda_grid(lambda_max(problem), ...)``.  Each
    entry records the intercept, coefficients in both the orthonormal and
    the folded-back original space, active group names, training
    deviance, sweep count and KKT residual.  A non-converged point is
    retried once, with a ``RuntimeWarning``, with 10x the iteration budget
    before the error propagates.
    """
    if lambdas is None:
        lambdas = lambda_grid(lambda_max(problem), grid_size=grid_size,
                              min_ratio=min_ratio)
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if lambdas.size > 1 and not np.all(np.diff(lambdas) < 0):
        raise ValueError("lambda grid must be strictly decreasing")

    entries = []
    mu0 = None
    beta0 = None
    ws = _Workspace(problem)
    for i, lam in enumerate(lambdas):
        prob = replace(problem, lam=float(lam))
        try:
            sol = fit_at_lambda(prob, beta0=beta0, mu0=mu0,
                                max_iter=max_iter, tol=tol, kkt_tol=kkt_tol,
                                workspace=ws)
        except ConvergenceError as exc:
            warnings.warn(
                f"lambda index {i}: no convergence after {exc.sweeps} sweeps "
                f"(KKT residual {exc.kkt_residual:.3e}); retrying with "
                f"{10 * max_iter} sweeps", RuntimeWarning, stacklevel=2)
            sol = fit_at_lambda(prob, beta0=beta0, mu0=mu0,
                                max_iter=10 * max_iter, tol=tol,
                                kkt_tol=kkt_tol, workspace=ws)
        mu0 = sol.mu
        beta0 = sol.beta_tilde
        norms = _group_norms(sol.beta_tilde, problem.slices)
        active = tuple(problem.names[gi]
                       for gi in range(problem.n_groups) if norms[gi] > 0)
        beta = back_transform(sol.beta_tilde, basis, emap)
        entries.append(PathEntry(
            lam=float(lam), mu=sol.mu, beta_tilde=sol.beta_tilde.copy(),
            beta=beta, active_groups=active, deviance=sol.deviance,
            n_sweeps=sol.n_sweeps, kkt_residual=sol.kkt_residual,
        ))
    return PathFit(lambdas=lambdas, entries=entries, group_names=problem.names,
                   slices=problem.slices)


def write_path_csv(path_fit, directory):
    """Serialize a path: ``path.csv`` plus one ``coef_<i>.csv`` per grid point."""
    import csv
    import os

    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "path.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda_index", "lambda", "group", "active",
                         "group_norm"])
        for i, entry in enumerate(path_fit.entries):
            active = set(entry.active_groups)
            for name, (s0, s1) in zip(path_fit.group_names, path_fit.slices):
                norm = float(np.linalg.norm(entry.beta_tilde[s0:s1]))
                writer.writerow([i, repr(entry.lam), name,
                                 int(name in active), repr(norm)])
    for i, entry in enumerate(path_fit.entries):
        name = os.path.join(directory, f"coef_{i:03d}.csv")
        np.savetxt(name, entry.beta.reshape(-1, 1), fmt="%.17g", delimiter=",")
