"""Independent reference implementations used to cross-check the solver.

Nothing here shares code with the package's fitting path: the proximal
gradient oracle iterates on the stacked [intercept | design] matrix with
a global step size, the gradient oracle is plain central differences,
the stationarity checker recomputes everything from the raw inputs, and
the expanded design is built explicitly, which the package never does.
"""

import numpy as np
from scipy.special import expit


def _smooth(U, y, family, theta):
    """(value, gradient) of (1/N)*deviance as a function of [mu, beta]."""
    N = y.size
    M = np.column_stack([np.ones(N), U])
    eta = M @ theta
    if family == "gaussian":
        resid = y - eta
        value = 0.5 * float(resid @ resid) / N
        grad = -(M.T @ resid) / N
    else:
        value = 2.0 * float(np.sum(np.logaddexp(0.0, eta) - y * eta)) / N
        grad = 2.0 * (M.T @ (expit(eta) - y)) / N
    return value, grad


def _lipschitz(U, y, family):
    N = y.size
    M = np.column_stack([np.ones(N), U])
    smax = np.linalg.norm(M, 2)
    if family == "gaussian":
        return smax**2 / N
    return smax**2 / (2.0 * N)


def ista_solve(U, y, family, slices, multipliers, lam, max_iter=100000,
               stop_tol=1e-14):
    """Proximal gradient (ISTA) on the penalized objective.

    Gradient step on [mu, beta] with the global Lipschitz step size, then
    groupwise shrinkage of the beta blocks.  Runs up to ``max_iter``
    iterations, stopping early once the iterate is stationary to machine
    precision.  Returns (mu, beta).
    """
    m = U.shape[1]
    theta = np.zeros(m + 1)
    L = _lipschitz(U, y, family)
    step = 1.0 / L
    for _ in range(max_iter):
        _, grad = _smooth(U, y, family, theta)
        nxt = theta - step * grad
        for (s0, s1), w in zip(slices, multipliers):
            block = nxt[1 + s0: 1 + s1]
            norm = np.linalg.norm(block)
            t = lam * w * step
            if norm <= t:
                nxt[1 + s0: 1 + s1] = 0.0
            else:
                nxt[1 + s0: 1 + s1] = (1.0 - t / norm) * block
        delta = np.max(np.abs(nxt - theta))
        theta = nxt
        if delta < stop_tol:
            break
    return float(theta[0]), theta[1:]


def ista_objective(U, y, family, slices, multipliers, lam, mu, beta):
    value, _ = _smooth(U, y, family, np.concatenate([[mu], beta]))
    pen = sum(w * np.linalg.norm(beta[s0:s1])
              for (s0, s1), w in zip(slices, multipliers))
    return value + lam * pen


def fd_gradient(fun, x, h=1e-5):
    """Central finite differences of a scalar function."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for j in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[j] += h
        dn[j] -= h
        grad[j] = (fun(up) - fun(dn)) / (2.0 * h)
    return grad


def stationarity_residual(U, y, family, slices, multipliers, lam, mu, beta):
    """Max KKT violation relative to lam*w_G, recomputed from raw inputs."""
    N = y.size
    eta = mu + U @ beta
    if family == "gaussian":
        grad = -(U.T @ (y - eta)) / N
    else:
        grad = 2.0 * (U.T @ (expit(eta) - y)) / N
    worst = 0.0
    for (s0, s1), w in zip(slices, multipliers):
        g = grad[s0:s1]
        b = beta[s0:s1]
        scale = lam * w
        if np.linalg.norm(b) > 0:
            res = np.linalg.norm(g + scale * b / np.linalg.norm(b)) / scale
        else:
            res = max(0.0, np.linalg.norm(g) - scale) / scale
        worst = max(worst, res)
    return worst


def random_grouping(rng, p, kind):
    """Random group index sets covering 0..p-1.

    kind: "partition" (disjoint), "overlap" (random extras shared between
    neighbours), or "singleton".
    """
    if kind == "singleton":
        return [np.array([j]) for j in range(p)]
    n_groups = int(rng.integers(2, max(3, p // 3) + 1))
    cuts = np.sort(rng.choice(np.arange(1, p), size=n_groups - 1,
                              replace=False))
    parts = np.split(np.arange(p), cuts)
    if kind == "partition":
        return [np.asarray(g) for g in parts]
    groups = []
    for i, g in enumerate(parts):
        extra = parts[(i + 1) % len(parts)]
        take = rng.integers(0, extra.size + 1)
        groups.append(np.unique(np.concatenate([g, extra[:take]])))
    return groups


def expand_design(emap, Z):
    """The expanded design ``Z_star``: column j is ``Z``'s column
    ``emap.expanded_to_original[j]``, so shared coordinates are copied."""
    if Z.shape[1] != emap.p:
        raise ValueError(f"design has {Z.shape[1]} columns, expected {emap.p}")
    return Z[:, emap.expanded_to_original]
