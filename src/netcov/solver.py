"""Group-penalized GLM solver on an orthonormalized expanded design.

Minimizes

    Q(mu, b) = (1/N) * deviance(y, mu + U b) + lambda * sum_G w_G ||b_G||_2

over groups of columns of the orthonormalized design U, where w_G is the
rank-scaled penalty multiplier sqrt(r_G), lambda > 0 and the intercept
mu is unpenalized.  The gaussian deviance is half the residual sum of
squares, the binomial one minus twice the Bernoulli log-likelihood.

One rule gives the loss gradient of both families.  With the working
residual r = y - E[y | eta] (y - eta, or y - expit(eta) for the binomial
family), the gradient of (1/N) deviance in (mu, b) is
-c (mean(r), U^T r / N) with gradient scale c = 1 or 2, and each
observation's deviance has curvature at most c k in eta, with k = 1 or
the logistic bound 1/4.  As each group's columns are orthonormal, the
group's exact minimizer of the quadratic with that curvature is the
shrinkage ``max(0, 1 - t/||z||) * z`` of z = b_G + U_G^T r / k, at
t = N lambda w_G / (c k).  For the gaussian family that quadratic is the
objective, so the sweeps are cyclic group descent; for the binomial
family it majorizes the objective and is re-taken at the top of each
sweep, so no sweep increases the true objective.

An active-set strategy makes long regularization paths cheap: sweeps
cycle over the active groups until no coordinate moves by the inner
tolerance, then one full gradient pass screens all groups; violators of
the zero-group condition join the active set, which never shrinks within
a point.  That pass is also the exit KKT certificate; one with no
violators that misses it divides the inner tolerance by 10, tying the
sweeps' precision to the certificate, as Celer does (ICML 2018).  A
path point also starts with the groups that the sequential strong rule
(Tibshirani et al., JRSS-B 2012) predicts from the last point's
certificate gradient, ||grad_G|| >= w_G (2 lambda_k - lambda_{k-1});
a group it misses costs one more screening round, never the answer.

Two objective-guarded extrapolations cut the sweep count without
changing what is returned.  Every ``ANDERSON_K + 1`` active-set sweeps,
Anderson extrapolation of the iterates (Bertrand & Massias, "Anderson
acceleration of coordinate descent", AISTATS 2021) proposes a point
that is kept only if it lowers the objective.  Along a path, once two
consecutive solutions share their active set, the next point starts from
their linear extrapolation if that beats the plain warm start.  Either
way descent continues from the kept point, and the returned iterate
always comes from a sweep, so zero groups are exact zeros and the KKT
certificate is unchanged.  The solver's state (the gaussian residual
y - mu - U b, or the binomial linear predictor mu + U b) is affine in
(mu, b), and both extrapolations are affine combinations whose weights
sum to 1.  So a trial point is priced from the same combination of the
states stored at the points it combines, with no pass over U.  A path
hands each point its start state as an argument (the last solution's
state, or the same extrapolation of the last two) and solves each point
once, under the one sweep cap ``MAX_SWEEPS``.

A path point runs in C, ``sweep_kernel.c`` beside this module, in one
call: the sweeps in windows of ``ANDERSON_K + 1``, each Anderson step
(the Gram of the iterate differences solved by LU with partial
pivoting, then the guard), and each certificate pass, which sums the
fresh state over the nonzero groups only and screens every group.
:func:`fit_at_lambda` keeps the argument checks, the strong-rule
prediction and building the :class:`Solution`.  Each sweep re-takes
the binomial step residual as ``(y - 1/(1 + exp(-eta))) / 0.25``, the
form scipy's ``expit`` computes with the same libm ``exp``, and moves
the intercept by the residual's mean, summed in numpy's pairwise order
so that it is ``np.mean`` to the bit.  The certificate's sums follow
the kernel's own fixed order, not numpy's or BLAS's, so its gradient
and KKT residual agree with :func:`smooth_gradient` and
:func:`kkt_residual`, which stay numpy as the independent check, to
rounding.  A call reads and writes one C ``struct block``
(:class:`_Block`), filled in once a path and once a solve; the
solver's constants reach the kernel through it.  The kernel is
compiled with the system C compiler (``gcc``) the first time a solve
calls it, never at import, and loaded with :mod:`ctypes`; ctypes and a
compiler need no package beyond the standard library, where cffi would
be an undeclared dependency.  The library is cached under the user
cache directory (``$XDG_CACHE_HOME/netcov``, by default
``~/.cache/netcov``).  A missing or failing compiler is an error naming
the compiler and its output; there is no interpreted fallback.  The
build uses ``-O3 -march=native -ffp-contract=off`` and never
``-ffast-math``, which would let the compiler reassociate sums, fuse
multiply-adds and call glibc's vector ``exp``; the kernel's header says
how its dot products and its four-column blocks keep the bits the same
at any vector width.
"""

import copy
import ctypes
import hashlib
import numbers
import os
import platform
import subprocess
import tempfile
from dataclasses import dataclass

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
    "smooth_gradient",
    "objective",
    "kkt_residual",
    "lambda_max",
    "lambda_grid",
    "fit_at_lambda",
    "fit_path",
]

ETA_CLIP = 30.0  # linear-predictor threshold guarding exp/log1p overflow
MAX_SWEEPS = 100_000  # per solve; reaching it raises ConvergenceError
DEFAULT_TOL = 1e-7
DEFAULT_KKT_TOL = 1e-6
# per family: the gradient scale c and the curvature bound k (see above)
_GRAD_SCALE = {"gaussian": 1.0, "binomial": 2.0}
_CURVATURE = {"gaussian": 1.0, "binomial": 0.25}
ANDERSON_K = 5  # iterate differences per Anderson step, taken every K+1 sweeps
GRID_SIZE = 100  # points on the default lambda grid
MIN_RATIO = 0.05  # its smallest lambda as a share of lambda_max

_CC = "gcc"
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")
_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "sweep_kernel.c")
_CPUINFO = "/proc/cpuinfo"
_CACHE_DIR = os.path.join(
    os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
    "netcov")
_kernel_fn = None  # the process's loaded library, set once by _load_kernel


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

    Group g owns columns ``offsets[g]:offsets[g + 1]`` of U,
    ``multipliers`` holds the rank-scaled penalty weights sqrt(r_G), and
    ``names`` the stable group names used in reports.  ``lam`` is the
    penalty level for :func:`fit_at_lambda`; a path swaps it with
    :func:`_with_lambda`, which checks lambda alone.  ``U`` is stored as
    float64 with contiguous columns, the layout
    :func:`~netcov.preprocess.orthonormalize` writes (kept without a
    copy); any other dtype or order is converted once here, so the path
    does not depend on how U arrived.  ``offsets`` must be a 1-D integer
    array that starts at 0, ends at U's width and rises strictly, so no
    group is empty; each group needs one finite positive multiplier and
    one name.  The offsets are kept as a read-only int64 copy, the
    multipliers as contiguous float64.
    """

    U: np.ndarray
    y: np.ndarray
    family: str
    offsets: np.ndarray
    multipliers: np.ndarray
    names: tuple
    lam: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "U",
                           np.asfortranarray(self.U, dtype=np.float64))
        y = np.asarray(self.y)
        if self.U.ndim != 2 or y.ndim != 1 or self.U.shape[0] != y.size:
            raise ValueError(f"U has shape {self.U.shape} and y {y.shape}: "
                             "need a 1-D y, one value for each of U's rows")
        if self.family not in ("gaussian", "binomial"):
            raise ValueError(f"unknown family {self.family!r}")
        _check_lambda(self.lam)
        offsets, m = np.asarray(self.offsets), self.U.shape[1]
        if (offsets.dtype.kind not in "iu" or offsets.ndim != 1
                or offsets.size < 2 or offsets[0] != 0 or offsets[-1] != m
                or np.any(offsets[1:] <= offsets[:-1])):
            raise ValueError("group offsets must be a 1-D integer array "
                             f"rising strictly from 0 to U's {m} columns")
        n = offsets.size - 1
        multipliers = np.ascontiguousarray(self.multipliers, dtype=np.float64)
        if multipliers.shape != (n,) or not np.all(
                (0 < multipliers) & (multipliers < np.inf)):
            raise ValueError("need one finite positive penalty multiplier "
                             f"for each of the {n} groups")
        if len(self.names) != n:
            raise ValueError(f"{len(self.names)} group names for {n} groups")
        if self.family == "binomial" and not ((y == 0.0) | (y == 1.0)).all():
            raise ValueError("binomial responses must be coded 0/1")
        if self.family == "gaussian" and not np.isfinite(y).all():
            raise ValueError("gaussian responses must be finite")
        offsets = offsets.astype(np.int64)  # a copy the caller cannot change
        offsets.flags.writeable = False  # the kernel indexes U by it
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "multipliers", multipliers)

    @property
    def N(self):
        return self.y.size

    @property
    def n_groups(self):
        return self.offsets.size - 1


def _check_lambda(lam):
    if not (isinstance(lam, numbers.Real) and 0 <= lam < np.inf):
        raise ValueError(f"lambda must be a finite number >= 0, got {lam!r}")


def _with_lambda(problem, lam):
    """``problem`` at penalty ``lam``, sharing its arrays, whose checks at
    construction hold along a path; only lambda is checked."""
    _check_lambda(lam)
    swapped = copy.copy(problem)
    object.__setattr__(swapped, "lam", lam)
    return swapped


@dataclass
class Solution:
    mu: float
    beta_tilde: np.ndarray
    n_sweeps: int
    kkt_residual: float
    deviance: float
    n_extrapolated: int  # accepted Anderson steps
    state: np.ndarray  # work vector at (mu, beta_tilde), as _fresh_state
    grad: np.ndarray  # of (1/N) deviance in beta_tilde, at the certificate
    n_passes: int  # certificate passes
    n_violators: int  # groups the screening admitted
    n_tried: int  # Anderson steps tried
    n_tightened: int  # inner-tolerance tightenings


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
    n_extrapolated: int  # accepted Anderson steps, plus 1 if predicted start


@dataclass
class PathFit:
    """Solutions along a strictly decreasing lambda grid."""

    lambdas: np.ndarray
    entries: list
    group_names: tuple
    offsets: np.ndarray


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


def _fresh_state(problem, mu, beta):
    """The solver's work vector at (mu, beta): the residual y - eta for the
    gaussian family, the linear predictor eta for the binomial family."""
    eta = mu + problem.U @ beta if np.any(beta) else np.full(problem.N, mu)
    return problem.y - eta if problem.family == "gaussian" else eta


def _working_residual(problem, state):
    """The working residual y - E[y | eta] at a work vector: the gaussian
    state itself, y - expit(eta) for the binomial family."""
    if problem.family == "gaussian":
        return state
    return problem.y - expit(state)


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
    r = _working_residual(problem, state)
    c = _GRAD_SCALE[problem.family]
    return -c * float(r.mean()), -c * (problem.U.T @ r) / problem.N


def _penalized(problem, dev, beta_tilde):
    """Q from a deviance in hand: dev/N + lambda * sum_G w_G ||b_G||."""
    pen = float(_group_norms(problem, beta_tilde) @ problem.multipliers)
    return dev / problem.N + problem.lam * pen


def _state_deviance(problem, state):
    if problem.family == "gaussian":
        return 0.5 * float(state @ state)
    return deviance("binomial", problem.y, state)


def objective(problem, mu, beta_tilde):
    """Penalized objective Q at (mu, beta_tilde)."""
    state = _fresh_state(problem, mu, beta_tilde)
    return _penalized(problem, _state_deviance(problem, state), beta_tilde)


def _group_norms(problem, vec):
    sq = np.add.reduceat(vec * vec, problem.offsets[:-1])
    return np.sqrt(np.maximum(sq, 0.0))


def _kkt_from_gradient(problem, beta_tilde, grad):
    """Max stationarity violation, relative to lambda*w_G.

    A nonzero group's is ``||g_G + lambda w_G b_G / ||b_G|| ||``, summed
    from the vector itself: at a near-stationary point its two terms
    nearly cancel, and the expanded form ``||g||^2 + 2 s <g, b>/||b|| +
    s^2`` would leave only rounding noise of order sqrt(eps) s.  A zero
    group's is ``max(0, ||g_G|| - lambda w_G)``.
    """
    scale = problem.lam * problem.multipliers
    bnorms = _group_norms(problem, beta_tilde)
    active = bnorms > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        shrink = np.where(active, scale / bnorms, 0.0)
    norms = _group_norms(problem, grad + np.repeat(
        shrink, np.diff(problem.offsets)) * beta_tilde)
    res = np.where(active, norms, np.maximum(0.0, norms - scale))
    return float((res / scale).max())


def kkt_residual(problem, mu, beta_tilde):
    """Stationarity certificate computed from scratch at (mu, beta_tilde)."""
    if not problem.lam > 0:
        raise ValueError(f"lambda must be > 0, got {problem.lam!r}")
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
    mu0, beta0 = _intercept_start(problem), np.zeros(problem.U.shape[1])
    state0 = _fresh_state(problem, mu0, beta0)
    _, grad = smooth_gradient(problem, mu0, beta0, state0)
    norms = _group_norms(problem, grad)
    lam = float(np.max(norms / problem.multipliers))
    # largest gradient any unit-norm column could attain; lam below float
    # dust of that scale means the response carries no usable signal
    reachable = (_GRAD_SCALE[problem.family]
                 * np.linalg.norm(_working_residual(problem, state0))
                 / problem.N)
    if lam <= 1e-12 * reachable or reachable == 0.0:
        raise ValueError(
            "lambda_max is 0: response is orthogonal to every predictor, "
            "the path degenerates"
        )
    # tiny inflation so that refitting at exactly lambda_max cannot activate
    # the boundary group through rounding of norm/(N w) * N w
    return lam * (1.0 + 1e-10)


def lambda_grid(lam_max, grid_size=GRID_SIZE, min_ratio=MIN_RATIO):
    """Logarithmically spaced grid from lam_max down to min_ratio*lam_max."""
    if grid_size < 2:
        raise ValueError("grid_size must be at least 2")
    if not 0 < min_ratio < 1:
        raise ValueError("min_ratio must be in (0, 1)")
    return np.geomspace(lam_max, min_ratio * lam_max, grid_size)


def _host_cpu():
    """What ``-march=native`` resolves against: the first CPU's model name
    and flags (x86) or part and features (arm64) where the OS lists them,
    else the machine type."""
    fields = {}
    try:
        with open(_CPUINFO) as fh:
            for line in fh:
                key = line.split(":", 1)[0].strip()
                if key in ("model name", "flags", "CPU part", "Features"):
                    fields.setdefault(key, line)
    except OSError:
        pass
    return ("".join(sorted(fields.values()))
            or f"{platform.machine()} {platform.processor()}")


def _load_kernel():
    """The compiled solver entry, built into the cache on first use.

    The library's name hashes the C source, the compiler command and the
    host CPU, so a cache in a shared home directory never hands a
    ``-march=native`` build to another CPU.  A build goes to a private
    temporary directory and is renamed into place, so processes that
    build at once each load a whole library.
    """
    global _kernel_fn
    if _kernel_fn is not None:
        return _kernel_fn
    command = (_CC, *_CFLAGS)
    with open(_SOURCE, "rb") as fh:
        key = hashlib.sha256(b"\0".join((
            fh.read(), " ".join(command).encode(),
            _host_cpu().encode()))).hexdigest()[:16]
    path = os.path.join(_CACHE_DIR, f"sweep_kernel-{key}.so")
    if not os.path.exists(path):
        os.makedirs(_CACHE_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=_CACHE_DIR) as tmp:
            built = os.path.join(tmp, "sweep_kernel.so")
            try:
                proc = subprocess.run([*command, _SOURCE, "-o", built, "-lm"],
                                      capture_output=True, text=True)
            except OSError as exc:
                raise RuntimeError(
                    f"cannot build the sweep kernel: C compiler {_CC!r} "
                    f"did not run: {exc}") from exc
            if proc.returncode != 0:
                raise RuntimeError(
                    f"cannot build the sweep kernel: C compiler {_CC!r} "
                    f"exited {proc.returncode}:\n{proc.stderr}")
            os.replace(built, path)
    fn = ctypes.CDLL(path).netcov_solve_point
    fn.argtypes = (ctypes.POINTER(_Block),)
    fn.restype = ctypes.c_int64
    _kernel_fn = fn
    return fn


_PTR, _I64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double


class _Block(ctypes.Structure):
    """``struct block`` of ``sweep_kernel.c``, field for field: all one
    compiled call reads and writes.  ``_Block(problem)`` fills the
    per-path fields, the solver's constants among them, and :meth:`start`
    one solve's; the call writes the counts, the certificate's intercept
    gradient ``gmu`` and its KKT residual ``kkt``.  The kernel reads
    arrays as raw memory, so ``arrays`` holds each one a field points at,
    by the field's name."""

    _fields_ = [("UT", _PTR), ("N", _I64), ("n_groups", _I64),  # per path
                ("offsets", _PTR), ("multipliers", _PTR), ("y", _PTR),
                ("work", _PTR), ("record", _PTR), ("states", _PTR),
                ("diffs", _PTR), ("gram", _PTR), ("order", _PTR),
                ("in_active", _PTR), ("anderson_k", _I64),
                ("max_sweeps", _I64), ("tol", _F64), ("kkt_tol", _F64),
                ("eta_clip", _F64), ("curvature", _F64),
                ("grad_scale", _F64),
                ("resid", _PTR), ("eta", _PTR), ("beta", _PTR),  # per solve
                ("grad", _PTR), ("mu", _F64), ("lam", _F64),
                ("thresh_scale", _F64), ("n_order", _I64),
                ("start_fresh", _I64),
                ("sweeps", _I64), ("passes", _I64),  # written by the call
                ("violators", _I64), ("tried", _I64), ("accepted", _I64),
                ("tightened", _I64), ("gmu", _F64), ("kkt", _F64)]

    def __init__(self, problem):
        m, N, n = problem.U.shape[1], problem.N, problem.n_groups
        K = ANDERSON_K
        super().__init__(
            N=N, n_groups=n, anderson_k=K, max_sweeps=MAX_SWEEPS,
            tol=DEFAULT_TOL, kkt_tol=DEFAULT_KKT_TOL, eta_clip=ETA_CLIP,
            curvature=_CURVATURE[problem.family],
            grad_scale=_GRAD_SCALE[problem.family])
        self.arrays = {}
        self._point(
            UT=problem.U.T, offsets=problem.offsets,
            multipliers=problem.multipliers,
            # a residual shift, trial state or certificate sum (N), then
            # the widest group's target
            work=np.empty(N + int(np.diff(problem.offsets).max())),
            y=np.ascontiguousarray(problem.y, dtype=np.float64),
            # K+1 rows of (mu, the active coefficients) and of the state,
            # the K differences of the rows, the K x K Gram and its solution
            record=np.empty((K + 1) * (1 + m)), states=np.empty((K + 1) * N),
            diffs=np.empty(K * (1 + m)), gram=np.empty(K * (K + 1)),
            order=np.empty(n, dtype=np.int64),
            in_active=np.empty(n, dtype=np.uint8))

    def _point(self, **arrays):
        for name, arr in arrays.items():
            setattr(self, name, None if arr is None else arr.ctypes.data)
        self.arrays.update(arrays)

    def start(self, problem, state, beta, mu, order):
        """One solve's fields, which the kernel moves in place: ``beta``,
        the intercept ``mu``, and the gaussian ``state`` as the residual or
        the binomial one as eta, or None for the kernel to compute it from
        ``(mu, beta)`` first; the penalty at the problem's lambda; a fresh
        certificate gradient; and the distinct groups ``order`` that the
        first sweep visits, copied into the block's own buffer.  Returns
        the state array."""
        m, N = self.arrays["UT"].shape
        self.start_fresh = state is None
        if state is None:
            state = np.empty(N)
        for arr, n in ((state, N), (beta, m)):
            if (arr.dtype != np.float64 or arr.shape != (n,)
                    or not arr.flags.c_contiguous):
                raise TypeError(f"sweep kernel needs contiguous float64 of "
                                f"shape ({n},), got {arr.dtype} {arr.shape}")
        gaussian = problem.family == "gaussian"
        self._point(resid=state if gaussian else np.empty(N),
                    eta=None if gaussian else state, beta=beta,
                    grad=np.empty(m))
        self.n_order = len(order)
        self.arrays["order"][:self.n_order] = order
        self.mu, self.lam = mu, problem.lam
        self.thresh_scale = problem.N * problem.lam / (
            self.grad_scale * self.curvature)
        return state


def fit_at_lambda(problem, beta0=None, mu0=None, state0=None, lam0=None,
                  grad0=None, *, _block=None):
    """Solve the penalized problem at the problem's lambda.

    Lambda must be positive.  Sweeps cycle over the active groups until
    coordinate changes fall below the inner tolerance, ``DEFAULT_TOL`` at
    first; then one gradient pass screens all groups, and violators of the
    zero-group condition join the active set.  The fit returns at the
    first pass whose stationarity residual (relative to lambda*w_G) and
    intercept gradient are at most ``DEFAULT_KKT_TOL``; a pass with no
    violators that misses divides the inner tolerance by 10.  Every
    ``ANDERSON_K + 1`` sweeps on one active set, an Anderson step is tried
    and kept only if it lowers the objective (active coordinates only).
    All of that is one compiled call.

    The fit starts at ``(mu0, beta0)`` (default: the intercept-only fit).
    ``state0`` is the work vector of :func:`_fresh_state` there, when the
    caller holds it (a path hands over its last solution's state); without
    it the start costs one pass over U.  The sweeps update a copy, so the
    caller's array is left as it is.  A ``state0`` that is not the state at
    ``(mu0, beta0)`` costs sweeps but never correctness: the screening
    pass recomputes the state from ``(mu, beta)`` before it certifies
    anything, and every return goes through that fresh-state KKT pass.

    ``lam0`` and ``grad0``, given together, are the last path point's
    lambda and certificate gradient (:attr:`Solution.grad`): each group
    with ``||grad0_G|| >= w_G (2 lambda - lam0)`` also starts active, the
    sequential strong rule.  Screening admits any group it misses, and
    one it predicts wrongly is swept to an exact zero.

    A start that is not finite is refused before any sweep, naming the
    argument.  Raises :class:`ConvergenceError` carrying the last iterate
    when ``MAX_SWEEPS`` sweeps leave the point uncertified.

    ``_block`` is internal: :func:`fit_path` fills one :class:`_Block`
    per path and hands it to every point.
    """
    if not problem.lam > 0:
        raise ValueError(f"lambda must be > 0, got {problem.lam!r}")
    m = problem.U.shape[1]
    beta = np.zeros(m) if beta0 is None else np.array(beta0, dtype=np.float64)
    if beta.shape != (m,):
        raise ValueError(f"warm start has shape {beta.shape}, expected ({m},)")
    mu = _intercept_start(problem) if mu0 is None else float(mu0)
    if state0 is not None:
        state0 = np.array(state0, dtype=np.float64)
        if state0.shape != (problem.N,):
            raise ValueError(f"start state has shape {state0.shape}, "
                             f"expected ({problem.N},)")
    if (lam0 is None) != (grad0 is None):
        raise ValueError("the strong rule needs both lam0 and grad0")
    if grad0 is not None:
        grad0 = np.asarray(grad0, dtype=np.float64)
        if grad0.shape != (m,):
            raise ValueError(f"strong-rule gradient has shape {grad0.shape}, "
                             f"expected ({m},)")
    for name, value in (("beta0", beta), ("mu0", mu), ("state0", state0),
                        ("lam0", lam0), ("grad0", grad0)):
        if value is not None and not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")

    in_active = _group_norms(problem, beta) > 0
    if grad0 is not None:  # the sequential strong rule
        in_active |= (_group_norms(problem, grad0)
                      >= (2.0 * problem.lam - lam0) * problem.multipliers)
    block = _Block(problem) if _block is None else _block
    state = block.start(problem, state0, beta, mu, np.flatnonzero(in_active))
    if _load_kernel()(block):
        return Solution(mu=block.mu, beta_tilde=beta, n_sweeps=block.sweeps,
                        kkt_residual=block.kkt,
                        deviance=_state_deviance(problem, state),
                        n_extrapolated=block.accepted, state=state,
                        grad=block.arrays["grad"], n_passes=block.passes,
                        n_violators=block.violators, n_tried=block.tried,
                        n_tightened=block.tightened)
    final_res = kkt_residual(problem, block.mu, beta)
    raise ConvergenceError(
        f"no convergence after {block.sweeps} sweeps "
        f"(KKT residual {final_res:.3e})",
        mu=block.mu, beta_tilde=beta, kkt_residual=final_res,
        sweeps=block.sweeps,
    )


def fit_path(problem, basis, emap, lambdas):
    """Fit along the descending lambda grid ``lambdas`` with warm starts.

    Each entry records the intercept, coefficients in both the orthonormal
    and the folded-back original space, active group names, training
    deviance, sweep count and KKT residual.  Each point starts where the
    last one stopped, handed that solution's state.  When the last two
    solutions share their active set, the next point starts from their
    linear extrapolation instead, with the state ``2 s_k - s_{k-1}``, if
    that has the lower objective.  Either way it is handed the last
    point's lambda and gradient for the strong rule.  Each point is solved
    once; one left uncertified at ``MAX_SWEEPS`` sweeps raises
    :class:`ConvergenceError`.
    """
    lambdas = np.asarray(lambdas, dtype=np.float64)
    if not (lambdas.ndim == 1 and lambdas.size and lambdas[-1] > 0
            and np.all(np.diff(lambdas) < 0)):
        raise ValueError("lambda grid must be non-empty, positive and "
                         "strictly decreasing")

    block = _Block(problem)
    entries = []
    last = prev = None  # the last two solutions
    for lam in lambdas.tolist():
        prob = _with_lambda(problem, lam)
        start, predicted = {}, False
        if last is not None:
            start = dict(beta0=last.beta_tilde, mu0=last.mu, state0=last.state,
                         lam0=entries[-1].lam, grad0=last.grad)
        if (prev is not None and entries[-1].active_groups
                and entries[-1].active_groups == entries[-2].active_groups):
            beta_p = 2.0 * last.beta_tilde - prev.beta_tilde
            state_p = 2.0 * last.state - prev.state
            q_plain = _penalized(prob, last.deviance, last.beta_tilde)
            dev_p = _state_deviance(prob, state_p)
            if _penalized(prob, dev_p, beta_p) < q_plain:
                start.update(beta0=beta_p, mu0=2.0 * last.mu - prev.mu,
                             state0=state_p)
                predicted = True
        sol = fit_at_lambda(prob, _block=block, **start)
        prev, last = last, sol
        norms = _group_norms(problem, sol.beta_tilde)
        active = tuple(problem.names[gi] for gi in np.flatnonzero(norms > 0))
        beta = back_transform(sol.beta_tilde, basis, emap)
        entries.append(PathEntry(
            lam=lam, mu=sol.mu, beta_tilde=sol.beta_tilde,
            beta=beta, active_groups=active, deviance=sol.deviance,
            n_sweeps=sol.n_sweeps, kkt_residual=sol.kkt_residual,
            n_extrapolated=sol.n_extrapolated + predicted,
        ))
    return PathFit(lambdas=lambdas, entries=entries, group_names=problem.names,
                   offsets=problem.offsets)
