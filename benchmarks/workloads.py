"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed (``make_inputs``)
and runs one timed unit of work through netcov's public API
(``run_unit``).  A unit returns a fingerprint that must repeat exactly on
every unit of one invocation, a list of failed checks and the per-layer
numbers only the workload can see.  Checks run
with the stopwatch paused, so they never count towards ``wall_s``.

netcov is always called through module attributes (``pipeline.prepare``,
not ``netcov.prepare``) so that the traced run sees every call.
"""

import hashlib
import os
import shutil
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from netcov import cli, data, groups, pipeline, simulate, solver

# Seed of the paper's default experiment cell.  Its full 100-point paths
# take 5,832 (EBG-gaussian) and 10,556 (NBG-binomial) sweeps, 35-45 s
# together; a unit fits the leading points of each grid instead, so that
# a run holds several units and its median is steady.
CELL_SEED = 7
CELL_FITS = (("ebg", "gaussian", 60), ("nbg", "binomial", 40))

# The 236-node cortical atlas layout: 13 communities.
ATLAS_SIZES = (30, 5, 14, 13, 58, 5, 31, 25, 18, 13, 9, 11, 4)
ATLAS_N, ATLAS_TRAIN, ATLAS_Q = 881, 785, 2
ATLAS_SPLIT = 5
ATLAS_POINTS = 10  # leading points of the 100-point grid

SWEEP_CONFIG = """\
seed = 7
experiment.schemes = nbg,ebg
experiment.families = gaussian
experiment.alphas = 0.3
experiment.replicates = 1
data.N = 200
data.K = 3
data.nodes_per_community = 4
data.d = 1
solver.folds = 5
solver.grid_size = {grid}
sweep.methods = {methods}
"""
SWEEP_METHOD_NAMES = ("scheme", "lasso", "cpm")
SWEEP_CELLS, SWEEP_GRID = 2, 20

# layer numbers of the workloads that write no files
NO_FILES = {"cli.files_written": 0, "cli.bytes_written": 0}


class Stopwatch:
    """Accumulates the wall time of a unit, minus the time spent paused.

    ``sample`` runs the workload's probe, a task of about a millisecond,
    while the unit runs (the runner calls it from a timer signal) and
    records how long it took.  Probe time is taken out of ``elapsed``.
    """

    def __init__(self, probe=None):
        self.elapsed = 0.0
        self.samples = []
        self._since = None
        self._probe = probe

    def start(self):
        self._since = time.perf_counter()

    def stop(self):
        self.elapsed += time.perf_counter() - self._since
        self._since = None

    @contextmanager
    def paused(self):
        self.stop()
        try:
            yield
        finally:
            self.start()

    def sample(self):
        if self._since is None:
            return
        t0 = time.perf_counter()
        self._probe()
        took = time.perf_counter() - t0
        self._since += took
        self.samples.append(took)


# Probes.  The machine is shared, and the speed of identical work drifts
# by a third and more, within seconds and over phases that last minutes.
# A probe is a fixed task of about a millisecond, of the same kind of
# operations as its workload's hot path but of code that no netcov change
# touches.  Timed every few tens of milliseconds during a unit, its median
# is the speed the machine had for that kind of work while the unit ran;
# ``wall_ref`` is the unit's wall time over that median.

def python_probe():
    """Integer arithmetic in the interpreter: netcov's group loops."""
    def probe():
        total = 0
        for i in range(10_000):
            total += i * i
    return probe


def _l3_product():
    """One matrix-vector product over a 16 MB matrix that stays in L3."""
    matrix = np.random.default_rng(0).standard_normal((1000, 2000))
    x = np.ones(2000)
    return lambda: matrix @ x


def cache_probe():
    """The interpreter loop plus a product over a matrix held in L3: the
    solver's Python sweeps over a ``U`` that fits in the cache."""
    loop, product = python_probe(), _l3_product()

    def probe():
        loop()
        product()
    return probe


def blas_probe():
    """The product over a matrix held in L3 plus a 256 x 256 matrix
    product: large dense linear algebra, like the SVDs of
    ``orthonormalize``."""
    product = _l3_product()
    a, b = np.random.default_rng(1).standard_normal((2, 256, 256))

    def probe():
        product()
        a @ b
    return probe


def permute_rows(ds, seed):
    """Reorder a dataset's rows by the benchmark seed.

    Training and test sets keep the same observations, so the fitted
    problem and its sweep counts stay the same while the bytes netcov
    receives change with the seed.
    """
    perm = np.random.default_rng(seed).permutation(ds.N)
    pos = np.empty_like(perm)
    pos[perm] = np.arange(ds.N)

    def moved(rows):
        return None if rows is None else np.sort(pos[rows])

    return replace(
        ds, edges=ds.edges[perm], node_covs=ds.node_covs[perm], y=ds.y[perm],
        nuisance=None if ds.nuisance is None else ds.nuisance[perm],
        train_rows=moved(ds.train_rows), test_rows=moved(ds.test_rows))


def check_path(problem, path, label):
    """Re-certify every path entry from scratch; returns failed checks."""
    errors = []
    for i, entry in enumerate(path.entries):
        if not (np.all(np.isfinite(entry.beta))
                and np.all(np.isfinite(entry.beta_tilde))
                and np.isfinite(entry.mu)):
            errors.append(f"{label}: entry {i} has non-finite coefficients")
            continue
        res = solver.kkt_residual(replace(problem, lam=entry.lam), entry.mu,
                                  entry.beta_tilde)
        if not res <= solver.DEFAULT_KKT_TOL:
            errors.append(f"{label}: entry {i} KKT residual {res:.3e}")
    return errors


def path_summary(label, path):
    return (label, len(path.entries), sum(e.n_sweeps for e in path.entries))


class CellPath:
    """Default experiment cell: the leading 60 points of the 100-point
    EBG-gaussian path and the leading 40 of the NBG-binomial one, with
    N=1000 training rows, K=10 communities of 5 nodes, d=1 and EBG (1,1)
    active at alpha=0.1."""

    name = "cell-path"

    def make_inputs(self, seed, workdir):
        cfg = simulate.ExperimentConfig(
            scheme="EBG", active_groups=simulate.PRESET_ACTIVE_GROUPS[("EBG", 1)],
            alpha=0.1, family="gaussian", seed=CELL_SEED)
        design = simulate.gen_design_synthetic(cfg)
        spec = simulate.groups_for(cfg, design.communities)
        truth = simulate.make_beta(spec, cfg.active_groups, cfg.alpha)
        inputs = {}
        for _, family, _ in CELL_FITS:
            y = simulate.draw_response(design, truth, family, CELL_SEED, tag=1)
            inputs[family] = permute_rows(
                replace(design, y=y, family=family), seed)
        return inputs

    make_probe = staticmethod(cache_probe)

    def run_unit(self, inputs, workdir, clock):
        fingerprint, errors = [], []
        for scheme, family, points in CELL_FITS:
            ds = inputs[family]
            spec, _ = pipeline.make_groups(ds, scheme)
            prep = pipeline.prepare(ds, spec)
            lam_max = solver.lambda_max(prep.problem)
            grid = solver.lambda_grid(lam_max)[:points]
            path = solver.fit_path(prep.problem, prep.basis, prep.emap,
                                   lambdas=grid)
            with clock.paused():
                label = f"{scheme}-{family}"
                errors += check_path(prep.problem, path, label)
                fingerprint.append(path_summary(label, path))
        return tuple(fingerprint), errors, NO_FILES


class AtlasPrepare:
    """Paper scale: the 236-node atlas layout, EBG unsplit and split to 5,
    each prepared and fitted over the first 20 points of its grid."""

    name = "atlas-prepare"

    def make_inputs(self, seed, workdir):
        cm = data.CommunityMap(assignments=np.repeat(
            np.arange(1, len(ATLAS_SIZES) + 1), ATLAS_SIZES))
        n = cm.n
        rng = np.random.default_rng((CELL_SEED, 0))
        ds = data.Dataset(
            edges=rng.standard_normal((ATLAS_N, n * (n - 1) // 2)),
            node_covs=rng.standard_normal((ATLAS_N, n)),
            y=np.zeros(ATLAS_N), communities=cm, family="gaussian",
            nuisance=rng.standard_normal((ATLAS_N, ATLAS_Q)),
            train_rows=np.arange(ATLAS_TRAIN),
            test_rows=np.arange(ATLAS_TRAIN, ATLAS_N))
        spec = groups.ebg_groups(cm, ds.index)
        truth = simulate.make_beta(spec, ("(1,1)",), 0.1)
        y = simulate.draw_response(ds, truth, "gaussian", CELL_SEED, tag=1)
        return permute_rows(replace(ds, y=y), seed)

    make_probe = staticmethod(blas_probe)

    def run_unit(self, ds, workdir, clock):
        fingerprint, errors = [], []
        for split in (None, ATLAS_SPLIT):
            spec, _ = pipeline.make_groups(ds, "ebg", split_target=split,
                                           seed=(CELL_SEED, 11))
            prep = pipeline.prepare(ds, spec)
            lam_max = solver.lambda_max(prep.problem)
            grid = solver.lambda_grid(lam_max)[:ATLAS_POINTS]
            path = solver.fit_path(prep.problem, prep.basis, prep.emap,
                                   lambdas=grid)
            with clock.paused():
                label = f"ebg-split{split or 0}"
                errors += check_path(prep.problem, path, label)
                fingerprint.append(path_summary(label, path) + (spec.n_groups,))
                # free this U before the next prepare builds its own
                del prep, path
        return tuple(fingerprint), errors, NO_FILES


def tree_digest(root):
    """(files, bytes, sha256) of a directory tree.

    ``run_manifest`` files are left out of the hash: they record the
    run's wall time, and the README's byte-identical promise covers the
    CSV outputs.
    """
    digest = hashlib.sha256()
    files = size = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            full = os.path.join(dirpath, fname)
            with open(full, "rb") as fh:
                blob = fh.read()
            files += 1
            size += len(blob)
            if fname != "run_manifest":
                digest.update(os.path.relpath(full, root).encode() + b"\0")
                digest.update(blob)
    return files, size, digest.hexdigest()


def check_sweep_tree(out):
    """The sweep wrote one metrics row per cell x method and complete fits."""
    errors = []
    with open(os.path.join(out, "metrics.csv")) as fh:
        rows = len(fh.read().splitlines()) - 1
    if rows != SWEEP_CELLS * len(SWEEP_METHOD_NAMES):
        errors.append(f"metrics.csv has {rows} rows, expected "
                      f"{SWEEP_CELLS * len(SWEEP_METHOD_NAMES)}")
    cells_dir = os.path.join(out, "cells")
    cells = sorted(os.listdir(cells_dir))
    if len(cells) != SWEEP_CELLS:
        errors.append(f"{len(cells)} cell directories, expected {SWEEP_CELLS}")
    for cell in cells:
        fits = [f for f in sorted(os.listdir(os.path.join(cells_dir, cell)))
                if f.startswith("fit_") and f != "fit_cpm"]
        if len(fits) != len(SWEEP_METHOD_NAMES) - 1:
            errors.append(f"{cell}: fit directories {fits}")
        for fit in fits:
            names = set(os.listdir(os.path.join(cells_dir, cell, fit)))
            coefs = sum(1 for f in names if f.startswith("coef_"))
            if not {"cv.csv", "path.csv"} <= names or coefs != SWEEP_GRID:
                errors.append(f"{cell}/{fit}: cv.csv/path.csv missing or "
                              f"{coefs} coef files")
    return errors


class SweepSmall:
    """The CLI sweep in-process: two gaussian cells (NBG and EBG, alpha=0.3,
    N=200, K=3x4, d=1), 5-fold CV over a 20-point grid, methods scheme,
    lasso and cpm."""

    name = "sweep-small"

    def make_inputs(self, seed, workdir):
        # The data come from the sweep's own seed, fixed like cell-path's;
        # the benchmark seed orders the methods, which reorders the work and
        # the rows of metrics.csv without changing how much work there is.
        order = np.random.default_rng(seed).permutation(len(SWEEP_METHOD_NAMES))
        methods = ",".join(SWEEP_METHOD_NAMES[i] for i in order)
        path = os.path.join(workdir, "sweep.cfg")
        with open(path, "w") as fh:
            fh.write(SWEEP_CONFIG.format(methods=methods, grid=SWEEP_GRID))
        return path

    make_probe = staticmethod(python_probe)

    def run_unit(self, config, workdir, clock):
        out = os.path.join(workdir, "sweep")
        if os.path.exists(out):
            shutil.rmtree(out)
        rc = cli.main(["sweep", "--config", config, "--out", out])
        with clock.paused():
            if rc != 0:
                return None, [f"netcov sweep exited with {rc}"], NO_FILES
            errors = check_sweep_tree(out)
            files, size, digest = tree_digest(out)
            shutil.rmtree(out)
        return ((files, digest), errors,
                {"cli.files_written": files, "cli.bytes_written": size})


WORKLOADS = {w.name: w for w in (CellPath(), AtlasPrepare(), SweepSmall())}
