"""Domain types for samples of weighted networks with node covariates.

A dataset holds N observations on a shared node set.  Each observation is
a triple: an n-by-n symmetric weighted adjacency matrix with zero
diagonal, an n-by-d matrix of node covariates, and a scalar response
(real for the gaussian family, 0/1 for the binomial family).  Nodes carry
a fixed community assignment, used downstream to build feature groups.

Canonical feature order
-----------------------
All predictors are vectorized into a single coordinate system so that
feature groups, coefficient files and selected-edge reports agree on what
coordinate j means:

* edge features first, in lexicographic (k, l) order with k < l over
  0-based node indices (the upper triangle read row by row),
* node-covariate features next, node-major: the d covariates of node 0,
  then node 1, and so on.

For an undirected network with no self-loops this gives
p = n(n-1)/2 + n*d coordinates.  Feature indices are 0-based everywhere,
in memory and in exported CSV files.  Node ids and community ids are
1-based in ``communities.csv`` only.

On-disk layout
--------------
A dataset directory contains headerless, comma-separated CSVs:

* ``A.csv``           N rows, n(n-1)/2 columns, canonical edge order
* ``X.csv``           N rows, n*d columns, node-major (absent when d=0)
* ``y.csv``           N rows, one column
* ``communities.csv`` n rows: node_id (1..n), community_id (1..K)
* ``nuisance.csv``    N rows, q columns (present exactly when q > 0)
* ``manifest``        key = value lines: n, d, N, family, optional q,
                      train_rows, test_rows (1-based inclusive ranges,
                      e.g. ``1-785`` or ``1-5,7,9-12``)

The numeric blocks are written by :func:`write_numbers` with ``%.17g``
(``%d`` for ``communities.csv``), which round-trips float64 exactly.
"""

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CommunityMap",
    "Observation",
    "FeatureIndex",
    "Dataset",
    "vectorize",
    "devectorize",
    "build_design",
    "load_dataset",
    "save_dataset",
    "parse_row_spec",
    "format_row_spec",
]

SYMMETRY_TOL = 1e-12
CSV_FMT = "%.17g"  # round-trips float64 exactly
# values formatted per write of write_numbers: few calls, a small buffer
CHUNK_VALUES = 4096


@dataclass(frozen=True)
class CommunityMap:
    """Assignment of each node to one of K communities.

    ``assignments[k]`` is the community label of node k, an integer in
    1..K.  Labels must form a contiguous range with every label used at
    least once.  Nodes need not arrive sorted by community;
    :meth:`ordering` gives the permutation that makes the assignment
    contiguous and non-decreasing.
    """

    assignments: np.ndarray
    K: int = field(init=False)

    def __post_init__(self):
        raw = np.asarray(self.assignments)
        with np.errstate(invalid="ignore"):  # a NaN label is refused below
            a = raw.astype(np.int64)  # a copy
        if a.ndim != 1 or a.size == 0:
            raise ValueError("community assignments must be a non-empty 1-d sequence")
        if not np.array_equal(a, raw):
            bad = raw[a != raw][0]
            raise ValueError(f"community labels must be integers; got {bad}")
        labels = np.unique(a)
        K = int(labels[-1])
        if labels[0] != 1 or labels.size != K:
            raise ValueError(
                "community labels must form a contiguous range 1..K with every "
                f"label used; got labels {labels.tolist()}"
            )
        a.flags.writeable = False
        object.__setattr__(self, "assignments", a)
        object.__setattr__(self, "K", K)

    @property
    def n(self):
        return self.assignments.size

    def ordering(self):
        """Permutation of node indices sorting nodes by community (stable)."""
        return np.argsort(self.assignments, kind="stable")

    def members(self, k):
        """0-based node indices assigned to community k (1-based label)."""
        return np.flatnonzero(self.assignments == k)

    def sizes(self):
        """Community sizes, indexed by label-1."""
        return np.bincount(self.assignments, minlength=self.K + 1)[1:]


@dataclass(frozen=True)
class Observation:
    """One sample: adjacency matrix A, node covariates X, response y.

    A must be symmetric within 1e-12 with an exactly zero diagonal; X has
    one row per node.  Instances are immutable after construction.
    """

    A: np.ndarray
    X: np.ndarray
    y: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        X = np.asarray(self.X, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if X.ndim != 2 or X.shape[0] != n:
            raise ValueError(
                f"X must have one row per node: A is {n}x{n}, X has shape {X.shape}"
            )
        if not np.all(np.isfinite(A)) or not np.all(np.isfinite(X)):
            raise ValueError("A and X must be finite")
        if np.max(np.abs(A - A.T), initial=0.0) > SYMMETRY_TOL:
            raise ValueError("A must be symmetric within 1e-12")
        if np.any(np.diag(A) != 0.0):
            raise ValueError("A must have an exactly zero diagonal")
        A = A.copy()
        X = X.copy()
        A.flags.writeable = False
        X.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", float(self.y))

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def d(self):
        return self.X.shape[1]


@dataclass(frozen=True)
class FeatureIndex:
    """Bijection between (edge, node-covariate) features and coordinates.

    Edge features occupy coordinates 0..n(n-1)/2-1 in lexicographic (k, l)
    order with k < l; node-covariate features follow node-major.  This is
    the canonical contract shared by every module and file format.
    """

    n: int
    d: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 nodes")
        if self.d < 0:
            raise ValueError("d must be nonnegative")

    @property
    def n_edges(self):
        return self.n * (self.n - 1) // 2

    @property
    def p(self):
        return self.n_edges + self.n * self.d

    def edge_pairs(self):
        """(2, n_edges) array of 0-based node pairs in canonical order."""
        return np.vstack(np.triu_indices(self.n, k=1))

    def edge_position(self, k, l):
        """Coordinate of edge (k, l), 0-based nodes, k != l."""
        if k == l:
            raise ValueError("no self-loop coordinates")
        if k > l:
            k, l = l, k
        if not (0 <= k < l < self.n):
            raise ValueError(f"edge ({k}, {l}) out of range for n={self.n}")
        # offset of row k in the upper triangle, then distance to column l
        return k * (2 * self.n - k - 1) // 2 + (l - k - 1)

    def node_cov_position(self, node, j):
        """Coordinate of covariate j of a node, both 0-based."""
        if not (0 <= node < self.n and 0 <= j < self.d):
            raise ValueError("node or covariate index out of range")
        return self.n_edges + node * self.d + j


@dataclass(frozen=True)
class Dataset:
    """N observations stored in vectorized form, plus community map.

    ``edges`` holds the edge-weight block (N x n(n-1)/2, canonical
    order), ``node_covs`` the node-covariate block (N x n*d, node-major).
    ``train_rows``/``test_rows`` are optional 0-based row index arrays,
    stored sorted, since a split is a set of rows.  Construction rejects
    non-finite values, a repeated row within either split, and a row in
    both splits.
    """

    edges: np.ndarray
    node_covs: np.ndarray
    y: np.ndarray
    communities: CommunityMap
    family: str
    nuisance: np.ndarray = None
    train_rows: np.ndarray = None
    test_rows: np.ndarray = None

    def __post_init__(self):
        # C-contiguous blocks, so that build_design can take by flat index
        edges = np.atleast_2d(np.ascontiguousarray(self.edges, dtype=np.float64))
        covs = np.ascontiguousarray(self.node_covs, dtype=np.float64)
        y = np.asarray(self.y, dtype=np.float64).ravel()
        n = self.communities.n
        ne = n * (n - 1) // 2
        if edges.shape[1] != ne:
            raise ValueError(
                f"edge block has {edges.shape[1]} columns, expected {ne} for n={n}"
            )
        N = edges.shape[0]
        if N == 0:
            raise ValueError("dataset must contain at least one observation")
        if covs.size == 0:
            covs = np.zeros((N, 0))
        covs = np.atleast_2d(covs)
        if covs.shape[0] != N or covs.shape[1] % n != 0:
            raise ValueError(
                f"node-covariate block shape {covs.shape} inconsistent with "
                f"N={N}, n={n}"
            )
        if y.size != N:
            raise ValueError(f"y has {y.size} entries for N={N} observations")
        if self.family not in ("gaussian", "binomial"):
            raise ValueError(f"unknown family {self.family!r}")
        arrays = {"edges": edges, "node_covs": covs, "y": y}
        if self.nuisance is not None:
            nu = np.atleast_2d(np.asarray(self.nuisance, dtype=np.float64))
            if nu.shape[0] != N:
                raise ValueError("nuisance must have one row per observation")
            object.__setattr__(self, "nuisance", nu)
            arrays["nuisance"] = nu
        for name, values in arrays.items():
            if not np.isfinite(values).all():
                raise ValueError(f"{name} contains NaN or infinite values")
        if self.family == "binomial" and not np.all(np.isin(y, (0.0, 1.0))):
            raise ValueError("binomial responses must be coded 0/1")
        for name in ("train_rows", "test_rows"):
            rows = getattr(self, name)
            if rows is not None:
                rows = np.asarray(rows, dtype=np.int64)
                if rows.size and (rows.min() < 0 or rows.max() >= N):
                    raise ValueError(f"{name} out of range for N={N}")
                unique = np.unique(rows)
                if unique.size != rows.size:
                    raise ValueError(f"{name} lists a row more than once")
                object.__setattr__(self, name, unique)
        if (self.train_rows is not None and self.test_rows is not None
                and np.intersect1d(self.train_rows, self.test_rows).size):
            raise ValueError("train_rows and test_rows overlap")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "node_covs", covs)
        object.__setattr__(self, "y", y)

    @property
    def N(self):
        return self.edges.shape[0]

    @property
    def index(self):
        n = self.communities.n
        return FeatureIndex(n=n, d=self.node_covs.shape[1] // n)

    def training_rows(self, rows=None):
        """``rows`` if given, else ``train_rows``, else every row."""
        if rows is None:
            rows = self.train_rows
        if rows is None:
            rows = np.arange(self.N)
        return np.asarray(rows, dtype=np.int64)

    @staticmethod
    def from_observations(observations, communities, family, nuisance=None,
                          train_rows=None, test_rows=None):
        """Build a Dataset by vectorizing a list of Observation objects."""
        if len(observations) == 0:
            raise ValueError("dataset must contain at least one observation")
        n = observations[0].n
        d = observations[0].d
        idx = FeatureIndex(n=n, d=d)
        rows = []
        for i, obs in enumerate(observations):
            if obs.n != n or obs.d != d:
                raise ValueError(
                    f"observation {i} has n={obs.n}, d={obs.d}; expected "
                    f"n={n}, d={d}"
                )
            rows.append(vectorize(obs, idx))
        Z = np.vstack(rows)
        y = np.array([obs.y for obs in observations])
        return Dataset(
            edges=Z[:, : idx.n_edges],
            node_covs=Z[:, idx.n_edges:],
            y=y,
            communities=communities,
            family=family,
            nuisance=nuisance,
            train_rows=train_rows,
            test_rows=test_rows,
        )


def vectorize(obs, idx):
    """Vectorize one observation into canonical coordinates.

    Symmetric duplicates and the diagonal of A are dropped; edge weights
    come first (upper triangle, row-major), node covariates follow
    node-major.  Raises ValueError on any dimension mismatch.
    """
    if obs.n != idx.n or obs.d != idx.d:
        raise ValueError(
            f"observation has n={obs.n}, d={obs.d}; index expects "
            f"n={idx.n}, d={idx.d}"
        )
    iu = np.triu_indices(idx.n, k=1)
    return np.concatenate([obs.A[iu], obs.X.ravel()])


def devectorize(z, idx, y=0.0):
    """Inverse of :func:`vectorize`: rebuild (A, X) from a canonical vector."""
    z = np.asarray(z, dtype=np.float64).ravel()
    if z.size != idx.p:
        raise ValueError(f"vector has length {z.size}, expected p={idx.p}")
    A = np.zeros((idx.n, idx.n))
    iu = np.triu_indices(idx.n, k=1)
    A[iu] = z[: idx.n_edges]
    A = A + A.T
    X = z[idx.n_edges:].reshape(idx.n, idx.d)
    return Observation(A=A, X=X, y=y)


_GATHER_ELEMENTS = 1 << 20  # elements build_design gathers per step (8 MB)


def build_design(dataset, rows=None, columns=None):
    """A dataset's vectorized rows (all, or ``rows`` in that order) as one
    C-ordered array in canonical feature order: all p columns, or the
    ascending design columns ``columns``.

    Whole rows go straight into the output a few at a time, so a row
    subset is never copied whole before it lands there.  Selected
    columns are copied row by row when they form a range, and are
    otherwise taken one value at a time by flat index.
    """
    blocks = (dataset.edges, dataset.node_covs)
    n = blocks[0].shape[0] if rows is None else len(rows)
    if columns is not None:
        if np.any(columns[1:] < columns[:-1]):
            raise ValueError("design columns must be given in ascending order")
        rows = np.arange(blocks[0].shape[0]) if rows is None else rows
        n_edges = blocks[0].shape[1]
        k = int(np.searchsorted(columns, n_edges))
        out = np.empty((n, columns.size))
        for part, block, cols in ((out[:, :k], blocks[0], columns[:k]),
                                  (out[:, k:], blocks[1],
                                   columns[k:] - n_edges)):
            if cols.size and cols[-1] - cols[0] == cols.size - 1:
                part[...] = block[rows, cols[0]:cols[-1] + 1]
            elif cols.size:  # the blocks are C-contiguous (Dataset)
                part[...] = np.take(block.reshape(-1),
                                    (rows * block.shape[1])[:, None] + cols)
        return out
    out = np.empty((n, sum(b.shape[1] for b in blocks)),
                   dtype=np.result_type(*blocks))
    step = max(1, _GATHER_ELEMENTS // max(1, out.shape[1]))
    for lo in range(0, n, step):
        take = slice(lo, lo + step) if rows is None else rows[lo:lo + step]
        col = 0
        for block in blocks:
            out[lo:lo + step, col:col + block.shape[1]] = block[take]
            col += block.shape[1]
    return out


# ---------------------------------------------------------------------------
# on-disk layout


def parse_row_spec(text, N=None):
    """Parse a 1-based row spec like ``1-785`` or ``1-5,7`` to 0-based indices."""
    out = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        lo, dash, hi = part.partition("-")
        try:
            lo = int(lo)
            hi = int(hi) if dash else lo
        except ValueError:
            raise ValueError(f"bad row range {part!r}") from None
        if lo < 1 or hi < lo:
            raise ValueError(f"bad row range {part!r}")
        if N is not None and hi > N:  # before a range of hi rows is built
            raise ValueError(f"row spec {text!r} exceeds N={N}")
        out.extend(range(lo - 1, hi))
    return np.array(out, dtype=np.int64)


def format_row_spec(rows):
    """Format 0-based indices as a compact 1-based range spec."""
    rows = np.sort(np.asarray(rows, dtype=np.int64)) + 1
    parts = []
    i = 0
    while i < rows.size:
        j = i
        while j + 1 < rows.size and rows[j + 1] == rows[j] + 1:
            j += 1
        parts.append(str(rows[i]) if i == j else f"{rows[i]}-{rows[j]}")
        i = j + 1
    return ",".join(parts)


def read_manifest(path):
    """Read a flat ``key = value`` manifest file into a dict of strings;
    a key listed twice is refused."""
    entries, first_line = {}, {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: key {key!r} repeats "
                                 f"line {first_line[key]}")
            first_line[key] = lineno
            entries[key] = value
    return entries


def require_keys(path, entries, keys):
    """A data error naming the file when ``entries`` lacks one of ``keys``."""
    for key in keys:
        if key not in entries:
            raise ValueError(f"{path}: missing required key {key!r}")


def parse_int(name, text, least):
    """``text`` as an integer of at least ``least``; anything else is a
    ValueError naming ``name``, the key (and file) the text came from."""
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {text!r}")
    return value


def parse_number(name, text, low=-np.inf, high=np.inf):
    """``text`` as a finite number strictly between ``low`` and ``high``;
    anything else is a ValueError naming ``name``, as :func:`parse_int`."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {text!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"{name} is not finite")
    if not low < value < high:
        raise ValueError(
            f"{name} must be in ({low:g}, {high:g}), got {text!r}")
    return value


def write_manifest(path, entries, header=None):
    with open(path, "w") as fh:
        for line in header or []:
            fh.write(f"# {line}\n")
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")


def seeded_rng(seed, *tags):
    """The generator of stream (seed, *tags); there is no unseeded one.
    ``SeedSequence`` pads its entropy with zeros, so ``(seed, 0)`` is
    ``(seed, 0, 0)``: each stream's tags must differ from every other
    stream's in a non-zero place."""
    return np.random.default_rng((int(seed),) + tuple(int(t) for t in tags))


def read_number_csv(path, ndmin=0):
    """``np.loadtxt`` of a comma-separated file, without numpy's warning
    for an empty one: the caller's shape check refuses it by name."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        return np.loadtxt(path, delimiter=",", ndmin=ndmin)


def write_numbers(path, values, fmt=CSV_FMT):
    """A headerless comma-separated file of a 1-D (one value per line) or
    2-D array, the bytes ``np.savetxt(path, values, fmt=fmt,
    delimiter=",")`` writes: one row template, %-formatted over about
    ``CHUNK_VALUES`` values (whole rows) per ``write``."""
    values = np.asarray(values)
    if values.ndim == 1:
        values = values.reshape(-1, 1)
    rows, cols = values.shape
    step = max(1, CHUNK_VALUES // max(cols, 1))
    line = ",".join([fmt] * cols) + "\n"
    with open(path, "w") as fh:
        for r0 in range(0, rows, step):
            chunk = values[r0:r0 + step]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def _load_matrix(path, N, cols, block):
    """The N x cols matrix in ``path``, which must not exist when cols is 0."""
    if cols == 0:
        if os.path.exists(path):
            raise ValueError(f"{path}: the manifest declares no {block}")
        return np.zeros((N, 0))
    M = read_number_csv(path, ndmin=2)
    if M.shape != (N, cols):
        raise ValueError(f"{path}: expected {N}x{cols}, got {M.shape[0]}x{M.shape[1]}")
    return M


def load_dataset(directory):
    """Load a dataset directory written by :func:`save_dataset`."""
    path = os.path.join(directory, "manifest")
    manifest = read_manifest(path)
    require_keys(path, manifest, ("n", "d", "N", "family"))
    n, d, N, q = (parse_int(f"{path}: {key}", manifest.get(key, "0"), least)
                  for key, least in (("n", 2), ("d", 0), ("N", 1), ("q", 0)))
    family = manifest["family"]
    idx = FeatureIndex(n=n, d=d)

    comm_path = os.path.join(directory, "communities.csv")
    comm = _load_matrix(comm_path, n, 2, "communities")
    order = np.argsort(comm[:, 0])
    if not np.array_equal(comm[order, 0], np.arange(1, n + 1)):
        raise ValueError(f"{comm_path}: must list node ids 1..n exactly once")
    assignments = comm[order, 1]

    edges, covs, y, nuisance = (
        _load_matrix(os.path.join(directory, name), N, cols, block)
        for name, cols, block in (
            ("A.csv", idx.n_edges, "edges"),
            ("X.csv", n * d, "node covariates (d)"),
            ("y.csv", 1, "response"),
            ("nuisance.csv", q, "nuisance columns (q)")))

    splits = {}
    for key in ("train_rows", "test_rows"):
        if key in manifest:
            try:
                splits[key] = parse_row_spec(manifest[key], N)
            except ValueError as exc:
                raise ValueError(f"{path}: {key}: {exc}") from None

    return Dataset(
        edges=edges, node_covs=covs, y=y,
        communities=CommunityMap(assignments=assignments),
        family=family, nuisance=nuisance if q else None, **splits,
    )


def save_dataset(dataset, directory):
    """Write a dataset directory (headerless CSVs plus a manifest)."""
    os.makedirs(directory, exist_ok=True)
    idx = dataset.index
    write_numbers(os.path.join(directory, "A.csv"), dataset.edges)
    if idx.d > 0:
        write_numbers(os.path.join(directory, "X.csv"), dataset.node_covs)
    write_numbers(os.path.join(directory, "y.csv"), dataset.y)
    comm = np.column_stack([
        np.arange(1, idx.n + 1),
        dataset.communities.assignments,
    ])
    write_numbers(os.path.join(directory, "communities.csv"), comm, "%d")
    entries = {
        "n": idx.n, "d": idx.d, "N": dataset.N, "family": dataset.family,
    }
    if dataset.nuisance is not None:
        write_numbers(os.path.join(directory, "nuisance.csv"),
                      dataset.nuisance)
        entries["q"] = dataset.nuisance.shape[1]
    if dataset.train_rows is not None:
        entries["train_rows"] = format_row_spec(dataset.train_rows)
    if dataset.test_rows is not None:
        entries["test_rows"] = format_row_spec(dataset.test_rows)
    write_manifest(os.path.join(directory, "manifest"), entries)
