from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from netcov import (CommunityMap, Dataset, FeatureIndex, Observation,
                    build_design, devectorize, load_dataset, save_dataset,
                    vectorize)
from netcov.data import (CHUNK_VALUES, format_row_spec, parse_row_spec,
                         read_manifest, write_numbers)


def sym(n, entries):
    A = np.zeros((n, n))
    for (k, l), v in entries.items():
        A[k, l] = A[l, k] = v
    return A


class TestVectorize:
    def test_canonical_order_toy(self):
        obs = Observation(A=sym(3, {(0, 1): 5, (0, 2): 6, (1, 2): 7}),
                          X=np.array([[1.0], [2.0], [3.0]]), y=0.0)
        idx = FeatureIndex(n=3, d=1)
        assert idx.p == 6
        np.testing.assert_array_equal(vectorize(obs, idx),
                                      [5.0, 6.0, 7.0, 1.0, 2.0, 3.0])

    def test_degenerate_two_nodes_no_covariates(self):
        obs = Observation(A=np.zeros((2, 2)), X=np.zeros((2, 0)), y=0.0)
        idx = FeatureIndex(n=2, d=0)
        assert idx.p == 1
        np.testing.assert_array_equal(vectorize(obs, idx), [0.0])

    def test_asymmetric_rejected(self):
        A = np.zeros((3, 3))
        A[0, 1] = 1.0  # A[1, 0] left at 0
        with pytest.raises(ValueError, match="symmetric"):
            Observation(A=A, X=np.zeros((3, 1)), y=0.0)

    def test_nonzero_diagonal_rejected(self):
        A = np.eye(3)
        with pytest.raises(ValueError, match="diagonal"):
            Observation(A=A, X=np.zeros((3, 1)), y=0.0)

    def test_dimension_mismatch_rejected(self):
        obs = Observation(A=np.zeros((3, 3)), X=np.zeros((3, 1)), y=0.0)
        with pytest.raises(ValueError):
            vectorize(obs, FeatureIndex(n=4, d=1))

    def test_round_trips(self, rng):
        idx = FeatureIndex(n=5, d=2)
        z = rng.standard_normal(idx.p)
        obs = devectorize(z, idx)
        np.testing.assert_array_equal(vectorize(obs, idx), z)
        obs2 = Observation(A=obs.A, X=obs.X, y=1.0)
        back = devectorize(vectorize(obs2, idx), idx)
        np.testing.assert_array_equal(back.A, obs2.A)
        np.testing.assert_array_equal(back.X, obs2.X)

    def test_edge_position_matches_order(self):
        idx = FeatureIndex(n=5, d=0)
        pairs = idx.edge_pairs()
        for j in range(idx.n_edges):
            assert idx.edge_position(pairs[0, j], pairs[1, j]) == j
        assert idx.edge_position(3, 1) == idx.edge_position(1, 3)


class TestBuildDesign:
    def test_two_observations(self):
        obs = [
            Observation(A=sym(3, {(0, 1): 1}), X=np.ones((3, 1)), y=0.0),
            Observation(A=sym(3, {(0, 2): 2}), X=np.zeros((3, 1)), y=1.0),
        ]
        ds = Dataset.from_observations(obs, CommunityMap(assignments=[1, 1, 2]),
                                       "gaussian")
        Z = build_design(ds)
        assert Z.shape == (2, 6)
        np.testing.assert_array_equal(Z[0], [1, 0, 0, 1, 1, 1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Dataset.from_observations([], CommunityMap(assignments=[1, 1]),
                                      "gaussian")

    def test_inconsistent_dimensions_rejected(self):
        obs = [
            Observation(A=np.zeros((3, 3)), X=np.zeros((3, 1)), y=0.0),
            Observation(A=np.zeros((4, 4)), X=np.zeros((4, 1)), y=0.0),
        ]
        with pytest.raises(ValueError, match="observation 1"):
            Dataset.from_observations(obs, CommunityMap(assignments=[1, 1, 2]),
                                      "gaussian")

    def test_full_synthetic_scale(self):
        # N=1000, n=50, d=1: p = 50*49/2 + 50 = 1275
        from netcov import ExperimentConfig, gen_design_synthetic

        cfg = ExperimentConfig(scheme="EBG", active_groups=("(1,1)",),
                               alpha=0.1, family="gaussian", seed=0)
        ds = gen_design_synthetic(cfg)
        Z = build_design(ds)
        assert Z[ds.train_rows].shape == (1000, 1275)

    def test_rows_in_requested_order(self, rng):
        ds = make_simple(rng)
        rows = np.array([5, 0, 3])
        Z = build_design(ds, rows)
        np.testing.assert_array_equal(Z, build_design(ds)[rows])
        np.testing.assert_array_equal(Z[:, :ds.index.n_edges], ds.edges[rows])

    @pytest.mark.parametrize("gather", [None, 7, 1])
    def test_matches_hstack_of_gathered_rows(self, rng, monkeypatch, gather):
        # the rows land in the output a step at a time; any step size
        # gives the bytes of the plain hstack of fancy-indexed blocks
        import netcov.data as data

        if gather is not None:
            monkeypatch.setattr(data, "_GATHER_ELEMENTS", gather)
        ds = make_simple(rng, N=23)
        for rows in (None, np.array([1, 4, 5, 9, 22]),
                     rng.permutation(23)[:17]):
            take = slice(None) if rows is None else rows
            expected = np.hstack([ds.edges[take], ds.node_covs[take]])
            Z = build_design(ds, rows)
            assert Z.dtype == expected.dtype and Z.flags.c_contiguous
            np.testing.assert_array_equal(Z, expected)


def make_simple(rng, N=8):
    from conftest import make_dataset

    return make_dataset(rng, [1, 1, 2, 2], d=1, N=N)


class TestNodePermutation:
    def test_consistent_relabeling_permutes_columns(self, rng):
        n, d = 6, 2
        idx = FeatureIndex(n=n, d=d)
        A = sym(n, {(k, l): rng.standard_normal()
                    for k in range(n) for l in range(k + 1, n)})
        X = rng.standard_normal((n, d))
        obs = Observation(A=A, X=X, y=0.0)
        perm = rng.permutation(n)  # new node i is old node perm[i]
        obs_p = Observation(A=A[np.ix_(perm, perm)], X=X[perm], y=0.0)

        col_map = np.empty(idx.p, dtype=int)
        pairs = idx.edge_pairs()
        for j in range(idx.n_edges):
            col_map[j] = idx.edge_position(perm[pairs[0, j]],
                                           perm[pairs[1, j]])
        for i in range(n):
            for c in range(d):
                col_map[idx.node_cov_position(i, c)] = \
                    idx.node_cov_position(perm[i], c)

        np.testing.assert_allclose(vectorize(obs_p, idx),
                                   vectorize(obs, idx)[col_map])


class TestCommunityMap:
    def test_labels_must_be_contiguous(self):
        with pytest.raises(ValueError, match="contiguous"):
            CommunityMap(assignments=[1, 3, 3])

    def test_labels_must_be_integers(self):
        # a label the int64 cast would change is refused, not truncated
        cm = CommunityMap(assignments=np.array([1.0, 2.0, 2.0]))
        np.testing.assert_array_equal(cm.assignments, [1, 2, 2])
        for labels in ([1, 2, 1.7], [1, 2, np.nan], [1, 2, 2.5, 3]):
            with pytest.raises(ValueError, match="must be integers"):
                CommunityMap(assignments=labels)

    def test_ordering_is_contiguous_nondecreasing(self):
        cm = CommunityMap(assignments=[2, 1, 2, 1, 3])
        ordered = cm.assignments[cm.ordering()]
        assert np.all(np.diff(ordered) >= 0)

    def test_sizes(self):
        cm = CommunityMap(assignments=[1, 2, 2, 3, 3, 3])
        np.testing.assert_array_equal(cm.sizes(), [1, 2, 3])


class TestRowSpec:
    def test_parse_range(self):
        np.testing.assert_array_equal(parse_row_spec("1-785")[:3], [0, 1, 2])
        assert parse_row_spec("1-785").size == 785

    def test_parse_mixed(self):
        np.testing.assert_array_equal(parse_row_spec("1-3,5,7-8"),
                                      [0, 1, 2, 4, 6, 7])

    def test_round_trip(self, rng):
        rows = np.sort(rng.choice(100, size=17, replace=False))
        np.testing.assert_array_equal(parse_row_spec(format_row_spec(rows)),
                                      rows)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="exceeds"):
            parse_row_spec("1-10", N=5)

    @pytest.mark.parametrize("part", ["1-x", "x", "0", "5-", "-5", "1-2-3",
                                      "4-2", "2.5"])
    def test_bad_part_is_named(self, part):
        with pytest.raises(ValueError, match=f"bad row range '{part}'"):
            parse_row_spec(f"1-3,{part}")


class TestDiskLayout:
    def test_round_trip(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 1, 2, 2, 3], d=2, N=12, nuisance_q=2)
        ds = replace(ds, train_rows=np.arange(9),
                     test_rows=np.arange(9, 12))
        save_dataset(ds, str(tmp_path / "d"))
        back = load_dataset(str(tmp_path / "d"))
        np.testing.assert_array_equal(back.edges, ds.edges)
        np.testing.assert_array_equal(back.node_covs, ds.node_covs)
        np.testing.assert_array_equal(back.y, ds.y)
        np.testing.assert_array_equal(back.nuisance, ds.nuisance)
        np.testing.assert_array_equal(back.train_rows, ds.train_rows)
        np.testing.assert_array_equal(back.communities.assignments,
                                      ds.communities.assignments)

    def test_csvs_are_headerless(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=3)
        save_dataset(ds, str(tmp_path / "d"))
        first = (tmp_path / "d" / "A.csv").read_text().splitlines()[0]
        float(first.split(",")[0])  # raises if a header snuck in

    def test_d_zero_omits_x(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2, 2], d=0, N=4)
        save_dataset(ds, str(tmp_path / "d"))
        assert not (tmp_path / "d" / "X.csv").exists()
        back = load_dataset(str(tmp_path / "d"))
        assert back.node_covs.shape == (4, 0)

    def test_missing_manifest_key(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=3)
        save_dataset(ds, str(tmp_path / "d"))
        manifest = tmp_path / "d" / "manifest"
        lines = [ln for ln in manifest.read_text().splitlines()
                 if not ln.startswith("family")]
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="family"):
            load_dataset(str(tmp_path / "d"))

    @pytest.mark.parametrize("key, value, message", [
        ("n", "x", "n must be an integer, got 'x'"),
        ("n", "1", "n must be at least 2, got '1'"),
        ("d", "one", "d must be an integer, got 'one'"),
        ("d", "-1", "d must be at least 0, got '-1'"),
        ("N", "3.0", "N must be an integer, got '3.0'"),
        ("N", "-3", "N must be at least 1, got '-3'"),
        ("q", "two", "q must be an integer, got 'two'"),
        ("train_rows", "1-x", "train_rows: bad row range '1-x'"),
        ("test_rows", "2,y", "test_rows: bad row range 'y'"),
        # refused before a list of 10^12 rows is built
        ("train_rows", "1-1000000000000",
         "train_rows: row spec '1-1000000000000' exceeds N=3"),
    ])
    def test_bad_manifest_value_names_file_and_key(self, rng, tmp_path, key,
                                                   value, message):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=3)
        save_dataset(ds, str(tmp_path / "d"))
        manifest = tmp_path / "d" / "manifest"
        lines = [ln for ln in manifest.read_text().splitlines()
                 if ln.split("=")[0].strip() != key]
        manifest.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
        with pytest.raises(ValueError) as err:
            load_dataset(str(tmp_path / "d"))
        assert str(err.value) == f"{manifest}: {message}"

    def test_shape_mismatch_rejected(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=3)
        save_dataset(ds, str(tmp_path / "d"))
        (tmp_path / "d" / "y.csv").write_text("1\n2\n")
        with pytest.raises(ValueError, match="y.csv"):
            load_dataset(str(tmp_path / "d"))

    def test_two_column_response_rejected(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=3)
        save_dataset(ds, str(tmp_path / "d"))
        (tmp_path / "d" / "y.csv").write_text("1,4\n2,5\n3,6\n")
        with pytest.raises(ValueError, match="y.csv: expected 3x1, got 3x2"):
            load_dataset(str(tmp_path / "d"))

    def test_binomial_requires_01(self, rng):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=4)
        with pytest.raises(ValueError, match="0/1"):
            Dataset(edges=ds.edges, node_covs=ds.node_covs,
                    y=np.array([0.0, 1.0, 2.0, 0.0]),
                    communities=ds.communities, family="binomial")


# signed zeros, the smallest subnormal and a larger one, the extremes and
# the non-finite values
SPECIAL_VALUES = (0.0, -0.0, 5e-324, -5e-324, -1.5e-310, 1e308, -1e308,
                  np.finfo(np.float64).max, np.nan, np.inf, -np.inf)


def savetxt_bytes(path, values, fmt):
    np.savetxt(path, values, fmt=fmt, delimiter=",")
    return path.read_bytes()


class TestWriteNumbers:
    """``write_numbers`` writes what ``np.savetxt`` wrote, byte for byte,
    across its chunks."""

    @settings(max_examples=40, deadline=None)
    @given(shape=st.one_of(
               # many rows of a few columns: several chunks
               st.tuples(st.integers(1, 3 * CHUNK_VALUES), st.integers(1, 3)),
               st.tuples(st.integers(1, 60), st.integers(1, 200)),
               # one row wider than a chunk
               st.tuples(st.integers(1, 3), st.integers(CHUNK_VALUES,
                                                        CHUNK_VALUES + 50))),
           flat=st.booleans(),
           specials=st.lists(st.tuples(st.integers(0), st.sampled_from(
               SPECIAL_VALUES)), max_size=12),
           seed=st.integers(0, 2**32 - 1))
    @example(shape=(1, 1), flat=False, specials=[], seed=0)
    @example(shape=(CHUNK_VALUES + 1, 1), flat=True, specials=[(0, -0.0)],
             seed=1)
    def test_bytes_of_savetxt(self, tmp_path_factory, shape, flat, specials,
                              seed):
        rng = np.random.default_rng(seed)
        values = (rng.standard_normal(shape)
                  * 10.0 ** rng.integers(-320, 300, size=shape))
        for position, value in specials:
            values.flat[position % values.size] = value
        if flat:  # a 1-D array is one value per line
            values = values[:, 0]
        root = tmp_path_factory.mktemp("numbers")
        write_numbers(root / "mine.csv", values)
        assert ((root / "mine.csv").read_bytes()
                == savetxt_bytes(root / "numpy.csv", values, "%.17g"))

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(1, 3 * CHUNK_VALUES), K=st.integers(1, 400),
           as_float=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_integer_columns(self, tmp_path_factory, n, K, as_float, seed):
        # communities.csv: node ids and community ids, stored as int64 or,
        # as load_dataset reads them, float64
        rng = np.random.default_rng(seed)
        comm = np.column_stack([np.arange(1, n + 1),
                                rng.integers(1, K + 1, size=n)])
        if as_float:
            comm = comm.astype(np.float64)
        root = tmp_path_factory.mktemp("communities")
        write_numbers(root / "mine.csv", comm, "%d")
        assert ((root / "mine.csv").read_bytes()
                == savetxt_bytes(root / "numpy.csv", comm, "%d"))

    def test_save_dataset_reads_back_exactly(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 1, 2, 2, 3], d=2, N=12, nuisance_q=2)
        finite = [v for v in SPECIAL_VALUES if np.isfinite(v)]
        blocks = {}
        for name in ("edges", "node_covs", "y", "nuisance"):
            values = getattr(ds, name).copy()
            values.flat[:len(finite)] = finite
            blocks[name] = values
        ds = replace(ds, **blocks, communities=CommunityMap(
            assignments=[3, 1, 2, 1, 3]), train_rows=np.arange(9),
            test_rows=np.arange(9, 12))
        save_dataset(ds, str(tmp_path / "d"))
        back = load_dataset(str(tmp_path / "d"))
        for name in blocks:
            assert getattr(back, name).tobytes() == blocks[name].tobytes()
        assert (back.communities.assignments.tolist()
                == ds.communities.assignments.tolist())
        assert back.train_rows.tolist() == list(range(9))
        assert back.test_rows.tolist() == list(range(9, 12))
