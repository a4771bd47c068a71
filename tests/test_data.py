from dataclasses import replace

import numpy as np
import pytest

from netcov import (CommunityMap, Dataset, FeatureIndex, Observation,
                    build_design, devectorize, load_dataset, save_dataset,
                    vectorize)
from netcov.data import format_row_spec, parse_row_spec, read_manifest


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

    def test_shape_mismatch_rejected(self, rng, tmp_path):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=3)
        save_dataset(ds, str(tmp_path / "d"))
        (tmp_path / "d" / "y.csv").write_text("1\n2\n")
        with pytest.raises(ValueError, match="y.csv"):
            load_dataset(str(tmp_path / "d"))

    def test_binomial_requires_01(self, rng):
        from conftest import make_dataset

        ds = make_dataset(rng, [1, 2], d=1, N=4)
        with pytest.raises(ValueError, match="0/1"):
            Dataset(edges=ds.edges, node_covs=ds.node_covs,
                    y=np.array([0.0, 1.0, 2.0, 0.0]),
                    communities=ds.communities, family="binomial")
