import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from netcov import (CommunityMap, FeatureIndex, blocks, cells, ebg_groups,
                    expand, fold_back, nbg_groups, singleton_groups,
                    split_communities)
from netcov.files import write_groups_csv
from netcov.groups import scheme_groups
from oracles import expand_design

# 13-community, 236-node reference layout used by the acceptance checks
ATLAS_SIZES = (30, 5, 14, 13, 58, 5, 31, 25, 18, 13, 9, 11, 4)


def atlas_map():
    labels = np.concatenate([np.full(c, k + 1)
                             for k, c in enumerate(ATLAS_SIZES)])
    return CommunityMap(assignments=labels)


@st.composite
def community_layouts(draw):
    """Community labels of 2..8 nodes: every label in 1..K used, any order."""
    K = draw(st.integers(1, 4))
    n = draw(st.integers(max(2, K), 8))
    extra = draw(st.lists(st.integers(1, K), min_size=n - K, max_size=n - K))
    return draw(st.permutations(list(range(1, K + 1)) + extra))


def toy():
    return CommunityMap(assignments=[1, 1, 2]), FeatureIndex(n=3, d=1)


class TestBlocks:
    def test_toy(self):
        cm, idx = toy()
        blk = blocks(cm, idx)
        assert [b.tolist() for b in blk] == [[3, 4], [5]]

    def test_d_zero_all_empty(self):
        cm = CommunityMap(assignments=[1, 2, 2])
        blk = blocks(cm, FeatureIndex(n=3, d=0))
        assert all(b.size == 0 for b in blk)

    def test_two_covariates(self):
        cm = CommunityMap(assignments=[1, 2])
        blk = blocks(cm, FeatureIndex(n=2, d=2))
        assert [b.tolist() for b in blk] == [[1, 2], [3, 4]]

    def test_partition_of_node_covariates(self, rng):
        cm = CommunityMap(assignments=rng.integers(1, 4, size=11) * 0 +
                          np.repeat([1, 2, 3], [4, 4, 3]))
        idx = FeatureIndex(n=11, d=3)
        blk = blocks(cm, idx)
        merged = np.sort(np.concatenate(blk))
        np.testing.assert_array_equal(merged,
                                      np.arange(idx.n_edges, idx.p))


class TestCells:
    def test_toy(self):
        cm, idx = toy()
        cel = cells(cm, idx)
        # pair order (1,1), (1,2), (2,2)
        assert [c.tolist() for c in cel] == [[0], [1, 2], []]

    def test_three_communities_six_nonempty(self):
        cm = CommunityMap(assignments=[1, 1, 2, 2, 3, 3])
        cel = cells(cm, FeatureIndex(n=6, d=0))
        assert len(cel) == 6
        assert all(c.size > 0 for c in cel)

    def test_single_community_holds_all_edges(self):
        cm = CommunityMap(assignments=[1, 1, 1, 1])
        idx = FeatureIndex(n=4, d=0)
        cel = cells(cm, idx)
        assert len(cel) == 1
        assert cel[0].size == idx.n_edges

    def test_partition_of_edges(self, rng):
        labels = np.sort(rng.integers(1, 5, size=12))
        labels = np.unique(labels, return_inverse=True)[1] + 1
        cm = CommunityMap(assignments=labels)
        idx = FeatureIndex(n=12, d=1)
        merged = np.sort(np.concatenate(cells(cm, idx)))
        np.testing.assert_array_equal(merged, np.arange(idx.n_edges))


class TestNbg:
    def test_toy_exact(self):
        cm, idx = toy()
        spec = nbg_groups(cm, idx)
        assert spec.names == ("1", "2")
        assert [m.tolist() for m in spec.members] == [[0, 1, 2, 3, 4],
                                                      [1, 2, 5]]

    def test_k3_group_is_block_plus_touching_cells(self):
        cm = CommunityMap(assignments=[1, 1, 2, 2, 3, 3])
        idx = FeatureIndex(n=6, d=1)
        spec = nbg_groups(cm, idx)
        cel = cells(cm, idx)
        blk = blocks(cm, idx)
        # group 1 = cells (1,1), (1,2), (1,3) plus block 1
        expected = np.unique(np.concatenate([cel[0], cel[1], cel[2], blk[0]]))
        np.testing.assert_array_equal(spec.members[0], expected)

    def test_atlas_smallest_group_938(self):
        cm = atlas_map()
        spec = nbg_groups(cm, FeatureIndex(n=236, d=1))
        assert spec.n_groups == 13
        assert int(spec.sizes().min()) == 938

    def test_membership_counts(self):
        cm = CommunityMap(assignments=[1, 1, 2, 2, 3])
        idx = FeatureIndex(n=5, d=2)
        spec = nbg_groups(cm, idx)
        counts = np.zeros(idx.p, dtype=int)
        for g in spec.members:
            counts[g] += 1
        pairs = idx.edge_pairs()
        same = cm.assignments[pairs[0]] == cm.assignments[pairs[1]]
        np.testing.assert_array_equal(counts[:idx.n_edges],
                                      np.where(same, 1, 2))
        assert np.all(counts[idx.n_edges:] == 1)

    def test_size_identity(self):
        cm = CommunityMap(assignments=[1, 1, 1, 2, 2, 3])
        idx = FeatureIndex(n=6, d=2)
        spec = nbg_groups(cm, idx)
        pairs = idx.edge_pairs()
        same = cm.assignments[pairs[0]] == cm.assignments[pairs[1]]
        expected = idx.n * idx.d + same.sum() + 2 * (~same).sum()
        assert int(spec.sizes().sum()) == expected


class TestEbg:
    def test_toy_exact(self):
        cm, idx = toy()
        spec = ebg_groups(cm, idx)
        # (2,2) has no edges, only community 2's lone covariate
        lookup = dict(zip(spec.names, [m.tolist() for m in spec.members]))
        assert lookup["(1,1)"] == [0, 3, 4]
        assert lookup["(1,2)"] == [1, 2, 3, 4, 5]
        assert lookup["(2,2)"] == [5]

    def test_empty_diagonal_group_dropped(self):
        # singleton community with d=0: its diagonal group has no members
        cm = CommunityMap(assignments=[1, 1, 2])
        with pytest.warns(UserWarning, match="empty group"):
            spec = ebg_groups(cm, FeatureIndex(n=3, d=0))
        assert "(2,2)" not in spec.names
        assert spec.n_groups == 2

    def test_k3_has_six_groups(self):
        cm = CommunityMap(assignments=[1, 1, 2, 2, 3, 3])
        spec = ebg_groups(cm, FeatureIndex(n=6, d=1))
        assert spec.n_groups == 6
        assert spec.names == ("(1,1)", "(1,2)", "(1,3)", "(2,2)", "(2,3)",
                              "(3,3)")

    def test_d0_diagonal_group_is_within_edges(self):
        cm = CommunityMap(assignments=[1, 1, 2, 2])
        idx = FeatureIndex(n=4, d=0)
        spec = ebg_groups(cm, idx)
        g11 = spec.members[spec.lookup("(1,1)")]
        assert g11.tolist() == [idx.edge_position(0, 1)]

    def test_atlas_group_count(self):
        spec = ebg_groups(atlas_map(), FeatureIndex(n=236, d=1))
        assert spec.n_groups == 13 * 14 // 2

    def test_membership_counts(self):
        cm = CommunityMap(assignments=[1, 1, 2, 2, 3])
        idx = FeatureIndex(n=5, d=1)
        spec = ebg_groups(cm, idx)
        counts = np.zeros(idx.p, dtype=int)
        for g in spec.members:
            counts[g] += 1
        assert np.all(counts[:idx.n_edges] == 1)
        assert np.all(counts[idx.n_edges:] == cm.K)

    def test_reversed_pair_spelling_names_no_group(self):
        # a pair group is named (k,k') with k <= k' and looked up exactly
        cm = CommunityMap(assignments=[1, 1, 2, 2, 3, 3])
        spec = ebg_groups(cm, FeatureIndex(n=6, d=1))
        assert spec.names[spec.lookup("(1,3)")] == "(1,3)"
        with pytest.raises(ValueError, match=r"no group named '\(3,1\)'"):
            spec.lookup("(3,1)")


class TestCoverage:
    @pytest.mark.parametrize("builder", [nbg_groups, ebg_groups])
    def test_union_is_everything(self, builder, rng):
        cm = CommunityMap(assignments=np.repeat([1, 2, 3, 4], [3, 2, 4, 2]))
        idx = FeatureIndex(n=11, d=2)
        spec = builder(cm, idx)
        covered = np.zeros(idx.p, dtype=bool)
        for g in spec.members:
            covered[g] = True
        assert covered.all()

    def test_singleton(self):
        idx = FeatureIndex(n=4, d=1)
        spec = singleton_groups(idx)
        assert spec.n_groups == idx.p
        assert all(g.size == 1 for g in spec.members)


class TestExpansion:
    def test_sizes(self):
        cm, idx = toy()
        ebg = ebg_groups(cm, idx)
        assert expand(ebg).p_star == 9
        nbg = nbg_groups(cm, idx)
        assert expand(nbg).p_star == 8
        single = singleton_groups(idx)
        emap = expand(single)
        assert emap.p_star == idx.p
        np.testing.assert_array_equal(emap.expanded_to_original,
                                      np.arange(idx.p))

    def test_fold_back_sums_duplicates(self):
        cm, idx = toy()
        spec = nbg_groups(cm, idx)
        emap = expand(spec)
        beta_star = np.zeros(emap.p_star)
        # coordinate 1 (edge 0-2) lives in both groups
        positions = np.flatnonzero(emap.expanded_to_original == 1)
        assert positions.size == 2
        beta_star[positions[0]] = 0.3
        beta_star[positions[1]] = 0.2
        assert fold_back(beta_star, emap)[1] == pytest.approx(0.5)

    def test_fold_back_zero_and_length_check(self):
        cm, idx = toy()
        emap = expand(nbg_groups(cm, idx))
        np.testing.assert_array_equal(fold_back(np.zeros(emap.p_star), emap),
                                      np.zeros(idx.p))
        with pytest.raises(ValueError, match="length"):
            fold_back(np.zeros(emap.p_star + 1), emap)

    @pytest.mark.filterwarnings("ignore:dropping empty group")
    @settings(max_examples=60, deadline=None)
    @given(layout=community_layouts(), d=st.sampled_from([0, 1, 2]),
           scheme=st.sampled_from(["nbg", "ebg"]),
           N=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_expanded_design_identity(self, layout, d, scheme, N, seed):
        # Z_star @ b == Z @ fold_back(b) by direct multiplication
        cm = CommunityMap(assignments=layout)
        idx = FeatureIndex(n=cm.n, d=d)
        emap = expand(scheme_groups(scheme, cm, idx))
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((N, idx.p))
        b = rng.standard_normal(emap.p_star)
        np.testing.assert_allclose(expand_design(emap, Z) @ b,
                                   Z @ fold_back(b, emap), atol=1e-10)

    def test_fold_back_linearity(self, rng):
        cm, idx = toy()
        emap = expand(nbg_groups(cm, idx))
        a = rng.standard_normal(emap.p_star)
        b = rng.standard_normal(emap.p_star)
        np.testing.assert_allclose(fold_back(a + b, emap),
                                   fold_back(a, emap) + fold_back(b, emap))

    def test_canonical_injection_round_trip(self, rng):
        cm, idx = toy()
        spec = nbg_groups(cm, idx)
        emap = expand(spec)
        beta = rng.standard_normal(idx.p)
        beta_star = np.zeros(emap.p_star)
        placed = set()
        for j, orig in enumerate(emap.expanded_to_original):
            if orig not in placed:
                beta_star[j] = beta[orig]
                placed.add(orig)
        np.testing.assert_allclose(fold_back(beta_star, emap), beta)


class TestSplitCommunities:
    def test_atlas_profile(self):
        out = split_communities(atlas_map(), target_size=5, seed=1)
        sizes = out.sizes()
        assert out.K == 50
        counts = dict(zip(*np.unique(sizes, return_counts=True)))
        assert counts == {4: 15, 5: 34, 6: 1}

    def test_atlas_profile_seed_independent(self):
        for seed in (0, 7, 123):
            sizes = split_communities(atlas_map(), 5, seed).sizes()
            counts = dict(zip(*np.unique(sizes, return_counts=True)))
            assert counts == {4: 15, 5: 34, 6: 1}

    def test_exact_target_unchanged(self):
        cm = CommunityMap(assignments=[1] * 5)
        out = split_communities(cm, 5, seed=0)
        assert out.K == 1

    def test_slightly_oversized_left_whole(self):
        # splitting 6 at target 5 would create chunks below 4; keep it intact
        cm = CommunityMap(assignments=[1] * 6)
        out = split_communities(cm, 5, seed=0)
        assert out.K == 1

    def test_eleven_splits_into_six_and_five(self):
        cm = CommunityMap(assignments=[1] * 11)
        out = split_communities(cm, 5, seed=3)
        assert sorted(out.sizes().tolist()) == [5, 6]

    def test_deterministic_and_seed_sensitive(self):
        cm = atlas_map()
        a = split_communities(cm, 5, seed=42)
        b = split_communities(cm, 5, seed=42)
        c = split_communities(cm, 5, seed=43)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert not np.array_equal(a.assignments, c.assignments)

    def test_relabeled_contiguously(self):
        out = split_communities(atlas_map(), 5, seed=9)
        labels = np.unique(out.assignments)
        np.testing.assert_array_equal(labels, np.arange(1, out.K + 1))

    def test_chunks_respect_original_communities(self):
        cm = atlas_map()
        out = split_communities(cm, 5, seed=5)
        for new_label in range(1, out.K + 1):
            nodes = out.members(new_label)
            assert np.unique(cm.assignments[nodes]).size == 1

    def test_target_too_small(self):
        with pytest.raises(ValueError, match="target_size"):
            split_communities(atlas_map(), 1, seed=0)

    def test_seed_required(self, rng):
        # an unseeded split would draw OS entropy: a new map on each call
        from conftest import make_dataset
        from netcov.pipeline import make_groups

        with pytest.raises(ValueError, match="needs a seed"):
            split_communities(atlas_map(), 5, seed=None)
        ds = make_dataset(rng, [1] * 11 + [2] * 3, d=1, N=4)
        with pytest.raises(ValueError, match="needs a seed"):
            make_groups(ds, "ebg", split_target=5)
        (a, cm_a), (b, cm_b) = (make_groups(ds, "ebg", split_target=5,
                                            seed=(3, 11)) for _ in range(2))
        assert cm_a.K == 3
        np.testing.assert_array_equal(cm_a.assignments, cm_b.assignments)
        assert_same_spec(a, b)


class TestGroupsCsv:
    def test_export_round_trip(self, tmp_path):
        cm, idx = toy()
        spec = nbg_groups(cm, idx)
        path = tmp_path / "groups.csv"
        write_groups_csv(spec, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "group,feature_index"
        rows = [ln.split(",") for ln in lines[1:]]
        got = {}
        for name, j in rows:
            got.setdefault(name, []).append(int(j))
        assert got == {"1": [0, 1, 2, 3, 4], "2": [1, 2, 5]}


def assert_same_spec(a, b):
    assert (a.names, a.scheme, a.p) == (b.names, b.scheme, b.p)
    assert len(a.members) == len(b.members)
    for ga, gb in zip(a.members, b.members):
        np.testing.assert_array_equal(ga, gb)


class TestSchemeDispatch:
    def test_make_groups_and_groups_for_agree(self, rng):
        from conftest import make_dataset
        from netcov.pipeline import make_groups
        from netcov.simulate import ExperimentConfig, groups_for

        ds = make_dataset(rng, [1, 1, 2, 2, 3], d=2, N=6)
        upper, _ = make_groups(ds, "EBG")
        lower, cm = make_groups(ds, "ebg")
        cfg = ExperimentConfig(scheme="EBG", active_groups=("(1,1)",),
                               alpha=0.2, family="gaussian", d=2, seed=0)
        assert_same_spec(upper, lower)
        assert_same_spec(lower, groups_for(cfg, cm))
        assert lower.n_groups == 6

    def test_unknown_scheme_rejected(self, rng):
        from conftest import make_dataset
        from netcov.pipeline import make_groups

        ds = make_dataset(rng, [1, 2], d=1, N=4)
        with pytest.raises(ValueError, match="scheme must be one of"):
            make_groups(ds, "banana")
