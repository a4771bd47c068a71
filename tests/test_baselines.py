import numpy as np
import pytest

from netcov import FeatureIndex, cpm_fit, cpm_predict
from netcov.files import write_cpm_edges


def planted_design(rng, N=500, n=10, noise=0.5):
    """y driven by one positive and one negative edge."""
    idx = FeatureIndex(n=n, d=1)
    Z = rng.standard_normal((N, idx.p))
    e_pos = idx.edge_position(0, 1)
    e_neg = idx.edge_position(2, 3)
    y = Z[:, e_pos] - Z[:, e_neg] + noise * rng.standard_normal(N)
    return Z, y, idx, e_pos, e_neg


class TestCpmFit:
    def test_planted_signal_exact_sets_and_slopes(self, rng):
        Z, y, idx, e_pos, e_neg = planted_design(rng)
        model = cpm_fit(Z, y, idx, alpha=1e-4)
        assert model.positive_edges.tolist() == [e_pos]
        assert model.negative_edges.tolist() == [e_neg]
        assert model.slope_pos == pytest.approx(1.0, abs=0.1)
        assert model.slope_neg == pytest.approx(-1.0, abs=0.1)

    def test_null_selection_count_in_binomial_range(self):
        # 1275 edges at threshold 0.01: roughly 13 chance selections
        idx = FeatureIndex(n=51, d=0)
        assert idx.n_edges == 1275
        counts = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            Z = rng.standard_normal((200, idx.p))
            y = rng.standard_normal(200)
            model = cpm_fit(Z, y, idx, alpha=0.01)
            counts.append(model.positive_edges.size
                          + model.negative_edges.size)
        inside = sum(2 <= c <= 30 for c in counts)
        assert inside >= 19

    @pytest.mark.parametrize("alpha", [np.nan, 0.0, -1.0, 2.0, np.inf])
    def test_alpha_outside_unit_interval_rejected(self, rng, alpha):
        Z, y, idx, *_ = planted_design(rng, N=50)
        with pytest.raises(ValueError, match="alpha"):
            cpm_fit(Z, y, idx, alpha=alpha)

    def test_nothing_screened_gives_intercept_model(self, rng):
        # the smallest p-value here is about 2e-9; a threshold far below
        # it screens every edge out
        Z, y, idx, *_ = planted_design(rng, N=50)
        model = cpm_fit(Z, y, idx, alpha=1e-300)
        assert model.p_values.min() > 1e-300
        assert model.positive_edges.size == 0
        assert model.negative_edges.size == 0
        preds = cpm_predict(model, Z, idx)
        np.testing.assert_allclose(preds, y.mean(), atol=1e-10)

    def test_too_few_rows(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=2)
        with pytest.raises(ValueError, match="3 training rows"):
            cpm_fit(Z[:2], y[:2], idx)

    def test_constant_response(self, rng):
        Z, _, idx, *_ = planted_design(rng, N=20)
        with pytest.raises(ValueError, match="zero variance"):
            cpm_fit(Z, np.ones(20), idx)

    def test_sign_sets_disjoint_and_edges_only(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=100, noise=2.0)
        model = cpm_fit(Z, y, idx, alpha=0.2)
        overlap = np.intersect1d(model.positive_edges, model.negative_edges)
        assert overlap.size == 0
        assert model.positive_edges.max(initial=-1) < idx.n_edges
        assert model.negative_edges.max(initial=-1) < idx.n_edges


class TestCpmPredict:
    def test_training_predictions_reproduce_ols(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=200)
        model = cpm_fit(Z, y, idx, alpha=1e-4)
        E = Z[:, :idx.n_edges]
        M = np.column_stack([
            np.ones(len(y)),
            E[:, model.positive_edges].sum(axis=1),
            E[:, model.negative_edges].sum(axis=1),
        ])
        coefs, *_ = np.linalg.lstsq(M, y, rcond=None)
        np.testing.assert_allclose(cpm_predict(model, Z, idx), M @ coefs,
                                   atol=1e-10)

    def test_holdout_correlation(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=1000)
        model = cpm_fit(Z[:500], y[:500], idx, alpha=1e-4)
        preds = cpm_predict(model, Z[500:], idx)
        r = np.corrcoef(preds, y[500:])[0, 1]
        assert r > 0.5

    def test_misaligned_design_rejected(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=30)
        model = cpm_fit(Z, y, idx)
        with pytest.raises(ValueError, match="columns"):
            cpm_predict(model, Z[:, :-1], idx)


class TestInvariances:
    def test_affine_response_transform_keeps_sets(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=200)
        m1 = cpm_fit(Z, y, idx, alpha=0.05)
        m2 = cpm_fit(Z, 3.5 * y + 11.0, idx, alpha=0.05)
        np.testing.assert_array_equal(m1.positive_edges, m2.positive_edges)
        np.testing.assert_array_equal(m1.negative_edges, m2.negative_edges)

    def test_node_covariates_never_read(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=150)
        m1 = cpm_fit(Z, y, idx, alpha=0.05)
        Z2 = Z.copy()
        Z2[:, idx.n_edges:] = rng.standard_normal(
            Z2[:, idx.n_edges:].shape)
        m2 = cpm_fit(Z2, y, idx, alpha=0.05)
        np.testing.assert_array_equal(m1.positive_edges, m2.positive_edges)
        np.testing.assert_array_equal(m1.negative_edges, m2.negative_edges)
        assert m1.intercept == m2.intercept
        assert m1.slope_pos == m2.slope_pos
        assert m1.slope_neg == m2.slope_neg

    def test_zero_variance_edge_never_selected(self, rng):
        Z, y, idx, *_ = planted_design(rng, N=100)
        Z[:, 5] = 2.0
        model = cpm_fit(Z, y, idx, alpha=0.5)
        assert 5 not in model.positive_edges
        assert 5 not in model.negative_edges


class TestExport:
    def test_edges_csv(self, rng, tmp_path):
        Z, y, idx, e_pos, e_neg = planted_design(rng)
        model = cpm_fit(Z, y, idx, alpha=1e-4)
        path = tmp_path / "cpm_edges.csv"
        write_cpm_edges(model, idx, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "edge_index,node_k,node_l,r,p,sign"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 2
        pos_row = next(r for r in rows if r[5] == "+")
        assert int(pos_row[0]) == e_pos
        assert (int(pos_row[1]), int(pos_row[2])) == (1, 2)  # 1-based nodes
