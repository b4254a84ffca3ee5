import numpy as np
import pytest

from flowsieve import autoencoder
from flowsieve.config import PipelineConfig
from flowsieve.errors import DataError, NumericError
from flowsieve.stats import nearest_rank_percentile


def reconstruct(model: autoencoder.Filter1Model, x: np.ndarray) -> np.ndarray:
    """The autoencoder's output for every row of x."""
    return autoencoder._forward(model, np.atleast_2d(x))[-1]


def _tiny_config(**overrides) -> PipelineConfig:
    base = dict(epochs_max=200, batch_size=8, rng_seed=7)
    base.update(overrides)
    return PipelineConfig(**base)


class TestBuildAe:
    def test_layer_sizes_at_24(self):
        assert autoencoder.layer_dimensions(24) == [24, 12, 6, 12, 24]

    def test_layer_sizes_at_4(self):
        assert autoencoder.layer_dimensions(4) == [4, 2, 1, 2, 4]

    def test_minimum_dimension(self):
        assert autoencoder.layer_dimensions(2) == [2, 1, 1, 1, 2]
        with pytest.raises(DataError):
            autoencoder.build_ae(1, seed=0)

    def test_seeded_builds_are_bit_identical(self):
        first = autoencoder.build_ae(10, seed=123)
        second = autoencoder.build_ae(10, seed=123)
        for w1, w2 in zip(first.weights, second.weights):
            assert np.array_equal(w1, w2)

    def test_different_seeds_differ(self):
        first = autoencoder.build_ae(10, seed=1)
        second = autoencoder.build_ae(10, seed=2)
        assert not np.array_equal(first.weights[0], second.weights[0])


class TestComputeMse:
    def test_hand_example(self):
        # x = (0.5, 0.5), reconstruction (0.4, 0.6): ((0.1)^2 + (0.1)^2) / 2
        x = np.array([[0.5, 0.5]])
        xhat = np.array([[0.4, 0.6]])
        assert np.isclose(np.mean((x - xhat) ** 2), 0.01)

    def test_dimension_mismatch_errors(self):
        model = autoencoder.build_ae(4, seed=0)
        with pytest.raises(DataError):
            autoencoder.compute_mse(model, np.zeros((3, 5)))

    def test_reconstruction_bound(self):
        # sigmoid output keeps every reconstruction inside (0, 1), so the
        # per-row MSE of inputs in [0, 1] never exceeds 1
        model = autoencoder.build_ae(6, seed=3)
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(50, 6))
        mses = autoencoder.compute_mse(model, x)
        assert (mses >= 0).all() and (mses <= 1).all()


def _finite_difference_gradients(model, x, h=1e-5):
    """Central finite differences of the batch loss over every parameter."""
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]

    def loss():
        reconstruction = reconstruct(model, x)
        return float(np.mean((x - reconstruction) ** 2))

    for layer, w in enumerate(model.weights):
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = w[idx]
            w[idx] = original + h
            upper = loss()
            w[idx] = original - h
            lower = loss()
            w[idx] = original
            grads_w[layer][idx] = (upper - lower) / (2 * h)
            it.iternext()
    for layer, b in enumerate(model.biases):
        for idx in range(b.shape[0]):
            original = b[idx]
            b[idx] = original + h
            upper = loss()
            b[idx] = original - h
            lower = loss()
            b[idx] = original
            grads_b[layer][idx] = (upper - lower) / (2 * h)
    return grads_w, grads_b


def max_gradient_relative_error(seed: int, n_rows: int = 8, dim: int = 4) -> float:
    rng = np.random.default_rng(seed)
    model = autoencoder.build_ae(dim, seed=seed)
    x = rng.uniform(0.05, 0.95, size=(n_rows, dim))
    _, grad_w, grad_b = autoencoder.loss_and_gradients(model, x)
    fd_w, fd_b = _finite_difference_gradients(model, x)
    worst = 0.0
    for analytic, numeric in zip(grad_w + grad_b, fd_w + fd_b):
        denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


class TestGradients:
    def test_matches_finite_differences_on_tiny_network(self):
        assert max_gradient_relative_error(seed=0) < 1e-4

    @pytest.mark.parametrize("seed", range(5))
    def test_across_seeds(self, seed):
        assert max_gradient_relative_error(seed=seed) < 1e-4


class TestTrainFilter1:
    def test_memorizes_single_repeated_row(self):
        row = np.tile(np.array([0.2, 0.8, 0.5, 0.3]), (64, 1))
        config = _tiny_config(batch_size=4)
        model = autoencoder.train_filter1(row, row, config)
        final = float(np.mean(autoencoder.compute_mse(model, row)))
        assert final < 1e-4

    def test_infinite_delta_min_stops_after_patience_plus_one(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(32, 4))
        config = _tiny_config(delta_min=float("inf"), patience_max=5)
        model = autoencoder.train_filter1(x, x, config)
        assert len(model.training_history) == config.patience_max + 1

    def test_respects_epochs_max(self):
        rng = np.random.default_rng(2)
        x = rng.uniform(size=(32, 4))
        config = _tiny_config(epochs_max=3, delta_min=1e-12)
        model = autoencoder.train_filter1(x, x, config)
        assert len(model.training_history) == 3

    def test_deterministic_training(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(size=(48, 6))
        v = rng.uniform(size=(16, 6))
        config = _tiny_config(epochs_max=10)
        first = autoencoder.train_filter1(x, v, config)
        second = autoencoder.train_filter1(x.copy(), v.copy(), config)
        for w1, w2 in zip(first.weights, second.weights):
            assert np.array_equal(w1, w2)
        assert first.training_history == second.training_history

    def test_training_loss_mostly_decreases(self):
        # non-increasing within 10% slack per step (stochastic batching)
        rng = np.random.default_rng(4)
        x = rng.uniform(size=(64, 5))
        config = _tiny_config(epochs_max=30, batch_size=16)
        model = autoencoder.train_filter1(x, x, config)
        history = model.training_history
        assert all(b <= a * 1.10 for a, b in zip(history, history[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(DataError):
            autoencoder.train_filter1(np.zeros((4, 3)), np.zeros((4, 2)), _tiny_config())

    def test_divergence_reported_with_epoch(self):
        x = np.full((8, 4), np.nan)
        with pytest.raises(NumericError, match="epoch 1"):
            autoencoder.train_filter1(x, x, _tiny_config())


class TestFrequencyThreshold:
    def test_nearest_rank_example(self):
        mses = np.arange(1.0, 11.0)  # 1..10
        assert nearest_rank_percentile(mses, 60) == 6.0

    def test_p100_is_max(self):
        mses = np.array([0.4, 0.1, 0.9, 0.2])
        assert nearest_rank_percentile(mses, 100) == 0.9

    def test_threshold_from_model(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(size=(40, 4))
        config = _tiny_config(epochs_max=5)
        model = autoencoder.train_filter1(x, x, config)
        th = autoencoder.set_frequency_threshold(model, x, 60)
        mses = autoencoder.compute_mse(model, x)
        assert th == nearest_rank_percentile(mses, 60)


class TestClassifyFrequent:
    def test_boundary_is_infrequent(self):
        assert autoencoder.classify_frequent_rows(np.array([0.5]), 0.5).tolist() == [False]

    def test_zero_mse_is_frequent(self):
        assert autoencoder.classify_frequent_rows(np.array([0.0]), 0.1).tolist() == [True]

    def test_row_version(self):
        flags = autoencoder.classify_frequent_rows(np.array([0.1, 0.5, 0.9]), 0.5)
        assert flags.tolist() == [True, False, False]


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = autoencoder.build_ae(6, seed=11)
        model.th_frequent = 0.123
        model.training_history = [0.5, 0.4]
        path = tmp_path / "filter1.json"
        path.write_text(model.to_json(), encoding="utf-8")
        loaded = autoencoder.Filter1Model.load(path)
        assert loaded.layer_dims == model.layer_dims
        assert loaded.th_frequent == model.th_frequent
        for w1, w2 in zip(loaded.weights, model.weights):
            assert np.array_equal(w1, w2)

    def test_unknown_version_rejected(self, tmp_path):
        model = autoencoder.build_ae(4, seed=0)
        payload = model.to_dict()
        payload["schema_version"] = 99
        with pytest.raises(Exception, match="version"):
            autoencoder.Filter1Model.from_dict(payload)
