"""train_filter1 runs Adam once per batch over one parameter vector; this
pins it, bit for bit, to Adam applied to each layer array on its own."""
import math

import numpy as np
import pytest

from flowsieve.autoencoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    ADAM_STEP_SIZE,
    build_ae,
    compute_mse,
    loss_and_gradients,
    train_filter1,
)
from flowsieve.config import PipelineConfig
from flowsieve.errors import NumericError
from flowsieve.stats import TAG_AE_SHUFFLE, derive_rng


def per_array_train_filter1(training, validation, config):
    """Reference: Adam's moments kept per weight and bias array, each
    array updated on its own."""
    model = build_ae(training.shape[1], seed=config.rng_seed)
    moments = [
        ([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])
        for params in (model.weights, model.biases)
    ]
    step = 0
    shuffle_rng = derive_rng(config.rng_seed, TAG_AE_SHUFFLE)
    n = training.shape[0]
    history = []
    epochs_without_improvement = 0
    for epoch in range(1, config.epochs_max + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = training[order[start : start + config.batch_size]]
            try:
                _, grad_w, grad_b = loss_and_gradients(model, batch)
            except NumericError:
                raise NumericError(f"training diverged at epoch {epoch}") from None
            step += 1
            correction1 = 1.0 - ADAM_BETA1**step
            correction2 = 1.0 - ADAM_BETA2**step
            for params, grads, (m_list, v_list) in zip(
                (model.weights, model.biases), (grad_w, grad_b), moments
            ):
                for p, g, m, v in zip(params, grads, m_list, v_list):
                    m *= ADAM_BETA1
                    m += (1.0 - ADAM_BETA1) * g
                    v *= ADAM_BETA2
                    v += (1.0 - ADAM_BETA2) * (g * g)
                    m_hat = m / correction1
                    v_hat = v / correction2
                    p -= ADAM_STEP_SIZE * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        validation_mse = float(np.mean(compute_mse(model, validation)))
        if not math.isfinite(validation_mse):
            raise NumericError(f"training diverged at epoch {epoch}")
        if history:
            if history[-1] - validation_mse < config.delta_min:
                epochs_without_improvement += 1
            else:
                epochs_without_improvement = 0
        history.append(validation_mse)
        if epochs_without_improvement >= config.patience_max:
            break
    model.training_history = history
    return model


def _data(seed: int, dim: int, n: int = 53):
    rng = np.random.default_rng(seed)
    # a few repeated rows, as a capture's frequent flows would give
    training = rng.uniform(0.0, 1.0, size=(n, dim))
    training[::7] = training[0]
    return training, rng.uniform(0.0, 1.0, size=(17, dim))


def _assert_same_model(actual, expected):
    assert actual.layer_dims == expected.layer_dims
    for got, want in zip([*actual.weights, *actual.biases], [*expected.weights, *expected.biases]):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert np.array(actual.training_history).tobytes() == np.array(expected.training_history).tobytes()


@pytest.mark.parametrize("dim", [2, 3, 25])
@pytest.mark.parametrize("seed", [0, 42, 1009])
def test_flat_adam_equals_per_array_adam(seed, dim):
    training, validation = _data(seed, dim)
    # 53 rows in batches of 8: every epoch ends in a batch of 5
    config = PipelineConfig(epochs_max=12, patience_max=12, batch_size=8, rng_seed=seed)
    _assert_same_model(
        train_filter1(training, validation, config),
        per_array_train_filter1(training, validation, config),
    )


def test_flat_adam_equals_per_array_adam_through_early_stopping():
    training, validation = _data(5, 3)
    config = PipelineConfig(epochs_max=40, patience_max=2, delta_min=1e-4, batch_size=16, rng_seed=5)
    model = train_filter1(training, validation, config)
    assert len(model.training_history) < config.epochs_max
    _assert_same_model(model, per_array_train_filter1(training, validation, config))

