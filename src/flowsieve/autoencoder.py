"""The frequency filter: a symmetric autoencoder over encoded flows.

Architecture: five dense layers sized 100-50-25-50-100% of the input
dimension, ReLU activations except a sigmoid output. Trained with Adam on
per-row reconstruction MSE, mini-batches reshuffled every epoch, and early
stopping on the validation MSE. The model of the final epoch is returned;
no best-weights rollback.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .artifact import Artifact, finite_array, finite_float, integer, list_of, optional
from .config import PipelineConfig
from .encode import EncodingRecipe
from .errors import DataError, NumericError
from .stats import TAG_AE_INIT, TAG_AE_SHUFFLE, derive_rng, nearest_rank_percentile

ADAM_STEP_SIZE = 0.001
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

_BOTTLENECK_INDEX = 2  # activations[2] is the narrowest hidden layer


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def layer_dimensions(input_dim: int) -> list[int]:
    """Layer widths 100-50-25-50-100% of the input dimension, half-up."""
    return [
        input_dim,
        _round_half_up(0.5 * input_dim),
        _round_half_up(0.25 * input_dim),
        _round_half_up(0.5 * input_dim),
        input_dim,
    ]


@dataclass
class Filter1Model(Artifact):
    """Trained frequency filter: weights, the recipe that encodes its input,
    threshold with the percentile it was calibrated at, and training
    history."""

    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l] has shape (fan_in, fan_out)
    biases: list[np.ndarray]
    seed: int
    recipe: Optional[EncodingRecipe] = None
    th_frequent: Optional[float] = None
    pctl_frequent: Optional[float] = None
    training_history: list[float] = field(default_factory=list)

    ARTIFACT = "frequency-filter"
    SCHEMA_VERSION = 1
    READERS = {
        "layer_dims": list_of(integer),
        "weights": list_of(finite_array),
        "biases": list_of(finite_array),
        "seed": integer,
        "recipe": optional(EncodingRecipe.from_dict),
        "th_frequent": optional(finite_float),
        "pctl_frequent": optional(finite_float),
        "training_history": optional(list_of(finite_float), list),
    }

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def check(self) -> None:
        dims = self.layer_dims
        if not dims or dims != layer_dimensions(dims[0]):
            raise self.invalid("layer_dims", f"expected 100-50-25-50-100% of layer_dims[0], got {dims}")
        for key, shapes in (("weights", list(zip(dims, dims[1:]))), ("biases", [(d,) for d in dims[1:]])):
            arrays = getattr(self, key)
            if len(arrays) != len(shapes):
                raise self.invalid(key, f"{len(dims)} layer_dims need {len(shapes)} arrays, got {len(arrays)}")
            for i, (array, shape) in enumerate(zip(arrays, shapes)):
                if array.shape != shape:
                    raise self.invalid(key, f"{key}[{i}] must have shape {shape}, got {array.shape}")
        if self.recipe is not None and self.recipe.dimension != dims[0]:
            raise self.invalid(
                "recipe", f"it encodes {self.recipe.dimension} columns but layer_dims[0] is {dims[0]}"
            )
        if self.pctl_frequent is not None and not 0 < self.pctl_frequent < 100:
            raise self.invalid("pctl_frequent", f"it must lie in (0, 100), got {self.pctl_frequent}")


_BIAS_INIT = 0.01  # small positive: keeps ReLU paths alive and off the kink


def build_ae(input_dim: int, seed: int) -> Filter1Model:
    """Fresh network with seeded Glorot-uniform weights.

    Biases start at a small positive constant; at zero they would leave
    narrow bottlenecks exactly on the ReLU kink, where no gradient flows.
    """
    if input_dim < 2:
        raise DataError("autoencoder needs an input dimension of at least 2")
    dims = layer_dimensions(input_dim)
    rng = derive_rng(seed, TAG_AE_INIT)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.full(fan_out, _BIAS_INIT))
    return Filter1Model(layer_dims=dims, weights=weights, biases=biases, seed=seed)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -60.0, 60.0)))


def _forward(model: Filter1Model, x: np.ndarray) -> list[np.ndarray]:
    """Return activations [h0, h1, h2, h3, h4]; h4 is the reconstruction."""
    activations = [x]
    h = x
    last = len(model.weights) - 1
    for layer, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w + b
        h = _sigmoid(z) if layer == last else np.maximum(z, 0.0)
        activations.append(h)
    return activations


def bottleneck_activations(model: Filter1Model, x: np.ndarray) -> np.ndarray:
    return _forward(model, np.atleast_2d(x))[_BOTTLENECK_INDEX]


def compute_mse(model: Filter1Model, x: np.ndarray) -> np.ndarray:
    """Per-row reconstruction error: mean over dimensions of squared error."""
    x = np.atleast_2d(x)
    if x.shape[1] != model.input_dim:
        raise DataError(
            f"matrix dimension {x.shape[1]} does not match model input {model.input_dim}"
        )
    reconstruction = _forward(model, x)[-1]
    return np.mean((x - reconstruction) ** 2, axis=1)


def loss_and_gradients(
    model: Filter1Model, x: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Batch loss (mean per-row MSE) and its gradients.

    Gradients are accumulated by vectorized matrix products, so the
    summation order over rows is fixed and results are reproducible.
    """
    batch, d = x.shape
    activations = _forward(model, x)
    output = activations[-1]
    loss = float(np.mean((x - output) ** 2))
    if not math.isfinite(loss):
        raise NumericError("non-finite loss")

    # d loss / d output, then sigmoid derivative at the output layer.
    delta = (2.0 / (batch * d)) * (output - x)
    delta = delta * output * (1.0 - output)
    grad_w, grad_b = [], []
    for layer in range(len(model.weights) - 1, -1, -1):
        grad_w.append(activations[layer].T @ delta)
        grad_b.append(delta.sum(axis=0))
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta = delta * (activations[layer] > 0.0)
    return loss, grad_w[::-1], grad_b[::-1]


def _flatten_parameters(model: Filter1Model) -> np.ndarray:
    """Copy the weights and biases into one vector, in that order, and
    rebind the model's arrays to views of it."""
    arrays = [*model.weights, *model.biases]
    params = np.concatenate(arrays, axis=None)
    ends = np.cumsum([a.size for a in arrays])
    views = [params[end - a.size : end].reshape(a.shape) for a, end in zip(arrays, ends)]
    model.weights, model.biases = views[: len(model.weights)], views[len(model.weights) :]
    return params


def train_filter1(training: np.ndarray, validation: np.ndarray, config: PipelineConfig) -> Filter1Model:
    """Train the frequency filter with early stopping.

    Stops at epochs_max, or once the epoch-over-epoch improvement of the
    validation MSE has stayed below delta_min for patience_max consecutive
    epochs. Improvement tracking starts at the second epoch, when a
    previous validation MSE exists. Adam's update is elementwise, so it
    runs once per batch over all parameters as one vector.
    """
    if training.ndim != 2 or training.shape[0] == 0:
        raise DataError("training matrix must be a non-empty 2-D array")
    if training.shape[1] != validation.shape[1]:
        raise DataError("training and validation matrices must share their dimension")

    model = build_ae(training.shape[1], seed=config.rng_seed)
    params = _flatten_parameters(model)
    first_moment = np.zeros_like(params)
    second_moment = np.zeros_like(params)
    step = 0
    shuffle_rng = derive_rng(config.rng_seed, TAG_AE_SHUFFLE)
    n = training.shape[0]
    history: list[float] = []
    epochs_without_improvement = 0

    for epoch in range(1, config.epochs_max + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = training[order[start : start + config.batch_size]]
            try:
                _, grad_w, grad_b = loss_and_gradients(model, batch)
            except NumericError:
                raise NumericError(f"training diverged at epoch {epoch}") from None
            grad = np.concatenate([*grad_w, *grad_b], axis=None)
            step += 1
            first_moment *= ADAM_BETA1
            first_moment += (1.0 - ADAM_BETA1) * grad
            second_moment *= ADAM_BETA2
            second_moment += (1.0 - ADAM_BETA2) * (grad * grad)
            params -= (
                ADAM_STEP_SIZE
                * (first_moment / (1.0 - ADAM_BETA1**step))
                / (np.sqrt(second_moment / (1.0 - ADAM_BETA2**step)) + ADAM_EPSILON)
            )
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


def set_frequency_threshold(model: Filter1Model, validation: np.ndarray, pctl_frequent: float) -> float:
    """Nearest-rank percentile of the sorted validation reconstruction MSE."""
    mses = compute_mse(model, validation)
    if mses.size == 0:
        raise DataError("cannot calibrate a threshold on an empty validation set")
    return nearest_rank_percentile(mses, pctl_frequent)


def classify_frequent_rows(mses: np.ndarray, th_frequent: float) -> np.ndarray:
    """A flow is frequent iff its reconstruction error is strictly below
    the frequency threshold."""
    return np.asarray(mses) < th_frequent
