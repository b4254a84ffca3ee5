"""The frequency filter: a symmetric autoencoder over encoded flows.

Architecture: five dense layers sized 100-50-25-50-100% of the input
dimension, ReLU activations except a sigmoid output. Trained with Adam on
per-row reconstruction MSE, mini-batches reshuffled every epoch, and early
stopping on the validation MSE. The model of the final epoch is returned;
no best-weights rollback.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np

from .config import PipelineConfig
from .encode import EncodingRecipe
from .errors import DataError, NumericError, SchemaError, artifact_field
from .stats import TAG_AE_INIT, TAG_AE_SHUFFLE, derive_rng, nearest_rank_percentile

MODEL_SCHEMA_VERSION = 1
_ARTIFACT = "frequency-filter"

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
class Filter1Model:
    """Trained frequency filter: weights, the recipe that encodes its input,
    threshold and training history."""

    layer_dims: list[int]
    weights: list[np.ndarray]  # weights[l] has shape (fan_in, fan_out)
    biases: list[np.ndarray]
    seed: int
    recipe: Optional[EncodingRecipe] = None
    th_frequent: Optional[float] = None
    training_history: list[float] = field(default_factory=list)

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def to_dict(self) -> dict:
        return {
            "schema_version": MODEL_SCHEMA_VERSION,
            "layer_dims": list(self.layer_dims),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "seed": self.seed,
            "recipe": None if self.recipe is None else self.recipe.to_dict(),
            "th_frequent": self.th_frequent,
            "training_history": list(self.training_history),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Filter1Model":
        version = data.get("schema_version")
        if version != MODEL_SCHEMA_VERSION:
            raise SchemaError(f"unsupported frequency-filter schema version: {version!r}")
        dims = artifact_field(data, "layer_dims", lambda v: [int(d) for d in v], _ARTIFACT)
        weights = artifact_field(data, "weights", _float_arrays, _ARTIFACT)
        biases = artifact_field(data, "biases", _float_arrays, _ARTIFACT)
        seed = artifact_field(data, "seed", int, _ARTIFACT)
        if len(dims) < 2 or len(weights) != len(dims) - 1 or len(biases) != len(dims) - 1:
            raise SchemaError(
                f"{len(dims)} layer_dims need {max(len(dims) - 1, 0)} weight matrices and bias "
                f"vectors, got {len(weights)} and {len(biases)}"
            )
        for i, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[i], dims[i + 1]):
                raise SchemaError(f"weights[{i}] must have shape {(dims[i], dims[i + 1])}, got {w.shape}")
            if b.shape != (dims[i + 1],):
                raise SchemaError(f"biases[{i}] must have shape {(dims[i + 1],)}, got {b.shape}")
        recipe = None if data.get("recipe") is None else EncodingRecipe.from_dict(data["recipe"])
        if recipe is not None and recipe.dimension != dims[0]:
            raise SchemaError(
                f"recipe encodes {recipe.dimension} columns but layer_dims[0] is {dims[0]}"
            )
        return cls(
            layer_dims=dims,
            weights=weights,
            biases=biases,
            seed=seed,
            recipe=recipe,
            th_frequent=data.get("th_frequent"),
            training_history=[float(v) for v in data.get("training_history", [])],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict()) + "\n"

    @classmethod
    def load(cls, path: str | Path) -> "Filter1Model":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _float_arrays(value) -> list[np.ndarray]:
    return [np.asarray(a, dtype=float) for a in value]


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

    grad_w = [np.empty_like(w) for w in model.weights]
    grad_b = [np.empty_like(b) for b in model.biases]

    # d loss / d output, then sigmoid derivative at the output layer.
    delta = (2.0 / (batch * d)) * (output - x)
    delta = delta * output * (1.0 - output)
    for layer in range(len(model.weights) - 1, -1, -1):
        h_prev = activations[layer]
        grad_w[layer] = h_prev.T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = delta @ model.weights[layer].T
            delta = delta * (activations[layer] > 0.0)
    return loss, grad_w, grad_b


@dataclass
class TrainState:
    """Adam's step count and moment estimates, threaded through training."""

    step: int = 0
    first_moments: list[np.ndarray] = field(default_factory=list)
    second_moments: list[np.ndarray] = field(default_factory=list)
    first_moments_b: list[np.ndarray] = field(default_factory=list)
    second_moments_b: list[np.ndarray] = field(default_factory=list)


def _adam_update(model: Filter1Model, state: TrainState, grad_w, grad_b) -> None:
    state.step += 1
    t = state.step
    correction1 = 1.0 - ADAM_BETA1**t
    correction2 = 1.0 - ADAM_BETA2**t
    for params, grads, m_list, v_list in (
        (model.weights, grad_w, state.first_moments, state.second_moments),
        (model.biases, grad_b, state.first_moments_b, state.second_moments_b),
    ):
        for p, g, m, v in zip(params, grads, m_list, v_list):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / correction1
            v_hat = v / correction2
            p -= ADAM_STEP_SIZE * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


def train_filter1(training: np.ndarray, validation: np.ndarray, config: PipelineConfig) -> Filter1Model:
    """Train the frequency filter with early stopping.

    Stops at epochs_max, or once the epoch-over-epoch improvement of the
    validation MSE has stayed below delta_min for patience_max consecutive
    epochs. Improvement tracking starts at the second epoch, when a
    previous validation MSE exists.
    """
    if training.ndim != 2 or training.shape[0] == 0:
        raise DataError("training matrix must be a non-empty 2-D array")
    if training.shape[1] != validation.shape[1]:
        raise DataError("training and validation matrices must share their dimension")

    model = build_ae(training.shape[1], seed=config.rng_seed)
    state = TrainState(
        first_moments=[np.zeros_like(w) for w in model.weights],
        second_moments=[np.zeros_like(w) for w in model.weights],
        first_moments_b=[np.zeros_like(b) for b in model.biases],
        second_moments_b=[np.zeros_like(b) for b in model.biases],
    )
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
            _adam_update(model, state, grad_w, grad_b)
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


def with_threshold(model: Filter1Model, th_frequent: float) -> Filter1Model:
    return replace(model, th_frequent=th_frequent)


def classify_frequent_rows(mses: np.ndarray, th_frequent: float) -> np.ndarray:
    """A flow is frequent iff its reconstruction error is strictly below
    the frequency threshold."""
    return np.asarray(mses) < th_frequent
