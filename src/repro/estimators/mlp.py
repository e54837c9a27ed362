"""Fully-connected regression network in pure numpy.

Implements the building block of the paper's RMI estimator: an MLP with
ReLU hidden layers and a linear output, trained with minibatch Adam on
mean-squared error. The paper's stage networks use four hidden layers of
widths 512/512/256/128; that architecture is available via
:func:`paper_hidden_layers`, while the default is smaller for CPU
wall-clock reasons (the benchmarks document which one they use).

Features are standardized internally (mean/variance of the training set)
so callers never worry about scaling; weights initialize with He fan-in
scaling from a seeded generator, making training fully deterministic.

Precision: training runs in float32. Standardization and the He draws
are float64 and cast once; the parameters, gradients and both Adam
moments are then one flat float32 vector each, and every step updates
them in place. Inference (:meth:`MLPRegressor.predict`) stays float64,
with the float32 weights promoted, so a fitted network predicts exactly
what float64 arithmetic gives for its weights, and weights loaded from a
float64 artifact predict as they always did.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.exceptions import InvalidParameterError, NotFittedError, PersistenceError
from repro.rng import ensure_rng

__all__ = ["MLPRegressor", "TrainingHistory", "paper_hidden_layers"]


def _reject_object_arrays(arrays: dict[str, np.ndarray]) -> None:
    """Refuse to serialize object-dtype arrays.

    ``np.savez`` has no ``allow_pickle`` switch — an object array would
    silently go through pickle. Estimator artifacts are numeric only.
    """
    for key, arr in arrays.items():
        if np.asarray(arr).dtype.hasobject:
            raise PersistenceError(
                f"refusing to save object-dtype array {key!r}: estimator "
                "artifacts must be numeric (pickle-free)"
            )


#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


def paper_hidden_layers() -> tuple[int, ...]:
    """The stage-network architecture used in the paper (Section 3.1)."""
    return (512, 512, 256, 128)


@dataclasses.dataclass
class TrainingHistory:
    """Per-epoch mean training loss, recorded by :meth:`MLPRegressor.fit`."""

    losses: list[float] = dataclasses.field(default_factory=list)

    @property
    def n_epochs(self) -> int:
        return len(self.losses)

    @property
    def final_loss(self) -> float:
        if not self.losses:
            raise NotFittedError("no training epochs recorded")
        return self.losses[-1]


def _adam_step(
    params: np.ndarray,
    grads: np.ndarray,
    moments: tuple[np.ndarray, np.ndarray],
    scratch: tuple[np.ndarray, np.ndarray],
    lr: float,
    step: int,
) -> None:
    """One Adam update of ``params``, in place and allocation-free.

    ``moments`` (first, second) and ``scratch`` are pairs of arrays
    shaped like ``params``.
    """
    m, v = moments
    s1, s2 = scratch
    m *= _BETA1
    m += np.multiply(grads, 1.0 - _BETA1, out=s1)
    v *= _BETA2
    np.multiply(grads, grads, out=s1)
    v += np.multiply(s1, 1.0 - _BETA2, out=s1)
    # params -= lr * m_hat / (sqrt(v_hat) + eps), with the bias corrections.
    np.divide(v, 1.0 - _BETA2**step, out=s1)
    np.sqrt(s1, out=s1)
    s1 += _ADAM_EPS
    np.multiply(m, lr / (1.0 - _BETA1**step), out=s2)
    params -= np.divide(s2, s1, out=s2)


class MLPRegressor:
    """Minimal feed-forward regressor: ReLU hidden layers, linear output.

    Parameters
    ----------
    hidden_layers:
        Widths of the hidden layers.
    learning_rate, batch_size, epochs:
        Adam/minibatch hyperparameters.
    seed:
        Seed for initialization and shuffling.
    l2:
        Optional weight decay coefficient.
    """

    def __init__(
        self,
        hidden_layers: tuple[int, ...] = (64, 64, 32),
        learning_rate: float = 1e-3,
        batch_size: int = 128,
        epochs: int = 60,
        seed: int | np.random.Generator | None = 0,
        l2: float = 0.0,
    ) -> None:
        if any(h <= 0 for h in hidden_layers):
            raise InvalidParameterError(f"hidden widths must be positive; got {hidden_layers}")
        if learning_rate <= 0:
            raise InvalidParameterError(f"learning_rate must be positive; got {learning_rate}")
        if batch_size <= 0 or epochs <= 0:
            raise InvalidParameterError("batch_size and epochs must be positive")
        if l2 < 0:
            raise InvalidParameterError(f"l2 must be non-negative; got {l2}")
        self.hidden_layers = tuple(int(h) for h in hidden_layers)
        self.learning_rate = float(learning_rate)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.l2 = float(l2)
        self._rng = ensure_rng(seed)
        self._weights: list[np.ndarray] = []
        self._biases: list[np.ndarray] = []
        self._feature_mean: np.ndarray | None = None
        self._feature_std: np.ndarray | None = None
        self._fold_cache: tuple[np.ndarray, np.ndarray] | None = None
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    # Initialization and state
    # ------------------------------------------------------------------

    @property
    def is_fitted(self) -> bool:
        return bool(self._weights)

    def _init_params(self, in_dim: int) -> None:
        sizes = [in_dim, *self.hidden_layers, 1]
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self._weights.append(self._rng.normal(scale=scale, size=(fan_in, fan_out)))
            self._biases.append(np.zeros(fan_out))

    def clone_from(self, other: "MLPRegressor") -> "MLPRegressor":
        """Copy fitted parameters from another network (same architecture).

        Used by the RMI when a stage model receives too few routed
        examples to train on its own: it inherits its parent's function.
        """
        if not other.is_fitted:
            raise NotFittedError("cannot clone from an unfitted network")
        self._weights = [w.copy() for w in other._weights]
        self._biases = [b.copy() for b in other._biases]
        self._feature_mean = (
            None if other._feature_mean is None else other._feature_mean.copy()
        )
        self._feature_std = (
            None if other._feature_std is None else other._feature_std.copy()
        )
        self._fold_cache = None
        return self

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------

    def _standardize(self, X: np.ndarray) -> np.ndarray:
        return (X - self._feature_mean) / self._feature_std

    def _forward(
        self, X: np.ndarray, out: list[np.ndarray] | None = None
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        """Return (output, activations) where activations[i] feeds layer i.

        Computes in the dtype of ``X`` and the weights. ``out`` optionally
        gives one buffer per layer, with at least ``len(X)`` rows, that
        the layer's activations are written into.
        """
        activations = [X]
        h = X
        last = len(self._weights) - 1
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            h = np.matmul(h, W, out=None if out is None else out[i][: X.shape[0]])
            h += b
            if i != last:
                np.maximum(h, 0.0, out=h)
            activations.append(h)
        return h[:, 0], activations

    def _folded_first_layer(self) -> tuple[np.ndarray, np.ndarray]:
        """First-layer weights with input standardization folded in.

        Standardization is affine, so ``relu((X - m)/s @ W + b)`` equals
        ``relu(X @ (W/s) + (b - (m/s) @ W))``; folding removes the full
        (n, dim) standardization pass from the prediction hot path.
        """
        if self._fold_cache is None:
            W0 = self._weights[0] / self._feature_std[:, None]
            b0 = (
                self._biases[0]
                - (self._feature_mean / self._feature_std) @ self._weights[0]
            )
            self._fold_cache = (W0, b0)
        return self._fold_cache

    def _forward_inference(self, X: np.ndarray) -> np.ndarray:
        """Prediction-only forward pass on raw (unstandardized) features."""
        W0, b0 = self._folded_first_layer()
        last = len(self._weights) - 1
        z = X @ W0 + b0
        h = z if last == 0 else np.maximum(z, 0.0)
        for i in range(1, len(self._weights)):
            z = h @ self._weights[i] + self._biases[i]
            h = z if i == last else np.maximum(z, 0.0)
        return h[:, 0]

    def _backward(
        self,
        activations: list[np.ndarray],
        residual: np.ndarray,
        out: tuple[list[np.ndarray], list[np.ndarray]] | None = None,
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Gradients of mean-squared error w.r.t. weights and biases.

        Computes in the dtype of the activations and the weights; ``out``
        optionally gives ``(grad_w, grad_b)`` arrays to write into.
        """
        n_layers = len(self._weights)
        if out is None:
            out = ([None] * n_layers, [None] * n_layers)
        grad_w, grad_b = out
        # dL/dz for the output layer; L = mean(residual^2), residual = pred - y.
        delta = (2.0 / residual.shape[0]) * residual[:, None]
        for i in range(n_layers - 1, -1, -1):
            grad_w[i] = np.matmul(activations[i].T, delta, out=grad_w[i])
            if self.l2:
                grad_w[i] += self.l2 * self._weights[i]
            grad_b[i] = np.sum(delta, axis=0, out=grad_b[i])
            if i > 0:
                delta = delta @ self._weights[i].T
                delta *= activations[i] > 0.0
        return grad_w, grad_b

    def _layer_views(
        self, flat: np.ndarray
    ) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a flat vector (W0, b0, W1, ...)."""
        weights, biases, offset = [], [], 0
        for W in self._weights:
            weights.append(flat[offset : offset + W.size].reshape(W.shape))
            offset += W.size
            biases.append(flat[offset : offset + W.shape[1]])
            offset += W.shape[1]
        return weights, biases

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "MLPRegressor":
        """Train on (features, targets) with minibatch Adam."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if X.ndim != 2 or X.shape[0] != y.shape[0]:
            raise InvalidParameterError(
                f"X must be (n, d) aligned with y; got {X.shape} vs {y.shape}"
            )
        self._feature_mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
        self._feature_std = std
        Xs = self._standardize(X).astype(np.float32)
        y = y.astype(np.float32)
        self._init_params(X.shape[1])
        # One flat float32 vector each for the parameters, their gradients
        # and both Adam moments; the layers are views into it.
        params = np.concatenate(
            [p.ravel() for W, b in zip(self._weights, self._biases) for p in (W, b)]
        ).astype(np.float32)
        self._weights, self._biases = self._layer_views(params)
        grads = np.zeros_like(params)
        grad_views = self._layer_views(grads)
        moments = (np.zeros_like(params), np.zeros_like(params))
        scratch = (np.empty_like(params), np.empty_like(params))
        rows = min(self.batch_size, Xs.shape[0])
        act_bufs = [np.empty((rows, W.shape[1]), np.float32) for W in self._weights]
        step = 0
        self.history = TrainingHistory()
        n = Xs.shape[0]
        for _ in range(self.epochs):
            order = self._rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, self.batch_size):
                batch = order[start : start + self.batch_size]
                pred, activations = self._forward(Xs[batch], out=act_bufs)
                residual = pred - y[batch]
                epoch_loss += float(np.dot(residual, residual))
                self._backward(activations, residual, out=grad_views)
                step += 1
                _adam_step(params, grads, moments, scratch, self.learning_rate, step)
            self.history.losses.append(epoch_loss / n)
        self._fold_cache = None
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted targets for a feature batch."""
        if not self.is_fitted:
            raise NotFittedError("MLPRegressor.predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        return self._forward_inference(X)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Serialize fitted parameters to an ``.npz`` file."""
        if not self.is_fitted:
            raise NotFittedError("cannot save an unfitted MLPRegressor")
        arrays: dict[str, np.ndarray] = {
            "feature_mean": self._feature_mean,
            "feature_std": self._feature_std,
            "hidden_layers": np.array(self.hidden_layers, dtype=np.int64),
        }
        for i, (W, b) in enumerate(zip(self._weights, self._biases)):
            arrays[f"W{i}"] = W
            arrays[f"b{i}"] = b
        _reject_object_arrays(arrays)
        np.savez(path, **arrays)  # reprolint: disable=RPL002 -- numeric
        # dtypes enforced by _reject_object_arrays, so nothing can pickle

    @classmethod
    def load(cls, path: str) -> "MLPRegressor":
        """Restore a network saved with :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        model = cls(hidden_layers=tuple(int(h) for h in data["hidden_layers"]))
        model._feature_mean = data["feature_mean"]
        model._feature_std = data["feature_std"]
        n_layers = len(model.hidden_layers) + 1
        model._weights = [data[f"W{i}"] for i in range(n_layers)]
        model._biases = [data[f"b{i}"] for i in range(n_layers)]
        model._fold_cache = None
        return model
