"""Model families: the quadratic network and a batch-normalized ReLU MLP.

The quadratic network computes ``w * sum_j (W1 x)_j^2 + b`` with scalars
``w`` and ``b``. Its decision boundary is an ellipsoid whose axis
coefficients ``alpha_i = w s_i^2 / (-b)`` (s_i the singular values of W1)
fully determine where it errs on the two shells: the classifier is exact
precisely when every alpha_i lies in [1/R^2, 1].

The MLP applies affine -> batch norm -> ReLU per hidden layer and a plain
affine readout to one logit. Batch norm uses epsilon 1e-5 and running-stat
momentum 0.99, normalizing after the affine and before the ReLU; these
constants are stored in checkpoints.

Initialization (recorded for reproducibility): hidden affine weights are
zero-mean Gaussians with variance 2/fan-in, the readout and the quadratic
net's W1 use 1/fan-in, biases start at zero, and the quadratic scalars
start at w=1, b=-1. All arithmetic is float64.

Both families expose the same surface, one pass per purpose:
``forward(X)`` is the training pass, returning (logits, cache), with the
MLP normalizing by batch statistics and moving its running ones;
``backward`` turns that cache into mean-loss gradients for every
parameter; ``logits`` and ``input_grad`` (for attack search) run the eval
pass, the MLP's by running statistics; and ``params`` is a flat
name-to-array dict (scalars are 0-d arrays updated in place). ``state``
extends ``params`` with every other array that defines the net (the MLP's
batch-norm running statistics ``run_mean{i}`` and ``run_var{i}``); it is
what training snapshots and checkpoints save and restore. Both dicts hold
the model's own arrays, built anew on each call.

``logits`` keeps no cache. It runs over blocks of 512 rows, each written
into one preallocated ``(rows,)`` output, so a call holds the activations
of one block whatever its row count: about 4 MiB for the paper's
quadratic net (h = 1000) and 8 MiB for the 1000x1000 MLP. For the MLP
each block runs the eval ``_layer``, in place on each GEMM output, which
``input_grad`` runs over all its rows. A call of at most 512 rows is one
block and does exactly the GEMMs of an unblocked pass: the quadratic
net's ``forward`` logits, and for the MLP the bits of the eval pass
written out of place, one new array per operation (``z *= gamma`` rounds
like ``gamma * z``). A longer call runs the same GEMMs on row blocks,
which BLAS may round differently in the last bit for some widths (on
OpenBLAS 0.3.31 the 1000-wide layers of the paper's nets kept every bit
of 1000-row calls, while 500-wide layers moved the last bit of 0.3-5 %
of the rows).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spherelab import require_int, require_radius
from spherelab.linalg import singular_values
from spherelab.rng import RngStream

BN_EPSILON = 1e-5
BN_MOMENTUM = 0.99
# Rows per block of ``logits``. It equals the keyed chunk of
# ``training.evaluate_error_rate``, so on that function's default path an
# error-rate chunk is one block and keeps the GEMMs (and bits) of an
# unblocked pass. Its eigenbasis path, for quadratic nets, calls no logits.
_LOGIT_BLOCK = 512
# The logits of ``quad_perfect_init``'s outer-class probabilities 0.0016 on
# the inner shell and 0.9994 on the outer one.
_LOGIT_INNER = np.log(0.0016 / (1.0 - 0.0016))
_LOGIT_OUTER = np.log(0.9994 / (1.0 - 0.9994))


class UnsupportedRegimeError(ValueError):
    """Alpha spectrum requested for a net outside the b < 0 regime."""


def _blocked_logits(X: np.ndarray, block_logits) -> np.ndarray:
    """``block_logits`` over row blocks of ``X``, written into one ``(rows,)`` array."""
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], _LOGIT_BLOCK):
        out[start:start + _LOGIT_BLOCK] = block_logits(X[start:start + _LOGIT_BLOCK])
    return out


def _check_dim(X, n: int) -> np.ndarray:
    """``X`` as float64 rows, or ``ValueError`` unless each row has the model's ``n`` entries."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != n:
        raise ValueError(f"input dim {X.shape[1]} != model dim {n}")
    return X


def sigmoid(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_ce_loss(logit, label):
    """Numerically stable sigmoid cross-entropy.

    Computes max(l, 0) - l*y + log(1 + exp(-|l|)) elementwise; never NaN
    or overflow for |l| up to 1e6.
    """
    l = np.asarray(logit, dtype=np.float64)
    y = np.asarray(label, dtype=np.float64)
    out = np.maximum(l, 0.0) - l * y + np.log1p(np.exp(-np.abs(l)))
    return out if out.ndim else float(out)


def classify(logits) -> np.ndarray:
    """Predicted labels (uint8): 1 (outer) where the logit is positive.

    Every other logit, an exact zero of either sign included, is 0 (inner).
    """
    return (np.asarray(logits) > 0.0).astype(np.uint8)


@dataclass
class AlphaSpectrum:
    """Ellipsoid coefficients of a quadratic net, judged against radius R."""

    alphas: np.ndarray  # descending, length n
    R: float
    padded: bool = False  # True when h < n forced zero padding


def is_perfect(spec: AlphaSpectrum) -> tuple[bool, int]:
    """Whether every alpha lies in the closed interval [1/R^2, 1].

    Returns (perfect, violation count); boundary values count as correct, NaN as a violation.
    """
    lo = 1.0 / (spec.R * spec.R)
    violations = int((~((spec.alphas >= lo) & (spec.alphas <= 1.0))).sum())
    return violations == 0, violations


class QuadraticNet:
    """Single quadratic hidden layer; logit = w * sum((W1 x)^2) + b."""

    family = "quadratic"

    def __init__(self, W1: np.ndarray, w: float, b: float) -> None:
        W1 = np.asarray(W1, dtype=np.float64)
        if W1.ndim != 2:
            raise ValueError(f"W1 must be 2-D, got shape {W1.shape}")
        if not (np.isfinite(W1).all() and np.isfinite(w) and np.isfinite(b)):
            raise ValueError("parameters must be finite")
        self.W1 = W1.copy()
        self.w = np.array(float(w))
        self.b = np.array(float(b))

    @property
    def n(self) -> int:
        return self.W1.shape[1]

    @property
    def h(self) -> int:
        return self.W1.shape[0]

    @classmethod
    def init_random(cls, n: int, h: int, stream: RngStream) -> "QuadraticNet":
        n, h = require_int("n", n, 1), require_int("h", h, 1)
        w1 = stream.normal_matrix(h, n) * np.sqrt(1.0 / n)
        return cls(w1, 1.0, -1.0)

    def params(self) -> dict[str, np.ndarray]:
        return {"W1": self.W1, "w": self.w, "b": self.b}

    state = params  # the parameters are the quadratic net's whole state

    def _pass(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hidden activations H = X W1^T, S = sum(H^2) per row, and the logits."""
        H = X @ self.W1.T
        S = np.einsum("ij,ij->i", H, H)
        return H, S, float(self.w) * S + float(self.b)

    def logits(self, X: np.ndarray) -> np.ndarray:
        """The logits of ``_pass``, run per block of 512 rows."""
        return _blocked_logits(_check_dim(X, self.n), lambda rows: self._pass(rows)[2])

    def forward(self, X):
        """Logits and the cache ``backward`` reads."""
        X = _check_dim(X, self.n)
        H, S, logits = self._pass(X)
        return logits, {"X": X, "H": H, "S": S, "logits": logits}

    def backward(self, cache, labels) -> dict[str, np.ndarray]:
        """Gradients of the mean sigmoid-CE loss over the cached batch."""
        y = np.asarray(labels, dtype=np.float64)
        X, H, S, logits = cache["X"], cache["H"], cache["S"], cache["logits"]
        batch = X.shape[0]
        dl = (sigmoid(logits) - y) / batch
        w = float(self.w)
        dW1 = (H * dl[:, None]).T @ X
        dW1 *= 2.0 * w  # in place: the bits of (2w) * (...), without a second h x n array
        dw = np.array(float(dl @ S))
        db = np.array(float(dl.sum()))
        return {"W1": dW1, "w": dw, "b": db}

    def input_grad(self, X, labels) -> np.ndarray:
        """Per-row gradient of the (unaveraged) loss w.r.t. the input."""
        X = _check_dim(X, self.n)
        y = np.asarray(labels, dtype=np.float64)
        H, _, logits = self._pass(X)
        dl = sigmoid(logits) - y
        return (2.0 * float(self.w)) * ((H * dl[:, None]) @ self.W1)


def alpha_spectrum(net: QuadraticNet, R: float) -> AlphaSpectrum:
    """Ellipsoid coefficients alpha_i = w s_i^2 / (-b), descending in s_i.

    Requires b < 0 (not NaN) and an outer radius ``R`` that is finite and
    > 1. When the hidden layer is narrower than the input (h < n) the
    missing coefficients are zeros and the spectrum is flagged as padded.
    """
    require_radius(R)
    b = float(net.b)
    if not b < 0:
        raise UnsupportedRegimeError(f"alpha spectrum requires b < 0, got b={b}")
    s = singular_values(net.W1)
    alphas = np.zeros(net.n)
    alphas[:s.size] = float(net.w) * s * s / (-b)
    return AlphaSpectrum(alphas=np.sort(alphas)[::-1], R=R, padded=net.h < net.n)


def quad_perfect_init(n: int, h: int, R: float = 1.3) -> QuadraticNet:
    """Quadratic net with zero classification error but nonzero gradients.

    W1 gets orthonormal rows scaled by s (rows beyond the first n are
    zero, hence h >= n is required), with w s^2 and b solving

        w s^2       + b = logit(0.0016)
        w s^2 R^2   + b = logit(0.9994)

    so the sigmoid probability of the outer class is exactly 0.0016 on
    the inner shell and 0.9994 on the outer shell. ``R`` must be finite
    and > 1. Since -b = w s^2 - logit(0.0016) > 0, every alpha
    w s^2 / (-b) is at most 1 because logit(0.0016) < 0, and R^2 alpha =
    1 + logit(0.9994) / (-b) is at least 1 because logit(0.9994) > 0: the
    net is perfect for every R.
    """
    n = require_int("n", n, 1)
    h = require_int("h", h, n)
    require_radius(R)
    ws2 = (_LOGIT_OUTER - _LOGIT_INNER) / (R * R - 1.0)
    b = _LOGIT_INNER - ws2
    W1 = np.zeros((h, n))
    np.fill_diagonal(W1, np.sqrt(ws2))
    return QuadraticNet(W1, 1.0, b)


# ---------------------------------------------------------------------------
# ReLU MLP with batch normalization


class MlpNet:
    """ReLU MLP: per hidden layer affine -> batch norm -> ReLU; affine readout."""

    family = "mlp"

    def __init__(self, n: int, hidden: tuple[int, ...]) -> None:
        if not hidden:
            raise ValueError("need at least one hidden layer")
        self.n = require_int("n", n, 1)
        self.hidden = tuple(require_int(f"hidden[{i}]", width, 1)
                            for i, width in enumerate(hidden))
        self.Ws: list[np.ndarray] = []
        self.bs: list[np.ndarray] = []
        self.gammas: list[np.ndarray] = []
        self.betas: list[np.ndarray] = []
        self.run_means: list[np.ndarray] = []
        self.run_vars: list[np.ndarray] = []
        fan = self.n
        for width in self.hidden:
            self.Ws.append(np.zeros((width, fan)))
            self.bs.append(np.zeros(width))
            self.gammas.append(np.ones(width))
            self.betas.append(np.zeros(width))
            self.run_means.append(np.zeros(width))
            self.run_vars.append(np.ones(width))
            fan = width
        self.w_out = np.zeros(fan)
        self.b_out = np.array(0.0)

    @classmethod
    def init_random(cls, n: int, hidden: tuple[int, ...], stream: RngStream) -> "MlpNet":
        net = cls(n, hidden)
        fan = net.n
        for i, width in enumerate(net.hidden):
            net.Ws[i] = stream.normal_matrix(width, fan) * np.sqrt(2.0 / fan)
            fan = width
        net.w_out = stream.normals(fan) * np.sqrt(1.0 / fan)
        return net

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i in range(len(self.hidden)):
            out[f"w{i}"] = self.Ws[i]
            out[f"b{i}"] = self.bs[i]
            out[f"gamma{i}"] = self.gammas[i]
            out[f"beta{i}"] = self.betas[i]
        out["w_out"] = self.w_out
        out["b_out"] = self.b_out
        return out

    def state(self) -> dict[str, np.ndarray]:
        out = self.params()
        for i in range(len(self.hidden)):
            out[f"run_mean{i}"] = self.run_means[i]
            out[f"run_var{i}"] = self.run_vars[i]
        return out

    def _layer(self, i: int, act: np.ndarray,
               train: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hidden layer ``i``: affine -> batch norm -> ReLU on the GEMM output.

        Returns (output, xhat, inv_std). ``train`` normalizes by batch
        statistics, moves the running ones and keeps ``xhat``; eval uses the
        running statistics in place, so ``xhat`` is the output array itself.
        """
        z = act @ self.Ws[i].T
        z += self.bs[i]
        if train:
            mean, var = z.mean(axis=0), z.var(axis=0)
            self.run_means[i] *= BN_MOMENTUM
            self.run_means[i] += (1.0 - BN_MOMENTUM) * mean
            self.run_vars[i] *= BN_MOMENTUM
            self.run_vars[i] += (1.0 - BN_MOMENTUM) * var
        else:
            mean, var = self.run_means[i], self.run_vars[i]
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        z -= mean
        z *= inv_std
        out = self.gammas[i] * z if train else np.multiply(z, self.gammas[i], out=z)
        out += self.betas[i]
        np.maximum(out, 0.0, out=out)
        return out, z, inv_std

    def forward(self, X):
        """The training pass: batch norm by batch statistics, running ones moved.

        Needs at least two rows. The cache keeps, per hidden layer, its
        input, ``xhat``, ``inv_std`` and its ReLU output.
        """
        X = _check_dim(X, self.n)
        batch = X.shape[0]
        if batch < 2:
            raise ValueError("the training pass needs batch size >= 2 for batch statistics")
        act, layers = X, []
        for i in range(len(self.hidden)):
            out, xhat, inv_std = self._layer(i, act, train=True)
            layers.append({"input": act, "xhat": xhat, "inv_std": inv_std, "out": out})
            act = out
        logits = act @ self.w_out + float(self.b_out)
        return logits, {"layers": layers, "top": act, "logits": logits, "batch": batch}

    def backward(self, cache, labels) -> dict[str, np.ndarray]:
        """Gradients of the mean sigmoid-CE loss, batch-norm terms included."""
        y = np.asarray(labels, dtype=np.float64)
        batch = cache["batch"]
        dl = (sigmoid(cache["logits"]) - y) / batch
        grads: dict[str, np.ndarray] = {
            "w_out": cache["top"].T @ dl,
            "b_out": np.array(float(dl.sum())),
        }
        d_act = np.outer(dl, self.w_out)
        for i in reversed(range(len(self.hidden))):
            layer = cache["layers"][i]
            d_pre = d_act * (layer["out"] > 0.0)
            xhat = layer["xhat"]
            grads[f"gamma{i}"] = (d_pre * xhat).sum(axis=0)
            grads[f"beta{i}"] = d_pre.sum(axis=0)
            d_xhat = d_pre * self.gammas[i]
            # Batch statistics carry gradient terms of their own.
            d_z = (layer["inv_std"] / batch) * (
                batch * d_xhat
                - d_xhat.sum(axis=0)
                - xhat * (d_xhat * xhat).sum(axis=0)
            )
            grads[f"w{i}"] = d_z.T @ layer["input"]
            grads[f"b{i}"] = d_z.sum(axis=0)
            if i:  # the input gradient of layer 0 is not a parameter gradient
                d_act = d_z @ self.Ws[i]
        return grads

    def input_grad(self, X, labels) -> np.ndarray:
        """Per-row loss gradient w.r.t. the input, through the eval ``_layer`` of ``logits``.

        One pass over all rows keeps each layer's ReLU output and ``inv_std``.
        """
        act, layers = _check_dim(X, self.n), []
        y = np.asarray(labels, dtype=np.float64)
        for i in range(len(self.hidden)):
            act, _, inv_std = self._layer(i, act, train=False)
            layers.append((act, inv_std))
        d_act = np.outer(sigmoid(act @ self.w_out + float(self.b_out)) - y, self.w_out)
        for i in reversed(range(len(self.hidden))):
            out, inv_std = layers[i]
            d_act = (d_act * (out > 0.0) * self.gammas[i] * inv_std) @ self.Ws[i]
        return d_act

    def logits(self, X: np.ndarray) -> np.ndarray:
        """Eval-mode logits with no cache, run per block of 512 rows.

        Each layer works in place on its block's GEMM output, so at most
        the input and two activations of one block are alive at once.
        """
        def block(act: np.ndarray) -> np.ndarray:
            for i in range(len(self.hidden)):
                act = self._layer(i, act, train=False)[0]
            return act @ self.w_out + float(self.b_out)

        return _blocked_logits(_check_dim(X, self.n), block)

