"""Single-hidden-layer perceptron trained by per-example SGD with momentum.

Features are min-max scaled to [0, 1] with ranges remembered from the
training set; hidden and output layers both use the logistic sigmoid;
targets are one-hot and the loss is squared error. Weight init and the
per-epoch example order come from one seeded generator per network.

One kernel runs a stack of networks in lockstep: it trains the k folds of
a cross-validation, or a single network (k = 1) for ``train_mlp``, and
``mlp_posterior`` runs one copy of a network per query row. Its arithmetic
has a fixed order. Every dot product is an elementwise multiply followed by
a left-to-right ``np.add.accumulate`` (never BLAS, never a pairwise
``np.sum``), and the sigmoid's exponential is a fixed sequence of
IEEE ``+ - * /`` operations rather than a libm or SIMD ``exp``. Each of those
operations is correctly rounded on every CPU, so a network's bits depend
only on its data, hyperparameters and seed: not on k, not on its place in
the stack, and not on the kernels numpy, BLAS or libm pick at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from ..dataset import LabeledDataset
from ..errors import EmptyClassError, NonFiniteLossError
from ..rng import SplitMix64

_INIT_HALF_RANGE = 0.5


def _const(value) -> np.ndarray:
    # a 0-d array operand costs a ufunc call less than a Python float does
    const = np.array(value, dtype=np.float64)
    const.setflags(write=False)
    return const


# The sigmoid writes exp(-z) = 2**m * exp(r) with m = rint(-z / ln 2) and
# |r| <= ln(2) / 2, and takes exp(r) = (E + O) / (E - O) from the [5/5] Pade
# approximant, E and O being its even and odd parts (relative error below
# 9e-16 on that interval). ln 2 is split in two, ln2_hi + ln2_lo, so that
# m * ln2_hi is exact (fdlibm's split).
_NEG_INV_LN2 = _const(-1.44269504088896338700e00)
# Pairs the sigmoid applies side by side: -ln2_hi and ln2_lo, then the
# Horner coefficients of E = (e2*t + e1)*t + 1 (first of each pair) and of
# O / r = (o2*t + o1)*t + o0 (second), with t = r*r.
_PAIRS = _const(
    [
        [-6.93147180369123816490e-01, 1.90821492927058770002e-10],
        [1 / 1008, 1 / 30240],
        [1 / 9, 1 / 72],
        [1.0, 1 / 2],
    ]
)
# z is clamped so that 2**m * (E + O) neither overflows nor leaves int range
_Z_MIN = _const(-709.0)  # sigmoid(-709) = 1.2e-308
_Z_MAX = _const(746.0)  # sigmoid(746) = 1 and exp(-746) rounds to 0
_ONE = _const(1.0)


@dataclass(frozen=True)
class MlpParams:
    hidden: int | None = None  # None: ceil((d + K) / 2)
    lr: float = 0.3
    momentum: float = 0.2
    epochs: int = 500
    seed: int = 0

    def resolve_hidden(self, d: int, k: int) -> int:
        return self.hidden if self.hidden is not None else math.ceil((d + k) / 2)


@dataclass(frozen=True)
class MlpModel:
    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (K, h)
    b2: np.ndarray  # (K,)
    scaler_min: np.ndarray  # (d,)
    scaler_max: np.ndarray  # (d,)

    def __post_init__(self) -> None:
        for arr in (self.w1, self.b1, self.w2, self.b2):
            if not np.isfinite(arr).all():
                raise ValueError("parameters must be finite")
        if self.w1.shape[0] < 1:
            raise ValueError("need at least one hidden unit")

    @property
    def n_features(self) -> int:
        return int(self.w1.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.w2.shape[0])


def scale_features(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Min-max scale with the stored training ranges; no clamping.

    Constant training features map to 0.
    """
    return _min_max_scale(x, model.scaler_min, model.scaler_max)


def _min_max_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(x - lo) / (hi - lo) along the last axis; 0 where hi == lo."""
    span = hi - lo
    scaled = np.zeros_like(x, dtype=np.float64)
    nonconst = span > 0
    scaled[..., nonconst] = (x[..., nonconst] - lo[nonconst]) / span[nonconst]
    return scaled


def _fixed_sum(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Sum along one axis strictly left to right."""
    return np.take(np.add.accumulate(values, axis=axis), -1, axis=axis)


class _Sigmoid:
    """Logistic function 1 / (1 + exp(-z)) for arrays of one shape.

    NaN stays NaN; +inf maps to 1 and -inf to 1.2e-308. Constants and
    scratch arrays are made at full shape once, so that every call is a
    fixed run of ufuncs on contiguous arrays that allocates nothing.
    """

    def __init__(self, shape: tuple[int, ...]) -> None:
        consts = np.empty((*_PAIRS.shape, *shape))
        consts[...] = _PAIRS.reshape(_PAIRS.shape + (1,) * len(shape))
        c, m, r = np.empty((3, *shape))
        pair, t, poly = np.empty((3, 2, *shape))
        # one tuple, views included, so that a call creates no objects
        self._bufs = (
            np.empty(shape, dtype=np.intc), c, m, r, pair, *pair, t, poly, *poly, *consts,
        )  # fmt: skip

    def __call__(self, z: np.ndarray, out: np.ndarray) -> None:
        (m_int, c, m, r, pair, hi, lo, t, poly, even, odd,
         ln2_parts, c2, c1, c0) = self._bufs  # fmt: skip
        np.maximum(z, _Z_MIN, out=c)
        np.minimum(c, _Z_MAX, out=c)
        np.multiply(c, _NEG_INV_LN2, out=m)
        np.rint(m, out=m)
        np.copyto(m_int, m, casting="unsafe")
        # r = (-m*ln2_hi - c) - m*ln2_lo
        np.multiply(m, ln2_parts, out=pair)
        np.subtract(hi, c, out=r)
        np.subtract(r, lo, out=r)
        np.multiply(r, r, out=t)
        np.multiply(t, c2, out=poly)
        np.add(poly, c1, out=poly)
        np.multiply(poly, t, out=poly)
        np.add(poly, c0, out=poly)
        np.multiply(odd, r, out=odd)
        # 1 / (1 + 2**m * (E + O) / (E - O))
        np.add(even, odd, out=hi)
        np.subtract(even, odd, out=even)
        np.ldexp(hi, m_int, out=hi)
        np.add(hi, even, out=hi)
        np.divide(even, hi, out=out)


class _Stack:
    """k networks of one shape, run side by side.

    Network f's parameters are row f of one flat (k, P) buffer, laid out
    as [w1^T ; b1] (d + 1, h) then [w2^T ; b2] (h + 1, K). Inputs carry a
    trailing 1 (as does the hidden layer), so one multiply and one
    left-to-right accumulate over the inputs give w x + b with the bias
    added last. Network f only ever touches row f. Scratch space and views
    are made once here.
    """

    def __init__(self, k: int, d: int, h: int, n_out: int) -> None:
        self.theta = np.zeros((k, (d + 1) * h + (h + 1) * n_out))
        self.layer1, self.layer2 = _layers(self.theta, d, h, n_out)
        # [hidden | 1 | output] per network; [hidden | 1] is layer 2's input
        self.acts = np.ones((k, h + 1 + n_out))
        self.act_col = self.acts[:, : h + 1, None]
        self.hidden = self.acts[:, :h]
        self.output = self.acts[:, h + 1 :]
        self.prod2 = np.empty((k, h + 1, n_out))
        prod1 = np.empty((k, d + 1, h))
        self._forward_bufs = (
            self.layer1, self.layer2, self.act_col, self.hidden, self.output,
            prod1, prod1[:, -1, :], self.prod2, self.prod2[:, -1, :],
            _Sigmoid((k, h)), _Sigmoid((k, n_out)),
        )  # fmt: skip

    def params(self, f: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of network f's w1, b1, w2, b2."""
        return _split(self.layer1[f], self.layer2[f])

    def set_params(self, f: int | slice, w1, b1, w2, b2) -> None:
        """Give network f (or every network in slice f) these parameters."""
        self.layer1[f, :-1], self.layer1[f, -1] = np.transpose(w1), b1
        self.layer2[f, :-1], self.layer2[f, -1] = np.transpose(w2), b2

    def forward(self, x: np.ndarray) -> None:
        """Fill hidden and output for inputs x of shape (k, d + 1, 1)."""
        (layer1, layer2, act_col, hidden, output, prod1, z1, prod2, z2,
         sigmoid_hidden, sigmoid_out) = self._forward_bufs  # fmt: skip
        np.multiply(layer1, x, out=prod1)
        np.add.accumulate(prod1, axis=1, out=prod1)
        sigmoid_hidden(z1, hidden)
        np.multiply(layer2, act_col, out=prod2)
        np.add.accumulate(prod2, axis=1, out=prod2)
        sigmoid_out(z2, output)


class _TrainingStack(_Stack):
    """A _Stack with backpropagation and momentum SGD.

    Momenta and gradients have buffers of the same layout as the
    parameters, so a momentum update is four in-place operations over
    every parameter.
    """

    def __init__(self, k: int, d: int, h: int, n_out: int) -> None:
        super().__init__(k, d, h, n_out)
        self.vel = np.zeros_like(self.theta)
        self.grad = np.zeros_like(self.theta)
        self._g_layer1, self._g_layer2 = _layers(self.grad, d, h, n_out)
        slopes = np.empty_like(self.acts)  # acts * (1 - acts)
        delta_hidden = np.empty((k, 1, h))
        delta_out = np.empty((k, 1, n_out))
        self._backward_bufs = (
            self.layer2, self.act_col, self.output, self.acts,
            slopes, slopes[:, :h], slopes[:, h + 1 :],
            self.prod2, self.prod2[:, :h, -1],
            delta_hidden, delta_hidden[:, 0, :], delta_out, delta_out[:, 0, :],
            self._g_layer1, self._g_layer2,
        )  # fmt: skip

    def gradients(self, f: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of the last backward pass's gradients for network f."""
        return _split(self._g_layer1[f], self._g_layer2[f])

    def backward(self, x: np.ndarray, target: np.ndarray, err: np.ndarray) -> None:
        """Forward pass, err = output - target, and the gradient of
        0.5 * sum(err**2) in the gradient buffer."""
        self.forward(x)
        (layer2, act_col, output, acts, slopes, slope_hidden, slope_out, prod2,
         back, delta_hidden_row, delta_hidden, delta_out_row, delta_out,
         g_layer1, g_layer2) = self._backward_bufs  # fmt: skip
        np.subtract(output, target, out=err)
        # sigmoid slopes s * (1 - s) of both layers at once
        np.subtract(_ONE, acts, out=slopes)
        np.multiply(slopes, acts, out=slopes)
        np.multiply(err, slope_out, out=delta_out)
        np.multiply(act_col, delta_out_row, out=g_layer2)
        # back = w2^T delta_out, summed over the outputs left to right
        np.multiply(layer2, delta_out_row, out=prod2)
        np.add.accumulate(prod2, axis=2, out=prod2)
        np.multiply(back, slope_hidden, out=delta_hidden)
        np.multiply(x, delta_hidden_row, out=g_layer1)

    def step(self, lr: np.ndarray, momentum: np.ndarray) -> None:
        """vel = momentum * vel - lr * grad; theta += vel."""
        theta, vel, grad = self.theta, self.vel, self.grad
        np.multiply(vel, momentum, out=vel)
        np.multiply(grad, lr, out=grad)
        np.subtract(vel, grad, out=vel)
        np.add(theta, vel, out=theta)


def _layers(
    flat: np.ndarray, d: int, h: int, n_out: int
) -> tuple[np.ndarray, np.ndarray]:
    """Views [w1^T ; b1] (k, d + 1, h) and [w2^T ; b2] (k, h + 1, K) of a
    (k, P) buffer."""
    k = flat.shape[0]
    split = (d + 1) * h
    return (
        flat[:, :split].reshape(k, d + 1, h),
        flat[:, split:].reshape(k, h + 1, n_out),
    )


def _split(
    layer1: np.ndarray, layer2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Copies of w1, b1, w2, b2 from one network's layer views."""
    return (
        layer1[:-1].T.copy(),
        layer1[-1].copy(),
        layer2[:-1].T.copy(),
        layer2[-1].copy(),
    )


def _with_bias_input(x: np.ndarray) -> np.ndarray:
    """Rows of x with a trailing 1 appended."""
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


def example_loss_and_gradients(
    w1: np.ndarray,
    b1: np.ndarray,
    w2: np.ndarray,
    b2: np.ndarray,
    x: np.ndarray,
    target: np.ndarray,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Squared-error loss 0.5*sum((out-target)^2) and its exact gradients,
    from the training kernel with one network."""
    (h, d), n_out = w1.shape, w2.shape[0]
    stack = _TrainingStack(1, d, h, n_out)
    stack.set_params(0, w1, b1, w2, b2)
    err = np.empty((1, n_out))
    x_col = _with_bias_input(x).reshape(1, d + 1, 1)
    stack.backward(x_col, target.reshape(1, n_out), err)
    loss = 0.5 * float(_fixed_sum(err * err)[0])
    return (loss, *stack.gradients(0))


def _scaled(data: LabeledDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min-max scaled features and the ranges they were scaled with."""
    lo, hi = data.features.min(axis=0), data.features.max(axis=0)
    return _min_max_scale(data.features, lo, hi), lo, hi


def train_mlp_stack(
    datasets: Sequence[LabeledDataset], params: MlpParams, seeds: Sequence[int]
) -> list[Union[MlpModel, EmptyClassError, NonFiniteLossError]]:
    """Train one network per dataset, all in lockstep; entry i is network
    i's model, or the error that stopped it.

    Network i draws its init and each epoch's shuffle from
    SplitMix64(seeds[i]) (params.seed is not used) and gets the same bits
    as when trained alone. Datasets must share their feature and class
    counts; their sizes may differ by one, and a network with a row fewer
    sits out the last step of each epoch, weights and momenta unchanged.
    A network whose epoch loss is NaN/inf gets NonFiniteLossError.
    """
    if len(datasets) != len(seeds):
        raise ValueError("need one seed per dataset")
    results: list = [None] * len(datasets)
    live = []
    for i, data in enumerate(datasets):
        empty = np.flatnonzero(data.class_counts() == 0)
        if empty.size:
            results[i] = EmptyClassError(int(empty[0]))
        else:
            live.append(i)
    if not live:
        return results
    d, n_out = datasets[live[0]].n_features, datasets[live[0]].num_classes
    if any((datasets[i].n_features, datasets[i].num_classes) != (d, n_out) for i in live):
        raise ValueError("datasets differ in feature or class count")
    sizes = [datasets[i].n_rows for i in live]
    n_max = max(sizes)
    if min(sizes) < n_max - 1:
        raise ValueError("dataset sizes differ by more than one")
    k = len(live)
    h = params.resolve_hidden(d, n_out)
    stack = _TrainingStack(k, d, h, n_out)

    scaled = [_scaled(datasets[i]) for i in live]
    x_all = _with_bias_input(np.concatenate([s[0] for s in scaled]))[:, :, None]
    labels = np.concatenate([datasets[i].labels for i in live])
    offsets = np.cumsum([0] + sizes[:-1])

    # init draws run w1, b1, w2, b2, each row-major
    rngs = [SplitMix64(seeds[i]) for i in live]
    n_params = stack.theta.shape[1]
    for j, rng in enumerate(rngs):
        draws = rng.uniforms_in(-_INIT_HALF_RANGE, _INIT_HALF_RANGE, n_params)
        ends = np.cumsum([h * d, h, n_out * h])
        w1, b1, w2, b2 = np.split(draws, ends)
        stack.set_params(j, w1.reshape(h, d), b1, w2.reshape(n_out, h), b2)

    lr, momentum = _const(params.lr), _const(params.momentum)
    backward, step = stack.backward, stack.step
    orders = [list(range(n)) for n in sizes]
    # rows[t, j]: the row network j sees at step t; a short network's last
    # entry is a placeholder whose step is undone
    rows = np.tile(offsets, (n_max, 1))
    short = np.array([j for j, n in enumerate(sizes) if n < n_max], dtype=np.intp)
    xs = np.empty((n_max, k, d + 1, 1))
    ts = np.empty((n_max, k, n_out))
    errs = np.empty((n_max, k, n_out))
    first_bad_loss: list[float | None] = [None] * k
    # a diverging fit overflows to inf/NaN; NonFiniteLossError reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.epochs):
            for j, rng in enumerate(rngs):
                rng.shuffle(orders[j])
                rows[: sizes[j], j] = orders[j]
                rows[: sizes[j], j] += offsets[j]
            np.take(x_all, rows, axis=0, out=xs)
            np.equal(labels[rows][:, :, None], np.arange(n_out), out=ts, casting="unsafe")
            for x, target, err in zip(xs[:-1], ts[:-1], errs[:-1]):
                backward(x, target, err)
                step(lr, momentum)
            held = stack.theta[short], stack.vel[short]
            backward(xs[-1], ts[-1], errs[-1])
            step(lr, momentum)
            stack.theta[short], stack.vel[short] = held
            errs[-1, short] = 0.0
            # epoch loss: sum over steps of 0.5 * sum(err**2), in place
            np.multiply(errs, errs, out=errs)
            np.add.accumulate(errs, axis=2, out=errs)
            losses = _fixed_sum(0.5 * errs[:, :, -1], axis=0)
            for j, loss in enumerate(losses.tolist()):
                if first_bad_loss[j] is None and not math.isfinite(loss):
                    first_bad_loss[j] = loss
            if all(loss is not None for loss in first_bad_loss):
                break

    for j, i in enumerate(live):
        if first_bad_loss[j] is not None:
            results[i] = NonFiniteLossError(
                f"training diverged (epoch loss {first_bad_loss[j]})"
            )
            continue
        w1, b1, w2, b2 = stack.params(j)
        _, scaler_min, scaler_max = scaled[j]
        results[i] = MlpModel(
            w1=w1, b1=b1, w2=w2, b2=b2, scaler_min=scaler_min, scaler_max=scaler_max
        )
    return results


def train_mlp(data: LabeledDataset, params: MlpParams = MlpParams()) -> MlpModel:
    """Train with per-example SGD and momentum; deterministic given seed.

    Raises EmptyClassError if a class has no rows and NonFiniteLossError if
    the epoch loss diverges to NaN/inf.
    """
    (result,) = train_mlp_stack([data], params, [params.seed])
    if isinstance(result, Exception):
        raise result
    return result


def mlp_posterior(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward pass on the scaled rows of x (n, d), each row's outputs
    normalized to sum 1 (uniform where their sum is not positive and finite).

    Row i runs as network i of a stack whose networks all hold the model's
    parameters; the kernel gives each the bits of a lone network.
    """
    h, d = model.w1.shape
    n_out = model.num_classes
    stack = _Stack(x.shape[0], d, h, n_out)
    stack.set_params(slice(None), model.w1, model.b1, model.w2, model.b2)
    stack.forward(_with_bias_input(scale_features(model, x))[:, :, None])
    output = stack.output
    total = _fixed_sum(output)[:, None]
    usable = (total > 0.0) & np.isfinite(total)
    return np.divide(output, total, out=np.full_like(output, 1.0 / n_out), where=usable)
