"""Single-hidden-layer perceptron trained by per-example SGD with momentum.

Features are min-max scaled to [0, 1] with ranges remembered from the
training set; hidden and output layers both use the logistic sigmoid;
targets are one-hot and the loss is squared error. Weight init and the
per-epoch example order come from one seeded generator per network.

One kernel runs a stack of networks in lockstep: it trains the k folds of
a cross-validation, or a single network (k = 1) for ``train_mlp``, and
``mlp_posterior`` runs one copy of a network per query row. A stack makes
its scratch arrays and binds its sequence of ufunc calls once, when it is
built, so that an SGD step looks up and allocates nothing. Its arithmetic
has a fixed order. Every dot product is an elementwise multiply followed by
``np.add.reduce`` over the leading axis of a term-major array whose other
axes hold at least two elements; numpy then adds the terms one at a time,
left to right (never BLAS, and never the pairwise sum numpy falls back to
when only the reduced axis is left). Other sums take a left-to-right
``np.add.accumulate``. The sigmoid's exponential is a fixed
sequence of IEEE ``+ - * /`` operations rather than a libm or SIMD
``exp``. Each of those operations is correctly rounded on every CPU, so
a network's bits depend only on its data, hyperparameters and seed: not
on k, not on its place in the stack, and not on the kernels numpy, BLAS
or libm pick at run time.

A layer's sigmoid takes one of two paths, and both give the same bits:
the array sigmoid, or, for a layer of few numbers (units x lanes), a
Python-float sigmoid mapped over them. The Python-float code runs the same
operations in the same order, and Python's float ``+ - * /``, ``round``
and ``math.ldexp`` are as portable as the kernel's.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from ..dataset import LabeledDataset
from ..errors import EmptyClassError, NonFiniteLossError
from ..rng import SplitMix64

_INIT_HALF_RANGE = 0.5
# at most this many float64s of broadcast inputs are gathered at a time
_INPUT_BLOCK = 1 << 17
# mlp_posterior's rows per block: a lane of the crossval model (d = 3,
# h = 8, K = 12) holds about 6 KB of buffers, and a block of them stays
# in cache
_POSTERIOR_LANES = 256


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
# _sigmoid's constants, as Python floats
_NEG_INV_LN2_F, _Z_MIN_F, _Z_MAX_F = map(float, (_NEG_INV_LN2, _Z_MIN, _Z_MAX))
(_NEG_LN2_HI, _LN2_LO), (_E2, _O2), (_E1, _O1), (_E0, _O0) = _PAIRS.tolist()
# a _Stack layer whose sigmoid takes at most this many numbers (units x
# lanes) maps _sigmoid over them: 5.0, 9.1 and 11.2 us for 8, 16 and 20
# numbers, against about 9.4 us for _Sigmoid
_SCALAR_SIGMOID_MAX = 16


class MlpParams(NamedTuple):
    hidden: int | None = None  # None: ceil((d + K) / 2)
    lr: float = 0.3
    momentum: float = 0.2
    epochs: int = 500

    def resolve_hidden(self, d: int, k: int) -> int:
        return self.hidden if self.hidden is not None else math.ceil((d + k) / 2)


class MlpModel(NamedTuple):
    w1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (K, h)
    b2: np.ndarray  # (K,)
    scaler_min: np.ndarray  # (d,)
    scaler_max: np.ndarray  # (d,)

    @property
    def num_classes(self) -> int:
        return int(self.w2.shape[0])


def scale_features(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Min-max scale with the stored training ranges; no clamping.

    Constant training features map to 0.
    """
    return _min_max_scale(x, model.scaler_min, model.scaler_max)


def _min_max_scale(x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(x - lo) / (hi - lo) along the last axis; 0 where hi == lo.

    An entry where hi - lo or x - lo overflows, in a column wider than the
    float range or a query row far outside the training range (training
    rows lie inside it), is (0.5*x - 0.5*lo) / (0.5*hi - 0.5*lo) instead:
    halving numbers that large is exact. The quotient itself may still
    overflow there.
    """
    with np.errstate(over="ignore"):
        span, offset = hi - lo, x - lo
    wide = ~(np.isfinite(span) & np.isfinite(offset))
    if wide.any():
        span = np.where(wide, 0.5 * hi - 0.5 * lo, span)
        offset = np.where(wide, 0.5 * x - 0.5 * lo, offset)
    return np.divide(offset, span, out=np.zeros_like(offset), where=span > 0)


def _fixed_sum(values: np.ndarray, axis: int) -> np.ndarray:
    """Sum along one axis strictly left to right, whatever the shape."""
    return np.take(np.add.accumulate(values, axis=axis), -1, axis=axis)


def _Sigmoid(shape: tuple[int, ...]) -> Callable[[np.ndarray, np.ndarray], None]:
    """Logistic function 1 / (1 + exp(-z)) for arrays of one shape, as a
    function sigmoid(z, out).

    NaN stays NaN; +inf maps to 1 and -inf to 1.2e-308. Constants and
    scratch arrays are made at full shape once, and the function holds
    them and its ufuncs as closure variables, so that every call is a fixed
    run of ufuncs on contiguous arrays that looks nothing up and allocates
    nothing.
    """
    consts = np.empty((*_PAIRS.shape, *shape))
    consts[...] = _PAIRS.reshape(_PAIRS.shape + (1,) * len(shape))
    ln2_parts, c2, c1, c0 = consts
    m_int = np.empty(shape, dtype=np.intc)
    c, m, r = np.empty((3, *shape))
    pair, t, poly = np.empty((3, 2, *shape))
    (hi, lo), (even, odd) = pair, poly
    z_min, z_max, neg_inv_ln2 = _Z_MIN, _Z_MAX, _NEG_INV_LN2
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    maximum, minimum, rint, ldexp, copyto = (
        np.maximum, np.minimum, np.rint, np.ldexp, np.copyto
    )

    def sigmoid(z: np.ndarray, out: np.ndarray) -> None:
        maximum(z, z_min, out=c)
        minimum(c, z_max, out=c)
        multiply(c, neg_inv_ln2, out=m)
        rint(m, out=m)
        copyto(m_int, m, casting="unsafe")
        # r = (-m*ln2_hi - c) - m*ln2_lo
        multiply(m, ln2_parts, out=pair)
        subtract(hi, c, out=r)
        subtract(r, lo, out=r)
        multiply(r, r, out=t)
        multiply(t, c2, out=poly)
        add(poly, c1, out=poly)
        multiply(poly, t, out=poly)
        add(poly, c0, out=poly)
        multiply(odd, r, out=odd)
        # 1 / (1 + 2**m * (E + O) / (E - O))
        add(even, odd, out=hi)
        subtract(even, odd, out=even)
        ldexp(hi, m_int, out=hi)
        add(hi, even, out=hi)
        divide(even, hi, out=out)

    return sigmoid


def _sigmoid(z: float) -> float:
    """_Sigmoid's operations, in its order, on one Python float."""
    c = _Z_MIN_F if z < _Z_MIN_F else _Z_MAX_F if z > _Z_MAX_F else z
    if c != c:  # round(nan) raises where np.rint gives NaN
        return c
    m = round(c * _NEG_INV_LN2_F)  # half to even, as np.rint
    r = m * _NEG_LN2_HI - c - m * _LN2_LO
    t = r * r
    even = (t * _E2 + _E1) * t + _E0
    odd = ((t * _O2 + _O1) * t + _O0) * r
    return (even - odd) / (math.ldexp(even + odd, m) + (even - odd))


def _sigmoid_each(z: np.ndarray, out: np.ndarray) -> None:
    """_Sigmoid's call, with _sigmoid on each number of z."""
    out.flat = list(map(_sigmoid, z.ravel().tolist()))


class _Stack:
    """k networks of one shape, run side by side.

    The buffers are term-major and network-minor. The parameters are one
    (P, lanes) buffer whose rows run [w1^T ; b1] as (d + 1, h), then
    [w2^T ; b2] as (h + 1, K); network f is lane [..., f] and only ever
    touches that lane. A forward pass takes its inputs with a trailing 1,
    already broadcast to layer 1's (d + 1, h, lanes) shape, and gives the
    hidden layer its trailing 1 the same way. So each dot product is one
    multiply of two arrays of one shape and one np.add.reduce over axis 0:
    with at least two elements in the other axes numpy adds that axis term
    by term, left to right with the bias last. With a single element left
    it would sum pairwise, so one network with one hidden unit (or one
    output) gets a spare second lane. Scratch space and views are made
    once here, and forward (like backward and step of a _TrainingStack) is
    a closure that binds its buffers and ufuncs once, so that a call looks
    nothing up.
    """

    def __init__(self, k: int, d: int, h: int, n_out: int) -> None:
        self.lanes = lanes = max(k, 1 if min(h, n_out) > 1 else 2)
        self.theta = np.zeros(((d + 1) * h + (h + 1) * n_out, lanes))
        self.layer1, self.layer2 = layer1, layer2 = _layers(self.theta, d, h, n_out)
        # [hidden ; 1 ; output] per lane
        self.acts = np.ones((h + 1 + n_out, lanes))
        self.hidden = hidden = self.acts[:h]
        self.output = output = self.acts[h + 1 :]
        # [hidden ; 1], layer 2's input, broadcast over the outputs
        self.act_wide = act_wide = np.ones((h + 1, n_out, lanes))
        act_wide_hidden, hidden_row = act_wide[:h], hidden[:, None]
        prod1, prod2 = np.empty_like(layer1), np.empty_like(layer2)
        z1, z2 = np.empty((h, lanes)), np.empty((n_out, lanes))
        # a layer of few numbers takes them through _sigmoid one at a time
        self.sigmoids = sigmoid_hidden, sigmoid_out = tuple(
            _Sigmoid(z.shape) if z.size > _SCALAR_SIGMOID_MAX else _sigmoid_each
            for z in (z1, z2)
        )
        multiply, add_reduce, copyto = np.multiply, np.add.reduce, np.copyto

        def forward(x: np.ndarray) -> None:
            """Fill hidden and output for inputs x of shape (d + 1, h, lanes)."""
            multiply(layer1, x, out=prod1)
            add_reduce(prod1, axis=0, out=z1)
            sigmoid_hidden(z1, hidden)
            copyto(act_wide_hidden, hidden_row)
            multiply(layer2, act_wide, out=prod2)
            add_reduce(prod2, axis=0, out=z2)
            sigmoid_out(z2, output)

        self.forward = forward

    def params(self, f: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Copies of network f's w1, b1, w2, b2."""
        return _split(self.layer1[..., f], self.layer2[..., f])

    def set_params(self, f: int | slice, w1, b1, w2, b2) -> None:
        """Give network f (or every network in slice f) these parameters."""
        lanes = slice(f, f + 1) if isinstance(f, int) else f
        self.layer1[:-1, :, lanes] = np.transpose(w1)[..., None]
        self.layer1[-1, :, lanes] = np.reshape(b1, (-1, 1))
        self.layer2[:-1, :, lanes] = np.transpose(w2)[..., None]
        self.layer2[-1, :, lanes] = np.reshape(b2, (-1, 1))

    def inputs(self, x: np.ndarray) -> np.ndarray:
        """Rows x (m <= lanes, d) with a trailing 1, as a read-only input
        of forward: lane f gets row f, and a lane past the rows gets zeros."""
        cols = np.zeros((x.shape[1] + 1, self.lanes))
        cols[:-1, : x.shape[0]] = x.T
        cols[-1] = 1.0
        return np.broadcast_to(cols[:, None], self.layer1.shape)


class _TrainingStack(_Stack):
    """A _Stack with backpropagation and momentum SGD.

    Momenta and gradients have buffers of the same layout as the
    parameters, so a momentum update is four in-place operations over
    every parameter.
    """

    def __init__(self, k: int, d: int, h: int, n_out: int) -> None:
        super().__init__(k, d, h, n_out)
        forward, theta, acts, output = self.forward, self.theta, self.acts, self.output
        act_wide = self.act_wide
        self.vel = vel = np.zeros_like(theta)
        self.grad = grad = np.zeros_like(theta)
        self._g_layer1, self._g_layer2 = g_layer1, g_layer2 = _layers(grad, d, h, n_out)
        slopes = np.empty_like(acts)  # acts * (1 - acts)
        slope_hidden, slope_out = slopes[:h], slopes[h + 1 :]
        delta_out = np.empty_like(output)
        delta_out_col = delta_out[:, None]
        w2_t = self.layer2[:h].transpose(1, 0, 2)
        # w2^T delta_out term by term, outputs leading
        back_terms = np.empty((n_out, h, self.lanes))
        back, delta_hidden = np.empty_like(self.hidden), np.empty_like(self.hidden)
        one, add, subtract, multiply = _ONE, np.add, np.subtract, np.multiply
        add_reduce = np.add.reduce

        def backward(x: np.ndarray, target: np.ndarray, err: np.ndarray) -> None:
            """Forward pass, err = output - target (both (K, lanes)), and the
            gradient of 0.5 * sum(err**2) in the gradient buffer."""
            forward(x)
            subtract(output, target, out=err)
            # sigmoid slopes s * (1 - s) of both layers at once
            subtract(one, acts, out=slopes)
            multiply(slopes, acts, out=slopes)
            multiply(err, slope_out, out=delta_out)
            multiply(act_wide, delta_out, out=g_layer2)
            # back = w2^T delta_out, summed over the outputs left to right
            multiply(w2_t, delta_out_col, out=back_terms)
            add_reduce(back_terms, axis=0, out=back)
            multiply(back, slope_hidden, out=delta_hidden)
            multiply(x, delta_hidden, out=g_layer1)

        def step(lr: np.ndarray, momentum: np.ndarray) -> None:
            """vel = momentum * vel - lr * grad; theta += vel."""
            multiply(vel, momentum, out=vel)
            multiply(grad, lr, out=grad)
            subtract(vel, grad, out=vel)
            add(theta, vel, out=theta)

        self.backward, self.step = backward, step


def _layers(
    flat: np.ndarray, d: int, h: int, n_out: int
) -> tuple[np.ndarray, np.ndarray]:
    """Views [w1^T ; b1] (d + 1, h, lanes) and [w2^T ; b2] (h + 1, K, lanes)
    of a (P, lanes) buffer."""
    lanes = flat.shape[1]
    split = (d + 1) * h
    return (
        flat[:split].reshape(d + 1, h, lanes),
        flat[split:].reshape(h + 1, n_out, lanes),
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


def _epoch_inputs(x_cols: np.ndarray, rows: np.ndarray, block: np.ndarray):
    """Each step's (d + 1, h, lanes) input, lane f holding column rows[t, f]
    of x_cols; broadcast a block of steps at a time into block."""
    for start in range(0, rows.shape[0], block.shape[0]):
        chunk = rows[start : start + block.shape[0]]
        wide = block[: chunk.shape[0]]
        np.copyto(wide, x_cols[:, chunk].transpose(1, 0, 2)[:, :, None])
        yield from wide


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
    SplitMix64(seeds[i]) and gets the same bits as when trained alone.
    Datasets must share their feature and class counts; their sizes may
    differ by one, and a network with a row fewer sits out the last step
    of each epoch, weights and momenta unchanged. A layer's sigmoid takes
    one of two paths with the same bits: the Python-float sigmoid for at
    most _SCALAR_SIGMOID_MAX numbers (units x lanes), else the array one.
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
    if h < 1:
        raise ValueError("need at least one hidden unit")
    stack = _TrainingStack(k, d, h, n_out)
    lanes = stack.lanes

    scaled = [_scaled(datasets[i]) for i in live]
    # every row with a trailing 1, one column per row
    x_cols = np.ones((d + 1, sum(sizes)))
    x_cols[:d] = np.concatenate([s[0] for s in scaled]).T
    labels = np.concatenate([datasets[i].labels for i in live])
    # a spare lane sees the first row at every step
    offsets = np.zeros(lanes, dtype=np.intp)
    offsets[:k] = np.cumsum([0] + sizes[:-1])

    # init draws run w1, b1, w2, b2, each row-major
    rngs = [SplitMix64(seeds[i]) for i in live]
    n_params = stack.theta.shape[0]
    for j, rng in enumerate(rngs):
        draws = rng.uniforms_in(-_INIT_HALF_RANGE, _INIT_HALF_RANGE, n_params)
        ends = np.cumsum([h * d, h, n_out * h])
        w1, b1, w2, b2 = np.split(draws, ends)
        stack.set_params(j, w1.reshape(h, d), b1, w2.reshape(n_out, h), b2)

    first_bad_loss: list[float | None] = [None] * k
    lr, momentum = _const(params.lr), _const(params.momentum)
    backward, step = stack.backward, stack.step
    orders = [list(range(n)) for n in sizes]
    # rows[t, j]: the row network j sees at step t; a short network's last
    # entry is a placeholder whose step is undone
    rows = np.tile(offsets, (n_max, 1))
    short = np.array([j for j, n in enumerate(sizes) if n < n_max], dtype=np.intp)
    n_block = min(n_max, max(1, _INPUT_BLOCK // ((d + 1) * h * lanes)))
    block = np.empty((n_block, d + 1, h, lanes))
    classes = np.arange(n_out)[:, None]
    ts = np.empty((n_max, n_out, lanes))
    errs = np.empty((n_max, n_out, lanes))
    # each step's rows of ts and errs, as views made once per fit
    ts_rows, err_rows = list(ts), list(errs)
    # a diverging fit overflows to inf/NaN; NonFiniteLossError reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(params.epochs):
            for j, rng in enumerate(rngs):
                rng.shuffle(orders[j])
                rows[: sizes[j], j] = orders[j]
                rows[: sizes[j], j] += offsets[j]
            np.equal(labels[rows][:, None], classes, out=ts, casting="unsafe")
            inputs = _epoch_inputs(x_cols, rows, block)
            for x, target, err in zip(islice(inputs, n_max - 1), ts_rows, err_rows):
                backward(x, target, err)
                step(lr, momentum)
            held = stack.theta[:, short], stack.vel[:, short]
            backward(next(inputs), ts[-1], errs[-1])
            step(lr, momentum)
            stack.theta[:, short], stack.vel[:, short] = held
            errs[-1, :, short] = 0.0
            # epoch loss: sum over steps of 0.5 * sum(err**2), in place
            np.multiply(errs, errs, out=errs)
            np.add.accumulate(errs, axis=1, out=errs)
            losses = _fixed_sum(0.5 * errs[:, -1], axis=0)
            for j, loss in enumerate(losses[:k].tolist()):
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
        if not np.isfinite(stack.theta[:, j]).all():
            raise ValueError("parameters must be finite")
        w1, b1, w2, b2 = stack.params(j)
        _, scaler_min, scaler_max = scaled[j]
        results[i] = MlpModel(
            w1=w1, b1=b1, w2=w2, b2=b2, scaler_min=scaler_min, scaler_max=scaler_max
        )
    return results


def train_mlp(
    data: LabeledDataset, params: MlpParams = MlpParams(), seed: int = 0
) -> MlpModel:
    """Train with per-example SGD and momentum; deterministic given seed.

    Raises EmptyClassError if a class has no rows and NonFiniteLossError if
    the epoch loss diverges to NaN/inf.
    """
    (result,) = train_mlp_stack([data], params, [seed])
    if isinstance(result, Exception):
        raise result
    return result


def mlp_posterior(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Forward pass on the scaled rows of x (n, d), each row's outputs
    normalized to sum 1 (uniform where their sum is not positive and finite).

    Each row runs in its own lane of a stack whose networks all hold the
    model's parameters, and the kernel gives each the bits of a lone
    network. The rows go through in blocks of at most _POSTERIOR_LANES, so
    the stack's memory does not grow with n.
    """
    h, d = model.w1.shape
    n, n_out = x.shape[0], model.num_classes
    stack = _Stack(min(n, _POSTERIOR_LANES), d, h, n_out)
    stack.set_params(slice(None), model.w1, model.b1, model.w2, model.b2)
    posterior = np.full((n, n_out), 1.0 / n_out)
    # a row far outside the training range can scale to +-inf, and its
    # outputs to NaN: it keeps the uniform posterior
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = scale_features(model, x)
        for start in range(0, n, _POSTERIOR_LANES):
            rows = scaled[start : start + _POSTERIOR_LANES]
            m = rows.shape[0]
            stack.forward(stack.inputs(rows))
            total = _fixed_sum(stack.output, axis=0)[:m, None]
            usable = (total > 0.0) & np.isfinite(total)
            block = posterior[start : start + m]
            np.divide(stack.output[:, :m].T, total, out=block, where=usable)
    return posterior
