"""The numpy behaviours that the kernels' bits rest on, one test each.

Each is checked against Python floats, whose ``+ - * /`` round the same on
every platform, so a numpy release that breaks a rule fails here by name
and not only on a pinned digest.
"""

import numpy as np


def bits(values):
    return np.array(values, dtype=np.float64).tobytes()


def left_to_right(terms):
    total = 0.0
    for term in terms:
        total += term
    return total


def numpy_pairwise(terms):
    """numpy's pairwise sum of a contiguous run: a plain loop below 8 terms,
    eight running sums up to 128, and halves (kept multiples of 8) above."""
    n = len(terms)
    if n < 8:
        return left_to_right(terms)
    if n <= 128:
        acc = list(terms[:8])
        end = n - n % 8
        for i in range(8, end, 8):
            acc = [a + t for a, t in zip(acc, terms[i : i + 8])]
        a0, a1, a2, a3, a4, a5, a6, a7 = acc
        total = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
        for term in terms[end:]:
            total += term
        return total
    half = n // 2
    half -= half % 8
    return numpy_pairwise(terms[:half]) + numpy_pairwise(terms[half:])


def spread_terms(rng, shape):
    """Terms whose magnitudes span 16 decades, so that each order of
    addition rounds to its own bits."""
    return rng.normal(size=shape) * 10.0 ** rng.integers(-8, 8, size=shape)


def test_leading_axis_reduce_adds_term_by_term():
    # the perceptron's dot products: axis 0 of a term-major array
    rng = np.random.default_rng(1)
    for shape in ((40, 2), (40, 3, 2), (9, 1, 2), (200, 5)):
        terms = spread_terms(rng, shape)
        got = np.add.reduce(terms, axis=0)
        columns = terms.reshape(shape[0], -1).T.tolist()
        assert got.tobytes() == bits([left_to_right(c) for c in columns])
    # the data tells the two orders apart
    column = spread_terms(rng, 200).tolist()
    assert bits(left_to_right(column)) != bits(numpy_pairwise(column))


def test_contiguous_row_reduce_is_pairwise():
    # central_moments and the tree's entropies: rows of a C-contiguous block
    rng = np.random.default_rng(2)
    for n in (1, 5, 8, 13, 100, 128, 129, 300, 1000, 4099):
        block = spread_terms(rng, (3, n))
        got = np.add.reduce(block, axis=1)
        assert got.tobytes() == bits([numpy_pairwise(r) for r in block.tolist()])
        row = block[0]
        assert np.add.reduce(row).tobytes() == bits(numpy_pairwise(row.tolist()))


def test_partition_with_quantiles_kth_gives_quantile_bits():
    # trim_noise's column_quantiles
    rng = np.random.default_rng(3)
    for n, q in ((2, 0.5), (7, 0.25), (50, 0.98), (257, 0.9), (1000, 0.98)):
        values = spread_terms(rng, (n, 3))
        values[:, 1] = rng.integers(-2, 3, size=n)  # ties
        values[:, 2] = rng.choice([-0.0, 0.0, 1.0], size=n)  # signed zeros
        v = (n - 1) * q
        lo = int(v)
        t = v - lo
        part = np.partition(values, (-1, 0, lo, lo + 1), axis=0)
        for j, column in enumerate(values.T.tolist()):
            ordered = sorted(column)
            assert (part[lo, j], part[lo + 1, j]) == (ordered[lo], ordered[lo + 1])
            a, b = part[lo, j].item(), part[lo + 1, j].item()
            # numpy's lerp, in Python floats
            want = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
            assert bits(want) == np.quantile(values[:, j], q).tobytes()


def test_class_block_sums_like_per_class_mean():
    # train_gnb: classes of one row count summed over the middle axis of a
    # (classes, count, d) block, row by row, or pairwise when d is 1
    rng = np.random.default_rng(4)
    for classes, count, d in ((3, 40, 4), (2, 200, 2), (4, 150, 1), (1, 9, 3)):
        block = spread_terms(rng, (classes, count, d))
        got = block.sum(axis=1) / count
        for c in range(classes):
            cols = block[c].T.tolist()
            total = numpy_pairwise if d == 1 else left_to_right
            assert got[c].tobytes() == bits([total(col) / count for col in cols])
            assert got[c].tobytes() == block[c].mean(axis=0).tobytes()
