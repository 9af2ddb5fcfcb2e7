"""Differential tests: the vectorised GF(256) kernels against scalar references.

The references below are the plain algorithms the kernels replaced, written
element by element on ``GF256.mul``/``GF256.inv``: a per-row matrix product,
Gauss-Jordan elimination that clears one row at a time, solution read-out by
pivot column, and Reed-Solomon decoding by solving the full k x k system.
They exist only here.  The fast paths must return the same values, down to
the reduced matrix of a rank-deficient or non-square elimination.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.erasure.base import array_to_blocks, blocks_to_array
from repro.erasure.gf256 import GF256
from repro.erasure.matrix import gf_rref, gf_solve
from repro.erasure.rlc import RandomLinearCode
from repro.erasure.rs import ReedSolomonCode
from repro.errors import DecodeError

# -- scalar references ----------------------------------------------------------


def ref_matmul(matrix, blocks):
    """Row by row: out[i] ^= matrix[i, t] * blocks[t] for every t."""
    out = [[0] * blocks.shape[1] for _ in range(matrix.shape[0])]
    for i, row in enumerate(matrix.tolist()):
        for coeff, block in zip(row, blocks.tolist()):
            out[i] = [x ^ GF256.mul(coeff, y) for x, y in zip(out[i], block)]
    return np.array(out, dtype=np.uint8).reshape(matrix.shape[0], blocks.shape[1])


def ref_rref(matrix, augment=None):
    """Gauss-Jordan with first-nonzero pivoting, one row operation at a time."""
    a = matrix.astype(np.uint8).tolist()
    aug = augment.astype(np.uint8).tolist() if augment is not None else None
    rows, cols = matrix.shape
    pivot_row = 0
    for col in range(cols):
        if pivot_row >= rows:
            break
        pivot = next((r for r in range(pivot_row, rows) if a[r][col]), None)
        if pivot is None:
            continue
        a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
        if aug is not None:
            aug[pivot_row], aug[pivot] = aug[pivot], aug[pivot_row]
        inv = GF256.inv(a[pivot_row][col])
        a[pivot_row] = [GF256.mul(inv, x) for x in a[pivot_row]]
        if aug is not None:
            aug[pivot_row] = [GF256.mul(inv, x) for x in aug[pivot_row]]
        for r in range(rows):
            factor = a[r][col]
            if r == pivot_row or factor == 0:
                continue
            a[r] = [x ^ GF256.mul(factor, y) for x, y in zip(a[r], a[pivot_row])]
            if aug is not None:
                aug[r] = [x ^ GF256.mul(factor, y) for x, y in zip(aug[r], aug[pivot_row])]
        pivot_row += 1
    out = np.array(a, dtype=np.uint8).reshape(matrix.shape)
    out_aug = None if aug is None else np.array(aug, dtype=np.uint8).reshape(augment.shape)
    return out, out_aug, pivot_row


def ref_solve(coeffs, payloads):
    """Solve by elimination, then read each solution row off its pivot column."""
    m, k = coeffs.shape
    if payloads.shape[0] != m:
        raise DecodeError(f"coefficient rows ({m}) != payload rows ({payloads.shape[0]})")
    rref, reduced, rank = ref_rref(coeffs, payloads)
    if rank < k:
        raise DecodeError(f"system is rank-deficient (rank {rank} < {k})")
    solution = np.zeros((k, payloads.shape[1]), dtype=np.uint8)
    for r in range(rank):
        pivot_cols = np.nonzero(rref[r])[0]
        if len(pivot_cols):
            solution[pivot_cols[0]] = reduced[r]
    return solution


def ref_decode(code, packets, limit):
    """Solve the system of the ``limit`` lowest-indexed packets in full."""
    indices = sorted(packets)[:limit]
    coeffs = np.stack([code.coefficient_row(i) for i in indices])
    payloads = blocks_to_array([packets[i] for i in indices])
    return array_to_blocks(ref_solve(coeffs, payloads))


# -- generators ----------------------------------------------------------------

# Half the cells are zero, so rank deficiency and empty columns are common.
_cells = st.one_of(st.just(0), st.integers(0, 255))


@st.composite
def systems(draw, max_rows=7, max_cols=7):
    """A (rows x cols) matrix and a (rows x width) augment.

    Besides random sparsity, some rows are overwritten with multiples of
    other rows and some columns are zeroed, so rank-deficient, wide, tall
    and zero-column systems all occur.
    """
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(0, max_cols))
    width = draw(st.integers(0, 5))
    a = draw(arrays(np.uint8, (rows, cols), elements=_cells)).copy()
    for target, source, scale in draw(
        st.lists(st.tuples(st.integers(0, rows - 1), st.integers(0, rows - 1), st.integers(0, 255)), max_size=2)
    ):
        a[target] = [GF256.mul(scale, int(x)) for x in a[source]]
    if cols:
        for col in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
            a[:, col] = 0
    augment = draw(arrays(np.uint8, (rows, width), elements=st.integers(0, 255)))
    return a, augment


def _source(k, size, seed):
    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8).tobytes() for _ in range(k)]


@st.composite
def erasure_patterns(draw):
    """(k, n, received indices) covering the four reception shapes."""
    k = draw(st.integers(1, 10))
    shape = draw(st.sampled_from(["systematic", "parity", "mixed", "surplus"]))
    n = k + draw(st.integers(k if shape == "parity" else 0, k + 6))
    if shape == "systematic":
        return k, n, list(range(k))
    if shape == "parity":
        return k, n, draw(st.permutations(range(k, n)))[:k]
    size = k if shape == "mixed" else draw(st.integers(min(k + 1, n), n))
    return k, n, draw(st.permutations(range(n)))[:size]


# -- kernels ----------------------------------------------------------------------


def _same(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)


@settings(max_examples=300, deadline=None)
@given(systems())
def test_rref_matches_reference(system):
    a, augment = system
    for aug in (None, augment):
        rref, reduced, rank = gf_rref(a, aug)
        ref, ref_reduced, ref_rank = ref_rref(a, aug)
        assert rank == ref_rank
        assert _same(rref, ref)
        assert (reduced is None) == (aug is None)
        if aug is not None:
            assert _same(reduced, ref_reduced)


@settings(max_examples=200, deadline=None)
@given(systems(), st.integers(0, 9), st.integers(0, 2 ** 31 - 1))
def test_matmul_matches_reference(system, length, seed):
    a, _ = system
    blocks = np.random.default_rng(seed).integers(0, 256, size=(a.shape[1], length), dtype=np.uint8)
    assert _same(GF256.matmul(a, blocks), ref_matmul(a, blocks))


@settings(max_examples=300, deadline=None)
@given(systems())
def test_solve_matches_reference(system):
    a, augment = system
    try:
        expected = ref_solve(a, augment)
    except DecodeError as exc:
        with pytest.raises(DecodeError) as caught:
            gf_solve(a, augment)
        assert str(caught.value) == str(exc)
        return
    assert _same(gf_solve(a, augment), expected)


def test_solve_shape_error_matches_reference():
    a = np.eye(3, dtype=np.uint8)
    payloads = np.zeros((4, 2), dtype=np.uint8)
    with pytest.raises(DecodeError) as fast:
        gf_solve(a, payloads)
    with pytest.raises(DecodeError) as ref:
        ref_solve(a, payloads)
    assert str(fast.value) == str(ref.value)


# -- codes ------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(erasure_patterns(), st.integers(1, 16), st.integers(0, 2 ** 31 - 1))
def test_rs_decode_matches_full_system_solve(pattern, size, seed):
    k, n, received = pattern
    code = ReedSolomonCode(k, n)
    blocks = _source(k, size, seed)
    encoded = code.encode(blocks)
    assert encoded[k:] == array_to_blocks(ref_matmul(code._parity, blocks_to_array(blocks)))
    packets = {i: encoded[i] for i in received}
    decoded = code.decode(packets)
    assert decoded == ref_decode(code, packets, k) == blocks


@settings(max_examples=150, deadline=None)
@given(erasure_patterns(), st.integers(0, 12), st.integers(1, 16), st.integers(0, 2 ** 31 - 1))
def test_rlc_decode_matches_reference(pattern, rateless, size, seed):
    k, n, received = pattern
    code = RandomLinearCode(k, n, seed=seed % 1000)
    blocks = _source(k, size, seed)
    indices = list(received) + [n + 50 + i for i in range(rateless)]
    payloads = code.encode_indices(blocks, indices)
    rows = np.stack([code.coefficient_row(i) for i in indices])
    assert payloads == array_to_blocks(ref_matmul(rows, blocks_to_array(blocks)))
    packets = dict(zip(indices, payloads))
    try:
        expected = ref_decode(code, packets, len(packets))
    except DecodeError:
        with pytest.raises(DecodeError):
            code.decode(packets)
        assert not code.decodable(indices)
        return
    assert code.decode(packets) == expected == blocks
    assert code.decodable(indices)
