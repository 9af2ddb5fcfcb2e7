"""Unit and property tests for GF(2^8) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.erasure.gf256 import GF256
from repro.errors import CodingError

elems = st.integers(min_value=0, max_value=255)
nonzero = st.integers(min_value=1, max_value=255)


def test_mul_identity_and_zero():
    for a in range(256):
        assert GF256.mul(a, 1) == a
        assert GF256.mul(a, 0) == 0
        assert GF256.mul(0, a) == 0


@given(elems, elems)
def test_mul_commutative(a, b):
    assert GF256.mul(a, b) == GF256.mul(b, a)


@given(elems, elems, elems)
def test_mul_associative(a, b, c):
    assert GF256.mul(GF256.mul(a, b), c) == GF256.mul(a, GF256.mul(b, c))


@given(elems, elems, elems)
def test_distributive_over_xor(a, b, c):
    left = GF256.mul(a, b ^ c)
    right = GF256.mul(a, b) ^ GF256.mul(a, c)
    assert left == right


@given(nonzero)
def test_inverse(a):
    assert GF256.mul(a, GF256.inv(a)) == 1


@given(elems, nonzero)
def test_div_is_mul_by_inverse(a, b):
    assert GF256.div(a, b) == GF256.mul(a, GF256.inv(b))


def test_div_and_inv_by_zero_rejected():
    with pytest.raises(CodingError):
        GF256.div(5, 0)
    with pytest.raises(CodingError):
        GF256.inv(0)


def test_pow():
    assert GF256.pow(0, 0) == 1
    assert GF256.pow(0, 5) == 0
    assert GF256.pow(2, 8) == GF256.mul(GF256.pow(2, 4), GF256.pow(2, 4))
    with pytest.raises(CodingError):
        GF256.pow(0, -1)


@given(nonzero)
def test_pow_negative_is_inverse_power(a):
    assert GF256.pow(a, -1) == GF256.inv(a)


def test_generator_order_255():
    seen = set()
    value = 1
    for _ in range(255):
        seen.add(value)
        value = GF256.mul(value, 2)
    assert len(seen) == 255
    assert value == 1  # full cycle


def _carryless_product(a, b):
    """Shift-and-add multiply modulo 0x11d, independent of the field tables."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11D
    return out


def test_product_and_inverse_tables_match_shift_and_add():
    expect = [[_carryless_product(a, b) for b in range(256)] for a in range(256)]
    assert GF256.mul_table.dtype == np.uint8
    assert GF256.mul_table.tolist() == expect
    for a in range(1, 256):
        assert expect[a][int(GF256.inv_table[a])] == 1


def test_matmul_against_naive():
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, size=(4, 3), dtype=np.uint8)
    b = rng.integers(0, 256, size=(3, 10), dtype=np.uint8)
    fast = GF256.matmul(a, b)
    for i in range(4):
        for j in range(10):
            acc = 0
            for t in range(3):
                acc ^= GF256.mul(int(a[i, t]), int(b[t, j]))
            assert acc == int(fast[i, j])


def test_matmul_shape_mismatch():
    with pytest.raises(CodingError):
        GF256.matmul(np.zeros((2, 3), dtype=np.uint8), np.zeros((4, 5), dtype=np.uint8))

