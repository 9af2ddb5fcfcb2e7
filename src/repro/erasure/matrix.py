"""Dense linear algebra over GF(256): elimination, rank, inversion, solving.

Used by the Reed-Solomon and random-linear-code decoders.  All matrices are
numpy uint8 arrays.  Gauss-Jordan elimination makes one vectorised step per
pivot column over the matrix and its augment side by side: the pivot row is
scaled through the inverse table, then the column is cleared in every other
row at once with one product-table gather (the outer product of the column
and the pivot row) and one XOR.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.erasure.gf256 import GF256
from repro.errors import DecodeError

__all__ = ["gf_rank", "gf_invert", "gf_solve", "gf_rref"]


def gf_rref(matrix: np.ndarray, augment: Optional[np.ndarray] = None) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Reduced row-echelon form over GF(256).

    Row-reduces ``matrix`` (copied) and mirrors every row operation on the
    optional ``augment`` block.  Returns ``(rref, reduced_augment, rank)``.
    The pivot of each column is its first nonzero row at or below the
    current rank.
    """
    cols = matrix.shape[1]
    # Matrix and augment side by side, so each row operation is one call.
    work = np.hstack([matrix, augment]) if augment is not None else matrix
    work = work.astype(np.uint8)
    rows = work.shape[0]
    mul = GF256.mul_table
    rank = 0
    for col in range(cols):
        if rank >= rows:
            break
        if not work[rank, col]:
            candidates = np.flatnonzero(work[rank:, col])
            if candidates.size == 0:
                continue
            pivot = rank + int(candidates[0])
            work[[rank, pivot]] = work[[pivot, rank]]
        work[rank] = mul[GF256.inv_table[work[rank, col]]].take(work[rank])
        # Every other row r gets row_r ^= work[r, col] * pivot_row; the pivot
        # row gets factor 0, so every update reads the fixed pivot row.
        factors = work[:, col].copy()
        factors[rank] = 0
        work ^= mul.take(factors, axis=0).take(work[rank], axis=1)
        rank += 1
    if augment is None:
        return work, None, rank
    return work[:, :cols], work[:, cols:], rank


def gf_rank(matrix: np.ndarray) -> int:
    """Rank of ``matrix`` over GF(256)."""
    _, _, rank = gf_rref(matrix)
    return rank


def gf_invert(matrix: np.ndarray) -> np.ndarray:
    """Inverse of a square matrix; raises :class:`DecodeError` if singular."""
    n, m = matrix.shape
    if n != m:
        raise DecodeError(f"cannot invert non-square matrix {matrix.shape}")
    identity = np.eye(n, dtype=np.uint8)
    _, inv, rank = gf_rref(matrix, identity)
    if rank < n:
        raise DecodeError(f"matrix is singular (rank {rank} < {n})")
    if inv is None:
        raise AssertionError('invariant violated: inv is not None')
    return inv


def gf_solve(coeffs: np.ndarray, payloads: np.ndarray) -> np.ndarray:
    """Solve ``coeffs @ X = payloads`` for X over GF(256).

    ``coeffs`` is (m x k) with m >= k and rank k; ``payloads`` is (m x L).
    Returns the (k x L) solution.  Raises :class:`DecodeError` when the
    system is rank-deficient (not enough independent packets).
    """
    m, k = coeffs.shape
    if payloads.shape[0] != m:
        raise DecodeError(
            f"coefficient rows ({m}) != payload rows ({payloads.shape[0]})"
        )
    _, reduced, rank = gf_rref(coeffs, payloads)
    if rank < k:
        raise DecodeError(f"system is rank-deficient (rank {rank} < {k})")
    if reduced is None:
        raise AssertionError('invariant violated: reduced is not None')
    # Rank k over k columns puts the identity in the first k rows, so they
    # carry the solution in order.
    return reduced[:k]
