"""Systematic Reed-Solomon code over GF(256) via a Cauchy parity matrix.

The full encoding matrix is ``[I_k ; C]`` where ``C`` is the (n-k) x k Cauchy
matrix ``C[i, j] = 1 / (x_i + y_j)`` with distinct ``x_i = k + i`` and
``y_j = j``.  Every square submatrix of a Cauchy matrix is nonsingular, which
makes the code MDS: *any* ``k`` of the ``n`` encoded blocks recover the page.

LR-Seluge's protocol threshold ``k'`` may be declared larger than ``k`` to
emulate the reception overhead of the non-MDS (Tornado-style) codes the paper
assumes; decoding itself only ever needs ``k`` blocks.

Decoding takes the ``k`` lowest-indexed packets.  Received source blocks are
returned as they are; their contribution is XORed out of the chosen parity
blocks, which leaves an ``e x e`` Cauchy system for the ``e`` missing source
blocks.  The full ``k x k`` system is nonsingular, so this is its unique
solution, found with ``e`` elimination steps instead of ``k``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Sequence

import numpy as np

from repro.erasure.base import ErasureCode, array_to_blocks, blocks_to_array
from repro.erasure.gf256 import GF256
from repro.erasure.matrix import gf_solve
from repro.errors import CodingError, DecodeError

__all__ = ["ReedSolomonCode"]


class ReedSolomonCode(ErasureCode):
    """Systematic MDS code: encoded blocks 0..k-1 are the source itself."""

    def __init__(self, k: int, n: int, kprime: int = 0) -> None:
        super().__init__(k, n, kprime or k)
        if n > 256:
            raise CodingError(f"RS over GF(256) supports n <= 256, got {n}")
        self._parity = self._cauchy_matrix(k, n - k)
        # Full row for encoded index j: identity row if j < k else parity row.
        self._rows = np.vstack([np.eye(k, dtype=np.uint8), self._parity])

    @staticmethod
    def _cauchy_matrix(k: int, parity_rows: int) -> np.ndarray:
        if k + parity_rows > 256:
            raise CodingError("Cauchy construction needs k + (n-k) <= 256")
        xs = np.arange(k, k + parity_rows)
        return GF256.inv_table[xs[:, None] ^ np.arange(k)]

    def coefficient_row(self, index: int) -> np.ndarray:
        """The GF(256) combination row that produced encoded block ``index``."""
        if not 0 <= index < self.n:
            raise CodingError(f"encoded index {index} out of range [0, {self.n})")
        return self._rows[index]

    def encode(self, blocks: Sequence[bytes]) -> List[bytes]:
        if len(blocks) != self.k:
            raise CodingError(f"expected {self.k} source blocks, got {len(blocks)}")
        parity = GF256.matmul(self._parity, blocks_to_array(blocks))
        return list(blocks) + array_to_blocks(parity)  # systematic prefix as given

    def decode(self, packets: Dict[int, bytes]) -> List[bytes]:
        if len(packets) < self.k:
            raise DecodeError(
                f"need at least k={self.k} packets to decode, got {len(packets)}"
            )
        indices = sorted(packets)
        if indices[0] < 0 or indices[-1] >= self.n:
            raise DecodeError(
                f"packet indices must lie in [0, {self.n}), got {indices[0]}..{indices[-1]}"
            )
        chosen = indices[: self.k]
        if len({len(packets[i]) for i in chosen}) != 1:
            raise DecodeError(f"packets {chosen} differ in length")
        received = bisect_left(chosen, self.k)  # chosen[:received] are source blocks
        if received == self.k:
            return [packets[i] for i in chosen]
        data = blocks_to_array([packets[i] for i in chosen])
        rows = self._parity[[i - self.k for i in chosen[received:]]]
        rhs = data[received:] ^ GF256.matmul(rows[:, chosen[:received]], data[:received])
        missing = sorted(set(range(self.k)).difference(chosen[:received]))
        solved = iter(array_to_blocks(gf_solve(rows[:, missing], rhs)))
        return [packets[i] if i in packets else next(solved) for i in range(self.k)]
