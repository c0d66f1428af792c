"""Integer lattice computations: Hermite normal form, rank, and index."""
from __future__ import annotations

from typing import Sequence


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row-style Hermite normal form of the lattice generated by ``rows``.

    Result is in echelon form with positive pivots; entries above each pivot
    are reduced into [0, pivot).  Zero rows are dropped, so the number of rows
    equals the lattice rank.
    """
    mat = [list(map(int, r)) for r in rows if any(r)]
    if not mat:
        return []
    width = len(mat[0])
    if any(len(r) != width for r in mat):
        raise ValueError("generator rows must share one length")
    rank = 0
    for col in range(width):
        # Euclid: reduce by the smallest nonzero entry until only one is left
        while len(nz := [i for i in range(rank, len(mat)) if mat[i][col]]) > 1:
            p = min(nz, key=lambda i: abs(mat[i][col]))
            for i in nz:
                if i != p:
                    q = mat[i][col] // mat[p][col]
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[p])]
        if not nz:
            continue
        mat[rank], mat[nz[0]] = mat[nz[0]], mat[rank]
        if mat[rank][col] < 0:
            mat[rank] = [-v for v in mat[rank]]
        piv = mat[rank][col]
        for i in range(rank):
            q = mat[i][col] // piv
            if q:
                mat[i] = [a - q * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return mat[:rank]


def lattice_rank_and_index(rows: Sequence[Sequence[int]], dim: int) -> tuple[int, int | None]:
    """Rank of the generated lattice and, when full-rank, its index in Z^dim.

    The index is the product of the Hermite pivots; the lattice equals Z^dim
    exactly when the rank is ``dim`` and the index is 1.
    """
    hnf = hermite_normal_form(rows)
    rank = len(hnf)
    if rank < dim:
        return rank, None
    index = 1
    for row in hnf:
        index *= next(v for v in row if v)
    return rank, index
