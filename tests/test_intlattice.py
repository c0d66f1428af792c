from __future__ import annotations

import random

import pytest

from oracles import lattice_rank_and_index_brute
from velo import hermite_normal_form, lattice_rank_and_index


def test_even_lattice():
    assert hermite_normal_form([(2,), (-2,)]) == [[2]]
    assert lattice_rank_and_index([(2,), (-2,)], 1) == (1, 2)


def test_unit_lattice():
    assert hermite_normal_form([(1, 0), (0, 1)]) == [[1, 0], [0, 1]]
    assert lattice_rank_and_index([(1, 0), (0, 1)], 2) == (2, 1)


def test_scaled_lattice():
    assert lattice_rank_and_index([(2, 0), (0, 2)], 2) == (2, 4)


def test_sheared_lattice():
    assert hermite_normal_form([(1, 1), (0, 2)]) == [[1, 1], [0, 2]]
    assert lattice_rank_and_index([(1, 1), (0, 2)], 2) == (2, 2)


def test_index_three_lattice():
    rank, index = lattice_rank_and_index([(2, 1), (1, 2)], 2)
    assert (rank, index) == (2, 3)


def test_rank_deficient():
    assert lattice_rank_and_index([(1, 2, 3), (2, 4, 6)], 3) == (1, None)
    assert hermite_normal_form([(1, 2, 3), (2, 4, 6)]) == [[1, 2, 3]]


def test_empty_and_zero_rows():
    assert hermite_normal_form([]) == []
    assert hermite_normal_form([(0, 0)]) == []
    assert lattice_rank_and_index([(0, 0)], 2) == (0, None)


def test_mismatched_rows_rejected():
    with pytest.raises(ValueError):
        hermite_normal_form([(1, 0), (1,)])


def test_hnf_is_a_lattice_invariant():
    rng = random.Random(77)
    for _ in range(50):
        d = rng.randint(1, 4)
        rows = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        base = hermite_normal_form(rows)
        # adding an integer combination of existing rows leaves the lattice unchanged
        coeffs = [rng.randint(-2, 2) for _ in rows]
        extra = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(d))
        assert hermite_normal_form(rows + [extra]) == base
        # idempotence on its own output
        assert hermite_normal_form(base) == base


def test_negated_generators_same_lattice():
    rng = random.Random(78)
    for _ in range(30):
        d = rng.randint(1, 3)
        rows = [tuple(rng.randint(-4, 4) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        flipped = [tuple(-v for v in r) for r in rows]
        assert hermite_normal_form(rows) == hermite_normal_form(flipped)


def test_rank_and_index_match_the_minors():
    rng = random.Random(79)
    for _ in range(300):
        d = rng.randint(1, 4)
        if rng.random() < 0.5:  # free entries, often of full rank
            rows = [tuple(rng.randint(-5, 5) for _ in range(d)) for _ in range(rng.randint(0, 6))]
        else:  # integer combinations of k <= d rows, often rank-deficient
            basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(rng.randint(1, d))]
            rows = [tuple(sum(rng.randint(-2, 2) * b[i] for b in basis) for i in range(d))
                    for _ in range(rng.randint(0, 6))]
        assert lattice_rank_and_index(rows, d) == lattice_rank_and_index_brute(rows, d), rows
