import random

import pytest

from supercluster import linalg
from supercluster.cyclotomic import Cyclotomic
from supercluster.oracle import brute_table


def matmul(a, b, zero):
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)] for row in a]


def is_identity(m, one, zero):
    return all(x == (one if i == j else zero) for i, row in enumerate(m) for j, x in enumerate(row))


def test_inverse_over_gf3(F3):
    rng = random.Random(5)
    seen = {True: 0, False: 0}
    for _ in range(40):
        m = [[rng.choice(F3.elements) for _ in range(4)] for _ in range(4)]
        invertible = linalg.rank(m) == 4
        seen[invertible] += 1
        if invertible:
            inv = linalg.inverse(m)
            assert is_identity(matmul(m, inv, F3.zero), F3.one, F3.zero)
            assert is_identity(matmul(inv, m, F3.zero), F3.one, F3.zero)
        else:
            with pytest.raises(ValueError):
                linalg.inverse(m)
    assert seen[True] and seen[False]


def test_inverse_of_brute_character_matrix(F3):
    rows, cols, values = brute_table(3, F3)
    matrix = [[values[r][c] for r in range(len(rows))] for c in range(len(cols))]
    inv = linalg.inverse(matrix)
    one, zero = Cyclotomic.from_rational(3, 1), Cyclotomic.from_rational(3, 0)
    assert is_identity(matmul(matrix, inv, zero), one, zero)
    assert is_identity(matmul(inv, matrix, zero), one, zero)


def test_inverse_rejects_singular(F3):
    a, b = F3.elements[1], F3.elements[2]
    with pytest.raises(ValueError):
        linalg.inverse([[a, b], [a + a, b + b]])
    with pytest.raises(ValueError):
        linalg.inverse([[F3.zero, F3.zero], [F3.zero, F3.zero]])
