"""Exact dense linear algebra over any small field.

Works on lists of lists whose entries support +, -, *, bool() and
.inverse(); both gf.FieldElement and cyclotomic.Cyclotomic qualify.
Matrices here are small (orbit spans of dimension n(n-1)/2 <= 10, and the
oracle's brute character matrix of a few dozen rows at the scales it
enumerates), so plain Gaussian elimination is the whole story.
"""

from __future__ import annotations


def echelon(rows: list[list]) -> list[list]:
    """Reduced row echelon form, zero rows dropped; input is not mutated."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list] = []
    pivots: list[int] = []
    for row in rows:
        for b, c in zip(basis, pivots):
            if row[c]:
                f = row[c]
                row = [x - f * y for x, y in zip(row, b)]
        lead = next((c for c in range(ncols) if row[c]), None)
        if lead is None:
            continue
        inv = row[lead].inverse()
        row = [x * inv for x in row]
        for i, (b, c) in enumerate(zip(basis, pivots)):
            if b[lead]:
                f = b[lead]
                basis[i] = [x - f * y for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    return [basis[i] for i in order]


def rank(rows: list[list]) -> int:
    return len(echelon(rows))


def intersection_dim(rows_a: list[list], rows_b: list[list]) -> int:
    """dim(span A ∩ span B) = dim A + dim B - dim(A + B)."""
    a = rank(rows_a)
    b = rank(rows_b)
    return a + b - rank(list(rows_a) + list(rows_b))


def inverse(matrix: list[list]) -> list[list]:
    """Inverse of a square matrix by Gauss-Jordan elimination on [M | I].

    Entries are from any ring of the kind described above; the identity is
    built from the first non-zero entry.  Raises ValueError on a singular
    matrix.
    """
    d = len(matrix)
    entry = next((x for row in matrix for x in row if x), None)
    if entry is None:
        raise ValueError("singular matrix")
    one = entry * entry.inverse()
    zero = one - one
    aug = [list(matrix[i]) + [one if j == i else zero for j in range(d)] for i in range(d)]
    for c in range(d):
        piv = next((r for r in range(c, d) if aug[r][c]), None)
        if piv is None:
            raise ValueError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = aug[c][c].inverse()
        aug[c] = [x * inv for x in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [row[d:] for row in aug]
