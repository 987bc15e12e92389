"""Exact dense linear algebra over a finite field.

Works on lists of lists of gf.FieldElement.  Matrices here are small
(orbit spans of dimension n(n-1)/2 <= 10), so plain Gaussian elimination
is the whole story.
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
