"""Exact linear algebra over GF(q) on rows of field indices.

A row is a list of ints, each the index of a field element, and every
operation is a lookup in the field's index tables (add_idx, mul_idx,
neg_idx, inv_idx).  Matrices here are small (at most n(n-1)/2 columns), so
Gaussian elimination is the whole story.

Echelon is one basis that grows a row at a time, so nested spans (the
windows of a matrix, or L-hat then L-hat + R-hat) cost one insert per row.
Its rows are in semi-echelon form: each has a 1 at its pivot and 0 left of
it.  A new row is reduced left to right against the pivots it meets, and
its first surviving entry becomes a new pivot.  reduced() gives the reduced
row echelon form, which is unique for the span.
"""

from __future__ import annotations


class Echelon:
    """A growing basis of index rows, all of one length, over one field."""

    __slots__ = ("field", "by_pivot")

    def __init__(self, field):
        self.field = field
        self.by_pivot: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self.by_pivot)

    def copy(self) -> "Echelon":
        """A basis of the same span that grows apart from this one."""
        out = Echelon(self.field)
        out.by_pivot = dict(self.by_pivot)  # rows are replaced, never mutated
        return out

    def insert(self, row) -> bool:
        """Add row to the span; True iff it raised the rank.  row is not mutated."""
        field, basis = self.field, self.by_pivot
        add, mul = field.add_idx, field.mul_idx
        for c in range(len(row)):
            a = row[c]
            if not a:
                continue
            b = basis.get(c)
            if b is None:
                scale = mul[field.inv_idx[a]]
                basis[c] = [scale[x] for x in row]
                return True
            scale = mul[field.neg_idx[a]]
            row = [add[x][scale[y]] for x, y in zip(row, b)]
        return False

    def reduced(self) -> list[list[int]]:
        """The reduced row echelon form of the span, rows in pivot order."""
        add, mul, neg = self.field.add_idx, self.field.mul_idx, self.field.neg_idx
        pivots = sorted(self.by_pivot)
        rows = dict(self.by_pivot)  # rows are replaced below, never mutated
        for c in reversed(pivots):  # b is already 0 at every pivot right of c
            b = rows[c]
            for c2 in pivots:
                if c2 >= c:
                    break
                a = rows[c2][c]
                if a:
                    scale = mul[neg[a]]
                    rows[c2] = [add[x][scale[y]] for x, y in zip(rows[c2], b)]
        return [rows[c] for c in pivots]


def _basis(field, rows) -> Echelon:
    basis = Echelon(field)
    for row in rows:
        basis.insert(row)
    return basis


def echelon(field, rows) -> list[list[int]]:
    """Reduced row echelon form of index rows, zero rows dropped; input is not mutated."""
    return _basis(field, rows).reduced()


def rank(field, rows) -> int:
    return len(_basis(field, rows))
