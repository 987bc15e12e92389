"""The brute oracle's integer encoding of points, and its rules.

A point, matrix or functional, is the integer code sum of
index(x_ij) * q^(N-1-m) over the N strictly upper positions, m the lex
number of (i, j), so code order is enumeration order and the code of a
point is its place in oracle.enumerate_nil or oracle.enumerate_dual.  Row
k of a point is the block of its n-k digits at columns k+1..n, column b at
weight q^(n-b).  The arithmetic is digit by digit through the field's
index tables, add_idx and mul_idx, one path for every characteristic.

The rules are written from the coefficient formulas of core's docstrings,
and the module imports from core only the value types and positions, so
a bug in core's actions cannot reach the oracle:
- a generator I + a*e_ij adds a times one line of the point to another:
  on a functional, column i += a * column j over rows k < i (left) or row
  j += a * row i over columns l > j (right); on a matrix, row i += a * row
  j (left) or column j += a * column i (right).  A move reads each source
  digit, multiplies it by a and adds it into its target digit.  Orbits are
  closures under the generators I + a*e_(i,i+1) with a running over a
  basis of F_q over F_p, which generate U.
- g = I + y fixes lam exactly when the sum over b of y_lb * c_kb vanishes
  for every k < l, and then contributes z^e with e = trace(lam(y)), the sum
  over k of trace(c_k . y_k).  Both split by rows: for a fixed g, row k of
  lam is decided by its dot products with the rows y_l, l > k, and with
  y_k (a row decision); for a fixed lam, row l of y is decided by its dot
  products with the rows c_k, k < l, and with c_l.  A dot product is
  summed over the non-zero digits of its fixed row.

Codes partitions a space into double orbits, an orbit id per code with one
rook point per orbit checked, and builds no point: a caller that walks a
space decodes each point with point, or with decode for its index rows
too, as it goes; both read a code's row codes off one table per row.  It
traces a list of functionals with per-row bit masks over them, so a trace
costs a few big-int operations per row of g - I, and trace_walk traces
the whole group, each row prefix of g - I stepped once.  The one trace
serves every left-invariant list: a left orbit for a cluster character,
the row-covering functionals for the discrete series.  Everything here is
built per (n, field) by its caller and kept nowhere else.
"""

from __future__ import annotations

from functools import cached_property

from .clusters import Template
from .core import Functional, NilMatrix, positions
from .errors import InvariantViolation
from .gf import Field


# (src, tgt) position pairs of the line operation of the generator I + a*e_ij:
# the target entry gains a times the source entry.
_LINES = {
    ("coadjoint", "left"): lambda n, i, j: [((k, j), (k, i)) for k in range(1, i)],
    ("coadjoint", "right"): lambda n, i, j: [((i, l), (j, l)) for l in range(j + 1, n + 1)],
    ("adjoint", "left"): lambda n, i, j: [((j, l), (i, l)) for l in range(j + 1, n + 1)],
    ("adjoint", "right"): lambda n, i, j: [((k, i), (k, j)) for k in range(1, i)],
}


class Codes:
    """The integer encoding of the points of one (n, field), and its rules."""

    def __init__(self, n: int, field: Field):
        self.n = n
        self.field = field
        self.p = field.p
        q = self.q = field.q
        self.add, self.mul = field.add_idx, field.mul_idx
        self.trace = [a.trace() for a in field.elements]
        pts = positions(n)
        self.size = q ** len(pts)
        self.weight = {pos: q ** (len(pts) - 1 - m) for m, pos in enumerate(pts)}
        # row k of a code is code // base % size, for (base, size) at [k-1]
        self.row_blocks = [(self.weight[(k, n)], q ** (n - k)) for k in range(1, n)]
        self.rooks = self._rook_codes()

    # -- points ------------------------------------------------------------------

    def _entries_of(self, x) -> dict:
        """The entries of a NilMatrix or Functional of this size and field."""
        if x.n != self.n:
            raise ValueError("size mismatch")
        if x.field is not self.field and x.field != self.field:
            raise ValueError("field mismatch")
        return x.entries

    def encode(self, x) -> int:
        w = self.weight
        return sum(v.index * w[pos] for pos, v in self._entries_of(x).items())

    def encode_template(self, t: Template) -> int:
        return sum(v.index * self.weight[(i, j)] for i, j, v in t.cells)

    @cached_property
    def _row_tables(self) -> list[list[tuple]]:
        """Per row k and row code r: (the row's field indices over columns
        1..n, its ((k, j), element) entries)."""
        n, q, els = self.n, self.q, self.field.elements
        out = []
        for k in range(1, n):
            table = []
            for r in range(q ** (n - k)):
                row = [0] * n
                for j in range(n, k, -1):
                    r, row[j - 1] = divmod(r, q)
                table.append((tuple(row), tuple(((k, j), els[d]) for j, d in enumerate(row, 1) if d)))
            out.append(table)
        return out

    def entries(self, code: int) -> dict:
        out = {}
        for (base, size), table in zip(self.row_blocks, self._row_tables):
            out.update(table[code // base % size][1])
        return out

    def point(self, side: str, code: int):
        """The Functional (coadjoint side) or NilMatrix (adjoint) of a code."""
        return self.decode(side, code)[0]

    def decode(self, side: str, code: int) -> tuple:
        """(point, rows): the Functional (coadjoint side) or NilMatrix
        (adjoint) of a code, and its rows 1..n as tuples of field indices
        over columns 1..n, from one read of its row codes.  A row with the
        same code is the same tuple at every point."""
        rows, entries = [], {}
        for (base, size), table in zip(self.row_blocks, self._row_tables):
            row, cells = table[code // base % size]
            rows.append(row)
            entries.update(cells)
        rows.append((0,) * self.n)
        kind = Functional if side == "coadjoint" else NilMatrix
        return kind._trusted(self.field, self.n, entries), rows

    def template(self, code: int) -> Template:
        return Template(self.field, self.n, [(i, j, v) for (i, j), v in self.entries(code).items()])

    def rows(self, code: int) -> tuple[int, ...]:
        """The codes of rows 1 .. n-1."""
        return tuple(code // base % size for base, size in self.row_blocks)

    def row_codes(self, x) -> tuple[int, ...]:
        """rows(encode(x)), read off the entries."""
        rows = [0] * (self.n - 1)
        q, n = self.q, self.n
        for (i, j), v in self._entries_of(x).items():
            rows[i - 1] += v.index * q ** (n - j)
        return tuple(rows)

    def _rook_codes(self) -> set[int]:
        """The codes of every point with at most one non-zero entry per row and column."""
        placed = [(0, ())]
        for i in range(1, self.n):
            grown = []
            for code, used in placed:
                grown.append((code, used))
                for j in range(i + 1, self.n + 1):
                    if j not in used:
                        w = self.weight[(i, j)]
                        grown.extend((code + a * w, used + (j,)) for a in range(1, self.q))
            placed = grown
        return {code for code, _ in placed}

    # -- generators ----------------------------------------------------------------

    def move(self, side: str, hand: str, i: int, j: int, a: int):
        """code -> code of the image under the generator I + a*e_ij, a an index.

        side is "coadjoint" (functionals) or "adjoint" (matrices), hand
        "left" or "right", as core's coact_left/coact_right and
        act_left/act_right.  Each target digit t with a non-zero source
        digit s becomes add[t][mul[a][s]].
        """
        try:
            lines = _LINES[(side, hand)](self.n, i, j)
        except KeyError:
            raise ValueError(f"unknown side {side!r} or hand {hand!r}") from None
        pairs = [(self.weight[s], self.weight[t]) for s, t in lines]
        if not pairs or not a:
            return lambda code: code
        add, row, q = self.add, self.mul[a], self.q

        def move(code):
            out = code
            for ws, wt in pairs:
                s = code // ws % q
                if s:
                    t = code // wt % q
                    out += (add[t][row[s]] - t) * wt
            return out

        return move

    def generators(self, side: str, hands=("left", "right")) -> list:
        """The moves of I + a*e_(i,i+1), a over the basis 1, x, ..., x^(k-1)."""
        basis = [self.p**s for s in range(self.field.k)]
        return [
            self.move(side, hand, i, i + 1, a)
            for hand in hands for i in range(1, self.n) for a in basis
        ]

    def closure(self, start: int, moves) -> set[int]:
        seen = {start}
        stack = [start]
        while stack:
            code = stack.pop()
            for move in moves:
                image = move(code)
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        return seen

    def partition(self, side: str) -> tuple[list[int], list[int]]:
        """(ids, rooks): the double orbit of every code, numbered in order of
        each orbit's first code, and the rook code of each orbit.

        Raises InvariantViolation unless every orbit holds exactly one rook
        point.
        """
        moves = self.generators(side)
        rook_codes = self.rooks
        ids = [-1] * self.size
        rooks = []
        for start in range(self.size):
            if ids[start] >= 0:
                continue
            oid = len(rooks)
            ids[start] = oid
            stack = [start]
            found = []
            while stack:
                code = stack.pop()
                if code in rook_codes:
                    found.append(code)
                for move in moves:
                    image = move(code)
                    if ids[image] < 0:
                        ids[image] = oid
                        stack.append(image)
            if len(found) != 1:
                raise InvariantViolation(
                    f"orbit of {self.point(side, start)!r} contains {len(found)} rook points,"
                    " expected 1"
                )
            rooks.append(found[0])
        return ids, rooks

    # -- fixed points ----------------------------------------------------------------

    def rule(self, checks, trace_row: int):
        """row code r -> None if some dot(v, r), v in checks, is not 0, else
        trace(dot(trace_row, r)).

        All rows are row codes over the same columns; dot(u, v) is the sum
        of u_b * v_b over the columns b, taken digit by digit through the
        index tables.
        """
        q, add, mul, trace = self.q, self.add, self.mul, self.trace

        def terms(v):
            out = []
            w = 1
            while v:
                if v % q:
                    out.append((w, v % q))
                v //= q
                w *= q
            return out

        zero = [terms(v) for v in checks if v]
        tterms = terms(trace_row)

        def decide(c):
            for ts in zero:
                s = 0
                for w, d in ts:
                    x = c // w % q
                    if x:
                        s = add[s][mul[d][x]]
                if s:
                    return None
            s = 0
            for w, d in tterms:
                x = c // w % q
                if x:
                    s = add[s][mul[d][x]]
            return trace[s]

        return decide

    def trace_masks(self, points) -> tuple[int, list]:
        """(everyone, tables) for the functionals lam_0, lam_1, ... with these
        codes: everyone has a bit per point, and tables holds one table per
        row l of y = g - I.  Entry y_l lists (e, mask) for the non-zero of p
        bit masks: bit i of mask e is set when every dot(c_k, y_l), k < l,
        of lam_i is 0 and trace(dot(c_l, y_l)) is e.  g fixes lam_i exactly
        when bit i is set in some mask at each row of y, and
        trace(lam_i(y)) is the sum of those masks' e.

        Row l's entries depend only on c_l and on the c_k, k < l, cut to
        row l's columns, so the points are grouped by those and each group
        is decided once per y_l."""
        p = self.p
        groups = [{} for _ in self.row_blocks]
        for i, code in enumerate(points):
            bit = 1 << i
            cs = self.rows(code)
            for l, (_, size) in enumerate(self.row_blocks):
                key = (tuple(c % size for c in cs[:l]), cs[l])
                groups[l][key] = groups[l].get(key, 0) | bit
        tables = []
        for (_, size), group in zip(self.row_blocks, groups):
            table = [[0] * p for _ in range(size)]
            for (checks, trace_row), mask in group.items():
                decide = self.rule(checks, trace_row)
                for y in range(size):
                    e = decide(y)
                    if e is not None:
                        table[y][e] |= mask
            tables.append([[(e, mask) for e, mask in enumerate(masks) if mask] for masks in table])
        return (1 << len(points)) - 1, tables

    def _step(self, acc: list[int], masks: list[tuple[int, int]]) -> list[int]:
        """The masks of the functionals that a row y_l leaves fixed, binned
        by trace, from those of rows 1..l-1 (acc) and row l's entry of a
        trace_masks table."""
        p = self.p
        new = [0] * p
        for a, m in enumerate(acc):
            if m:
                for b, c in masks:
                    new[(a + b) % p] |= m & c
        return new

    def trace_bins(self, traced, ys) -> list[int]:
        """How many of the functionals of trace_masks g = I + y fixes,
        binned by trace(lam(y)) mod p; ys are the row codes of y."""
        everyone, tables = traced
        acc = [everyone] + [0] * (self.p - 1)
        for table, y in zip(tables, ys):
            acc = self._step(acc, table[y])
            if not any(acc):
                return acc
        return [m.bit_count() for m in acc]

    def trace_walk(self, traced):
        """(ys, trace_bins(traced, ys)) for every g = I + y, in code order,
        whose trace has a term.  The group is walked row by row, row 1
        slowest, so each prefix y_1 .. y_l is stepped once for every g that
        shares it, and a prefix that fixes none of the functionals is
        skipped with every g under it."""
        everyone, tables = traced
        step, last = self._step, len(tables) - 1

        def walk(l, prefix, acc):
            for y, masks in enumerate(tables[l]):
                new = step(acc, masks)
                if not any(new):
                    continue
                if l == last:
                    yield prefix + (y,), [m.bit_count() for m in new]
                else:
                    yield from walk(l + 1, prefix + (y,), new)

        if tables:
            yield from walk(0, (), [everyone] + [0] * (self.p - 1))
        elif everyone:  # n = 1: the one g = I fixes every functional
            yield (), [everyone.bit_count()] + [0] * (self.p - 1)
