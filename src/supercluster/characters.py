"""Cluster characters in exact cyclotomic arithmetic, and the full table.

The additive character is fixed once and for all as theta(x) = z^trace(x)
with z a primitive p-th root of unity, so every character value lives in
Q(z_p) and equality checks are exact.  A table row is the cluster character
of a coadjoint template evaluated on the conjugacy-cluster representatives
I + x over the adjoint templates; rows and columns are both listed in
template-lexicographic order.

Two independent evaluation routes are exposed: the closed form on template
representatives (char_value_closed) and the averaged sum over the whole
cluster (char_value_sum), which works at arbitrary group elements.

On template representatives every value is a monomial, 0 or q^(d-h) * z^e.
The closed form is one per-row kernel: a row template precomputes its kill
set (positions below or left of a support cell), its hook count at each
position and the phase its cell values give each column entry, and then
answers a column with None (the value is 0) or the exponent pair
(d - h, e).  build_table runs that kernel over every column of every row
and points each cell at one shared Cyclotomic per distinct pair.

JSON, CSV and text are rendered from a memo of per-value fragments: each
distinct value is rendered once and every row is a string join, byte for
byte what json.dumps(indent=2), csv.writer and the aligned text layout
give.  verify_axioms maps each distinct value once to integer bins over
z^0 .. z^(p-1), so its sums are integer arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Callable, Optional

from . import clusters
from .clusters import ClusterInvariants, Template, enumerate_templates, invariants_of
from .core import Functional, UniMatrix, evaluate
from .cyclotomic import Cyclotomic
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field, FieldElement, field_make

DEFAULT_MAX_TABLE = 5000

# A column as the kernel reads it: the bit mask of its position slots (see
# _slot) and its (slot, value index) entries.
Column = tuple[int, tuple[tuple[int, int], ...]]
Cell = Optional[tuple[int, int]]


def theta_of(a: FieldElement) -> Cyclotomic:
    """theta(a) = z^trace(a); a non-trivial character of the additive group."""
    return Cyclotomic.zeta_power(a.field.p, a.trace())


def fourier_value(lam: Functional, g: UniMatrix) -> Cyclotomic:
    """v(lam)(g) = theta[lam(g - I)]."""
    if lam.n != g.n:
        raise ValueError("size mismatch")
    return theta_of(evaluate(lam, g.off))


def degree(tau: Template) -> int:
    """Character degree q^d (= size of the left orbit)."""
    return tau.field.q ** invariants_of(tau).d


def self_intertwining(tau: Template) -> int:
    """Self-intertwining number q^i."""
    return tau.field.q ** invariants_of(tau).i


# -- the closed form: one kernel per row --------------------------------------

def _slot(n: int, i: int, j: int) -> int:
    """Position (i, j) of an n x n matrix as one index, row by row."""
    return (i - 1) * n + (j - 1)


def _column(x: Template) -> Column:
    mask = 0
    entries = []
    for i, j, w in x.cells:
        slot = _slot(x.n, i, j)
        mask |= 1 << slot
        entries.append((slot, w.index))
    return mask, tuple(entries)


def _row_kernel(tau: Template, inv: ClusterInvariants) -> Callable[[Column], Cell]:
    """The closed form of tau's row, as a function of one column.

    The column's value is 0 as soon as it has an entry below or left of a
    support cell of tau (the kill set).  Otherwise it is q^(d - h) * z^e: h
    counts corner positions with a tau-cell strictly to the right and the
    column's entry strictly below, summed here from a per-position hook
    count, and e = trace(tau(x)) mod p, summed from per-cell phases.
    """
    field, n = tau.field, tau.n
    p, d = field.p, inv.d
    no_phase = (0,) * field.q
    kill = 0
    hooks = [0] * (n * n)
    phases = [no_phase] * (n * n)
    for i, j, v in tau.cells:
        for r in range(i + 1, j):
            kill |= 1 << _slot(n, r, j)  # below, same column
            kill |= 1 << _slot(n, i, r)  # left, same row
        for a in range(i + 1, j - 1):
            for b in range(a + 1, j):
                hooks[_slot(n, a, b)] += 1
        phases[_slot(n, i, j)] = tuple((v * w).trace() for w in field.elements)

    def kernel(column: Column) -> Cell:
        mask, entries = column
        if mask & kill:
            return None
        h = e = 0
        for slot, w in entries:
            h += hooks[slot]
            e += phases[slot][w]
        if h > d:
            raise InvariantViolation(f"hook count {h} exceeds d={d} for {tau.text()}")
        return d - h, e % p

    return kernel


class _Monomials(dict):
    """Cell -> the Cyclotomic it stands for, each built once on first use."""

    def __init__(self, field: Field):
        super().__init__()
        self.field = field

    def __missing__(self, cell: Cell) -> Cyclotomic:
        p = self.field.p
        if cell is None:
            value = Cyclotomic.from_rational(p, 0)
        else:
            a, e = cell
            value = self.field.q**a * Cyclotomic.zeta_power(p, e)
        self[cell] = value
        return value


def char_value_closed(tau: Template, x: Template) -> Cyclotomic:
    """Character of tau's cluster at I + x, both arguments templates.

    Zero as soon as x has an entry below or left of a support cell of tau.
    Otherwise q^(d - h) * theta[tau(x)] where h counts corner positions with
    a tau-cell strictly to the right and an x-entry strictly below.
    """
    if tau.n != x.n:
        raise ValueError("size mismatch")
    if tau.field != x.field:
        raise ValueError(f"template fields differ: {tau.field!r} and {x.field!r}")
    kernel = _row_kernel(tau, invariants_of(tau))
    return _Monomials(tau.field)[kernel(_column(x))]


def char_value_sum(tau: Template, g: UniMatrix) -> Cyclotomic:
    """q^(i-d) * sum of theta[lam(g-I)] over the whole cluster of tau.

    Valid at every group element, not only template representatives.
    """
    if tau.n != g.n:
        raise ValueError("size mismatch")
    inv = invariants_of(tau)
    p = tau.field.p
    total = Cyclotomic.from_rational(p, 0)
    for lam in clusters.cluster_elements(tau):
        total = total + theta_of(evaluate(lam, g.off))
    return Fraction(tau.field.q**inv.i, tau.field.q**inv.d) * total


# -- the table ----------------------------------------------------------------

def _distinct(values: list[list[Cyclotomic]]) -> dict[int, Cyclotomic]:
    """Every value object of a grid by id(); the grid keeps each one alive."""
    return {id(v): v for row in values for v in row}


def _json_nested(item, depth: int) -> str:
    """item as json.dumps(indent=2) writes it nested depth levels deep."""
    return json.dumps(item, indent=2).replace("\n", "\n" + "  " * depth)


def _json_list(items: list[str], depth: int) -> str:
    """Already-rendered items, laid out as json.dumps(indent=2) lays out a
    list nested depth levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _csv_field(text: str) -> str:
    """One field exactly as csv.writer quotes it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1]


@dataclass
class CharacterTable:
    """The supercharacter table with its degree/size bookkeeping.

    rows and cols are fixed once the table is made: value() looks templates
    up in position maps built then.
    """

    n: int
    field: Field
    rows: list[Template]       # coadjoint templates (cluster characters)
    cols: list[Template]       # adjoint templates (conjugacy clusters)
    values: list[list[Cyclotomic]]
    row_degrees: list[int]
    row_selfint: list[int]
    col_sizes: list[int]
    _row_at: dict = dataclass_field(init=False, repr=False, compare=False)
    _col_at: dict = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._row_at = {t: r for r, t in enumerate(self.rows)}
        self._col_at = {t: c for c, t in enumerate(self.cols)}

    def row_index(self, tau: Template) -> int:
        try:
            return self._row_at[tau]
        except KeyError:
            raise ValueError(f"{tau.text()} is not a row of the table") from None

    def col_index(self, x: Template) -> int:
        try:
            return self._col_at[x]
        except KeyError:
            raise ValueError(f"{x.text()} is not a column of the table") from None

    def value(self, tau: Template, x: Template) -> Cyclotomic:
        return self.values[self.row_index(tau)][self.col_index(x)]

    def group_order(self) -> int:
        return self.field.q ** (self.n * (self.n - 1) // 2)

    def _json_fields(self, values) -> dict:
        return {
            "n": self.n,
            "p": self.field.p,
            "k": self.field.k,
            "q": self.field.q,
            "rows": [t.text() for t in self.rows],
            "cols": [t.text() for t in self.cols],
            "values": values,
            "row_degrees": [str(d) for d in self.row_degrees],
            "row_selfint": [str(s) for s in self.row_selfint],
            "col_sizes": [str(s) for s in self.col_sizes],
        }

    def to_json(self) -> dict:
        return self._json_fields([[v.to_json() for v in row] for row in self.values])

    def _fragments(self, render: Callable[[Cyclotomic], str]) -> list[list[str]]:
        """Every cell rendered, row by row.

        render runs once per distinct value.  Cells are then matched to
        their fragment by object identity, which is sound while the table
        holds every value it renders.
        """
        memo: dict[Cyclotomic, str] = {}
        fragment = {}
        for key, v in _distinct(self.values).items():
            text = memo.get(v)
            if text is None:
                text = memo[v] = render(v)
            fragment[key] = text
        lookup = fragment.__getitem__
        return [list(map(lookup, map(id, row))) for row in self.values]

    def to_json_text(self) -> str:
        """Exactly json.dumps(self.to_json(), indent=2)."""
        cells = self._fragments(lambda v: _json_nested(v.to_json(), 3))
        values = _json_list([_json_list(row, 2) for row in cells], 1)
        fields = [
            f"  {json.dumps(key)}: " + (values if key == "values" else _json_nested(item, 1))
            for key, item in self._json_fields(None).items()
        ]
        return "{\n" + ",\n".join(fields) + "\n}"

    def to_csv(self) -> str:
        """Exactly what csv.writer writes for the header and one line per row."""
        lines = [",".join(_csv_field(s) for s in ["template"] + [t.text() for t in self.cols])]
        cells = self._fragments(lambda v: _csv_field(str(v)))
        lines += [",".join([_csv_field(t.text())] + row) for t, row in zip(self.rows, cells)]
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        """Right-aligned columns, each as wide as the longest label or value plus one."""
        labels = [t.text() for t in self.rows + self.cols]
        strs = {v: str(v) for v in _distinct(self.values).values()}
        width = max(map(len, labels + list(strs.values()))) + 1
        cells = self._fragments(lambda v: strs[v].rjust(width))
        lines = [" " * width + "".join(t.text().rjust(width) for t in self.cols)]
        lines += [t.text().ljust(width) + "".join(row) for t, row in zip(self.rows, cells)]
        return "\n".join(lines)


def table_from_json(data: dict) -> CharacterTable:
    field = field_make(data["p"], data["k"])
    n = data["n"]
    return CharacterTable(
        n=n,
        field=field,
        rows=[clusters.parse_template(field, n, t) for t in data["rows"]],
        cols=[clusters.parse_template(field, n, t) for t in data["cols"]],
        values=[[Cyclotomic.from_json(v) for v in row] for row in data["values"]],
        row_degrees=[int(s) for s in data["row_degrees"]],
        row_selfint=[int(s) for s in data["row_selfint"]],
        col_sizes=[int(s) for s in data["col_sizes"]],
    )


def build_table(n: int, field: Field, max_rows: int = DEFAULT_MAX_TABLE) -> CharacterTable:
    """The full table over closed-form values; deterministic ordering."""
    count = clusters.bell_poly(n, field.q)
    if count > max_rows:
        raise ResourceCapExceeded(f"table would have {count} rows, cap is {max_rows}")
    templates = enumerate_templates(n, field)
    if len(templates) != count:
        raise InvariantViolation(
            f"enumerated {len(templates)} templates, recurrence says {count}"
        )
    rows = templates
    cols = templates
    columns = [_column(x) for x in cols]
    monomials = _Monomials(field)
    invs = [invariants_of(t) for t in rows]
    values = [
        list(map(monomials.__getitem__, map(_row_kernel(tau, inv), columns)))
        for tau, inv in zip(rows, invs)
    ]
    for t, inv in zip(rows, invs):
        if inv.i > inv.d:
            raise InvariantViolation(f"i > d for {t.text()}; q^(d-i) not integral")
    return CharacterTable(
        n=n,
        field=field,
        rows=rows,
        cols=cols,
        values=values,
        row_degrees=[field.q**inv.d for inv in invs],
        row_selfint=[field.q**inv.i for inv in invs],
        col_sizes=[clusters.adjoint_cluster_size(t) for t in cols],
    )


def inner_product(table: CharacterTable, f: list[Cyclotomic], h: list[Cyclotomic]) -> Cyclotomic:
    """<f, h> = (1/|U|) * sum over conjugacy clusters of size * f * conj(h).

    f and h are class functions given by their values on table.cols.
    """
    p = table.field.p
    total = Cyclotomic.from_rational(p, 0)
    for size, fv, hv in zip(table.col_sizes, f, h):
        total = total + size * (fv * hv.conjugate())
    return Fraction(1, table.group_order()) * total


@dataclass
class AxiomReport:
    """Outcome of the supercharacter-axiom checks; failures are itemized."""

    checks: list[tuple[str, bool, str]]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]


class _Bins:
    """Integer bins over z^0 .. z^(p-1), packed into one int.

    A value den * sum(b_m z^m) is stored as sum(b_m * 2^(width*m)), so
    adding packed values adds their bins and multiplying two convolves them.
    width leaves room for every bin a sum can reach (bound), so the bins of
    a sum or product unpack exactly.  A sum is rational iff bins 1..p-1 are
    equal, and its value is then bin 0 - bin 1.
    """

    def __init__(self, p: int, den: int, bound: int):
        self.p = p
        self.den = den
        self.width = bound.bit_length() + 1

    def pack(self, v: Cyclotomic, conjugate: bool = False) -> int:
        """den * v (or den * conj(v), z^m -> z^(-m)), packed."""
        scale = self.den // v.den
        p, width = self.p, self.width
        return sum(
            (a * scale) << (width * ((-m) % p if conjugate else m))
            for m, a in enumerate(v.num)
        )

    def unpack(self, packed: int) -> list[int]:
        """The p bins of a packed sum or product, folded by z^p = 1."""
        p, width = self.p, self.width
        half, mask = 1 << (width - 1), (1 << width) - 1
        bins = [0] * p
        for m in range(2 * p - 1):
            digit = packed & mask
            if digit >= half:
                digit -= mask + 1
            bins[m % p] += digit
            packed = (packed - digit) >> width
        if packed:
            raise ArithmeticError("a bin outgrew its width")
        return bins

    @staticmethod
    def rational(bins: list[int]) -> int | None:
        """bin 0 - bin 1 when bins 1..p-1 are equal, else None."""
        if any(b != bins[1] for b in bins[2:]):
            return None
        return bins[0] - bins[1]

    def cyclotomic(self, bins: list[int], den: int) -> Cyclotomic:
        """sum(bins[m] z^m) / den, for a failure message."""
        p = self.p
        return Cyclotomic(p, tuple(b - bins[p - 1] for b in bins[: p - 1]), den)


def verify_axioms(table: CharacterTable) -> AxiomReport:
    """Check the supercharacter axioms on a built table.

    Superclass sizes partition the group; the weighted row sum reproduces the
    regular character; rows are mutually orthogonal with norm q^i; row and
    column counts agree.  The sums run over the values the table holds, in
    integer bins (see _Bins); a Cyclotomic is built only to report a failure.
    """
    checks: list[tuple[str, bool, str]] = []
    order = table.group_order()
    p = table.field.p

    size_sum = sum(table.col_sizes)
    checks.append((
        "superclass-sizes",
        size_sum == order,
        f"sum of conjugacy-cluster sizes {size_sum}, group order {order}",
    ))

    count = clusters.bell_poly(table.n, table.field.q)
    checks.append((
        "count-match",
        len(table.rows) == len(table.cols) == count,
        f"{len(table.rows)} rows, {len(table.cols)} cols, expected {count}",
    ))

    identity_col = table.col_index(Template(table.field, table.n, []))
    mults = []
    for deg, selfint in zip(table.row_degrees, table.row_selfint):
        mult, rem = divmod(deg, selfint)
        if rem:
            raise InvariantViolation("q^(d-i) multiplicity is not integral")
        mults.append(mult)

    distinct = _distinct(table.values)
    if any(v.p != p for v in distinct.values()):
        raise ValueError("mixed root orders")
    den = lcm(*(v.den for v in distinct.values()))
    l1 = den * max((sum(map(abs, v.num)) for v in distinct.values()), default=0)
    bound = max(sum(mults) * l1, sum(map(abs, table.col_sizes)) * l1 * l1)
    bins = _Bins(p, den, bound)
    packed = {key: bins.pack(v) for key, v in distinct.items()}
    conjugate = {key: bins.pack(v, conjugate=True) for key, v in distinct.items()}
    grid = [list(map(packed.__getitem__, map(id, row))) for row in table.values]

    reg_ok = True
    reg_detail = "regular character reproduced"
    for c, column in enumerate(zip(*grid)):
        total = bins.unpack(sum(map(mul, mults, column)))
        expected = order if c == identity_col else 0
        if bins.rational(total) != expected * den:
            reg_ok = False
            reg_detail = (
                f"regular character wrong at column {table.cols[c].text()}:"
                f" {bins.cyclotomic(total, den)}"
            )
            break
    checks.append(("regular-character", reg_ok, reg_detail))

    orth_ok = True
    orth_detail = "all pairs orthogonal, norms q^i"
    weighted = [list(map(mul, table.col_sizes, row)) for row in grid]
    conj_grid = [list(map(conjugate.__getitem__, map(id, row))) for row in table.values]
    for r1 in range(len(table.rows)):
        w = weighted[r1]
        for r2 in range(r1, len(table.rows)):
            got = bins.unpack(sum(map(mul, w, conj_grid[r2])))
            expected = table.row_selfint[r1] if r1 == r2 else 0
            if bins.rational(got) != expected * order * den * den:
                orth_ok = False
                orth_detail = (
                    f"<{table.rows[r1].text()}, {table.rows[r2].text()}> ="
                    f" {bins.cyclotomic(got, order * den * den)}, expected {expected}"
                )
                break
        if not orth_ok:
            break
    checks.append(("orthogonality", orth_ok, orth_detail))

    return AxiomReport(checks)
