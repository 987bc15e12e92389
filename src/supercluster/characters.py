"""Cluster characters in exact cyclotomic arithmetic, and the full table.

The additive character is fixed once and for all as theta(x) = z^trace(x)
with z a primitive p-th root of unity, so every character value lives in
Q(z_p) and equality checks are exact.  A table row is the cluster character
of a coadjoint template evaluated on the conjugacy-cluster representatives
I + x over the adjoint templates; rows and columns are both listed in
template-lexicographic order.

Two independent evaluation routes are exposed: the closed form on template
representatives (char_value_closed) and the averaged sum over the whole
cluster (char_value_sum), which works at arbitrary group elements and sums
the cluster one left orbit at a time.

On template representatives every value is a monomial, 0 or q^(d-h) * z^e.
The closed form is one per-row routine (_row): a row template precomputes
its kill set (positions below or left of a support cell), its hook count
at each position and the phase its cell values give each column entry,
and then, in one loop over the columns, keys each cell None (the value is
0) or (d - h, e), a pair taken from one table of pairs per table, so equal
keys are one object.  build_table keeps that grid of keys and makes no
Cyclotomic per cell: its values grid is built from the keys on first read,
one shared Cyclotomic per distinct key; char_value_closed runs the same
routine on its one column.

JSON, CSV and text are written row by row: each format has a generator
that yields the document one table row at a time, and each row is a join
of its cells' keys mapped through a memo that renders each distinct key
once (a table given its values is keyed by them).  The chunks join to byte
for byte what json.dumps(indent=2), csv.writer and the aligned text layout
give; the CLI writes them as they come, so it never holds the whole
document.  verify_axioms maps each distinct value once to integer bins
over z^0 .. z^(p-1), so its sums are integer arithmetic.
"""

from __future__ import annotations

import csv
import io
import json
from math import lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Optional

from . import clusters
from .clusters import Template, enumerate_templates, invariants_of
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


def _pairs(p: int, top: int) -> list[tuple[Cell, ...]]:
    """The cell keys of a table whose rows have d <= top: pairs[a][e] is
    (a, e), one tuple per pair, shared by every row that reaches it."""
    return [tuple((a, e) for e in range(p)) for a in range(top + 1)]


def _row_tables(tau: Template) -> tuple[int, list[int], list[tuple[int, ...]]]:
    """The kill set of tau's row as a slot mask, the hook count at each slot,
    and at each slot the phase trace(v * w) of its tau-cell value v against
    each field element w (index order); see _row."""
    field, n = tau.field, tau.n
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
    return kill, hooks, phases


def _row(tau: Template, d: int, columns: list[Column], pairs: list[tuple[Cell, ...]]) -> list[Cell]:
    """The closed form of tau's row (d its invariant) at each column.

    The column's value is 0 (None) as soon as it has an entry below or
    left of a support cell of tau (the kill set).  Otherwise it is
    q^(d - h) * z^e, keyed by pairs[d - h][e] (see _pairs): h counts corner
    positions with a tau-cell strictly to the right and the column's entry
    strictly below, summed here from a per-position hook count, and
    e = trace(tau(x)) mod p, summed from per-cell phases.
    """
    p = tau.field.p
    kill, hooks, phases = _row_tables(tau)
    by_h = pairs[d::-1]
    cells: list[Cell] = []
    append = cells.append
    for mask, entries in columns:
        if mask & kill:
            append(None)
            continue
        h = e = 0
        for slot, w in entries:
            h += hooks[slot]
            e += phases[slot][w]
        if h > d:
            raise InvariantViolation(f"hook count {h} exceeds d={d} for {tau.text()}")
        append(by_h[h][e % p])
    return cells


class _Memo(dict):
    """key -> fn(key), each computed once, on first lookup."""

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _monomial(field: Field, cell: Cell) -> Cyclotomic:
    """The value a cell key stands for: 0, or q^a * z^e for (a, e)."""
    p = field.p
    if cell is None:
        return Cyclotomic.from_rational(p, 0)
    a, e = cell
    return field.q**a * Cyclotomic.zeta_power(p, e)


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
    d = invariants_of(tau).d
    [cell] = _row(tau, d, [_column(x)], _pairs(tau.field.p, d))
    return _monomial(tau.field, cell)


def char_value_sum(tau: Template, g: UniMatrix) -> Cyclotomic:
    """q^(i-d) * sum of theta[lam(g-I)] over the whole cluster of tau.

    Valid at every group element, not only template representatives.  The
    cluster is the disjoint union of its q^(d-i) left orbits mu + L-hat(mu)
    (clusters.left_orbits), each an affine subspace of q^d points.  By the
    orthogonality of the additive character, the sum of theta[l(x)] over a
    subspace V is |V| when every l in V kills x and 0 otherwise, so a left
    orbit adds q^d * theta[mu(x)] or nothing, x = g - I, and its d basis
    rows decide which.  The value is q^i * sum of theta[mu(x)] over the
    orbits whose L-hat(mu) kills x, counted in p integer bins, one per
    exponent of z, with one Cyclotomic built from the bins.  This route
    reads neither char_value_closed nor its row kernel;
    test_oracle::test_binned_traces_equal_summed_roots_of_unity and
    test_clusters::test_left_orbits_split_the_cluster hold it to the
    explicit sum of evaluate over the cluster, read from packed.Codes.closure.
    """
    if tau.n != g.n:
        raise ValueError("size mismatch")
    field = tau.field
    if g.field is not field and g.field != field:
        raise ValueError("field mismatch")
    add, mul, n = field.add_idx, field.mul_idx, tau.n
    xs = [(clusters._lex(n, i, j), v.index) for (i, j), v in g.off.entries.items()]
    traces = [a.trace() for a in field.elements]
    bins = [0] * field.p
    orbits = clusters.left_orbits(tau)
    for mu, basis in orbits:
        for row in basis:
            s = 0
            for at, b in xs:
                a = row[at]
                if a:
                    s = add[s][mul[a][b]]
            if s:
                break
        else:
            s = 0
            for at, b in xs:
                a = mu[at]
                if a:
                    s = add[s][mul[a][b]]
            bins[traces[s]] += 1
    scale = field.q ** len(orbits[0][1]) // len(orbits)  # q^d / q^(d-i) = q^i
    return Cyclotomic.from_bins(field.p, [scale * b for b in bins])


# -- the table ----------------------------------------------------------------

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


def _json_list_chunks(items: Iterable[str], depth: int) -> Iterator[str]:
    """_json_list(items, depth), one chunk per item."""
    pad = "\n" + "  " * (depth + 1)
    empty = True
    for item in items:
        yield ("[" if empty else ",") + pad + item
        empty = False
    yield "[]" if empty else "\n" + "  " * depth + "]"


def _csv_field(text: str) -> str:
    """One field exactly as csv.writer quotes it."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([text])
    return out.getvalue()[:-1]


def _same(value):
    return value


class CharacterTable:
    """The supercharacter table with its degree/size bookkeeping.

    rows and cols are fixed once the table is made: value() looks templates
    up in position maps built then.  values is the grid of Cyclotomic
    values.  Each cell also has a key, and the renderers write a row as its
    keys mapped through a memo that renders each distinct key once
    (_fragments).  A table given its values keys each cell by its value.
    build_table gives None for values, and keys each cell by its closed
    form, None or an (a, e) pair (see _row), with value_of the map from key
    to value; values is then made from the keys on first read, equal keys
    giving one shared Cyclotomic, and from then on the table is keyed by
    that grid, so it renders what values holds.
    """

    def __init__(self, n: int, field: Field, rows: list[Template], cols: list[Template],
                 values: list[list[Cyclotomic]] | None, row_degrees: list[int],
                 row_selfint: list[int], col_sizes: list[int], keys: list[list] | None = None,
                 value_of: Callable[..., Cyclotomic] = _same):
        self.n = n
        self.field = field
        self.rows = rows  # coadjoint templates (cluster characters)
        self.cols = cols  # adjoint templates (conjugacy clusters)
        self.row_degrees = row_degrees
        self.row_selfint = row_selfint
        self.col_sizes = col_sizes
        self._values = values
        self._keys = values if keys is None else keys
        self._value_of = value_of
        self._row_at = {t: r for r, t in enumerate(rows)}
        self._col_at = {t: c for c, t in enumerate(cols)}

    @property
    def values(self) -> list[list[Cyclotomic]]:
        if self._values is None:
            value_of = self._value_of
            self._values = [list(map(value_of, row)) for row in self._keys]
            self._keys, self._value_of = self._values, _same
        return self._values

    def _fields(self) -> tuple:
        return (self.n, self.field, self.rows, self.cols, self.values,
                self.row_degrees, self.row_selfint, self.col_sizes)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CharacterTable):
            return NotImplemented
        return self._fields() == other._fields()

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
        return self._value_of(self._keys[self.row_index(tau)][self.col_index(x)])

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

    def _fragments(self, render: Callable[[Cyclotomic], str]) -> Iterator[list[str]]:
        """Every cell rendered, one row at a time as the caller reaches it;
        render runs once per distinct key."""
        value_of = self._value_of
        text = _Memo(lambda key: render(value_of(key))).__getitem__
        for row in self._keys:
            yield list(map(text, row))

    def iter_json_text(self) -> Iterator[str]:
        """to_json_text() in chunks: the fields before "values", one chunk
        per table row, then the fields after."""
        fields = self._json_fields(None)
        keys = list(fields)
        at = keys.index("values")

        def render(keys):
            return [f"  {json.dumps(key)}: " + _json_nested(fields[key], 1) for key in keys]

        yield "{\n" + ",\n".join(render(keys[:at]) + ['  "values": '])
        cells = self._fragments(lambda v: _json_nested(v.to_json(), 3))
        yield from _json_list_chunks((_json_list(row, 2) for row in cells), 1)
        yield "".join(",\n" + field for field in render(keys[at + 1:])) + "\n}"

    def iter_csv(self) -> Iterator[str]:
        """to_csv() in chunks: the header line, then one chunk per row."""
        yield ",".join(_csv_field(s) for s in ["template"] + [t.text() for t in self.cols]) + "\n"
        cells = self._fragments(lambda v: _csv_field(str(v)))
        for t, row in zip(self.rows, cells):
            yield ",".join([_csv_field(t.text())] + row) + "\n"

    def iter_text(self) -> Iterator[str]:
        """to_text() in chunks: the header line, then one chunk per row,
        each row led by the newline that ends the line before it."""
        labels = [t.text() for t in self.rows + self.cols]
        value_of = self._value_of
        strs = [str(value_of(key)) for key in set().union(*self._keys)]
        width = max(map(len, labels + strs)) + 1
        yield " " * width + "".join(t.text().rjust(width) for t in self.cols)
        cells = self._fragments(lambda v: str(v).rjust(width))
        for t, row in zip(self.rows, cells):
            yield "\n" + t.text().ljust(width) + "".join(row)

    def to_json_text(self) -> str:
        """Exactly json.dumps(self.to_json(), indent=2)."""
        return "".join(self.iter_json_text())

    def to_csv(self) -> str:
        """Exactly what csv.writer writes for the header and one line per row."""
        return "".join(self.iter_csv())

    def to_text(self) -> str:
        """Right-aligned columns, each as wide as the longest label or value plus one."""
        return "".join(self.iter_text())


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
    invs = [invariants_of(t) for t in rows]
    pairs = _pairs(field.p, max(inv.d for inv in invs))
    keys = [_row(tau, inv.d, columns, pairs) for tau, inv in zip(rows, invs)]
    for t, inv in zip(rows, invs):
        if inv.i > inv.d:
            raise InvariantViolation(f"i > d for {t.text()}; q^(d-i) not integral")
    return CharacterTable(
        n=n,
        field=field,
        rows=rows,
        cols=cols,
        values=None,
        row_degrees=[field.q**inv.d for inv in invs],
        row_selfint=[field.q**inv.i for inv in invs],
        col_sizes=[clusters.adjoint_cluster_size(t) for t in cols],
        keys=keys,
        value_of=_Memo(lambda cell: _monomial(field, cell)).__getitem__,
    )


def inner_product(table: CharacterTable, f: list[Cyclotomic], h: list[Cyclotomic]) -> Cyclotomic:
    """<f, h> = (1/|U|) * sum over conjugacy clusters of size * f * conj(h).

    f and h are class functions given by their values on table.cols.
    """
    p = table.field.p
    total = Cyclotomic.from_rational(p, 0)
    for size, fv, hv in zip(table.col_sizes, f, h):
        total = total + size * (fv * hv.conjugate())
    return Cyclotomic(p, total.num, total.den * table.group_order())


class AxiomReport:
    """Outcome of the supercharacter-axiom checks; failures are itemized."""

    def __init__(self, checks: list[tuple[str, bool, str]]):
        self.checks = checks

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
        return Cyclotomic.from_bins(self.p, bins, den)


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

    distinct = set().union(*table.values)
    if any(v.p != p for v in distinct):
        raise ValueError("mixed root orders")
    den = lcm(*(v.den for v in distinct))
    l1 = den * max((sum(map(abs, v.num)) for v in distinct), default=0)
    bound = max(sum(mults) * l1, sum(map(abs, table.col_sizes)) * l1 * l1)
    bins = _Bins(p, den, bound)
    packed = {v: bins.pack(v) for v in distinct}
    conjugate = {v: bins.pack(v, conjugate=True) for v in distinct}
    grid = [list(map(packed.__getitem__, row)) for row in table.values]

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
    conj_grid = [list(map(conjugate.__getitem__, row)) for row in table.values]
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
