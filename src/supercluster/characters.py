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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from . import clusters
from .clusters import ClusterInvariants, Template, enumerate_templates, invariants_of
from .core import Functional, UniMatrix, evaluate
from .cyclotomic import Cyclotomic
from .errors import InvariantViolation, ResourceCapExceeded
from .gf import Field, FieldElement, field_make
from .util import parallel_map

DEFAULT_MAX_TABLE = 5000


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


def char_value_closed(tau: Template, x: Template) -> Cyclotomic:
    """Character of tau's cluster at I + x, both arguments templates.

    Zero as soon as x has an entry below or left of a support cell of tau.
    Otherwise q^(d - h) * theta[tau(x)] where h counts corner positions with
    a tau-cell strictly to the right and an x-entry strictly below.
    """
    if tau.n != x.n:
        raise ValueError("size mismatch")
    p = tau.field.p
    supp = [(i, j) for i, j, _ in tau.cells]
    xcells = [(i, j) for i, j, _ in x.cells]
    for (i, j) in supp:
        for (xi, xj) in xcells:
            if xj == j and xi > i:  # below
                return Cyclotomic.from_rational(p, 0)
            if xi == i and xj < j:  # to the left
                return Cyclotomic.from_rational(p, 0)
    hooks = sum(1 for (i, j) in supp for (xi, xj) in xcells if i < xi and xj < j)
    d = invariants_of(tau).d
    if hooks > d:
        raise InvariantViolation(f"hook count {hooks} exceeds d={d} for {tau.text()}")
    value = evaluate(tau.as_functional(), x.as_matrix())
    return (tau.field.q ** (d - hooks)) * theta_of(value)


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


@dataclass
class CharacterTable:
    """The supercharacter table with its degree/size bookkeeping."""

    n: int
    field: Field
    rows: list[Template]       # coadjoint templates (cluster characters)
    cols: list[Template]       # adjoint templates (conjugacy clusters)
    values: list[list[Cyclotomic]]
    row_degrees: list[int]
    row_selfint: list[int]
    col_sizes: list[int]

    def row_index(self, tau: Template) -> int:
        return self.rows.index(tau)

    def col_index(self, x: Template) -> int:
        return self.cols.index(x)

    def value(self, tau: Template, x: Template) -> Cyclotomic:
        return self.values[self.row_index(tau)][self.col_index(x)]

    def group_order(self) -> int:
        return self.field.q ** (self.n * (self.n - 1) // 2)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "p": self.field.p,
            "k": self.field.k,
            "q": self.field.q,
            "rows": [t.text() for t in self.rows],
            "cols": [t.text() for t in self.cols],
            "values": [[v.to_json() for v in row] for row in self.values],
            "row_degrees": [str(d) for d in self.row_degrees],
            "row_selfint": [str(s) for s in self.row_selfint],
            "col_sizes": [str(s) for s in self.col_sizes],
        }

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        w.writerow(["template"] + [t.text() for t in self.cols])
        for t, row in zip(self.rows, self.values):
            w.writerow([t.text()] + [str(v) for v in row])
        return out.getvalue()


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


def _table_row(cols: tuple[Template, ...], tau: Template) -> list[Cyclotomic]:
    return [char_value_closed(tau, x) for x in cols]


def build_table(
    n: int,
    field: Field,
    jobs: int = 1,
    max_rows: int = DEFAULT_MAX_TABLE,
) -> CharacterTable:
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
    values = parallel_map(partial(_table_row, tuple(cols)), rows, jobs=jobs)
    invs = [invariants_of(t) for t in rows]
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


def verify_axioms(table: CharacterTable) -> AxiomReport:
    """Check the supercharacter axioms on a built table.

    Superclass sizes partition the group; the weighted row sum reproduces the
    regular character; rows are mutually orthogonal with norm q^i; row and
    column counts agree.
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
    reg_ok = True
    reg_detail = "regular character reproduced"
    for c in range(len(table.cols)):
        total = Cyclotomic.from_rational(p, 0)
        for r in range(len(table.rows)):
            total = total + mults[r] * table.values[r][c]
        expected = order if c == identity_col else 0
        if total != Cyclotomic.from_rational(p, expected):
            reg_ok = False
            reg_detail = f"regular character wrong at column {table.cols[c].text()}: {total}"
            break
    checks.append(("regular-character", reg_ok, reg_detail))

    orth_ok = True
    orth_detail = "all pairs orthogonal, norms q^i"
    for r1 in range(len(table.rows)):
        for r2 in range(r1, len(table.rows)):
            got = inner_product(table, table.values[r1], table.values[r2])
            expected = table.row_selfint[r1] if r1 == r2 else 0
            if got != Cyclotomic.from_rational(p, expected):
                orth_ok = False
                orth_detail = (
                    f"<{table.rows[r1].text()}, {table.rows[r2].text()}> = {got},"
                    f" expected {expected}"
                )
                break
        if not orth_ok:
            break
    checks.append(("orthogonality", orth_ok, orth_detail))

    return AxiomReport(checks)
