"""The monomial table: rendering from fragments, O(1) lookup, integer axiom
checks, and the closed form against the cluster sum at random elements.

Each renderer is compared byte for byte with the generic route it replaces:
json.dumps(indent=2) of to_json(), csv.writer over the str() of every value,
and the aligned text layout written out cell by cell below.  verify_axioms
is compared with the same checks summed in Cyclotomic arithmetic.
"""

import csv
import io
import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supercluster import field_make
from supercluster.characters import (
    CharacterTable,
    _Kernel,
    _monomial,
    _pairs,
    build_table,
    char_value_closed,
    char_value_sum,
    inner_product,
    table_from_json,
    verify_axioms,
)
from supercluster.clusters import (
    Template,
    adjoint_template_of,
    enumerate_templates,
    invariants_of,
)
from supercluster.core import NilMatrix, UniMatrix, positions
from supercluster.cyclotomic import Cyclotomic

from closed_form import column, reference_row

PROPS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

GOLDEN_CASES = [(2, 2, 1), (3, 2, 1), (3, 3, 1)]
# (n, p, k) over GF(2), GF(3), GF(4), GF(5) and GF(9)
SEEDED_CASES = [(4, 2, 1), (4, 3, 1), (4, 2, 2), (4, 5, 1), (3, 3, 2)]


def reference_csv(table):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["template"] + [t.text() for t in table.cols])
    for t, row in zip(table.rows, table.values):
        w.writerow([t.text()] + [str(v) for v in row])
    return out.getvalue()


def reference_text(table):
    width = max(
        [len(t.text()) for t in table.rows + table.cols]
        + [len(str(v)) for row in table.values for v in row]
    ) + 1
    header = " " * width + "".join(t.text().rjust(width) for t in table.cols)
    lines = [header]
    for t, row in zip(table.rows, table.values):
        lines.append(t.text().ljust(width) + "".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


def copy_table(table, values):
    return CharacterTable(
        n=table.n,
        field=table.field,
        rows=table.rows,
        cols=table.cols,
        values=values,
        row_degrees=list(table.row_degrees),
        row_selfint=list(table.row_selfint),
        col_sizes=list(table.col_sizes),
    )


def random_value(rng, p):
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3))) for _ in range(p - 1)]
    return Cyclotomic(p, coeffs)


def seeded_table(n, p, k, seed):
    """The built table with a seeded tenth of its cells replaced by fresh,
    arbitrary values (fractions and non-monomials included)."""
    table = build_table(n, field_make(p, k))
    rng = random.Random(seed)
    values = [list(row) for row in table.values]
    for row in values:
        for c in range(len(row)):
            if rng.random() < 0.1:
                row[c] = random_value(rng, p)
    return copy_table(table, values)


def assert_renders_like_reference(table):
    assert table.to_json_text() == json.dumps(table.to_json(), indent=2)
    assert table.to_csv() == reference_csv(table)
    assert table.to_text() == reference_text(table)


@pytest.mark.parametrize("n,p,k", GOLDEN_CASES + SEEDED_CASES)
def test_renderers_are_byte_identical(n, p, k):
    table = build_table(n, field_make(p, k))
    assert_renders_like_reference(table)
    # every cell its own object, as table_from_json makes them
    assert_renders_like_reference(table_from_json(table.to_json()))


@pytest.mark.parametrize("n,p,k", SEEDED_CASES)
def test_renderers_are_byte_identical_on_seeded_values(n, p, k):
    assert_renders_like_reference(seeded_table(n, p, k, seed=n * 100 + p * 10 + k))


def test_build_table_interns_one_value_per_monomial(F3):
    table = build_table(4, F3)
    objects = {id(v) for row in table.values for v in row}
    values = {v for row in table.values for v in row}
    assert len(objects) == len(values)


def test_a_built_table_renders_what_its_values_hold(F3):
    table = build_table(3, F3)
    table.values[2][3] = random_value(random.Random(3), 3)
    assert_renders_like_reference(table)


def test_build_table_keys_each_distinct_pair_with_one_object(F3):
    # read before values, which the table is keyed by once they are made
    table = build_table(4, F3)
    keys = [key for row in table._keys for key in row]
    assert all(key is None or (type(key) is tuple and len(key) == 2) for key in keys)
    assert len({id(key) for key in keys}) == len(set(keys))


def test_value_lookup_matches_the_grid(F4):
    table = build_table(3, F4)
    for r, tau in enumerate(table.rows):
        for c, x in enumerate(table.cols):
            assert table.value(tau, x) is table.values[r][c]
    with pytest.raises(ValueError):
        table.value(Template(F4, 3, []), Template(field_make(2, 1), 3, []))


def test_closed_form_rejects_mismatched_fields(F2, F4):
    with pytest.raises(ValueError):
        char_value_closed(Template(F2, 3, []), Template(F4, 3, []))


# -- integer axiom checks against Cyclotomic sums ------------------------------

def reference_failures(table):
    """The regular-character and orthogonality verdicts summed in Cyclotomic."""
    p = table.field.p
    order = table.group_order()
    identity_col = table.col_index(Template(table.field, table.n, []))
    mults = [d // s for d, s in zip(table.row_degrees, table.row_selfint)]
    out = []
    for c in range(len(table.cols)):
        total = Cyclotomic.from_rational(p, 0)
        for r in range(len(table.rows)):
            total = total + mults[r] * table.values[r][c]
        if total != (order if c == identity_col else 0):
            out.append((
                "regular-character",
                f"regular character wrong at column {table.cols[c].text()}: {total}",
            ))
            break
    for r1 in range(len(table.rows)):
        for r2 in range(r1, len(table.rows)):
            got = inner_product(table, table.values[r1], table.values[r2])
            expected = table.row_selfint[r1] if r1 == r2 else 0
            if got != expected:
                out.append((
                    "orthogonality",
                    f"<{table.rows[r1].text()}, {table.rows[r2].text()}> = {got},"
                    f" expected {expected}",
                ))
                return out
    return out


def corrupt(table, how):
    values = [list(row) for row in table.values]
    p = table.field.p
    if how == "+1":
        values[2][3] = values[2][3] + 1
    elif how == "+z":
        values[3][0] = values[3][0] + Cyclotomic.zeta_power(p, 1)
    elif how == "+1/2":
        values[4][4] = values[4][4] + Fraction(1, 2)
    else:  # swap two cells of different rows and columns holding different values
        r1, c1, r2, c2 = next(
            (r1, c1, r2, c2)
            for r1 in range(1, len(values))
            for c1 in range(1, len(values))
            for r2 in range(r1 + 1, len(values))
            for c2 in range(c1 + 1, len(values))
            if values[r1][c1] != values[r2][c2]
        )
        values[r1][c1], values[r2][c2] = values[r2][c2], values[r1][c1]
    return copy_table(table, values)


@pytest.mark.parametrize("n,p,k", [(3, 3, 1), (3, 2, 2), (4, 3, 1), (3, 5, 1)])
@pytest.mark.parametrize("how", ["+1", "+z", "+1/2", "swap"])
def test_verify_axioms_catches_corruption_with_reference_details(n, p, k, how):
    bad = corrupt(build_table(n, field_make(p, k)), how)
    report = verify_axioms(bad)
    assert not report.passed
    assert report.failures() == reference_failures(bad)


@pytest.mark.parametrize("n,p,k", SEEDED_CASES)
def test_verify_axioms_pass_on_the_seeded_grid(n, p, k):
    report = verify_axioms(build_table(n, field_make(p, k)))
    assert report.passed, report.failures()


def test_verify_axioms_reads_the_values_it_is_given(F3):
    # rows scaled by a unit phase keep every axiom but the regular character
    table = build_table(3, F3)
    z = Cyclotomic.zeta_power(3, 1)
    values = [[v * z for v in row] if r else list(row) for r, row in enumerate(table.values)]
    bad = copy_table(table, values)
    report = verify_axioms(bad)
    assert [name for name, _ in report.failures()] == ["regular-character"]
    assert report.failures() == reference_failures(bad)


def test_verify_axioms_rejects_mixed_root_orders(F3):
    table = build_table(2, F3)
    values = [list(row) for row in table.values]
    values[1][1] = Cyclotomic.from_rational(5, 1)
    with pytest.raises(ValueError):
        verify_axioms(copy_table(table, values))


# -- closed form at a template against the cluster sum at random elements ------

# (n, p, k) over GF(2), GF(3), GF(4), GF(5), GF(8) and GF(9)
PROPERTY_CASES = ((5, 2, 1), (4, 3, 1), (4, 2, 2), (3, 5, 1), (3, 2, 3), (3, 3, 2))


@st.composite
def element_and_row(draw):
    n, p, k = draw(st.sampled_from(PROPERTY_CASES))
    field = field_make(p, k)
    pts = positions(n)
    indices = draw(st.lists(st.integers(0, field.q - 1), min_size=len(pts), max_size=len(pts)))
    g = UniMatrix(NilMatrix(field, n, {pos: field.elements[m] for pos, m in zip(pts, indices)}))
    templates = enumerate_templates(n, field)
    tau = templates[draw(st.integers(0, len(templates) - 1))]
    return tau, g


@PROPS
@given(element_and_row())
def test_closed_form_at_the_adjoint_template_equals_the_cluster_sum(case):
    tau, g = case
    assert char_value_closed(tau, adjoint_template_of(g.off)[0]) == char_value_sum(tau, g)



# -- the lane kernel against the per-cell loop ---------------------------------

def assert_rows_match_the_loop(kernel, rows, cols):
    """Every key of every row as the per-cell loop of tests/closed_form.py
    gives it from the kernel's pairs table: equal, and the same object."""
    columns = [column(x) for x in cols]
    for tau in rows:
        d = invariants_of(tau).d
        got = kernel.row(tau, d)
        want = reference_row(tau, d, columns, kernel.pairs)
        assert got == want
        assert all(map(operator.is_, got, want))


def table_kernel(n, field):
    templates = enumerate_templates(n, field)
    top = max(invariants_of(t).d for t in templates)
    return _Kernel(field, n, templates, top), templates


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_table_rows_equal_the_per_cell_loop_up_to_n4(n, p, k):
    kernel, templates = table_kernel(n, field_make(p, k))
    assert kernel.code == "H"
    assert_rows_match_the_loop(kernel, templates, templates)


@pytest.mark.parametrize("n,p", [(5, 2), (5, 3), (6, 2), (7, 2)])
def test_table_rows_equal_the_per_cell_loop(n, p):
    field = field_make(p, 1)
    kernel, templates = table_kernel(n, field)
    assert_rows_match_the_loop(kernel, templates, templates)
    columns = [column(x) for x in templates]
    assert build_table(n, field)._keys == [
        reference_row(t, invariants_of(t).d, columns, kernel.pairs) for t in templates
    ]


def random_templates(rng, field, n, count, most=8):
    """count seeded rook placements of n x n, each with at most most cells."""
    spots = positions(n)
    out = []
    for _ in range(count):
        cells, rows, cols = [], set(), set()
        for i, j in rng.sample(spots, rng.randint(0, min(most, len(spots)))):
            if i not in rows and j not in cols:
                rows.add(i)
                cols.add(j)
                cells.append((i, j, field.elements[rng.randrange(1, field.q)]))
        out.append(Template(field, n, cells))
    return out


@pytest.mark.parametrize("n,p,width", [(8, 2, 16), (5, 61, 32), (100, 61, 64)])
def test_each_lane_width_against_the_per_cell_loop(n, p, width):
    """Slices of rows and columns at each width the kernel picks: 16 bits
    at (8,2), 32 at (5,61) and 64 at (100,61), where no table is made."""
    field = field_make(p, 1, max_q=p)
    rng = random.Random(n * p)
    if n == 8:
        templates = enumerate_templates(n, field)
        rows, cols = templates[::97], templates[::5]
    else:
        rows, cols = random_templates(rng, field, n, 12), random_templates(rng, field, n, 200)
    kernel = _Kernel(field, n, cols, max(invariants_of(t).d for t in rows))
    assert kernel.code == {16: "H", 32: "I", 64: "Q"}[width]
    assert_rows_match_the_loop(kernel, rows, cols)


@st.composite
def template_pair(draw):
    field = draw(st.sampled_from([field_make(2, 1), field_make(3, 1), field_make(2, 2),
                                  field_make(5, 1), field_make(3, 2), field_make(7, 1)]))
    n = draw(st.integers(2, 7))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return random_templates(rng, field, n, 2)


@PROPS
@given(template_pair())
def test_char_value_closed_equals_the_per_cell_loop(pair):
    tau, x = pair
    d = invariants_of(tau).d
    [want] = reference_row(tau, d, [column(x)], _pairs(tau.field.p, d))
    assert char_value_closed(tau, x) == _monomial(tau.field, want)


def test_a_killed_column_stays_zero_whatever_its_hook_count(monkeypatch):
    """(1,3)=1 of (4,2) has d = 1 and kills (2,3).  Two more hooks at (2,3)
    give every column with an entry there h >= 2 > d, but those columns are
    killed, so the table is unchanged."""
    import supercluster.characters as characters

    field = field_make(2, 1)
    before = build_table(4, field)._keys
    tables = characters._row_tables
    slot = characters._slot(4, 2, 3)

    def hooked(tau):
        cells = tables(tau)
        if tau.text() == "(1,3)=1":
            [(kill, hooks, own, v)] = cells
            assert kill >> slot & 1
            cells = [(kill, hooks + (1 << slot,) * 2, own, v)]
        return cells

    monkeypatch.setattr(characters, "_row_tables", hooked)
    assert build_table(4, field)._keys == before
