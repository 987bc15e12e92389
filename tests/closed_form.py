"""The tests' per-cell spelling of the closed form on template pairs.

The engine evaluates a whole table row at once, as one sum of packed
per-cell column lanes (characters._Kernel).  reference_row is the loop it
replaced: one column at a time, it sums the row's hook count and phase over
the column's entries.  It keys each cell from the same pairs table, so the
two routes can be compared key by key, by equality and by identity.
"""

from supercluster.characters import _slot
from supercluster.errors import InvariantViolation


def column(x):
    """x as the loop reads it: the slot mask of its entries and its
    (slot, value index) entries."""
    mask = 0
    entries = []
    for i, j, w in x.cells:
        slot = _slot(x.n, i, j)
        mask |= 1 << slot
        entries.append((slot, w.index))
    return mask, tuple(entries)


def row_tables(tau):
    """The kill set of tau's row as a slot mask, the hook count at each slot,
    and at each slot the phase trace(v * w) of its tau-cell value v against
    each field element w (index order)."""
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


def reference_row(tau, d, columns, pairs):
    """tau's keys at each column (see column), d its invariant: None when
    the column has an entry in the kill set, else pairs[d - h][e mod p]."""
    p = tau.field.p
    kill, hooks, phases = row_tables(tau)
    cells = []
    for mask, entries in columns:
        if mask & kill:
            cells.append(None)
            continue
        h = e = 0
        for slot, w in entries:
            h += hooks[slot]
            e += phases[slot][w]
        if h > d:
            raise InvariantViolation(f"hook count {h} exceeds d={d} for {tau.text()}")
        cells.append(pairs[d - h][e % p])
    return cells
