"""The discrete-series character and its decomposition into cluster characters.

Membership in the defining dual subset asks for support in every one of the
first n-1 rows.  The character value at g depends only on the rank r of
g - I: it is (-1)^r (q-1)(q^2-1)...(q^(n-1-r)-1), and the multiplicity of a
cluster character is q^(d-i) * prod over the empty support rows k of
(1 - q^(-d(k))), which vanishes exactly for the block-splittable templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .clusters import Template, _index_rows, enumerate_templates, invariants_of
from .core import Functional, UniMatrix
from .errors import InvariantViolation
from .gf import Field


def in_delta(lam: Functional) -> bool:
    """True iff the support meets every row 1 .. n-1."""
    rows = {i for (i, _) in lam.entries}
    return all(k in rows for k in range(1, lam.n))


def delta_value(g: UniMatrix) -> int:
    """(-1)^r * (q-1)(q^2-1)...(q^(n-1-r)-1) with r = rank(g - I)."""
    n = g.n
    field = g.field
    r = linalg.rank(field, _index_rows(g.off))
    value = 1
    for m in range(1, n - r):
        value *= field.q**m - 1
    return -value if r % 2 else value


def _empty_rows(tau: Template) -> list[int]:
    occupied = {i for i, _, _ in tau.cells}
    return [k for k in range(1, tau.n) if k not in occupied]


def is_degenerate(tau: Template) -> bool:
    """True iff the template splits block-diagonally: some empty row k with d(k)=0."""
    inv = invariants_of(tau)
    return any(inv.d_rows[k - 1] == 0 for k in _empty_rows(tau))


def delta_multiplicity(tau: Template) -> int:
    """Multiplicity of tau's cluster character in the discrete series.

    q^(d-i) * prod (1 - q^(-d(k))) over the empty rows k, computed as
    q^d * prod (q^(d(k)) - 1) over q^(i + sum d(k)).
    """
    q = tau.field.q
    inv = invariants_of(tau)
    num, exp = q**inv.d, inv.i
    for k in _empty_rows(tau):
        num *= q ** inv.d_rows[k - 1] - 1
        exp += inv.d_rows[k - 1]
    mult, rem = divmod(num, q**exp)
    if rem:
        raise InvariantViolation(
            f"multiplicity {Fraction(num, q**exp)} for {tau.text()} is not a natural number"
        )
    return mult


@dataclass
class DeltaDecomposition:
    n: int
    field: Field
    terms: dict[Template, int]  # only non-degenerate templates, mult > 0
    identity_value: int

    def items(self) -> list[tuple[Template, int]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def to_json(self) -> dict:
        return {
            "identity_value": str(self.identity_value),
            "terms": [{"template": t.text(), "mult": m} for t, m in self.items()],
        }


def delta_decompose(n: int, field: Field) -> DeltaDecomposition:
    """All multiplicities, with the degree identity checked on the way out."""
    q = field.q
    identity_value = 1
    for m in range(1, n):
        identity_value *= q**m - 1
    terms: dict[Template, int] = {}
    total = 0
    for tau in enumerate_templates(n, field):
        mult = delta_multiplicity(tau)
        if mult and is_degenerate(tau):
            raise InvariantViolation(f"degenerate {tau.text()} got multiplicity {mult}")
        if not mult and not is_degenerate(tau):
            raise InvariantViolation(f"non-degenerate {tau.text()} got multiplicity 0")
        if mult:
            terms[tau] = mult
            total += mult * q ** invariants_of(tau).d
    if total != identity_value:
        raise InvariantViolation(
            f"decomposition degree {total} differs from identity value {identity_value}"
        )
    return DeltaDecomposition(n=n, field=field, terms=terms, identity_value=identity_value)
