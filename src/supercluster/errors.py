"""Error types shared across the package, and what their cap lines share.

Exit-code mapping used by the CLI: usage errors exit 2 (argparse),
ResourceCapExceeded exits 3, InvariantViolation exits 4.
"""

import sys

# The oracle's default cap on the points of the algebra, its dual and the
# group (the CLI's "orbit" cap), here so that the CLI need not load the oracle.
DEFAULT_MAX_SPACE = 2**20


class ResourceCapExceeded(RuntimeError):
    """An enumeration or product would exceed a configured cap."""


class InvariantViolation(RuntimeError):
    """An identity that must hold was falsified on a concrete input.

    This is the loudest alarm the engine has: it means either a bug or a
    counterexample.  It must never be downgraded to a warning.
    """


def int_str_limit_exceeded(q: int, e: int) -> int:
    """The interpreter's int-to-str digit limit when q^e has more decimal
    digits than it, else 0 (also where no limit is set): a cap line names
    such a number as the power q^e, since str() of it raises."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # q^e < 2^(e * bits(q)) <= 2^(3 * limit) < 10^limit, and, q >= 2,
    # q^e >= 2^(e * (bits(q) - 1)) >= 2^(10 * limit / 3) > 10^limit decide
    # most powers without computing one; the rest compare exactly
    if not limit or e * q.bit_length() <= 3 * limit:
        return 0
    return limit if 3 * e * (q.bit_length() - 1) >= 10 * limit or q**e >= 10**limit else 0


def power_text(q: int, e: int) -> str:
    """q^e as a cap line names it: in digits, or as the power q^e where
    int_str_limit_exceeded(q, e)."""
    return f"{q}^{e}" if int_str_limit_exceeded(q, e) else str(q**e)
