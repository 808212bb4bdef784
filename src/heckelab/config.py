"""
Size guards and defaults.

Everything in this package is exact, so the practical limits are time and
memory, not precision.  The guards below stop accidental n=9 blowups, and
scans over all n! elements of S_8.  An explicit guard (`set_max_n`, the
HECKE_LAB_MAX_N environment variable or the command line flag) replaces
the rank guard and the scan guard; the degree of basis changes and the
size of immanants are fixed.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache

__all__ = ["Budgets", "BudgetError", "max_n", "set_max_n", "check_n",
           "check_fixed", "DEFAULTS"]


class BudgetError(ValueError):
    """A requested computation exceeds the configured size guard."""


# The default guards: the rank of tables, Hecke products, KL elements and
# coloring sums; the rank of scans over all of S_n, which an explicit guard
# replaces; the degree of basis changes; the size of immanants (n! terms).
Budgets = namedtuple("Budgets", "hecke_max_n group_max_n symfunc_max_degree "
                     "immanant_max_n", defaults=(8, 7, 12, 7))

DEFAULTS = Budgets()

_override: int | None = None
_ENV_KEY = os.environ.encodekey("HECKE_LAB_MAX_N")


def set_max_n(value: int | None) -> None:
    """Set the global rank guard, overriding the environment variable."""
    global _override
    _override = value


def max_n(default: int | None = None) -> int:
    """The explicit guard if one is set, else `default` (hecke_max_n).
    A HECKE_LAB_MAX_N that is not an integer raises BudgetError."""
    if _override is not None:
        return _override
    # os.environ keeps its values in the dict _data, which every change
    # through os.environ updates: one lookup there (os.environ.get raises
    # and catches a KeyError while the variable is unset, and decodes the
    # value on every call)
    raw = os.environ._data.get(_ENV_KEY)
    if raw is None:
        return DEFAULTS.hecke_max_n if default is None else default
    return _env_guard(raw)


@lru_cache(maxsize=4)
def _env_guard(raw) -> int:
    """The guard a raw HECKE_LAB_MAX_N sets, parsed once per value."""
    env = os.environ.decodevalue(raw)
    try:
        return int(env)
    except ValueError:
        raise BudgetError(f"HECKE_LAB_MAX_N={env!r} is not an "
                          "integer") from None


def check_n(n: int, limit: int | None = None, what="n") -> None:
    """Refuse a rank below 1 (ValueError), then one above limit, by default
    the rank guard (BudgetError).  `what` names n in the guard's message:
    a string, or a function that builds it, called only on refusal."""
    if n < 1:
        raise ValueError(f"n={n} is not a rank: ranks start at 1")
    cap = limit if limit is not None else max_n()
    if n > cap:
        what = what if isinstance(what, str) else what()
        raise BudgetError(
            f"{what}={n} exceeds the size guard {cap}; raise it explicitly "
            "(HECKE_LAB_MAX_N or --max-n) if this is intentional")


def check_fixed(n: int, name: str, what: str) -> None:
    """Refuse n above DEFAULTS.<name>, a limit no setting moves."""
    if n > (cap := getattr(DEFAULTS, name)):
        raise BudgetError(f"{what}={n} exceeds the fixed limit {name}={cap}; "
                          "HECKE_LAB_MAX_N and --max-n do not change it")
