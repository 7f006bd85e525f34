"""Random variables and the keys of linear combinations of joint entropy terms.

Random variables come in three flavours: a file W_n, a cache Z_l, and a
broadcast X_i for the i-th demand of a certificate's demand table. A linear
combination maps keys to coefficients: a variable set stands for its joint
entropy, and M, R and CONST for the cache budget, the rate and a constant.

A variable is a named (kind, idx) tuple, so hashing and comparing the
frozensets that key a combination run in C. Token parsing goes through a
bounded memo that holds only tokens that parsed: a malformed token raises
every time it is read.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import NamedTuple

_KIND_ORDER = {"W": 0, "Z": 1, "X": 2}
M, R, CONST = "M", "R", "1"


def natural(token: str) -> int:
    """A whole number of certificate text: ASCII digits, no sign, '_' or leading zero."""
    if token.isdigit() and token.isascii() and (token[0] != "0" or token == "0"):
        return int(token)
    raise ValueError(f"{token!r} is not a plain decimal number")


class Var(NamedTuple):
    """One random variable: kind 'W' (file), 'Z' (cache), or 'X' (broadcast)."""

    kind: str
    idx: int

    def sort_key(self) -> tuple[int, int]:
        return _KIND_ORDER[self.kind], self.idx

    @staticmethod
    @lru_cache(maxsize=4096)
    def parse(token: str) -> "Var":
        if token[:1] not in _KIND_ORDER:
            raise ValueError(f"bad variable token {token!r}")
        return Var(token[0], natural(token[1:]))


VarSet = frozenset


def wvar(n: int) -> Var:
    return Var("W", n)


def zvar(l: int) -> Var:
    return Var("Z", l)


def xvar(demand_id: int) -> Var:
    return Var("X", demand_id)


def wset(count: int) -> VarSet:
    """The file collection {W_1, ..., W_count}; empty for count 0."""
    return frozenset(wvar(i) for i in range(1, count + 1))


def varset_token(vs: VarSet) -> str:
    if not vs:
        return "-"
    # tuple order runs the kinds W, X, Z; the text lists them W, Z, X
    ordered = sorted(vs)
    x, z = bisect_left(ordered, ("X",)), bisect_left(ordered, ("Z",))
    return ",".join(["%s%d" % v for v in ordered[:x] + ordered[z:] + ordered[x:z]])


def parse_varset(token: str) -> VarSet:
    if token == "-":
        return frozenset()
    names = token.split(",")
    vs = frozenset(map(Var.parse, names))
    if len(vs) != len(names):
        raise ValueError(f"{token!r} names a variable twice")
    return vs
