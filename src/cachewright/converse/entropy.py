"""Random variables and the keys of linear combinations of joint entropy terms.

Random variables come in three flavours: a file W_n, a cache Z_l, and a
broadcast X_i for the i-th demand of a certificate's demand table. A linear
combination maps keys to coefficients: a variable set stands for its joint
entropy, and M, R and CONST for the cache budget, the rate and a constant.

A variable is its int code kind << 32 | idx, kinds ordered W, Z, X: var
builds one, kind_of and index_of read it back. So the frozensets that key a
combination hash, compare and sort in C, in the order of certificate text.
Constructors, parsing and text go through bounded memos; a malformed token is
never kept and always raises.
"""

from __future__ import annotations

from functools import lru_cache, partial

_KIND_ORDER = {"W": 0, "Z": 1, "X": 2}
M, R, CONST = "M", "R", "1"


def natural(token: str) -> int:
    """A whole number of certificate text: ASCII digits, no sign, '_' or leading zero."""
    if token.isdigit() and token.isascii() and (token[0] != "0" or token == "0"):
        return int(token)
    raise ValueError(f"{token!r} is not a plain decimal number")


def kind_of(code: int) -> str:
    if not 0 <= code < 3 << 32:
        raise ValueError(f"{code!r} is not a variable code")
    return "WZX"[code >> 32]


def index_of(code: int) -> int:
    return code & 0xFFFFFFFF


def var(kind: str, idx: int) -> int:
    """The code of one random variable: kind 'W' (file), 'Z' (cache), or 'X' (broadcast)."""
    if kind not in _KIND_ORDER or not 0 <= idx < 1 << 32:
        raise ValueError(f"no variable ({kind!r}, {idx!r}): kinds W, Z, X, index below 2**32")
    return _KIND_ORDER[kind] << 32 | idx


@lru_cache(maxsize=4096)
def parse_var(token: str) -> int:
    if token[:1] not in _KIND_ORDER:
        raise ValueError(f"bad variable token {token!r}")
    return var(token[0], natural(token[1:]))


VarSet = frozenset
wvar, zvar, xvar = (lru_cache(maxsize=4096)(partial(var, kind)) for kind in _KIND_ORDER)


def wset(count: int) -> VarSet:
    """The file collection {W_1, ..., W_count}; empty for count 0."""
    return frozenset(map(wvar, range(1, count + 1)))


@lru_cache(maxsize=4096)
def _var_text(code: int) -> str:
    return kind_of(code) + str(index_of(code))


def varset_token(vs: VarSet) -> str:
    return ",".join(map(_var_text, sorted(vs))) if vs else "-"


def parse_varset(token: str) -> VarSet:
    if token == "-":
        return frozenset()
    names = token.split(",")
    vs = frozenset(map(parse_var, names))
    if len(vs) != len(names):
        raise ValueError(f"{token!r} names a variable twice")
    return vs
