"""Axiom instances a certificate may combine, with their side conditions.

Every instance renders to a linear combination asserted >= 0 (inequalities)
or = 0 (equalities) over the variables of one demand table:

  Submodularity      H(A) + H(B) - H(A u B) - H(A n B) >= 0
  Monotonicity       H(sup) - H(sub) >= 0 for sub subset of sup
  CacheBound         M - H(Z_l) >= 0
  RateBound          R - H(X_i) >= 0
  Decodability       H(S u {W_d_l}) - H(S) = 0 when Z_l, X_i in S
  Totality           H(S) - N = 0 when all N files lie in S
  FileIndependence   H(W_T) - |T| = 0 for file subsets T
  PermSymmetry       H(S) - H(pi S) = 0, pi relabelling users and demands
  FileSymmetry       H(W_a, Z_l) - H(W_b, Z_l) = 0

Each kind declares its fields once, typed VarSet (a frozenset of int variable
codes), User, DemandId, File or Perm; the table _FIELDS says how each type is
written in certificate text, read back and range-checked, so a kind keeps only
its terms, which refuse an instance that breaks its side conditions, as when
PermSymmetry's pi sends a broadcast in S to a demand outside the table.
"""

from dataclasses import dataclass, fields
from typing import Callable, NamedTuple, NewType, Sequence

from .entropy import (CONST, M, R, VarSet, index_of, kind_of, natural, parse_varset,
                      varset_token, wvar, xvar, zvar)

User = NewType("User", int)
DemandId = NewType("DemandId", int)
File = NewType("File", int)
Perm = NewType("Perm", tuple)


class OutsideTable(ValueError):
    """A symmetry sends some broadcast to a demand the table lacks."""


def _bounded(what: str, bound: Callable) -> Callable:
    def check(i: int, table) -> None:
        if not 1 <= i <= bound(table):
            raise ValueError(f"{what} {i} outside [1, {bound(table)}]")
    return check


_user = _bounded("user", lambda t: t.k)
_file = _bounded("file index", lambda t: t.n)
_demand_id = _bounded("demand id", lambda t: len(t.demands))
_VAR_RANGE = {"W": _file, "Z": _bounded("cache index", lambda t: t.k), "X": _demand_id}


def _check_vars(vs: VarSet, table) -> None:
    admitted = table.admitted
    if vs <= admitted and {*map(type, vs)} <= {int}:
        return
    for v in vs:
        if type(v) is not int:
            raise ValueError(f"{v!r} is not a variable")
        _VAR_RANGE[kind_of(v)](index_of(v), table)   # raises for a code the table lacks
    admitted |= vs


def _check_perm(perm: Perm, table) -> None:
    if sorted(perm) != list(range(1, table.k + 1)):
        raise ValueError(f"{perm} is not a permutation of [1, {table.k}]")


class _Field(NamedTuple):
    write: Callable[[object], str]
    read: Callable[[str], object]
    check: Callable[[object, object], None]


_FIELDS = {
    VarSet: _Field(varset_token, parse_varset, _check_vars),
    User: _Field(str, natural, _user),
    DemandId: _Field(str, natural, _demand_id),
    File: _Field(str, natural, _file),
    Perm: _Field(lambda p: ",".join(map(str, p)),
                 lambda t: tuple(map(natural, t.split(","))), _check_perm),
}

_KINDS: dict[str, type] = {}


class Axiom:
    """Text form and range checks of every kind, derived from its declared fields."""

    kind: str
    equality: bool
    spec: tuple[tuple[str, _Field], ...]

    def tokens(self) -> list[str]:
        return [f.write(getattr(self, name)) for name, f in self.spec]

    def validate(self, table) -> None:
        for name, f in self.spec:
            f.check(getattr(self, name), table)

    def terms(self, table) -> Sequence[tuple]:
        """(key, integer coefficient) pairs: a variable set, or M, R or CONST.
        Raises ValueError for an instance that breaks its kind's side conditions."""
        raise NotImplementedError


def _kind(kind: str, equality: bool) -> Callable:
    """Make a frozen dataclass of an axiom kind and register its text name."""
    def register(cls):
        # f.type is the annotation object itself because this module does not
        # postpone the evaluation of annotations
        cls = dataclass(frozen=True)(cls)
        cls.kind, cls.equality = kind, equality
        cls.spec = tuple((f.name, _FIELDS[f.type]) for f in fields(cls))
        _KINDS[kind] = cls
        return cls
    return register


def axiom_from_tokens(kind: str, tokens: list[str]) -> Axiom:
    if kind not in _KINDS:
        raise ValueError(f"unknown axiom kind {kind!r}")
    cls = _KINDS[kind]
    if len(tokens) != len(cls.spec):
        raise ValueError(f"{kind} takes {len(cls.spec)} fields, got {len(tokens)}")
    return cls(*(f.read(t) for (_, f), t in zip(cls.spec, tokens)))


@_kind("SUBMOD", equality=False)
class Submodularity(Axiom):
    a: VarSet
    b: VarSet

    def terms(self, table):
        if not self.a or not self.b:
            raise ValueError("submodularity needs two nonempty sets")
        return (self.a, 1), (self.b, 1), (self.a | self.b, -1), (self.a & self.b, -1)


@_kind("MONO", equality=False)
class Monotonicity(Axiom):
    sup: VarSet
    sub: VarSet

    def terms(self, table):
        if not self.sup:
            raise ValueError("monotonicity needs a nonempty superset")
        if not self.sub <= self.sup:
            raise ValueError("second set is not contained in the first")
        return (self.sup, 1), (self.sub, -1)


@_kind("CACHE", equality=False)
class CacheBound(Axiom):
    user: User

    def terms(self, table):
        return (M, 1), (frozenset({zvar(self.user)}), -1)


@_kind("RATE", equality=False)
class RateBound(Axiom):
    demand_id: DemandId

    def terms(self, table):
        return (R, 1), (frozenset({xvar(self.demand_id)}), -1)


@_kind("DECODE", equality=True)
class Decodability(Axiom):
    user: User
    demand_id: DemandId
    s: VarSet

    def terms(self, table):
        if zvar(self.user) not in self.s:
            raise ValueError(f"Z{self.user} missing from the conditioning set")
        if xvar(self.demand_id) not in self.s:
            raise ValueError(f"X{self.demand_id} missing from the conditioning set")
        wanted = wvar(table.demands[self.demand_id - 1][self.user - 1])
        return (self.s | {wanted}, 1), (self.s, -1)


@_kind("TOTAL", equality=True)
class Totality(Axiom):
    s: VarSet

    def terms(self, table):
        if sum(kind_of(v) == "W" for v in self.s) != table.n:   # members are distinct, in range
            raise ValueError("set does not contain every file")
        return (self.s, 1), (CONST, -table.n)


@_kind("FILEIND", equality=True)
class FileIndependence(Axiom):
    files: VarSet

    def terms(self, table):
        if not self.files:
            raise ValueError("needs a nonempty file set")
        if any(kind_of(v) != "W" for v in self.files):
            raise ValueError("only file variables allowed")
        return (self.files, 1), (CONST, -len(self.files))


@_kind("PERMSYM", equality=True)
class PermSymmetry(Axiom):
    perm: Perm
    s: VarSet

    def permuted_demand(self, demand: Sequence[int]) -> tuple[int, ...]:
        out = [0] * len(self.perm)
        for user, image in enumerate(self.perm, start=1):
            out[image - 1] = demand[user - 1]
        return tuple(out)

    def image(self, table) -> VarSet:
        out = set()
        for v in self.s:
            if kind_of(v) == "Z":
                out.add(zvar(self.perm[index_of(v) - 1]))
            elif kind_of(v) == "X":
                moved = self.permuted_demand(table.demands[index_of(v) - 1])
                if (moved_id := table.ids.get(moved)) is None:
                    raise OutsideTable(
                        f"permutation sends demand {index_of(v)} to {moved}, not in the table")
                out.add(xvar(moved_id))
            else:
                out.add(v)
        return frozenset(out)

    def terms(self, table):
        return (self.s, 1), (self.image(table), -1)


@_kind("FILESYM", equality=True)
class FileSymmetry(Axiom):
    file_a: File
    file_b: File
    user: User

    def terms(self, table):
        z = zvar(self.user)
        return (frozenset({wvar(self.file_a), z}), 1), (frozenset({wvar(self.file_b), z}), -1)
