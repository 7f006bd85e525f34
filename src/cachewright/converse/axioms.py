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

Each kind is a NamedTuple that declares its fields once, typed VarSet (a
frozenset of int variable codes), User, DemandId, File or Perm; the table _FIELDS
says how each type is written in certificate text, read back and checked, one value
or, for fields_valid, a whole column at a time. So a kind keeps only its terms,
which refuse an instance that breaks its side conditions, as when PermSymmetry's pi
sends a broadcast in S to a demand outside the table. Two instances are equal only
when their kinds and fields are.
"""

from itertools import chain
from typing import Callable, NamedTuple, NewType, Sequence

from .entropy import (CONST, M, R, VarSet, index_of, kind_of, natural, parse_varset,
                      varset_token, wvar, xvar, zvar)

User = NewType("User", int)
DemandId = NewType("DemandId", int)
File = NewType("File", int)
Perm = NewType("Perm", tuple)


class OutsideTable(ValueError):
    """A symmetry sends some broadcast to a demand the table lacks."""


class _Field(NamedTuple):
    write: Callable[[object], str]
    read: Callable[[str], object]
    check: Callable[[object, object], None]
    column: Callable[[list, object], bool]   # True only when check passes on every value


def _bounded(what: str, bound: Callable) -> Callable:
    def check(i: int, table) -> None:
        if type(i) is not int:
            raise ValueError(f"{what} {i!r} is not an int")
        if not 1 <= i <= bound(table):
            raise ValueError(f"{what} {i} outside [1, {bound(table)}]")
    return check


def _int_field(what: str, bound: Callable) -> _Field:
    def column(values: list, table) -> bool:
        return {*map(type, values)} == {int} and 1 <= min(values) and max(values) <= bound(table)
    return _Field(str, natural, _bounded(what, bound), column)


_USER = _int_field("user", lambda t: t.k)
_FILE = _int_field("file index", lambda t: t.n)
_DEMAND_ID = _int_field("demand id", lambda t: len(t.demands))
_VAR_RANGE = {"W": _FILE.check, "Z": _bounded("cache index", lambda t: t.k), "X": _DEMAND_ID.check}


def _check_vars(vs: VarSet, table) -> None:
    if type(vs) is not frozenset:
        raise ValueError(f"variable set {vs!r} is not a frozenset")
    for v in vs:
        if type(v) is not int:
            raise ValueError(f"{v!r} is not a variable")
        _VAR_RANGE[kind_of(v)](index_of(v), table)   # raises for a code the table lacks


def _vars_column(column: list, table) -> bool:
    members = chain.from_iterable(column)   # typed before a union, where True would pass as 1
    if {*map(type, column)} != {frozenset} or not {*map(type, members)} <= {int}:
        return False
    codes = frozenset().union(*column)
    spans = [range((kind << 32) + 1, (kind << 32) + min(bound, 0xFFFFFFFF) + 1)
             for kind, bound in enumerate((table.n, table.k, len(table.demands)))]
    # the spans are disjoint, so every code lies in one exactly when the counts add up
    return sum(sum(map(span.__contains__, codes)) for span in spans) == len(codes)


def _check_perm(perm: Perm, table) -> None:
    if type(perm) is not tuple or not {*map(type, perm)} <= {int}:
        raise ValueError(f"permutation {perm!r} is not a tuple of ints")
    if sorted(perm) != list(range(1, table.k + 1)):
        raise ValueError(f"{perm} is not a permutation of [1, {table.k}]")


def _perm_column(column: list, table) -> bool:
    if {*map(type, column)} != {tuple} or not {*map(type, chain.from_iterable(column))} <= {int}:
        return False
    return all(map(list(range(1, table.k + 1)).__eq__, map(sorted, set(column))))


_FIELDS = {
    VarSet: _Field(varset_token, parse_varset, _check_vars, _vars_column),
    User: _USER,
    DemandId: _DEMAND_ID,
    File: _FILE,
    Perm: _Field(lambda p: ",".join(map(str, p)),
                 lambda t: tuple(map(natural, t.split(","))), _check_perm, _perm_column),
}

_KINDS: dict[str, type] = {}


class Axiom:
    """Text form, range checks and equality of every kind, derived from its declared fields.
    Each kind's terms(table) gives (key, integer coefficient) pairs, a key being a variable
    set, M, R or CONST, and raises ValueError for an instance that breaks its side conditions."""

    __slots__ = ()
    kind: str
    equality: bool
    spec: tuple[_Field, ...]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:   # tuple's own __ne__ would ignore the kind
        return not self == other

    __hash__ = tuple.__hash__   # defining __eq__ alone would leave the kinds unhashable

    def tokens(self) -> list[str]:
        return [f.write(value) for f, value in zip(self.spec, self)]

    def validate(self, table) -> None:
        for f, value in zip(self.spec, self):
            f.check(value, table)


def _kind(kind: str, equality: bool) -> Callable:
    """Make an Axiom of a kind's NamedTuple and register its text name; the kind keeps the
    NamedTuple's name, so pickle finds it in this module."""
    def register(fields: type) -> type:
        # the annotations are the type objects themselves: this module does not postpone them
        _KINDS[kind] = cls = type(fields.__name__, (Axiom, fields), {
            "__slots__": (), "kind": kind, "equality": equality,
            "spec": tuple(_FIELDS[t] for t in fields.__annotations__.values())})
        return cls
    return register


def axiom_from_tokens(kind: str, tokens: list[str]) -> Axiom:
    if kind not in _KINDS:
        raise ValueError(f"unknown axiom kind {kind!r}")
    cls = _KINDS[kind]
    if len(tokens) != len(cls.spec):
        raise ValueError(f"{kind} takes {len(cls.spec)} fields, got {len(tokens)}")
    return cls._make([f.read(t) for f, t in zip(cls.spec, tokens)])


def fields_valid(axioms: Sequence[Axiom], table) -> bool:
    """True only when validate(table) passes for every one of axioms. The values of each field
    type, gathered from every kind, are checked as one column; False stands for anything that
    cannot be vouched for, such as an unregistered kind or a wrong arity. It never raises, so
    a caller that gets False validates axiom by axiom to find the first bad one."""
    if {type(table.n), type(table.k)} != {int}:
        return False
    groups: dict[type, list] = {}
    for axiom in axioms:
        groups.setdefault(type(axiom), []).append(axiom)
    columns: dict[_Field, list] = {f: [] for f in _FIELDS.values()}
    for cls, group in groups.items():
        if cls not in _KINDS.values() or {*map(len, group)} != {len(cls.spec)}:
            return False
        for f, column in zip(cls.spec, zip(*group)):
            columns[f] += column
    return all(f.column(column, table) for f, column in columns.items() if column)


@_kind("SUBMOD", equality=False)
class Submodularity(NamedTuple):
    a: VarSet
    b: VarSet

    def terms(self, table):
        if not self.a or not self.b:
            raise ValueError("submodularity needs two nonempty sets")
        return (self.a, 1), (self.b, 1), (self.a | self.b, -1), (self.a & self.b, -1)


@_kind("MONO", equality=False)
class Monotonicity(NamedTuple):
    sup: VarSet
    sub: VarSet

    def terms(self, table):
        if not self.sup:
            raise ValueError("monotonicity needs a nonempty superset")
        if not self.sub <= self.sup:
            raise ValueError("second set is not contained in the first")
        return (self.sup, 1), (self.sub, -1)


@_kind("CACHE", equality=False)
class CacheBound(NamedTuple):
    user: User

    def terms(self, table):
        return (M, 1), (frozenset({zvar(self.user)}), -1)


@_kind("RATE", equality=False)
class RateBound(NamedTuple):
    demand_id: DemandId

    def terms(self, table):
        return (R, 1), (frozenset({xvar(self.demand_id)}), -1)


@_kind("DECODE", equality=True)
class Decodability(NamedTuple):
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
class Totality(NamedTuple):
    s: VarSet

    def terms(self, table):
        if sum(kind_of(v) == "W" for v in self.s) != table.n:   # members are distinct, in range
            raise ValueError("set does not contain every file")
        return (self.s, 1), (CONST, -table.n)


@_kind("FILEIND", equality=True)
class FileIndependence(NamedTuple):
    files: VarSet

    def terms(self, table):
        if not self.files:
            raise ValueError("needs a nonempty file set")
        if any(kind_of(v) != "W" for v in self.files):
            raise ValueError("only file variables allowed")
        return (self.files, 1), (CONST, -len(self.files))


@_kind("PERMSYM", equality=True)
class PermSymmetry(NamedTuple):
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
class FileSymmetry(NamedTuple):
    file_a: File
    file_b: File
    user: User

    def terms(self, table):
        z = zvar(self.user)
        return (frozenset({wvar(self.file_a), z}), 1), (frozenset({wvar(self.file_b), z}), -1)
