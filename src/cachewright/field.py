"""Prime-field arithmetic Z_p and its vectors, whose form FieldCtx.pack alone decides.

The delivery phase scales subfiles by rationals such as 1/2 and 1/m for
m <= K-1, so the modulus must be an odd prime larger than the user count.
The default modulus 257 additionally maps every byte to one symbol, which
keeps file round trips trivially lossless; join_bytes reads the symbols back.
FieldCtx.combine sums a step of (c, (slot, key)) terms, reading each vector
as slots[slot][key].
A vector packed from bytes keeps them for bytes() alone and becomes lanes the
first time its symbols are read, so a subfile that is only copied is never
packed and joins back as its own bytes.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterable, Sequence

from .errors import (ConfigMismatch, DivisionByZero, EvenModulus, LengthMismatch, NotPrime,
                     SymbolOutOfByteRange)

Symbol = int

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981  # the least strong pseudoprime to them all


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below _MR_EXACT_BELOW, about 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldCtx:
    """The field Z_p for an odd prime p, and the owner of its vectors. Immutable, safe to share."""

    p: int

    def inv(self, a: Symbol) -> Symbol:
        if a % self.p == 0:
            raise DivisionByZero("cannot invert 0")
        return pow(a, self.p - 2, self.p)

    def combine(self, step: Sequence[tuple[int, tuple]], slots: Sequence) -> Sequence[Symbol]:
        """Sum of c * slots[slot][key] over the step's (c, (slot, key)) terms, for any integers
        c, reduced mod p once at the end.

        Every scheme's placement, delivery and decoding runs through here. At p = 257 the packed
        kernel reads each of up to _PACKED_MAX_TERMS terms' vectors from the slots once; others
        take the list path, given the vectors.
        """
        if not step:
            raise LengthMismatch("no vectors to combine")
        if self.p == 257 and len(step) <= _PACKED_MAX_TERMS:
            return _combine_packed(step, slots)
        return _combine_list(self.p, _read(step, slots))

    def split(self, data: bytes | Sequence[Symbol], count: int) -> tuple[list, int]:
        """data zero-padded and cut into count parts of one length n >= 1, each made by pack; and n.

        bytes are one symbol each, so p must be at least 257. Only the tail is copied to pad it.
        """
        if isinstance(data, (bytes, bytearray)):
            if self.p < 257:
                raise SymbolOutOfByteRange(f"p = {self.p} < 257 cannot hold a byte per symbol")
            zero = b"\0"
        else:
            data, zero = tuple(data), (0,)
        n = max(1, -(-len(data) // count))
        parts = (data[i:i + n] for i in range(0, n * count, n))
        return [self.pack(part + zero * (n - len(part))) for part in parts], n

    def pack(self, symbols: bytes | Sequence[Symbol]) -> Sequence[Symbol]:
        """The symbols, each in [0, p) by one min/max test at every prime, in the one form this
        code decides: at 257 canonical Lanes (bytes all pass; packed on first use), else a tuple."""
        n = len(symbols)
        if self.p == 257 and isinstance(symbols, (bytes, bytearray)):
            return Lanes(None, n, data=bytes(symbols))
        symbols = tuple(symbols)
        if symbols and not (0 <= min(symbols) and max(symbols) < self.p):
            bad = next(s for s in symbols if not 0 <= s < self.p)
            raise ConfigMismatch(f"symbol {bad} is not in Z_{self.p}, [0, {self.p})")
        if self.p == 257:
            return Lanes(int.from_bytes(array(_LANE, symbols), sys.byteorder), n)
        return symbols


def make_field(p: int) -> FieldCtx:
    """Build a field context, insisting on an odd prime modulus that is_prime decides exactly."""
    if p >= _MR_EXACT_BELOW:
        raise NotPrime(f"{p} is not below {_MR_EXACT_BELOW}, so it cannot be proved prime")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p == 2:
        raise EvenModulus("p = 2 cannot divide by 2")
    return FieldCtx(p)


def default_modulus(k: int) -> int:
    """257 while it exceeds the user count, else the smallest odd prime > k."""
    if k <= 256:
        return 257
    p = k + 1 + (k % 2)
    while not is_prime(p):
        p += 2
    return p


def _read(step: Sequence[tuple[int, tuple]], slots: Sequence) -> list[tuple[int, Sequence]]:
    """The step's terms as (c, vector) pairs, each vector read from its slot."""
    return [(c, slots[s][key]) for c, (s, key) in step]


def _combine_list(p: int, terms: list[tuple[int, Sequence[Symbol]]]) -> tuple[Symbol, ...]:
    """The list path of FieldCtx.combine, on (c, vector) pairs."""
    (c, v), *rest = terms
    acc = v if c == 1 else [c * x for x in v]
    for c, v in rest:
        scaled = v if c == 1 else [c * x for x in v]
        if len(scaled) != len(acc):
            raise LengthMismatch(f"cannot combine vectors of lengths {len(acc)} and {len(v)}")
        acc = list(map(add, acc, scaled))
    return tuple([a % p for a in acc])


# The packed kernel for p = 257. Each Lanes holds one 32-bit lane per symbol in
# one Python int, so a term costs one big-int multiply and add, and carries an
# exact bound on every lane: 256 from pack, and sum (c mod 257) * bound for a
# combine, summed beside the multiply-adds. A sum whose bound stays below 2**32
# cannot carry from one lane into the next, so the kernel keeps it, congruent
# mod 257 to its symbols; one whose bound reaches 2**32 is summed again from the
# terms' canonical values (Lanes.value), bound 256 each: 65535 * 256 * 256 < 2**32.
_PACKED_MAX_TERMS = 2 ** 16 - 1
_LANE = next(code for code in "IL" if array(code).itemsize == 4)
_LOW_BYTE = 0 if sys.byteorder == "little" else 3  # where a lane's low byte sits


@lru_cache(maxsize=2)  # at 1 MiB a file's masks take 2 MiB; a run uses one or two lengths
def _lane_masks(n: int) -> tuple[int, int, int, int, int]:
    """For n lanes, each lane set to 1, 0xFF, 0xFFFF, 257, and 2**8."""
    ones = ((1 << 32 * n) - 1) // 0xFFFFFFFF
    return ones, 0xFF * ones, 0xFFFF * ones, 257 * ones, ones << 8


def _spread(data: bytes) -> int:
    """The bytes written into the low bytes of as many 32-bit lanes, as one int."""
    lanes = bytearray(4 * len(data))
    lanes[_LOW_BYTE::4] = data
    return int.from_bytes(lanes, sys.byteorder)


class Lanes:
    """n symbols mod 257 in the 32-bit lanes of one int; immutable as a sequence.

    bound is at least every lane and below 2**32, and each lane is congruent mod 257
    to its symbol. FieldCtx.pack builds canonical Lanes, bound 256; from bytes it keeps
    the bytes for bytes() alone, and the first read of value (by the packed kernel,
    iteration, indexing or ==) spreads them into the int, once. _combine_packed builds the
    others with the bound of their sum. Reads as the tuple of its symbols (len,
    iteration, indexing, ==), unpacking on each read; the first read of value makes
    every lane canonical, once, in place.
    """

    __slots__ = ("_lanes", "_bytes", "bound", "n")

    def __init__(self, lanes: int | None, n: int, bound: int = 256, *,
                 data: bytes | None = None):
        self._lanes = lanes
        self._bytes = data
        self.bound = bound
        self.n = n

    @property
    def value(self) -> int:
        """The lanes as one int, every lane in [0, 257)."""
        if self._lanes is None:
            self._lanes = _spread(self._bytes)
        elif self.bound > 256:
            ones, m8, m16, b257, _ = _lane_masks(self.n)
            # each step drops the int it replaces, so few lane-wide temporaries live at once
            acc, self._lanes = self._lanes, None
            for _ in range(2):  # 2**16 = 1 (mod 257): every lane below 2**17, then <= 65535
                acc = (acc & m16) + (acc >> 16 & m16)
            # 2**8 = -1 (mod 257), biased by 257 so every lane stays in [2, 512]
            acc = (acc & m8) + b257 - (acc >> 8 & m16)
            # adding 255 carries into bit 9 exactly when a lane is >= 257
            self._lanes = acc - 257 * ((acc + m8) >> 9 & ones)
            self.bound = 256
        return self._lanes

    def __len__(self) -> int:
        return self.n

    def _symbols(self) -> tuple[Symbol, ...]:
        out = array(_LANE)
        out.frombytes(self.value.to_bytes(4 * self.n, sys.byteorder))
        return tuple(out)

    def __iter__(self):
        return iter(self._symbols())

    def __getitem__(self, index):
        return self._symbols()[index]

    def __eq__(self, other):
        if isinstance(other, Lanes):
            return self.n == other.n and self.value == other.value
        return self._symbols() == other if isinstance(other, tuple) else NotImplemented

    def __bytes__(self) -> bytes:
        if self._bytes is not None:
            return self._bytes
        value = self.value
        # below 257, only a lane of 256 has bit 8 set
        if value & _lane_masks(self.n)[4]:
            raise ValueError("bytes must be in range(0, 256)")
        return value.to_bytes(4 * self.n, sys.byteorder)[_LOW_BYTE::4]


def _combine_packed(step: Sequence[tuple[int, tuple]], slots: Sequence) -> Lanes:
    """FieldCtx.combine mod 257 of up to _PACKED_MAX_TERMS terms, on lanes if every vector
    the step reads from the slots is Lanes; one pass, each vector read where it is summed."""
    _, (s, key) = step[0]
    n = getattr(slots[s][key], "n", None)
    acc = bound = 0
    for c, (s, key) in step:
        v = slots[s][key]
        if not isinstance(v, Lanes):  # a term the kernel cannot read: all take the list path
            return _combine_list(257, _read(step, slots))
        if v.n != n:
            raise LengthMismatch(f"cannot combine vectors of lengths {n} and {v.n}")
        c %= 257
        lanes = v._lanes
        if lanes is None:  # bytes not read yet: value spreads them into canonical lanes
            lanes = v.value
        acc += c * lanes
        bound += c * v.bound
    if bound >> 32:  # lanes may have carried: sum again from canonical terms
        acc = sum(c % 257 * v.value for c, v in _read(step, slots))
        bound = 256 * sum(c % 257 for c, _ in step)
    return Lanes(acc, n, bound)


def join_bytes(pieces: Sequence[Sequence[Symbol]]) -> bytes:
    """The pieces laid end to end as bytes, inverting FieldCtx.split of bytes; refuses symbols
    that cannot be plain bytes. A Lanes piece packed from bytes is those bytes."""
    try:
        return b"".join(map(bytes, pieces))
    except ValueError:
        bad = next(s for piece in pieces for s in piece if not 0 <= s < 256)
        raise SymbolOutOfByteRange(f"symbol {bad} is not a byte; content is coded") from None


def coded_to_wire(symbols: Iterable[Symbol]) -> bytes:
    """Serialize coded symbols: two 8-bit units per symbol, big-endian."""
    out = bytearray()
    for s in symbols:
        if not 0 <= s < 65536:
            raise SymbolOutOfByteRange(f"symbol {s} does not fit two wire bytes")
        out.append(s >> 8)
        out.append(s & 0xFF)
    return bytes(out)

