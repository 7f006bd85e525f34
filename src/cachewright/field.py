"""Prime-field arithmetic Z_p and the lossless byte <-> symbol codec.

The delivery phase scales subfiles by rationals such as 1/2 and 1/m for
m <= K-1, so the modulus must be an odd prime larger than the user count.
The default modulus 257 additionally maps every byte to one symbol, which
keeps file round trips trivially lossless.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Iterable, Sequence

from .errors import DivisionByZero, EvenModulus, LengthMismatch, NotPrime, SymbolOutOfByteRange

Symbol = int

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
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
    """The field Z_p for an odd prime p. Immutable, safe to share."""

    p: int

    def add(self, a: Symbol, b: Symbol) -> Symbol:
        return (a + b) % self.p

    def sub(self, a: Symbol, b: Symbol) -> Symbol:
        return (a - b) % self.p

    def mul(self, a: Symbol, b: Symbol) -> Symbol:
        return (a * b) % self.p

    def neg(self, a: Symbol) -> Symbol:
        return (-a) % self.p

    def inv(self, a: Symbol) -> Symbol:
        if a % self.p == 0:
            raise DivisionByZero("cannot invert 0")
        return pow(a, self.p - 2, self.p)

    def scale_rational(self, a: Symbol, q: Fraction) -> Symbol:
        """a * u * v^-1 mod p for q = u/v; requires gcd(v, p) = 1."""
        if q.denominator % self.p == 0:
            raise DivisionByZero(f"denominator of {q} vanishes mod {self.p}")
        return a * q.numerator % self.p * self.inv(q.denominator % self.p) % self.p


def make_field(p: int) -> FieldCtx:
    """Build a field context, insisting on an odd prime modulus."""
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


def vec_combine(ctx: FieldCtx,
                terms: Iterable[tuple[int, Sequence[Symbol]]]) -> tuple[Symbol, ...]:
    """Sum of c * v over the (c, v) terms, reduced mod p once at the end.

    Coefficients may be any integers; every scheme's placement, delivery and
    decoding runs through here.
    """
    acc = None
    for c, v in terms:
        scaled = v if c == 1 else [c * x for x in v]
        if acc is None:
            acc = scaled
        elif len(scaled) != len(acc):
            raise LengthMismatch(f"cannot combine vectors of lengths {len(acc)} and {len(v)}")
        else:
            acc = list(map(add, acc, scaled))
    p = ctx.p
    return tuple([a % p for a in acc])


# Componentwise reference helpers, kept for the tests to check vec_combine by.

def vec_add(ctx: FieldCtx, a: Sequence[Symbol], b: Sequence[Symbol]) -> tuple[Symbol, ...]:
    p = ctx.p
    return tuple((x + y) % p for x, y in zip(a, b, strict=True))


def vec_sub(ctx: FieldCtx, a: Sequence[Symbol], b: Sequence[Symbol]) -> tuple[Symbol, ...]:
    p = ctx.p
    return tuple((x - y) % p for x, y in zip(a, b, strict=True))


def vec_scale(ctx: FieldCtx, a: Sequence[Symbol], c: Symbol) -> tuple[Symbol, ...]:
    if c == 1:
        return tuple(a)
    p = ctx.p
    return tuple(x * c % p for x in a)


def encode_bytes(data: bytes, ctx: FieldCtx) -> tuple[Symbol, ...]:
    """One byte per symbol; injective because p >= 257."""
    if ctx.p < 257:
        raise SymbolOutOfByteRange(f"p = {ctx.p} < 257 cannot hold a byte per symbol")
    return tuple(data)


def decode_bytes(symbols: Iterable[Symbol]) -> bytes:
    """Inverse of encode_bytes; refuses symbols that cannot be plain bytes."""
    out = bytearray()
    for s in symbols:
        if not 0 <= s < 256:
            raise SymbolOutOfByteRange(f"symbol {s} is not a byte; content is coded")
        out.append(s)
    return bytes(out)


def coded_to_wire(symbols: Iterable[Symbol]) -> bytes:
    """Serialize coded symbols: two 8-bit units per symbol, big-endian."""
    out = bytearray()
    for s in symbols:
        if not 0 <= s < 65536:
            raise SymbolOutOfByteRange(f"symbol {s} does not fit two wire bytes")
        out.append(s >> 8)
        out.append(s & 0xFF)
    return bytes(out)


def wire_to_coded(data: bytes) -> tuple[Symbol, ...]:
    if len(data) % 2:
        raise SymbolOutOfByteRange("coded wire data must have even length")
    return tuple((data[i] << 8) | data[i + 1] for i in range(0, len(data), 2))
