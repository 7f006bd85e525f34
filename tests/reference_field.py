"""Componentwise vector arithmetic over Z_p, the reference the tests check
FieldCtx.combine and the schemes' linear combinations against."""

from __future__ import annotations

from typing import Sequence


def vec_add(ctx, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    p = ctx.p
    return tuple((x + y) % p for x, y in zip(a, b, strict=True))


def vec_sub(ctx, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    p = ctx.p
    return tuple((x - y) % p for x, y in zip(a, b, strict=True))


def vec_scale(ctx, a: Sequence[int], c: int) -> tuple[int, ...]:
    if c == 1:
        return tuple(a)
    p = ctx.p
    return tuple(x * c % p for x in a)


def in_one_slot(terms) -> tuple[tuple, list]:
    """(c, vector) terms as the arguments of FieldCtx.combine: a step of (c, (0, i)) terms and
    the slots it reads, one slot holding the vectors in order."""
    terms = list(terms)
    return tuple((c, (0, i)) for i, (c, _) in enumerate(terms)), [[v for _, v in terms]]
