"""The projective line PG(1,q) and Moebius maps.

Points of PG(1,q) are either the singleton INF or a field element (an
int).  Moebius maps are stored as their 2x2 matrices over the field and
act projectively, so evaluation is total: a vanishing denominator gives
INF and INF itself maps through the leading coefficients.  Whether a
map's orbit of INF is full is read off powers of its own matrix over
GF(q) (`is_full_orbit`).  The module builds no other field: GF(q^2),
which only the coset construction needs, is the FieldCtx of degree 2k
that `structure.chapman_build` builds.
"""

from __future__ import annotations

from typing import NamedTuple

from .gf2k import FieldCtx, factorize, power


class _Infinity:
    """The point at infinity; a process-wide singleton."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()


def vertex_index(ctx: FieldCtx, p) -> int:
    """Index of a point in the fixed enumeration: INF -> 0, then x -> 1+x by encoding."""
    if p is INF:
        return 0
    return 1 + ctx.check_elem(p)


def point_of_index(ctx: FieldCtx, i: int):
    if i == 0:
        return INF
    if 1 <= i <= ctx.q:
        return i - 1
    raise ValueError(f"vertex index {i} out of range for order {ctx.q + 1}")


class MobiusMap(NamedTuple):
    """Matrix (m00 m01 / m10 m11) of the map z -> (m00 z + m01)/(m10 z + m11)."""

    m00: int
    m01: int
    m10: int
    m11: int


def apply(ctx: FieldCtx, m: MobiusMap, p):
    """Evaluate the map at a point of PG(1,q); never fails."""
    if p is INF:
        num, den = m.m00, m.m10
    else:
        num = ctx.mul(m.m00, p) ^ m.m01
        den = ctx.mul(m.m10, p) ^ m.m11
    if den == 0:
        return INF
    return ctx.div(num, den)


def alpha_of(ctx: FieldCtx, a: int) -> MobiusMap:
    """The fixed-point-free map z -> a/(z+1); requires tr(a) = 1."""
    ctx.check_elem(a)
    if ctx.trace(a) != 1:
        raise ValueError(f"alpha parameter needs trace 1, tr({a:#x}) = 0")
    return MobiusMap(0, a, 1, 1)


def is_full_orbit(ctx: FieldCtx, m: MobiusMap) -> bool:
    """Whether the m-orbit of INF has full length q+1, for m = alpha_a or
    sigma_b = alpha_a + b I with tr(a) = 1.

    The characteristic polynomial of such an m is irreducible over GF(q),
    so m lies in a cyclic torus of PGL(2, q) of order q+1, and no
    non-identity element of that torus fixes a point of PG(1, q): the
    orbit length of INF is the order of m.  It is q+1 exactly when, for
    every prime p | q+1, m^((q+1)/p) moves INF, that is, the lower-left
    entry of its matrix is nonzero.
    """
    mul = ctx.mul

    def product(u: MobiusMap, v: MobiusMap) -> MobiusMap:
        return MobiusMap(
            mul(u.m00, v.m00) ^ mul(u.m01, v.m10), mul(u.m00, v.m01) ^ mul(u.m01, v.m11),
            mul(u.m10, v.m00) ^ mul(u.m11, v.m10), mul(u.m10, v.m01) ^ mul(u.m11, v.m11))

    n = ctx.q + 1
    return all(power(product, MobiusMap(1, 0, 0, 1), m, n // p).m10 for p in factorize(n))


def find_generator_a(ctx: FieldCtx) -> int:
    """Smallest trace-1 element whose alpha-orbit of INF has full length q+1."""
    # every a below tmask's lowest bit has trace 0
    for a in range(ctx.tmask & -ctx.tmask, ctx.q):
        if ctx.trace(a) == 1 and is_full_orbit(ctx, MobiusMap(0, a, 1, 1)):
            return a
    raise AssertionError(f"no full-orbit parameter found in GF(2^{ctx.k})")
