"""The projective line PG(1,q), Moebius maps, and the quadratic extension.

Points of PG(1,q) are either the singleton INF or a field element (an
int).  Moebius maps are stored as their 2x2 matrices over the field and
act projectively, so evaluation is total: a vanishing denominator gives
INF and INF itself maps through the leading coefficients.  Whether a
map's orbit of INF is full is read off powers of its own matrix over
GF(q) (`is_full_orbit`).

The module also owns GF(q^2), which only the coset construction
(`structure.chapman_build`) builds, represented as pairs (x0, x1) over
the base field modulo z^2 + z + a0 with a0 the smallest trace-1 element.
This basis makes the Frobenius x -> x^q the one-liner
(x0, x1) -> (x0 + x1, x1) and the relative trace T(x) = x + x^q simply
the second coordinate.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

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


# ---------------------------------------------------------------------------
# GF(q^2) as pairs over the base field


class QuadExtCtx:
    """GF(q^2) over a base FieldCtx, modulo z^2 + z + a0 with tr(a0) = 1.

    Elements are (x0, x1) pairs of base ints, meaning x0 + x1*zeta.
    Encoded as the int x0 | x1 << k where a total order is needed.
    """

    def __init__(self, base: FieldCtx):
        self.base = base
        # tr is the parity of x & tmask, so every x below tmask's lowest bit has trace 0
        self.a0 = base.tmask & -base.tmask
        self.order = base.q * base.q
        self._primitive: tuple[int, int] | None = None
        self._order_primes = list(factorize(self.order - 1))

    def __repr__(self) -> str:
        return f"QuadExtCtx(base={self.base!r}, a0={self.a0:#x})"

    ONE = (1, 0)

    def elements(self) -> Iterable[tuple[int, int]]:
        q = self.base.q
        return ((x0, x1) for x1 in range(q) for x0 in range(q))

    def encode(self, u: tuple[int, int]) -> int:
        return u[0] | u[1] << self.base.k

    def decode(self, e: int) -> tuple[int, int]:
        return e & (self.base.q - 1), e >> self.base.k

    def add(self, u, v):
        return u[0] ^ v[0], u[1] ^ v[1]

    def mul(self, u, v):
        # (x0 + x1 z)(y0 + y1 z) with z^2 = z + a0
        m = self.base.mul
        x0, x1 = u
        y0, y1 = v
        hi = m(x1, y1)
        return m(x0, y0) ^ m(hi, self.a0), m(x0, y1) ^ m(x1, y0) ^ hi

    def conj(self, u):
        """Frobenius x -> x^q; zeta^q = zeta + 1."""
        return u[0] ^ u[1], u[1]

    def trace_to_base(self, u) -> int:
        """T(x) = x + x^q, the relative trace onto the base field."""
        return u[1]

    def pow(self, u, e: int):
        return power(self.mul, (1, 0), u, e)

    def primitive_root(self) -> tuple[int, int]:
        """The primitive root with smallest encoding; cached, deterministic."""
        if self._primitive is None:
            n = self.order - 1
            for e in range(2, self.order):
                u = self.decode(e)
                if all(self.pow(u, n // p) != (1, 0) for p in self._order_primes):
                    self._primitive = u
                    break
            else:
                raise AssertionError("no primitive root found")
        return self._primitive


def lambda_of(ext: QuadExtCtx, a: int) -> tuple[int, int]:
    """The root lambda of z^2 + z + a in GF(q^2), for tr(a) = 1.

    Its conjugate lambda^q is the other root; lambda + lambda^q = 1 and
    lambda * lambda^q = a.
    """
    base = ext.base
    if base.trace(a) != 1:
        raise ValueError(
            f"tr({a:#x}) = 0: z^2+z+{a:#x} splits over the base field already")
    # lambda = x0 + zeta where x0^2 + x0 = a + a0 (solvable: both traces are 1)
    x0, _ = base.solve_artin_schreier(a ^ ext.a0)
    return (x0, 1)


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
