"""Arithmetic in the binary fields GF(2^k).

Field elements are plain ints: the binary digits of an element are the
coordinates in the polynomial basis, least-significant bit = constant
term.  Zero and one are therefore literally 0 and 1, and addition is the
xor operator.  All other operations live on a FieldCtx object that holds
the extension degree k and the degree-k irreducible reduction polynomial
(also an int, with bit k set).

Default reduction polynomials (the numerically smallest irreducible
polynomial of each degree, verified at import against an exhaustive
factor search in the test suite):

    k=2  : z^2+z+1            0x7
    k=4  : z^4+z+1            0x13
    k=8  : z^8+z^4+z^3+z+1    0x11b
    k=12 : z^12+z^3+1         0x1009
    ...

The trace is F_2-linear, so at every k it is the parity of x masked by
tmask, whose bit i is the trace of the basis element z^i; a FieldCtx
computes tmask once, without tables.  At every k it lazily builds
exp and log tables, in array('I') (12 MiB at k = 20), and
multiplication and division then cost a few array lookups, which is
what the graph-construction inner loops run on.  The exp table walks
the powers of the generator g, each step x -> x g by two lookups of
_mul_raw products, one per half of the bits of x.  The tables stay
inside FieldCtx: callers read them through log_table(), exp_table()
and exp_traces(), the trace of each power of the generator.

Elements are printed in lowercase hex (e.g. 0x13 is z^4+z+1) everywhere
the package does I/O.
"""

from __future__ import annotations

from array import array
from collections import deque
from itertools import count

K_MAX = 20

# Numerically smallest irreducible polynomial of each degree over F_2.
DEFAULT_POLYS = {
    2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83,
    8: 0x11B, 9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009,
    13: 0x201B, 14: 0x4021, 15: 0x8003, 16: 0x1002B,
    17: 0x20009, 18: 0x40009, 19: 0x80027, 20: 0x100009,
}


def poly_degree(p: int) -> int:
    """Degree of a bit-polynomial (-1 for the zero polynomial)."""
    return p.bit_length() - 1


def poly_mod(p: int, m: int) -> int:
    """Remainder of bit-polynomial p modulo nonzero m."""
    dm = poly_degree(m)
    dp = poly_degree(p)
    while dp >= dm:
        p ^= m << (dp - dm)
        dp = poly_degree(p)
    return p


def is_irreducible(p: int) -> bool:
    """Exhaustive trial division by every polynomial of degree <= deg(p)/2."""
    k = poly_degree(p)
    if k < 1:
        return False
    if k == 1:
        return True  # z and z+1
    if p & 1 == 0:
        return False  # divisible by z
    for d in range(1, k // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if poly_mod(p, g) == 0:
                return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_PARITY = bytes(i & 1 for i in range(256))  # popcount byte to its parity


class FieldCtx:
    """The field GF(2^k) for a fixed reduction polynomial.

    Immutable after construction (the lazy lookup tables are an
    internal cache and do not change observable behaviour), so a
    context can be shared freely across threads.
    """

    def __init__(self, k: int, poly: int | None = None):
        if not 2 <= k <= K_MAX:
            raise ValueError(f"k must be between 2 and {K_MAX}, got {k}")
        if poly is None:
            poly = DEFAULT_POLYS[k]
        if poly < 0:
            raise ValueError(f"reduction polynomial {poly:#x} is negative")
        if poly_degree(poly) != k:
            raise ValueError(
                f"reduction polynomial {poly:#x} has degree {poly_degree(poly)}, want {k}")
        if not is_irreducible(poly):
            raise ValueError(f"reduction polynomial {poly:#x} is reducible")
        self.k = k
        self.q = 1 << k
        self.poly = poly
        self._exp2: array | None = None   # doubled exp table, length 2(q-1)
        self._log: array | None = None
        self._exp_traces: bytes | None = None
        self._as_rows: list[tuple[int, int, int]] | None = None
        self._generator: int | None = None
        # bit i of tmask is tr(z^i), the Frobenius sum of the basis element z^i
        tmask = 0
        for i in range(k):
            t = s = 1 << i
            for _ in range(k - 1):
                s = self._mul_raw(s, s)
                t ^= s
            if t > 1:
                raise AssertionError(f"trace of z^{i} is {t:#x}, not in F_2")
            tmask |= t << i
        self.tmask = tmask

    def __repr__(self) -> str:
        return f"FieldCtx(k={self.k}, poly={self.poly:#x})"

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and (self.k, self.poly) == (other.k, other.poly)

    def __hash__(self) -> int:
        return hash((self.k, self.poly))

    def elements(self) -> range:
        return range(self.q)

    def check_elem(self, x: int) -> int:
        if not 0 <= x < self.q:
            raise ValueError(f"{x:#x} is not an element of GF(2^{self.k})")
        return x

    # -- arithmetic --------------------------------------------------

    @staticmethod
    def add(x: int, y: int) -> int:
        return x ^ y

    def _mul_raw(self, x: int, y: int) -> int:
        """Carry-less multiply with interleaved reduction; no tables."""
        p = 0
        poly = self.poly
        top = self.q
        while y:
            if y & 1:
                p ^= x
            y >>= 1
            x <<= 1
            if x & top:
                x ^= poly
        return p

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        self._ensure_tables()
        return self._exp2[self._log[x] + self._log[y]]

    def sqr(self, x: int) -> int:
        return self.mul(x, x)

    def inv(self, x: int) -> int:
        return self.div(1, x)

    def div(self, x: int, y: int) -> int:
        if y == 0:
            raise ZeroDivisionError("0 has no inverse")
        if x == 0:
            return 0
        self._ensure_tables()
        return self._exp2[self._log[x] - self._log[y]]  # a negative index reads from the end

    def pow(self, x: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(x), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    # -- trace and the additive quadratic ----------------------------

    def trace(self, x: int) -> int:
        """tr(x) = x + x^2 + x^4 + ... + x^(q/2), an element of F_2."""
        return (x & self.tmask).bit_count() & 1

    def solve_artin_schreier(self, c: int) -> tuple[int, int]:
        """The two solutions (b, b+1) of x^2 + x = c, smallest first.

        Solvable exactly when tr(c) = 0; raises ValueError otherwise.
        Solving uses the echelonized F_2-linear system for x -> x^2 + x,
        built once per context.
        """
        self.check_elem(c)
        if self._as_rows is None:
            self._build_as_rows()
        r = c
        x = 0
        for pivot, val, pre in self._as_rows:
            if r >> pivot & 1:
                r ^= val
                x ^= pre
        if r != 0:
            raise ValueError(f"x^2 + x = {c:#x} has no solution: tr({c:#x}) = 1")
        return (x, x ^ 1) if x < (x ^ 1) else (x ^ 1, x)

    def _build_as_rows(self) -> None:
        # Echelonize the images of the basis under x -> x^2 + x, keeping
        # preimages; kernel is {0, 1} so exactly k-1 pivots survive.
        basis: dict[int, tuple[int, int]] = {}  # pivot bit -> (value, preimage)
        for j in range(self.k):
            e = 1 << j
            val = self._mul_raw(e, e) ^ e
            pre = e
            while val:
                pivot = poly_degree(val)
                if pivot not in basis:
                    basis[pivot] = (val, pre)
                    break
                bval, bpre = basis[pivot]
                val ^= bval
                pre ^= bpre
        self._as_rows = sorted(
            ((p, v, pre) for p, (v, pre) in basis.items()), reverse=True)

    # -- multiplicative structure -------------------------------------

    def generator(self) -> int:
        """A fixed multiplicative generator of the nonzero elements."""
        if self._generator is None:
            n = self.q - 1
            primes = list(factorize(n))
            g = 2
            while True:
                if all(self._pow_raw(g, n // p) != 1 for p in primes):
                    break
                g += 1
            self._generator = g
        return self._generator

    def _pow_raw(self, x: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, x)
            x = self._mul_raw(x, x)
            e >>= 1
        return r

    def log_table(self) -> array:
        """log[x] = s with g^s = x, for the generator g and nonzero x; log[0] is 0.

        The field's own table: read it, never write it.
        """
        self._ensure_tables()
        return self._log

    def exp_table(self) -> array:
        """exp[s] = g^s for the generator g, s = 0 .. 2(q-1) - 1: the doubled table.

        Any s in -(q-1) .. 2(q-1) - 1 reads g^s, a negative s from the end.
        The field's own table: read it, never write it.
        """
        self._ensure_tables()
        return self._exp2

    def traces(self, xs) -> bytes:
        """tr(x) for each x of xs, as bytes of 0 and 1."""
        return bytes(map(int.bit_count, map(self.tmask.__and__, xs))).translate(_PARITY)

    def exp_traces(self) -> bytes:
        """tr(g^s) for s = 0 .. q-2, as bytes of 0 and 1; computed once per field."""
        if self._exp_traces is None:
            self._ensure_tables()
            self._exp_traces = self.traces(self._exp2[:self.q - 1])
        return self._exp_traces

    def _ensure_tables(self) -> None:
        if self._exp2 is not None:
            return
        q1 = self.q - 1
        g = self.generator()
        # x -> x g is F_2-linear: split x at h bits, look up both halves' products
        h = (self.k + 1) // 2
        low = (1 << h) - 1
        lo = [self._mul_raw(x, g) for x in range(1 << h)]
        hi = [self._mul_raw(x << h, g) for x in range(1 << (self.k - h))]
        exp = array("I", bytes(4 * q1))
        v = 1
        for i in range(q1):
            exp[i] = v
            v = lo[v & low] ^ hi[v >> h]
        if v != 1:
            raise AssertionError("generator order check failed")
        log = array("I", bytes(4 * self.q))
        deque(map(log.__setitem__, exp, count()), maxlen=0)
        self._exp2, self._log = exp + exp, log
