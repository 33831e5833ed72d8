"""Codegrees, Kloosterman sums, and the jumbledness certificate.

Everything here is exact: counts are ints, character sums are ints, and
the jumbledness inequality |e(H) - C(h,2)/2| <= q^(3/4) h is decided by
comparing fourth powers, since q^(3/4) is irrational when k = 2 mod 4.

The certificate covers every subset at once, from the fourth moment of
the spectrum.  With A the adjacency matrix and deg = q/2,

    tr(A^4) = n deg^2 + 2 * (sum over pairs v < w of codeg(v, w)^2),

a sum over the codegree spectrum, and tr(A^4) - deg^4 is the sum of
lambda^4 over the nontrivial eigenvalues.  On a circulant of odd order
n = q+1 with C = -C these come in equal pairs, lambda_j = lambda_(n-j),
so every one obeys 2 lambda^4 <= tr(A^4) - deg^4.  Let L be the least
integer with 2 L^4 >= tr(A^4) - deg^4.  The expander mixing lemma
(Alon-Chung), with deg/n = 1/2 - 1/(2n), gives |2 e(H) - C(h,2)| <=
(L + 1/2) h for every H, so

    (2L + 1)^4 <= 256 q^3

certifies |e(H) - C(h,2)/2| <= q^(3/4) h over all 2^n subsets; when it
fails, L is the witness.

The codegree of a pair against y = INF closes in terms of a Kloosterman
sum: with b = x^2 + x + a and psi(z) = (-1)^tr(z),

    K(b) = sum over nonzero z of psi(z + b/z),
    codegree(x, INF) = q/4 - eps + (K(b) + 1)/4.

A general pair reduces to that case by the certified rotation: once the
graph is the circulant on a labeling with v_0 = INF (`verify_circulant`),
v_i -> v_(i+1) is an automorphism, so {v_i, v_j} has the codegree of
{v_(i-j), INF}, and the q finite x cover all C(q+1, 2) pairs.

The full sweep of K is a convolution: psi is additive, so with b = g^t
and z = g^s, psi(z + b/z) = psi(g^s) psi(g^(t-s)), and with
T[s] = tr(g^s),

    K(g^t) = sum_s (1 - 2 T[s]) (1 - 2 T[t-s]) = 4 (T * T)[t] - q - 1,

where * is cyclic convolution mod q-1 (T has q/2 ones).  One big-int
square computes T * T exactly.

The codegree spectrum is the same convolution, mod n.  On the circulant
with connection set C, codeg(v_0, v_s) = #{d in C : d - s in C}, and at
even k C = -C turns d - s into s - d, so codeg(v_0, v_s) = (C * C)[s].
Every pair-level claim here is read off a connection set, so it is a
graph's claim only once the graph is certified to be that circulant: a
check resting on that certificate is skipped when it fails, and no pair
is counted one by one.
"""

from __future__ import annotations

import sys
from collections import Counter
from math import comb, isqrt
from typing import NamedTuple

from .construct import _DIGITS, ParamA, unpaired_distance
from .gf2k import FieldCtx


_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))  # decimal digits to their values


def _lanes(text: str, start: int, slots: int, d: int, w: int) -> int:
    """The int whose w-byte lane j is the d-digit slot j of text[start:start + slots * d].

    start may be negative: the digits before text[0] are the leading zeros
    str() leaves out.  Each digit plane i (the 10^i digit of every slot) is
    one strided slice, and lands in the lanes times 10^i; a lane's planes
    sum to its slot's value, so when that fits in w bytes nothing carries.
    """
    stop = max(start + slots * d, 0)
    lanes = bytearray(slots * w)
    total = 0
    for i in range(d):
        first = start + d - 1 - i  # where slot 0 keeps its 10^i digit
        lead = max(0, -(first // d))  # slots wholly before text[0] in this plane
        lanes[::w] = text[first + lead * d:stop:d].encode().translate(_VALUES).rjust(slots, b"\0")
        total += int.from_bytes(lanes, "little") * 10 ** i
    return total


def _cyclic_self_convolution(seq: bytes) -> memoryview:
    """(seq * seq)[t] = sum_s seq[s] seq[(t - s) mod m] for a 0/1 sequence.

    Every coefficient, linear or cyclic, is at most the number of ones,
    which has d decimal digits.  seq[s] becomes the last digit of d-digit
    slot s of one decimal integer, slot 0 most significant, so slot j of
    its exact square (libmpdec multiplies by a number-theoretic transform)
    is the linear coefficient j and no slot carries.  The square is read
    back from its digit string into w-byte lanes of two ints (w = 1, 2, 4
    or 8, wide enough for the number of ones), slots 0 .. m-1 and the wrap
    m .. 2m-2, and one add folds them.  The result is a memoryview of the m
    cyclic coefficients, read in place as ints.
    """
    # imported here, not with the module: about 1.5 ms that only the kernel's callers pay
    from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, Inexact, Rounded

    m = len(seq)
    ones = seq.count(1)
    w = 1 << (max(1, (ones.bit_length() + 7) // 8) - 1).bit_length()
    d = len(str(ones))
    digits = bytearray(b"0") * (m * d)
    digits[d - 1::d] = seq.translate(_DIGITS)
    x = Decimal(digits.decode())
    del digits
    # exact: a square that would have to be rounded raises instead
    sq = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[Inexact, Rounded]).multiply(x, x)
    del x
    text = str(sq)  # linear in libmpdec; str(int) would be quadratic
    del sq
    wrap = len(text) - (m - 1) * d  # where slot m starts in text
    folded = _lanes(text, wrap, m - 1, d, w)
    folded += _lanes(text, wrap - m * d, m, d, w)
    del text
    step = 1 if sys.byteorder == "little" else -1  # cast reads native slots
    return memoryview(folded.to_bytes(m * w, sys.byteorder)).cast("BHIQ"[w.bit_length() - 1])[::step]


def kloosterman_sweep(ctx: FieldCtx) -> list[int]:
    """K(b) for every nonzero b, as a list indexed by b (index 0 unused).

    Computed as 4 (T * T)[t] - q - 1 at b = g^t (see the module notes).
    """
    q = ctx.q
    conv = _cyclic_self_convolution(ctx.exp_traces())
    out = [4 * conv[t] - q - 1 for t in ctx.log_table()]
    out[0] = 0
    return out


def weil_bound_holds(ctx: FieldCtx, values: list[int]) -> tuple[bool, int, int]:
    """Check |K(b)| <= 2 sqrt(q) for all nonzero b, exactly (K^2 <= 4q).

    values is the sweep, K(b) at index b.  Returns (ok, argmax b, max |K|).
    """
    rest = values[1:ctx.q]
    top, bottom = max(rest), min(rest)
    worst = max(top, -bottom)
    first = min(rest.index(v) for v in (top, bottom) if abs(v) == worst)
    return worst * worst <= 4 * ctx.q, 1 + first, worst


def kloosterman_value_set(ctx: FieldCtx,
                          values: list[int]) -> tuple[bool, int | None, int | None]:
    """Check {K(b) : b != 0} is exactly {v = 3 mod 4 : v^2 <= 4q} (Lachaud-Wolfmann).

    values is the sweep, K(b) at index b.  Returns (ok, the first b whose
    value lies outside that set, the smallest value of it that no b
    takes), None where there is none.
    """
    r = isqrt(4 * ctx.q)
    want = {v for v in range(-r, r + 1) if v % 4 == 3}
    rest = values[1:ctx.q]
    stray = None if want.issuperset(rest) else next(b for b, v in enumerate(rest, 1) if v not in want)
    missing = min(want.difference(rest), default=None)
    return stray is None and missing is None, stray, missing


def codegree_formula(ctx: FieldCtx, a: ParamA, x: int, kloo: list[int]) -> int:
    """Codegree of the pair (x, INF), x finite, via the Kloosterman identity.

    Evaluates q/4 - eps + (K(x^2 + x + a) + 1)/4, reading K from the sweep
    `kloo`: O(1), no matrix needed.  A general pair reduces to this one by
    the certified rotation (see the module notes).
    """
    if ctx.k % 2:
        raise ValueError("the codegree formula is for graphs (even k)")
    b = ctx.sqr(x) ^ x ^ a.value
    k_val = kloo[b]
    eps = 1 if ctx.trace(x) == 0 else 0
    num = k_val + 1
    if num % 4 or ctx.q % 4:
        raise AssertionError(f"non-integral codegree from K({b:#x}) = {k_val}")
    return ctx.q // 4 - eps + num // 4


class CodegreeSpectrum(NamedTuple):
    counts: dict                 # (epsilon, ell) -> number of pairs
    max_ell: int
    max_shift: int               # the pair (v_0, v_s) has codegree max_ell at s = max_shift
    bound: int                   # q/4 + sqrt(q)/2, an exact int for even k
    within_bound: bool
    max_conference_deviation: int  # max |ell - (q/4 - eps)|
    pairs: int


def circulant_spectrum(n: int, conn: frozenset[int]) -> CodegreeSpectrum:
    """Exact histogram of (epsilon, ell) of the circulant of order n on conn.

    codeg(v_0, v_s) = (C * C)[s], resting on C = -C (see the module
    notes; ValueError when `unpaired_distance` finds a d), and each shift s = 1 .. (n-1)/2 covers
    n distinct pairs (n is odd), so no dense graph is needed.  The pair
    of top codegree is (v_0, v_max_shift).
    This is a graph's spectrum once the graph is certified to be that
    circulant (`verify_circulant`, or `ChapmanGraph.circulant_certified`).
    """
    if unpaired_distance(conn, n) is not None:
        raise ValueError("the connection set is not closed under negation")
    ind = bytearray(n)
    for d in conn:
        ind[d] = 1
    q, half = n - 1, (n - 1) // 2
    conv = _cyclic_self_convolution(ind)
    counts = Counter(zip(ind[1:half + 1], conv[1:half + 1]))
    max_shift = max(range(1, half + 1), key=conv.__getitem__)
    max_ell = conv[max_shift]
    bound = q // 4 + isqrt(q) // 2
    return CodegreeSpectrum(
        counts={key: cnt * n for key, cnt in sorted(counts.items())},
        max_ell=max_ell,
        max_shift=max_shift,
        bound=bound,
        within_bound=max_ell <= bound,
        max_conference_deviation=max(abs(ell - (q // 4 - eps)) for eps, ell in counts),
        pairs=comb(n, 2),
    )


class JumblednessCertificate(NamedTuple):
    trace_a4: int      # tr(A^4) = n deg^2 + 2 * (sum over pairs of codeg^2)
    lambda_bound: int  # least L with 2 L^4 >= tr(A^4) - deg^4; every nontrivial |lambda| <= L
    lambda_limit: int  # largest L with (2L + 1)^4 <= 256 q^3

    @property
    def passed(self) -> bool:
        return self.lambda_bound <= self.lambda_limit


def jumbledness_certificate(q: int, counts: dict) -> JumblednessCertificate:
    """The fourth-moment jumbledness certificate over every subset (see the module notes).

    counts is the (epsilon, ell) -> pairs spectrum of a q/2-regular
    circulant of order q+1 whose connection set is closed under negation;
    certifying that the graph is one is the caller's part.
    """
    n, deg = q + 1, q // 2
    trace_a4 = n * deg * deg + 2 * sum(cnt * ell * ell for (_, ell), cnt in counts.items())
    rest = trace_a4 - deg ** 4
    lam = isqrt(isqrt(rest // 2))  # the floor of a fourth root, then up to the least L
    while 2 * lam ** 4 < rest:
        lam += 1
    # 2L + 1 <= floor((256 q^3)^(1/4)) exactly when (2L + 1)^4 <= 256 q^3
    return JumblednessCertificate(trace_a4, lam, (isqrt(isqrt(256 * q ** 3)) - 1) // 2)
