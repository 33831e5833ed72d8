"""Slow, definitional routes that the tests hold the package's fast paths to.

- `kloosterman` and `kloosterman_sum` evaluate K(b) term by term, the
  oracle of the convolution sweep `kloosterman_sweep`.
- `jumbledness_audit` tests |e(H) - C(h,2)/2| <= q^(3/4) h on induced
  subgraphs one at a time, the oracle of the fourth-moment certificate
  `jumbledness_certificate`.  Writing d = |2 e(H) - C(h,2)| (twice the
  deviation), its test on one subset is

      d^4 <= 16 q^3 h^4

  and its reported worst ratio is the exact rational d^4 / (16 q^3 h^4),
  the fourth power of deviation/bound.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from char2paley import FieldCtx, OutOfScopeError, PaleyLikeGraph, iter_bits

EXHAUSTIVE_SUBSET_CAP = 17  # largest order for the 2^n induced-subgraph sweep


@dataclass(frozen=True)
class KloostermanValue:
    b: int
    value: int


def kloosterman_sum(ctx: FieldCtx, b: int) -> int:
    """K(b) = sum over nonzero z of psi(z + b/z), one field division per term."""
    div, tr = ctx.div, ctx.trace
    # psi(z + b/z) = 1 - 2 tr(z ^ b/z)
    return ctx.q - 1 - 2 * sum(tr(z ^ div(b, z)) for z in range(1, ctx.q))


def kloosterman(ctx: FieldCtx, b: int) -> KloostermanValue:
    """Exact Kloosterman sum K(b) over the nonzero elements; b must be nonzero."""
    ctx.check_elem(b)
    if b == 0:
        raise ValueError("K(0) is out of scope: codegree parameters b = x^2+x+a "
                         "always have trace 1, hence are nonzero")
    return KloostermanValue(b, kloosterman_sum(ctx, b))


@dataclass(frozen=True)
class JumblednessAudit:
    mode: str                  # "exhaustive" or "sampled"
    samples: int               # number of subsets tested
    seed: int | None           # None in exhaustive mode
    worst_dev2: int            # d = |2 e(H) - C(h,2)| at the worst subset
    worst_size: int            # h there
    worst_mask: int            # the subset itself, as a vertex bitmask
    worst_ratio_pow4: Fraction  # (deviation/bound)^4, exact
    passed: bool

    @property
    def worst_ratio(self) -> float:
        """Float view of deviation/bound at the worst subset (display only)."""
        return float(self.worst_ratio_pow4) ** 0.25


def _audit_from_worst(g, mode, samples, seed, d, h, mask) -> JumblednessAudit:
    q = g.ctx.q
    if h == 0:
        ratio4 = Fraction(0)
    else:
        ratio4 = Fraction(d ** 4, 16 * q ** 3 * h ** 4)
    return JumblednessAudit(mode, samples, seed, d, h, mask, ratio4, ratio4 <= 1)


def jumbledness_audit(g: PaleyLikeGraph, mode: str = "sampled",
                      samples: int = 100_000, seed: int = 0) -> JumblednessAudit:
    """Audit |e(H) - C(h,2)/2| <= q^(3/4) h over induced subgraphs.

    Exhaustive mode walks all 2^n subsets in Gray-code order (order
    capped at 17); sampled mode draws uniform subsets from a seeded RNG.
    The worst subset is the one maximizing deviation/size, which orders
    identically to the reported fourth-power ratio.
    """
    rows = g.rows
    n = g.n
    worst_d, worst_h, worst_mask = 0, 1, 0
    if mode == "exhaustive":
        if n > EXHAUSTIVE_SUBSET_CAP:
            raise OutOfScopeError(
                f"exhaustive subset sweep capped at order {EXHAUSTIVE_SUBSET_CAP}, got {n}")
        total = 1 << n
        mask = 0
        e2 = 0  # twice e(H), maintained incrementally
        h = 0
        for i in range(1, total):
            bit = 1 << ((i & -i).bit_length() - 1)
            v = bit.bit_length() - 1
            if mask & bit:
                mask ^= bit
                h -= 1
                e2 -= 2 * (rows[v] & mask).bit_count()
            else:
                mask ^= bit
                h += 1
                e2 += 2 * (rows[v] & mask).bit_count()
            if h:
                d = abs(e2 - comb(h, 2))
                if d * worst_h > worst_d * h:
                    worst_d, worst_h, worst_mask = d, h, mask
        return _audit_from_worst(g, "exhaustive", total, None, worst_d, worst_h, worst_mask)
    if mode != "sampled":
        raise ValueError(f"unknown audit mode {mode!r}")
    rng = random.Random(seed)
    for _ in range(samples):
        mask = rng.getrandbits(n)
        h = mask.bit_count()
        if h == 0:
            continue
        e2 = sum((rows[v] & mask).bit_count() for v in iter_bits(mask))
        d = abs(e2 - comb(h, 2))
        if d * worst_h > worst_d * h:
            worst_d, worst_h, worst_mask = d, h, mask
    return _audit_from_worst(g, "sampled", samples, seed, worst_d, worst_h, worst_mask)
