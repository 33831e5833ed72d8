"""Acceptance suite: one test per shipping criterion, with runtime budgets.

Each test prints a `criterion NN ... PASS/FAIL (elapsed)` line; run with
`pytest tests/test_acceptance.py -v -s` to watch them.  All comparisons
are exact integer arithmetic; every expected value is either derived
from an independent oracle in this file or a hand-frozen constant.
"""

import json
import random
import time
from contextlib import contextmanager
from math import comb, isqrt

from char2paley import (
    INF, ShiftTarget, adjacency, alpha_of, build_graph, build_tournament,
    circulant_labeling, chapman_build, chapman_compare, hamiltonian_decompose,
    kloosterman_sweep, param_a, shift_isomorphism,
    unpaired_distance, verify_automorphisms, verify_circulant,
    verify_representative_independence, verify_self_complementary,
    verify_shift_isomorphism,
)
from char2paley.cli import main
from oracles import (
    all_points, codegree_direct, construct_a_for_order, jumbledness_audit, orbit,
    pair_codegree_formula,
)


@contextmanager
def criterion(num, desc, budget):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} [{desc}]: FAIL ({time.monotonic() - t0:.2f}s)")
        raise
    dt = time.monotonic() - t0
    ok = dt < budget
    print(f"criterion {num:2d} [{desc}]: {'PASS' if ok else 'FAIL (over budget)'} "
          f"({dt:.2f}s of {budget:.0f}s)")
    assert ok, f"criterion {num} blew its {budget}s budget: {dt:.2f}s"


def test_criterion_01_construction_sanity(field):
    with criterion(1, "order and regularity, k in 2..10", 10):
        for k in (2, 4, 6, 8, 10):
            ctx = field(k)
            g = build_graph(ctx, param_a(ctx))
            assert g.n == ctx.q + 1
            assert all(r.bit_count() == ctx.q // 2 for r in g.rows)


def test_criterion_02_well_definedness(field):
    with criterion(2, "symmetry / exactly one arc", 10):
        for k in (2, 4, 6, 8):
            ctx = field(k)
            a = param_a(ctx)
            pts = all_points(ctx)
            for i, x in enumerate(pts):
                for y in pts[i + 1:]:
                    assert adjacency(ctx, a, x, y) == adjacency(ctx, a, y, x)
        for k in (3, 5, 7):
            ctx = field(k)
            t = build_tournament(ctx, param_a(ctx))
            for i in range(t.n):
                assert t.rows[i] >> i & 1 == 0
                for j in range(i + 1, t.n):
                    assert (t.rows[i] >> j & 1) + (t.rows[j] >> i & 1) == 1


def test_criterion_03_g2_is_c5(std):
    with criterion(3, "G_2 is the 5-cycle", 1):
        ctx, a, g, lab = std(2)
        assert sorted(lab.conn) == [1, 4]
        # oracle: an explicit 5-cycle along the labeling order
        idx = [0, *(1 + v for v in lab.vertices[1:])]
        cycle_rows = [0] * 5
        for t in range(5):
            u, v = idx[t], idx[(t + 1) % 5]
            cycle_rows[u] |= 1 << v
            cycle_rows[v] |= 1 << u
        assert list(g.rows) == cycle_rows


def test_criterion_04_circulant_certificates(std):
    with criterion(4, "circulant + labeling identities, k in 2..10", 30):
        for k in (2, 4, 6, 8, 10):
            ctx, a, g, lab = std(k)
            assert verify_circulant(g, lab)
            n = lab.n
            v = lab.vertices
            for i in range(1, n):
                assert v[n - i] == 1 ^ v[i]                      # v_(-i) = 1 + v_i
                assert v[2 * i % n] == ctx.sqr(v[i]) ^ a.value   # v_(2i) = v_i^2 + a


def test_criterion_05_codegree_formula(std, field):
    with criterion(5, "codegree formula == brute force", 120):
        for k in (2, 4, 6, 8):
            ctx, a, g, lab = std(k)
            formula = pair_codegree_formula(ctx, a, lab, kloosterman_sweep(ctx))
            pts = all_points(ctx)
            for i, x in enumerate(pts):
                for y in pts[i + 1:]:
                    assert formula(x, y) == codegree_direct(g, x, y).ell
        for k in (10, 12):
            ctx, a, g, lab = std(k)
            formula = pair_codegree_formula(ctx, a, lab, kloosterman_sweep(ctx))
            pts = all_points(ctx)
            rng = random.Random(5 * k)
            done = 0
            while done < 100_000:
                x = pts[rng.randrange(len(pts))]
                y = pts[rng.randrange(len(pts))]
                if x == y:
                    continue
                assert formula(x, y) == codegree_direct(g, x, y).ell
                done += 1


def test_criterion_06_weil_bound(field):
    with criterion(6, "|K(b)| <= 2 sqrt(q), exhaustive k <= 12", 120):
        for k in range(2, 13):
            ctx = field(k)
            four_q = 4 * ctx.q
            for b, val in enumerate(kloosterman_sweep(ctx)):
                if b:
                    assert val * val <= four_q, f"k={k}, b={b:#x}, K={val}"


def test_criterion_07_codegree_cap(std):
    with criterion(7, "max codegree <= q/4 + sqrt(q)/2", 60):
        for k in (4, 6, 8, 10):
            ctx, _, g, _ = std(k)
            cap = ctx.q // 4 + isqrt(ctx.q) // 2
            rows = g.rows
            worst = 0
            for i in range(g.n):
                ri = rows[i]
                for j in range(i + 1, g.n):
                    ell = (ri & rows[j]).bit_count()
                    if ell > worst:
                        worst = ell
            assert worst <= cap, f"k={k}: max codegree {worst} > {cap}"


def test_criterion_08_jumbledness(std):
    with criterion(8, "jumbledness, exhaustive k=2,4 + sampled k=6,8,10", 120):
        for k in (2, 4):
            _, _, g, _ = std(k)
            audit = jumbledness_audit(g, "exhaustive")
            assert audit.samples == 1 << g.n
            assert audit.passed, f"k={k} worst ratio^4 {audit.worst_ratio_pow4}"
        for k in (6, 8, 10):
            _, _, g, _ = std(k)
            audit = jumbledness_audit(g, "sampled", samples=100_000, seed=8 * k)
            assert audit.samples == 100_000
            assert audit.passed, f"k={k} worst ratio^4 {audit.worst_ratio_pow4}"


def test_criterion_09_selfcomp_and_automorphisms(std, field):
    with criterion(9, "self-complementarity and automorphisms", 30):
        # each map is read off the connection set, once the rows are its circulant
        for k in (2, 4, 6, 8):
            ctx, a, g, lab = std(k)
            assert verify_circulant(g, lab)
            assert verify_self_complementary(lab)
            assert verify_automorphisms(ctx, lab)
        for k in (3, 5, 7):  # tr(1) = 1: z -> z+1 reverses every arc
            ctx = field(k)
            a = param_a(ctx)
            lab = circulant_labeling(ctx, a)
            assert verify_circulant(build_tournament(ctx, a), lab)
            assert verify_automorphisms(ctx, lab)


def test_criterion_10_isomorphism_class_independence(std):
    with criterion(10, "all a' in T_1 shift onto G_4(a) or complement", 10):
        ctx, a, g, _ = std(4)
        t1 = [x for x in range(ctx.q) if ctx.trace(x) == 1]
        assert len(t1) == 8
        kinds = set()
        target = ShiftTarget(g)
        for ap_val in t1:
            ap = param_a(ctx, ap_val)
            assert verify_shift_isomorphism(target, ap)
            kinds.add(shift_isomorphism(ctx, a, ap).kind)
        assert kinds == {"iso", "complement-iso"}


def test_criterion_11_hamiltonian_decomposition(std):
    with criterion(11, "Hamiltonian decompositions at k=4 and k=8", 30):
        for k, cycles in ((4, 4), (8, 64)):
            ctx, _, g, lab = std(k)
            assert verify_circulant(g, lab)  # the cycles are read off the certified C
            dec = hamiltonian_decompose(lab)
            assert dec.p == ctx.q + 1
            assert len(dec.cycles) == cycles
            assert len(dec.cycles) * dec.p == g.edge_count()
            for cyc in dec.cycles:
                assert len(cyc) == dec.p
                assert len(set(map(str, cyc))) == dec.p


def test_criterion_12_order_theory(field):
    with criterion(12, "lambda-ratio orders (k=6 and Fermat cases)", 60):
        # the lambda-ratio order is the length of the alpha_a-orbit of INF, walked here
        def ratio_order(ctx, a):
            return len(orbit(ctx, alpha_of(ctx, a), INF))

        ctx6 = field(6)
        seen = set()
        for a in range(ctx6.q):
            if ctx6.trace(a) != 1:
                continue
            m = ratio_order(ctx6, a)
            assert m in (5, 13, 65)
            seen.add(m)
        assert seen == {5, 13, 65}
        for m in (5, 13, 65):
            a = construct_a_for_order(ctx6, m)
            assert ctx6.trace(a) == 1
            assert ratio_order(ctx6, a) == m
        for k in (2, 4, 8):
            ctx = field(k)
            for a in range(ctx.q):
                if ctx.trace(a) == 1:
                    assert ratio_order(ctx, a) == ctx.q + 1


def test_criterion_13_chapman_oracle(std):
    with criterion(13, "coset-quotient build: well defined and isomorphic", 60):
        for k in (2, 4):
            ctx, a, g, lab = std(k)
            h = chapman_build(ctx, a)
            assert h.undefined_pairs == ()  # division-by-zero never suppressed
            rep = verify_representative_independence(h)
            assert rep and rep.count == ctx.q * (ctx.q - 1)  # every probe, k = 2 and 4
            assert unpaired_distance(h.conn, h.n) is None  # so the coset graph is C_H's circulant
            assert verify_circulant(g, lab)
            result = chapman_compare(h, lab)
            assert bool(result), result.verdict
            assert result.verdict == "isomorphic-certified"


def test_criterion_14_determinism(tmp_path, capsys):
    with criterion(14, "byte-identical certify reports", 60):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["certify", "--k", "8", "--seed", "7", "--output", str(out1)]) == 0
        assert main(["certify", "--k", "8", "--seed", "7", "--output", str(out2)]) == 0
        b1 = out1.read_bytes()
        assert b1 == out2.read_bytes()
        doc = json.loads(b1)
        assert doc["pass"] is True and doc["config"]["seed"] == 7
