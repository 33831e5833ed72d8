"""Re-check edge-list exports of `char2paley build` against the paper's rule alone.

    python tests/recheck.py FILE...

The script imports nothing from char2paley, so a defect in the package
cannot pass through it.  A file's header `# k=K a=A poly=P n=N` names
the field GF(2^k) = GF(2)[z]/(poly) and the parameter a.  The script
builds that field itself:

- multiplication by shift-and-XOR with poly
- a primitive element by brute force, then exp/log tables, which also
  shows that poly is irreducible
- the trace as the Frobenius sum x + x^2 + x^4 + ... + x^(2^(k-1))

From these it writes out, line by line, the edge list of the rule on
PG(1, 2^k), points in the order inf, 0x0, 0x1, ...:

- two finite points x != y are an edge, or the arc x -> y, exactly when
  tr((xy + x + a)/(x + y)) = 0
- inf -> y exactly when tr(y + 1) = 0, and x -> inf exactly when tr(x) = 0

For even k each edge is the line `u v`, u before v; for odd k each arc
is the line `u > v`.  Each row's lines follow the order of their second
point.  A file passes when it equals that text byte for byte; otherwise
the first line that differs is named, beside the line the rule gives
there.  The exit status is 0 when every file passes, 1 otherwise.
"""

import sys
from itertools import chain, zip_longest


def field(k: int, poly: int):
    """(exp, log, tr) tables of GF(2^k) modulo poly; exp runs over two periods."""
    q = 1 << k
    if poly >> k != 1:
        raise ValueError(f"poly {poly:#x} is not of degree {k}")

    def mul(x, y):
        p = 0
        while y:
            if y & 1:
                p ^= x
            y >>= 1
            x <<= 1
            if x & q:
                x ^= poly
        return p

    # g is primitive when its powers run through q - 1 distinct elements and
    # come back to 1; the nonzero elements are then a group, so poly is irreducible
    for g in range(1, q):
        log, x = {}, 1
        while x not in log:
            log[x] = len(log)
            x = mul(x, g)
        if x == 1 and len(log) == q - 1:
            break
    else:
        raise ValueError(f"poly {poly:#x} is reducible: GF(2)[z]/(poly) has no primitive element")
    exp = list(log) * 2
    tr = []
    for x in range(q):
        t = s = x
        for _ in range(k - 1):
            s = mul(s, s)
            t ^= s
        if t > 1:
            raise ValueError(f"the Frobenius sum of {x:#x} is {t:#x}, not in GF(2)")
        tr.append(t)
    return exp, log, tr


def header(line: bytes):
    """(k, a, poly) from a `# k=.. a=.. poly=.. n=..` line."""
    fields = dict(part.split("=", 1) for part in line.decode("ascii").split()[1:] if "=" in part)
    return int(fields["k"], 0), int(fields["a"], 0), int(fields["poly"], 0)


def rule_lines(k: int, a: int, poly: int):
    """The export's lines, header first, as the rule gives them."""
    if not 1 <= k <= 12:
        raise ValueError(f"k = {k} is outside 1..12, the orders `build` exports")
    q = 1 << k
    exp, log, tr = field(k, poly)
    if not 0 <= a < q or tr[a] != 1:
        raise ValueError(f"a = {a:#x} is no trace-1 element of GF(2^{k})")
    directed = k % 2 == 1
    label = [b"inf", *(f"{x:#x}".encode() for x in range(q))]
    sep = b" > " if directed else b" "
    yield f"# k={k} a={a:#x} poly={poly:#x} n={q + 1}\n".encode()
    # inf's row, then each finite x's; undirected rows list only later points
    yield from (label[0] + sep + label[1 + y] + b"\n" for y in range(q) if tr[y ^ 1] == 0)
    for x in range(q):
        u = label[1 + x] + sep
        if directed and tr[x] == 0:
            yield u + label[0] + b"\n"
        for y in range(0 if directed else x + 1, q):
            if y == x:
                continue
            num = (exp[log[x] + log[y]] if x and y else 0) ^ x ^ a
            if num == 0 or tr[exp[log[num] - log[x ^ y] + q - 1]] == 0:
                yield u + label[1 + y] + b"\n"


def recheck(path: str) -> str | None:
    """None when the file is the rule's export byte for byte, else the first difference."""
    with open(path, "rb") as f:
        first = f.readline()
        try:
            want = rule_lines(*header(first))
            head = next(want)
        except (ValueError, KeyError) as e:
            return f"{path}:1: {first!r} is no header of a valid export ({e})"
        for lineno, (got, line) in enumerate(zip_longest(chain([first], f), chain([head], want)), 1):
            if got != line:
                return f"{path}:{lineno}: {got!r}, but the rule gives {line!r}"
    return None


def main(argv=None) -> int:
    status = 0
    for path in sys.argv[1:] if argv is None else argv:
        failure = recheck(path)
        print(f"FAIL {failure}" if failure else f"PASS {path}")
        status |= failure is not None
    return status


if __name__ == "__main__":
    sys.exit(main())
