"""Independent reference implementations used only by the tests.

Everything here recomputes quantities of the package by a different
method: resultants from Sylvester matrices by fraction-free elimination,
determinants a second time with exact fractions, residue factorizations
by exhaustive trial division, modular powers by square-and-multiply
on tuples, valuations by direct counting, the
reducibility screen's candidate roots over F_q(t) by trying every unit,
Hensel lifts computed in the exact ring and truncated after each
step, and the classical gcd check on exact products. None of it imports
engine internals beyond the public arithmetic it validates.
"""

from fractions import Fraction

from maxorder import ffpoly, rings
from maxorder.errors import InternalInvariantError


# ---------------------------------------------------------------------------
# integers


def int_valuation(a, p):
    assert a != 0
    v = 0
    a = abs(a)
    while a % p == 0:
        a //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# Sylvester resultants


def sylvester_matrix(f, g):
    """Rows of the Sylvester matrix for coefficient tuples (constant first)."""
    m = len(f) - 1
    n = len(g) - 1
    assert m >= 0 and n >= 0 and (m or n)
    size = m + n
    rows = []
    frow = list(reversed(f))
    grow = list(reversed(g))
    for i in range(n):
        rows.append([0] * i + frow + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + grow + [0] * (size - n - 1 - i))
    return rows


def det_fraction(rows):
    """Exact determinant over Q by Gaussian elimination on Fractions."""
    n = len(rows)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] * inv
            if factor:
                for c in range(col, n):
                    a[r][c] -= factor * a[col][c]
    return det


def det_bareiss(rows, ring):
    """Fraction-free determinant over an integral domain.

    ``ring`` provides mul, sub, exact_div, is_zero, one; entries are ring
    elements. Single-step Bareiss: all divisions are exact.
    """
    n = len(rows)
    a = [list(row) for row in rows]
    sign = 1
    prev = ring.one
    for col in range(n):
        pivot = next((r for r in range(col, n) if not ring.is_zero(a[r][col])), None)
        if pivot is None:
            return ring.zero
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        for r in range(col + 1, n):
            for c in range(col + 1, n):
                num = ring.sub(
                    ring.mul(a[col][col], a[r][c]), ring.mul(a[r][col], a[col][c])
                )
                a[r][c] = ring.exact_div(num, prev)
            a[r][col] = ring.zero
        prev = a[col][col]
    det = a[n - 1][n - 1]
    return ring.neg(det) if sign < 0 else det


def resultant_oracle(f, g, ring):
    """Resultant as the Sylvester determinant, fraction-free."""
    if len(f) - 1 == 0 and len(g) - 1 == 0:
        return ring.one
    return det_bareiss(sylvester_matrix(f, g), ring)


# ---------------------------------------------------------------------------
# exhaustive factorization over small finite fields


def all_monic_polys(field, degree):
    """Every monic polynomial of exactly the given degree."""
    if degree == 0:
        yield (field.one,)
        return
    total = field.q ** degree
    for code in range(total):
        coeffs = []
        c = code
        for _ in range(degree):
            coeffs.append(field.element(c % field.q))
            c //= field.q
        yield tuple(coeffs) + (field.one,)


def poly_mul_oracle(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = field.add(out[i + j], field.mul(x, y))
    while out and out[-1] == field.zero:
        out.pop()
    return tuple(out)


def poly_divmod_oracle(field, a, b):
    db = len(b) - 1
    inv = field.inv(b[-1])
    r = list(a)
    q = [field.zero] * max(0, len(a) - db)
    for i in range(len(a) - db - 1, -1, -1):
        c = field.mul(r[i + db], inv)
        q[i] = c
        if c != field.zero:
            for j in range(db + 1):
                r[i + j] = field.sub(r[i + j], field.mul(c, b[j]))
    while r and r[-1] == field.zero:
        r.pop()
    while q and q[-1] == field.zero:
        q.pop()
    return tuple(q), tuple(r)


def pow_mod_oracle(field, a, n, m):
    """a^n mod m by right-to-left square-and-multiply on tuples, one
    ``ffpoly.rem`` of an ``ffpoly.mul`` per step."""
    out = ffpoly.rem(field, (field.one,), m)
    a = ffpoly.rem(field, a, m)
    while n:
        if n & 1:
            out = ffpoly.rem(field, ffpoly.mul(field, out, a), m)
        n >>= 1
        if n:
            a = ffpoly.rem(field, ffpoly.mul(field, a, a), m)
    return out


def factor_exhaustive(field, f):
    """Multiset of monic irreducible factors by trial division, smallest
    degree first; feasible only for tiny q**deg."""
    factors = []
    f = tuple(f)
    d = 1
    while len(f) - 1 >= 1:
        if d > (len(f) - 1) // 2:
            factors.append(f)
            break
        found = False
        for cand in all_monic_polys(field, d):
            q, r = poly_divmod_oracle(field, f, cand)
            if not r:
                factors.append(cand)
                f = q
                found = True
                break
        if not found:
            d += 1
    from collections import Counter

    return Counter(factors)


# ---------------------------------------------------------------------------
# candidate roots of the reducibility screen over F_q(t)


def fq_root_candidates_unfiltered(f, base, cap=256):
    """Every unit times every monic divisor of f(0) in F_q[t], with the
    divisor list built and capped as the screen builds it: (q - 1) per
    divisor."""
    ring = base.ring
    field = ring.field
    monic = ffpoly.scale(field, f[0], field.inv(f[0][-1])) if f[0] else ()
    divisors = [ring.one]
    if ffpoly.deg(monic) >= 1:
        for g, e in ffpoly.factor_monic(field, monic, seed=0):
            grown = []
            for d in divisors:
                cur = d
                for _ in range(e + 1):
                    grown.append(cur)
                    cur = ring.mul(cur, g)
            divisors = grown[:cap]
    units = [field.element(i) for i in range(1, field.q)]
    return [ffpoly.scale(field, d, u) for d in divisors for u in units]


# ---------------------------------------------------------------------------
# Hensel lifting in the exact ring


def _poly_mod(P, base, k):
    """Coefficients reduced to the canonical representatives mod prime^k."""
    ring = base.ring
    if base.kind == "Q":
        return ffpoly.trim(ring, [c % ring.p ** k for c in P])
    modulus = ffpoly.pow_(ring.field, ring.pi, k)
    return ffpoly.trim(ring, [ffpoly.rem(ring.field, c, modulus) for c in P])


def _lift_pair_oracle(fk, gbar, hbar, base, k):
    """Quadratic Hensel lift of fk = g*h computed over the whole ring,
    every intermediate truncated mod prime^(2m) afterwards."""
    ring = base.ring
    field = base.residue_field
    d, sbar, tbar = ffpoly.egcd(field, gbar, hbar)
    assert d == (field.one,)
    g, h, s, t = (rings.lift_residue_poly(u, base) for u in (gbar, hbar, sbar, tbar))
    one = (ring.one,)
    m = 1
    while m < k:
        m2 = min(2 * m, k)
        e = _poly_mod(ffpoly.sub(ring, fk, ffpoly.mul(ring, g, h)), base, m2)
        _, r = ffpoly.divmod_(ring, _poly_mod(ffpoly.mul(ring, s, e), base, m2), h)
        h2 = _poly_mod(ffpoly.add(ring, h, r), base, m2)
        g2, rem = ffpoly.divmod_(ring, fk, h2)
        assert not _poly_mod(rem, base, m2)
        g2 = _poly_mod(g2, base, m2)
        sg_th = ffpoly.add(ring, ffpoly.mul(ring, s, g2), ffpoly.mul(ring, t, h2))
        b = _poly_mod(ffpoly.sub(ring, sg_th, one), base, m2)
        c, dd = ffpoly.divmod_(ring, _poly_mod(ffpoly.mul(ring, s, b), base, m2), h2)
        s2 = ffpoly.sub(ring, s, dd)
        t2 = ffpoly.sub(ring, ffpoly.sub(ring, t, ffpoly.mul(ring, t, b)), ffpoly.mul(ring, c, g2))
        q2, s2 = ffpoly.divmod_(ring, s2, h2)
        s = _poly_mod(s2, base, m2)
        t = _poly_mod(ffpoly.add(ring, t2, ffpoly.mul(ring, q2, g2)), base, m2)
        g, h = g2, h2
        m = m2
    return g, h


def hensel_lift_oracle(f, rf, base, k):
    """Branches F_i of monic f mod prime^k, one per residue factor, in order."""
    field = base.residue_field
    bars = [ffpoly.pow_(field, phibar, l) for phibar, l in rf.factors]

    def tree(fk, bars):
        if len(bars) == 1:
            return [fk]
        mid = len(bars) // 2
        gbar = hbar = (field.one,)
        for u in bars[:mid]:
            gbar = ffpoly.mul(field, gbar, u)
        for u in bars[mid:]:
            hbar = ffpoly.mul(field, hbar, u)
        g, h = _lift_pair_oracle(fk, gbar, hbar, base, k)
        return tree(g, bars[:mid]) + tree(h, bars[mid:])

    return tuple(tree(_poly_mod(f, base, k), bars))


# ---------------------------------------------------------------------------
# the classical gcd check in the exact ring


def classical_check_oracle(f, base, rf):
    """gcd(T_bar, g*_bar, h*_bar) = 1 with g* h* - f = prime * T multiplied
    out exactly in R, with no truncation."""
    ring = base.ring
    field = base.residue_field
    gstar = (ring.one,)
    for phi in rf.lifts:
        gstar = ffpoly.mul(ring, gstar, phi)
    hbar = (field.one,)
    for phibar, l in rf.factors:
        hbar = ffpoly.mul(field, hbar, ffpoly.pow_(field, phibar, l - 1))
    hstar = rings.lift_residue_poly(hbar, base)
    diff = ffpoly.sub(ring, ffpoly.mul(ring, gstar, hstar), f)
    if diff and rings.gauss_valuation(diff, base) < 1:
        raise InternalInvariantError("g* h* does not reduce to the residue factorization")
    cofactor = tuple(ring.exact_div(c, base.prime_element) for c in diff)
    g1 = ffpoly.gcd(field, rings.reduce_mod(cofactor, base), rings.reduce_mod(gstar, base))
    return ffpoly.gcd(field, g1, hbar) == (field.one,)
