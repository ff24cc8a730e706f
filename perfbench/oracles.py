"""Answers computed apart from wittcalc, used to check its outputs.

Nothing here imports wittcalc.  Integers are factored with sympy; the
formal-field oracles work on generator bitmasks straight from the
definitions (a class of R((t_1))...((t_g)) is a sign times a monomial in
the t_i, and W of that field is the group ring Z[(Z/2)^g]).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy

# wittcalc's trial-division bound on the primes it will search for
FACTOR_BOUND = 10**6


def squarefree(x) -> int:
    """Squarefree integer in the square class of the nonzero rational x."""
    x = Fraction(x)
    m = x.numerator * x.denominator
    if m == 0:
        raise ValueError("square class of zero")
    out = -1 if m < 0 else 1
    for p, e in sympy.factorint(abs(m)).items():
        if e % 2:
            out *= p
    return out


def class_factors(a: int) -> frozenset:
    """Square class of a nonzero integer as the set of its odd-exponent
    primes, with -1 standing for the sign."""
    primes = {p for p, e in sympy.factorint(abs(a)).items() if e % 2}
    if a < 0:
        primes.add(-1)
    return frozenset(primes)


def _class_value(s: frozenset) -> int:
    out = 1
    for p in s:
        out *= p
    return out


def lambda_classes(entries, d: int) -> dict[int, int]:
    """lambda^d<a_1..a_n> over Q as {positive squarefree class: coefficient},
    with <-c> folded to -<c>: the sum over d-subsets of <prod a_i>."""
    sets = [class_factors(a) for a in entries]
    out: dict[int, int] = {}
    for subset in itertools.combinations(sets, d):
        acc: frozenset = frozenset()
        for s in subset:
            acc = acc ^ s
        c = _class_value(acc)
        out[abs(c)] = out.get(abs(c), 0) + (1 if c > 0 else -1)
    return {c: k for c, k in out.items() if k}


def rewrite(a: int, b: int) -> tuple[int, int]:
    """<a, b> is isometric to <a + b, ab(a + b)> when a + b != 0."""
    if a + b == 0:
        raise ValueError("a + b must be nonzero")
    return a + b, a * b * (a + b)


def legendre(a: int, p: int) -> int:
    return int(sympy.legendre_symbol(a % p, p))


def hasse_pair(p: int, v: int) -> bool:
    """True when (p, v)_p = -1 for an odd prime p and v prime to p; that
    symbol is the Legendre symbol (v / p)."""
    return sympy.isprime(p) and p > 2 and v % p != 0 and legendre(v, p) == -1


def sylvester(coeffs) -> tuple[int, int]:
    """(number of real roots, squarefree class of the discriminant) of the
    monic polynomial with constant-first integer coefficients.  The trace
    form of Q[x]/(f) has that signature and that determinant class."""
    f = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))
    return f.count_roots(), squarefree(discriminant(coeffs))


def discriminant(coeffs) -> int:
    """Discriminant of the monic polynomial (constant-first coefficients);
    it is nonzero exactly when the polynomial is squarefree."""
    return int(sympy.discriminant(sympy.Poly(list(reversed(coeffs)), sympy.Symbol("x"))))


def inertia(rows) -> tuple[int, int] | None:
    """(signature, squarefree class of the determinant) of a symmetric
    integer matrix, from the signs of its eigenvalues (the positive roots of
    its characteristic polynomial); None when it is degenerate."""
    m = sympy.Matrix(rows)
    det = int(m.det())
    if det == 0:
        return None
    charpoly = m.charpoly()
    positive = charpoly.count_roots(0, None)
    return 2 * positive - m.rows, squarefree(det)


def hankel_pivots(coeffs) -> list[Fraction] | None:
    """Pivots D_k / D_{k-1} of the trace-form Gram matrix of Q[x]/(f),
    whose (i, j) entry is Tr(x^(i+j)), the trace of the (i+j)-th power of
    the companion matrix; None when a leading minor D_k vanishes."""
    n = len(coeffs) - 1
    companion = sympy.zeros(n, n)
    for i in range(1, n):
        companion[i, i - 1] = 1
    for i in range(n):
        companion[i, n - 1] = -coeffs[i]
    traces = []
    power = sympy.eye(n)
    for _ in range(2 * n - 1):
        traces.append(power.trace())
        power = power * companion
    hankel = sympy.Matrix(n, n, lambda i, j: traces[i + j])
    minors = [sympy.Integer(1)] + [hankel[:k, :k].det() for k in range(1, n + 1)]
    if any(m == 0 for m in minors):
        return None
    return [Fraction(int(minors[k]), int(minors[k - 1])) for k in range(1, n + 1)]


def exceeds_factor_bound(x) -> bool:
    """Whether trial division of the square class of x would search past
    FACTOR_BOUND: the part of num * den whose primes all exceed the bound
    is at least (bound + 1)^2."""
    x = Fraction(x)
    big = 1
    for p, e in sympy.factorint(abs(x.numerator * x.denominator)).items():
        if p > FACTOR_BOUND:
            big *= p**e
    return big >= (FACTOR_BOUND + 1) ** 2


def elementary_symmetric(values, d: int) -> int:
    """e_d of the values."""
    e = [1] + [0] * d
    for v in values:
        for j in range(d, 0, -1):
            e[j] += e[j - 1] * v
    return e[d]


def formal_sign(neg: bool, mask: int, ordering_neg: int) -> int:
    """Sign of the class (-1)^neg * t^mask at the ordering whose negative
    generators are the bits of ordering_neg."""
    odd = bool(neg) ^ (bin(mask & ordering_neg).count("1") % 2 == 1)
    return -1 if odd else 1


def formal_sw_masks(entries, d: int) -> set[int]:
    """Symbols of sw_d<a_1..a_n> over R((t_1))...((t_g)) as generator masks.

    Each entry (neg, mask) has degree-1 class (-1)^[neg] + sum (t_i); a
    product of d basis symbols reduces by (t)(t) = (t)(-1) to the symbol
    of the union of its t-masks, padded with (-1); symbols add mod 2."""
    rows: list[set[int]] = [{0}] + [set() for _ in range(d)]
    for neg, mask in entries:
        items = ([0] if neg else []) + [1 << i for i in range(mask.bit_length()) if mask >> i & 1]
        for j in range(d, 0, -1):
            for it in items:
                for m in list(rows[j - 1]):
                    rows[j] ^= {m | it}
    return rows[d]


def formal_group_ring_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """Product in Z[(Z/2)^g], classes as masks."""
    out: dict[int, int] = {}
    for ma, ka in a.items():
        for mb, kb in b.items():
            out[ma ^ mb] = out.get(ma ^ mb, 0) + ka * kb
    return {m: k for m, k in out.items() if k}


def formal_group_ring_add(a: dict[int, int], b: dict[int, int], scale: int = 1) -> dict[int, int]:
    out = dict(a)
    for m, k in b.items():
        out[m] = out.get(m, 0) + scale * k
    return {m: k for m, k in out.items() if k}


def f2_independent(vectors) -> bool:
    """Whether the bitmask vectors are linearly independent over F2."""
    basis: dict[int, int] = {}  # highest bit -> vector
    for v in vectors:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v == 0:
            return False
        basis[v.bit_length()] = v
    return True


def rational_classes_independent(values) -> bool:
    """Whether the square classes of the nonzero integers are F2-independent
    in Q*/Q*^2, whose basis is -1 and the primes."""
    sets = [class_factors(v) for v in values]
    index = {p: i for i, p in enumerate(sorted(set().union(*sets)))}
    return f2_independent([sum(1 << index[p] for p in s) for s in sets])
