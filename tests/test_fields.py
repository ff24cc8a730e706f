import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st

from wittcalc import errors, fields
from wittcalc.fields import (
    basis_factors,
    canonicalize,
    factor,
    finite_field,
    formal,
    hilbert_symbol,
    laurent_q,
    minus_one,
    orderings,
    parse_field,
    rationals,
    reals,
    signature_at,
    sq_from_json,
    sq_mul,
    sq_to_json,
)

Q = rationals()
F7 = finite_field(7)


def test_squarefree_canonicalization():
    assert canonicalize(12, Q).data == 3
    assert canonicalize(50, Q).data == 2
    assert canonicalize(-8, Q).data == -2
    assert canonicalize(Fraction(2, 3), Q).data == 6
    assert canonicalize(Fraction(-9, 4), Q).data == -1


def test_zero_has_no_square_class():
    with pytest.raises(errors.ZeroElement):
        canonicalize(0, Q)
    with pytest.raises(errors.ZeroElement):
        canonicalize(0, reals())


def test_factor_bound():
    big = (10**6 + 3) ** 2  # square of a prime above the bound
    with pytest.raises(errors.FactorLimitExceeded):
        canonicalize(big, Q)


def test_finite_field_classes():
    # squares mod 7 are {1, 2, 4}
    assert canonicalize(2, F7).data == 0
    assert canonicalize(3, F7).data == 1
    assert canonicalize(Fraction(1, 3), F7).data == 1
    with pytest.raises(errors.BadBackend):
        finite_field(2)
    with pytest.raises(errors.BadBackend):
        finite_field(9)


def test_laurent_q_payloads():
    k = laurent_q(3)
    # unlike formal(g), the constant 2 keeps its rational square class
    assert not canonicalize(2, k).is_trivial()
    assert canonicalize(4, k).is_trivial()
    assert canonicalize((-12, (2, 0)), k).data == (-3, (0, 2))
    assert sq_mul(canonicalize(2, k), canonicalize(3, k)) == canonicalize(6, k)
    with pytest.raises(errors.BadBackend):
        canonicalize((1, (3,)), k)
    with pytest.raises(errors.UnsupportedBackend):
        sq_to_json(canonicalize(2, k))  # no JSON spelling without a parse_field one


def test_formal_payloads():
    f = formal(3)
    c = canonicalize((True, (2, 0)), f)
    assert c.data == (True, (0, 2))
    assert canonicalize(5, f).is_trivial()
    assert canonicalize(-5, f) == minus_one(f)
    with pytest.raises(errors.BadBackend):
        canonicalize((False, (3,)), f)


@given(st.integers(-300, 300).filter(bool), st.integers(-300, 300).filter(bool))
def test_sq_mul_matches_product(a, b):
    assert sq_mul(canonicalize(a, Q), canonicalize(b, Q)) == canonicalize(a * b, Q)


@given(st.integers(-100, 100).filter(bool))
def test_square_is_trivial(a):
    c = canonicalize(a, Q)
    assert sq_mul(c, c).is_trivial()


def test_basis_factors_multiply_back():
    k = laurent_q(3)
    cases = [(Q, raw) for raw in (30, -42, 1, -1, 7)]
    cases += [(k, raw) for raw in ((-42, (0, 2)), (1, (1,)), 10, -1)]
    for field, raw in cases:
        c = canonicalize(raw, field)
        prod = fields.trivial_class(field)
        for f in basis_factors(c):
            prod = sq_mul(prod, f)
        assert prod == c


def test_hilbert_symbol_frozen_values():
    assert hilbert_symbol(2, 5, 5) == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, fields.INF) == -1
    assert hilbert_symbol(2, 7, 7) == 1
    assert hilbert_symbol(3, 3, 3) == -1  # (3,3)_3 = (3,-1)_3, -1 not a square mod 3
    assert hilbert_symbol(1, -5, 5) == 1


def test_hilbert_symbol_symmetry_and_bilinearity():
    for p in (2, 3, 5, 7, fields.INF):
        for a in (-2, 3, 5, -7):
            for b in (2, -3, 6):
                assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
                assert hilbert_symbol(a * a, b, p) == 1


def test_bad_place():
    with pytest.raises(errors.BadPlace):
        hilbert_symbol(2, 3, 4)


def test_signatures_and_orderings():
    f = formal(2)
    t0 = canonicalize((False, (0,)), f)
    assert signature_at(t0, (1, -1)) == 1
    assert signature_at(t0, (-1, 1)) == -1
    assert len(list(orderings(f))) == 4
    assert list(orderings(reals())) == [()]
    with pytest.raises(errors.OrderingLengthMismatch):
        signature_at(t0, (1,))


def test_parse_field_roundtrip():
    for text in ("q", "r", "fp:11", "formal:3"):
        assert str(parse_field(text)) == text
    with pytest.raises(errors.BadBackend):
        parse_field("c")


def test_square_class_json_roundtrip():
    for f, raw in ((Q, -6), (F7, 3), (reals(), -2), (formal(2), (True, (1,)))):
        c = canonicalize(raw, f)
        assert sq_from_json(sq_to_json(c), f) == c


@settings(max_examples=300)
@given(st.integers(-10**9, 10**9).filter(bool))
def test_factor_matches_sympy(m):
    assert factor(m) == sorted(sympy.factorint(abs(m)).items())


def test_factor_accepts_proven_prime_cofactors():
    p = 1542617003933  # prime above bound^2: trial division alone cannot finish
    assert factor(p) == [(p, 1)]
    assert factor(-12 * p) == [(2, 2), (3, 1), (p, 1)]
    assert canonicalize(1542617003933, Q).data == 1542617003933
    # a product of two primes above the bound is not proven prime
    with pytest.raises(errors.FactorLimitExceeded):
        factor(1000003 * 1000033)


def test_miller_rabin_is_deterministic():
    # the least strong pseudoprime to the bases 2..37 is caught by base 41
    assert not fields._proven_prime(318665857834031151167461)
    # the least one to the bases 2..41 is not decided at all
    assert not fields._proven_prime(fields.MR_LIMIT)
    assert fields._proven_prime(2**61 - 1)


squarefree = st.integers(-(10**6), 10**6).filter(bool).map(lambda n: canonicalize(n, Q))


@settings(deadline=None)
@given(squarefree, squarefree)
def test_sq_mul_matches_canonical_product(a, b):
    assert sq_mul(a, b) == canonicalize(a.data * b.data, Q)


def test_sq_mul_of_big_primes_does_not_factor():
    a, b = canonicalize(1000003, Q), canonicalize(1000033, Q)
    assert sq_mul(a, b).data == 1000036000099
    assert sq_mul(sq_mul(a, b), b) == a


def test_f2_independent():
    assert fields.f2_independent([canonicalize(r, Q) for r in (2, 3, -6)])
    assert not fields.f2_independent([canonicalize(r, Q) for r in (2, 3, 6)])
    assert not fields.f2_independent([canonicalize(1, Q)])


def test_hilbert_symbol_does_not_factor_its_arguments():
    p, q = 1000003, 1000033
    for v in (2, 3, 5, p, fields.INF):
        assert hilbert_symbol(p * q, -3, v) == hilbert_symbol(p, -3, v) * hilbert_symbol(q, -3, v)
        assert hilbert_symbol(p * p, -3, v) == 1
    assert hilbert_symbol(Fraction(p * q, 3), 5, 3) == hilbert_symbol(3 * p * q, 5, 3)


def _reference_factor(m, bound=10**6):
    """Trial division by every odd number up to the bound: the loop that
    fields.factor skips whole blocks of."""
    m = abs(m)
    out = []
    d = 2
    prime_left = m > bound and fields._proven_prime(m)
    while d * d <= m and not prime_left:
        if d > bound:
            raise errors.FactorLimitExceeded(f"factor search exceeded bound {bound}")
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            out.append((d, e))
            prime_left = m > bound and fields._proven_prime(m)
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _factor_or_raise(f, m):
    try:
        return f(m)
    except errors.FactorLimitExceeded as exc:
        return str(exc)


def test_block_factor_matches_trial_division():
    # each input on which trial division walks far (two primes above 1000,
    # a raise) costs the reference about 0.1 s, so those are few
    rng = random.Random(1031)
    small = lambda: sympy.prevprime(rng.randrange(3, 1024))
    mid = lambda: sympy.prevprime(rng.randrange(10**3, 10**6))
    below = lambda: sympy.prevprime(rng.randrange(10**6 - 3000, 10**6))
    above = lambda: sympy.nextprime(rng.randrange(10**6, 10**6 + 3000))
    near_mr = sympy.prevprime(fields.MR_LIMIT)
    inputs = [3234440376479073110638, -4149007827154116]  # the sextic's pivots
    inputs += [near_mr, -6 * near_mr, sympy.prevprime(near_mr) * 1031**2 * 32]
    inputs += [5 * sympy.nextprime(fields.MR_LIMIT)]  # a prime too large to prove
    for _ in range(6):
        inputs.append(rng.choice((1, -1)) * small() ** rng.randint(1, 3) * small() * small())
        inputs.append(small() * mid() ** rng.randint(1, 2))
        inputs.append(above() * small() ** rng.randint(0, 2))
    for _ in range(2):
        inputs += [mid() * mid(), below() * above(), above() ** 2 * small()]
    inputs.append(below() ** 2 * mid())
    for m in inputs:
        assert _factor_or_raise(factor, m) == _factor_or_raise(_reference_factor, m), m


def test_block_table_is_built_on_first_need_only():
    # importing the CLI and factoring below 1025^2 leave the table unbuilt
    code = (
        "import wittcalc.cli\n"
        "from wittcalc import fields\n"
        "fields.canonicalize(-(1021 * 1019) * 2**40, fields.rationals())\n"
        "print(fields._block_products.cache_info().currsize)\n"
        "fields.factor(1031 * 1033)\n"
        "print(fields._block_products.cache_info().currsize)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.stdout.split() == ["0", "1"], out.stderr


def _reference_f2_reduce(rows):
    # the elimination f2_reduce replaced: every incoming row against every
    # kept row, in the order they were kept
    kept = []
    for row in rows:
        for top, piv in kept:
            if row & top:
                row ^= piv
        if row:
            kept.append((1 << (row.bit_length() - 1), row))
    return [row for _, row in kept]


def test_f2_reduce_matches_reference_elimination():
    rng = random.Random(67)
    for _ in range(400):
        width = rng.randint(1, 40)
        rows = [rng.getrandbits(width) for _ in range(rng.randint(0, 2 * width))]
        # dependent rows: repeats, and sums of two rows (0 when they coincide)
        for _ in range(rng.randint(0, 4)):
            if rows:
                rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows))
                rows.insert(rng.randrange(len(rows) + 1), rng.choice(rows) ^ rng.choice(rows))
        assert fields.f2_reduce(rows) == _reference_f2_reduce(rows), rows
        assert fields.f2_reduce(iter(rows)) == _reference_f2_reduce(rows)


def test_generator_is_built_from_its_canonical_payload(monkeypatch):
    towers = (formal(0), formal(1), formal(5), laurent_q(3))
    want = {
        f: [canonicalize((False if f.kind == fields.FORMAL else 1, (i,)), f) for i in range(f.g)]
        for f in towers
    }

    def refuse(*args):
        raise AssertionError("generator canonicalized its payload")

    monkeypatch.setattr(fields, "canonicalize", refuse)
    for f in towers:
        assert [fields.generator(f, i) for i in range(f.g)] == want[f]
        for i in (-1, f.g):
            with pytest.raises(errors.BadBackend) as exc:
                fields.generator(f, i)
            assert str(exc.value) == f"generator index out of range for {f}"
    for f in (rationals(), reals(), finite_field(5)):
        with pytest.raises(errors.BadBackend) as exc:
            fields.generator(f, 0)
        assert str(exc.value) == f"{f} has no Laurent generators"


def _parent_hilbert_at_prime(a, b, p):
    # _hilbert_at_prime before it read both valuations through _val: a
    # separate 2-adic split of |a|, |b| with the sign put back, and two
    # inline loops at odd p
    def two_val(n):
        v = 0
        while n % 2 == 0:
            n //= 2
            v += 1
        return v, n

    if p == 2:
        alpha, u = two_val(abs(a))
        beta, v = two_val(abs(b))
        u, v = u * (1 if a > 0 else -1), v * (1 if b > 0 else -1)
        exp = fields._eps(u) * fields._eps(v) + alpha * fields._omega(v) + beta * fields._omega(u)
        return -1 if exp % 2 else 1
    alpha, u = 0, a
    while u % p == 0:
        u //= p
        alpha += 1
    beta, v = 0, b
    while v % p == 0:
        v //= p
        beta += 1
    s = -1 if (alpha * beta * fields._eps(p)) % 2 else 1
    if beta % 2 and pow(u % p, (p - 1) // 2, p) != 1:
        s = -s
    if alpha % 2 and pow(v % p, (p - 1) // 2, p) != 1:
        s = -s
    return s


def test_hilbert_at_prime_matches_separate_valuations():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(-300, 301):
            for b in range(-60, 61):
                if a and b:
                    assert fields._hilbert_at_prime(a, b, p) == _parent_hilbert_at_prime(a, b, p), (a, b, p)


def test_reals_are_formal_zero():
    # the reals take formal(0)'s signature path: one empty ordering, the sign
    # as a payload without generators, and no reals descriptor with g != 0
    R, F0 = reals(), formal(0)
    assert list(orderings(R)) == list(orderings(F0)) == [()]
    for x in (3, -2, Fraction(-1, 5)):
        assert signature_at(canonicalize(x, R), ()) == signature_at(canonicalize(x, F0), ())
    with pytest.raises(errors.OrderingLengthMismatch, match="expected 0"):
        signature_at(canonicalize(-1, R), (1,))
    for kind in (fields.REALS, fields.RATIONALS):
        with pytest.raises(errors.BadBackend, match="no Laurent generators"):
            fields.FieldDescriptor(kind, g=2)
