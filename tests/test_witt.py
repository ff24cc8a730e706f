import functools
import itertools
import math
import random
import time

import pytest
from fractions import Fraction

from wittcalc import errors, fields
from wittcalc.cohomology import sw_mod_lift
from wittcalc.fields import (
    SquareClass,
    canonicalize,
    finite_field,
    formal,
    hilbert_symbol,
    laurent_q,
    rationals,
    reals,
    trivial_class,
)
from wittcalc.sampling import random_form, random_square_class
from wittcalc.witt import (
    DiagonalForm,
    PfisterPresentation,
    WittClass,
    diagonal,
    diagonalize,
    filtration_degree,
    from_diagonal,
    gram,
    gram_of_diagonal,
    lambda_combination,
    lambda_power,
    lambda_power_gram_oracle,
    make_witt,
    pfister,
    signature_vector,
    signatures,
    total_signature,
    virtual_rank,
    witt_add,
    witt_int_scale,
    witt_eq,
    witt_from_json,
    witt_mul,
    witt_one,
    witt_sub,
    witt_to_json,
    witt_zero,
)

Q = rationals()


def wq(*entries):
    return from_diagonal(diagonal(Q, entries))


def test_sign_folding():
    w = make_witt(Q, {canonicalize(-3, Q): 1})
    assert w.terms == ((canonicalize(3, Q), -1),)
    f = formal(1)
    w = make_witt(f, {canonicalize((True, (0,)), f): 2})
    assert w.terms == ((canonicalize((False, (0,)), f), -2),)


def test_hyperbolic_cancels():
    assert wq(1, -1).is_presented_zero()
    assert witt_eq(wq(1, 1, -1, -1), witt_zero(Q))


def test_witt_eq_frozen_rationals():
    # <2,3> and <6,1> share rank, signature and discriminant but differ
    # in the Hasse invariant at 2
    assert not witt_eq(wq(2, 3), wq(6, 1))
    # 2 is a sum of two squares, so <2,2> is equivalent to <1,1>
    assert witt_eq(wq(2, 2), wq(1, 1))
    assert not witt_eq(wq(1), wq(2))
    assert witt_eq(wq(5, -5), witt_zero(Q))


def test_witt_eq_finite():
    f5 = finite_field(5)
    two = canonicalize(2, f5)  # nonresidue mod 5
    assert not witt_eq(
        make_witt(f5, {two: 1}), witt_one(f5)
    )
    assert witt_eq(make_witt(f5, {two: 2}), make_witt(f5, {canonicalize(1, f5): 2}))


def test_square_relation_on_pfister_forms():
    # <<a,a>> = <<a,-1>> as presentations, matching the symbol relation
    for a in (2, 3, -5):
        assert pfister(Q, [a, a]) == pfister(Q, [a, -1])


def test_lambda_power_subsets():
    q = diagonal(Q, [2, 3, 5])
    assert lambda_power(q, 0) == witt_one(Q)
    assert lambda_power(q, 1) == from_diagonal(q)
    assert lambda_power(q, 2) == wq(6, 10, 15)
    assert lambda_power(q, 3) == wq(30)
    with pytest.raises(errors.DegreeOutOfRange):
        lambda_power(q, 4)


def test_gram_oracle_minors():
    g = gram_of_diagonal(diagonal(Q, [1, 2]))
    m = lambda_power_gram_oracle(g, 2)
    assert m.entries == ((Fraction(2),),)


def test_diagonalize_hyperbolic_plane():
    d = diagonalize(gram(Q, [[0, 1], [1, 0]]))
    assert witt_eq(from_diagonal(d), witt_zero(Q))


def test_diagonalize_congruence_invariants():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i):
                m[i][j] = m[j][i]
        from wittcalc.witt import _det

        if _det(m) == 0:
            continue
        q = diagonalize(gram(Q, m))
        assert q.dim == n


def test_diagonalize_over_fp_eliminates_mod_p():
    # pivots are reduced mod p as they are made: dimension and determinant
    # class mod p, which classify forms over F_p, match the Gram matrix
    from wittcalc.witt import _det

    rng = random.Random(73)
    for p in (3, 5, 7):
        field = finite_field(p)
        seen = {"form": 0, "degenerate": 0}
        for _ in range(150):
            n = rng.randint(1, 5)
            m = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.7:
                        m[i][j] = m[j][i] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))
            det = _det(m)
            if det.numerator % p == 0:
                seen["degenerate"] += 1
                with pytest.raises(errors.DegenerateMatrix):
                    diagonalize(gram(field, m))
                continue
            seen["form"] += 1
            q = diagonalize(gram(field, m))
            assert q.dim == n
            disc = functools.reduce(fields.sq_mul, q.entries, trivial_class(field))
            assert disc == canonicalize(det, field)
        assert min(seen.values()) >= 20, (p, seen)
    f7 = finite_field(7)
    # the rational pivot 7 vanishes mod 7: the hyperbolic plane
    assert [e.data for e in diagonalize(gram(f7, [[7, 1], [1, 0]])).entries] == [0, 1]
    with pytest.raises(errors.DegenerateMatrix):
        diagonalize(gram(f7, [[1, 1], [1, 8]]))
    with pytest.raises(errors.BadBackend):
        diagonalize(gram(f7, [[Fraction(1, 7), 1], [1, 0]]))


def test_degenerate_matrix_rejected():
    with pytest.raises(errors.DegenerateMatrix):
        diagonalize(gram(Q, [[1, 1], [1, 1]]))
    with pytest.raises(errors.DegenerateMatrix):
        gram(Q, [[0, 1], [2, 0]])


def test_signatures_formal():
    f = formal(1)
    w = pfister(f, [canonicalize((False, (0,)), f)])  # <1, -t>
    sig = signatures(w)
    assert sig[(1,)] == 0
    assert sig[(-1,)] == 2


def _random_signed_class(rng, field):
    """A class with coefficients of both signs, over <-x> and <x> alike;
    every other draw has coefficient sum (virtual rank) 0."""
    draws = [
        (random_square_class(rng, field), rng.choice((-3, -2, -1, 1, 2, 4)))
        for _ in range(rng.randint(0, 6))
    ]
    if draws and rng.random() < 0.5:
        draws.append((random_square_class(rng, field), -sum(k for _, k in draws)))
    return make_witt(field, draws)


def test_signature_vector_matches_total_signature():
    # oracle: the per-ordering sum over terms of k * signature_at(class)
    rng = random.Random(61)
    degrees = set()
    for field in [reals()] + [formal(g) for g in range(9)]:
        eps_list = list(fields.orderings(field))
        for _ in range(12):
            # scaled and multiplied by Pfister forms, to reach I^d for d > 0
            a = witt_int_scale(rng.choice((1, 2, 4, 16)), _random_signed_class(rng, field))
            for _ in range(rng.randint(0, 2)):
                a = witt_mul(a, pfister(field, [random_square_class(rng, field)]))
            vec = signature_vector(a)
            assert vec == [total_signature(a, eps) for eps in eps_list]
            assert list(signatures(a)) == eps_list
            for cap in range(7):
                d = 0
                while d < cap and all(s % 2 ** (d + 1) == 0 for s in vec):
                    d += 1
                assert filtration_degree(a, cap) == d
                degrees.add(d)
    assert degrees == set(range(7))
    with pytest.raises(errors.UnsupportedBackend):
        signatures(witt_one(Q))
    with pytest.raises(errors.OrderingLimitExceeded):
        signature_vector(witt_one(formal(fields.MAX_ORDERING_GENERATORS + 1)))


def test_filtration_degree():
    f = formal(2)
    t0 = canonicalize((False, (0,)), f)
    t1 = canonicalize((False, (1,)), f)
    assert filtration_degree(pfister(f, [t0, t1]), 5) == 2
    assert filtration_degree(witt_one(f), 5) == 0
    assert filtration_degree(witt_zero(f), 3) == 3
    with pytest.raises(errors.UnsupportedBackend):
        filtration_degree(witt_one(Q), 2)


def test_ring_laws_seeded():
    rng = random.Random(11)
    f = formal(2)
    for _ in range(25):
        a = from_diagonal(random_form(rng, f, rng.randint(1, 3)))
        b = from_diagonal(random_form(rng, f, rng.randint(1, 3)))
        c = from_diagonal(random_form(rng, f, rng.randint(1, 3)))
        assert witt_mul(a, b) == witt_mul(b, a)
        assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
        assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))


def test_virtual_rank_and_json():
    w = witt_sub(wq(2, 3, 5), wq(7))
    assert virtual_rank(w) == 2
    assert witt_from_json(witt_to_json(w), Q) == w


def test_reals_signature_equality():
    r = reals()
    a = make_witt(r, {canonicalize(1, r): 3})
    b = make_witt(r, {canonicalize(1, r): 5, canonicalize(-1, r): 2})
    assert witt_eq(a, b)


def test_witt_eq_unsupported_over_laurent_q():
    k = laurent_q(1)
    a = from_diagonal(diagonal(k, [2, (1, (0,))]))
    with pytest.raises(errors.UnsupportedBackend):
        witt_eq(a, a)


def test_big_prime_products():
    q = diagonal(Q, [1000003, 1000033])
    # the product is canonical without factoring; the bound applies to raw input only
    assert witt_to_json(lambda_power(q, 2)) == [{"class": 1000036000099, "coeff": 1}]
    assert witt_eq(pfister(Q, [1000003]), pfister(Q, [1000033])) is False


def test_gram_of_diagonal_is_rational_only():
    for field, raws in ((formal(1), [2]), (finite_field(7), [1, 3])):
        with pytest.raises(errors.UnsupportedBackend):
            gram_of_diagonal(diagonal(field, raws))


def test_witt_eq_does_not_expand_coefficients():
    # k<3> = k<1> and k<-7> = k<-1> exactly when 4 | k: 3 and 7 are not
    # sums of two squares, but every positive integer is a sum of four
    for a, b in ((3, 1), (-7, -1)):
        for k in range(1, 13):
            assert witt_eq(witt_int_scale(k, wq(a)), witt_int_scale(k, wq(b))) == (k % 4 == 0)
    t0 = time.monotonic()
    for a, b in ((3, 1), (-7, -1)):
        for k in (10**6, 10**6 + 2):
            assert witt_eq(witt_int_scale(k, wq(a)), witt_int_scale(k, wq(b))) == (k % 4 == 0)
    assert time.monotonic() - t0 < 1


def _entries(w):
    return [cls.data if k > 0 else -cls.data for cls, k in w.terms for _ in range(abs(k))]


def _rewrite(entries):
    """An isometric form: each pair <x, y> with x + y != 0 becomes
    <x + y, xy(x + y)>."""
    out = list(entries)
    for i in range(0, len(out) - 1, 2):
        x, y = out[i], out[i + 1]
        if x + y:
            out[i], out[i + 1] = x + y, x * y * (x + y)
    return out


def _hyperbolic_by_definition(w) -> bool:
    """Hasse-Minkowski with the pairwise Hasse product prod_{i<j} (a_i, a_j)_p."""
    a = _entries(w)
    n = len(a)
    if n % 2 or sum(1 if x > 0 else -1 for x in a) != 0:
        return False
    disc = (-1) ** (n * (n - 1) // 2) * math.prod(a)
    if disc < 0 or math.isqrt(disc) ** 2 != disc:
        return False
    h = n // 2
    for p in fields.hilbert_places(a):
        s = 1
        for i in range(n):
            for j in range(i + 1, n):
                s *= hilbert_symbol(a[i], a[j], p)
        if s != hilbert_symbol(-1, -1, p) ** (h * (h - 1) // 2):
            return False
    return True


def test_witt_eq_matches_pairwise_hasse_oracle():
    rng = random.Random(2024)
    pool = [x for x in range(-60, 61) if x]

    def random_class(dim):
        terms = []
        while dim > 0:
            k = rng.randint(1, min(4, dim))
            dim -= k
            terms.append((canonicalize(rng.choice(pool), Q), k * rng.choice((1, -1))))
        return make_witt(Q, terms)

    def hasse_pair(at_two):
        # (u, v)_p = -1 at p = 2 or at an odd prime p, with <<u, v>> of
        # signature 0: dim, signature and discriminant are hyperbolic
        while True:
            u, v = rng.choice(pool), rng.choice(pool)
            if u < 0 and v < 0:
                continue
            if at_two and hilbert_symbol(u, v, 2) == -1:
                return u, v
            odd = [p for p in fields.hilbert_places((u, v)) if p > 2]
            if not at_two and any(hilbert_symbol(u, v, p) == -1 for p in odd):
                return u, v

    answers = []
    for _ in range(120):
        a = random_class(rng.randint(1, 16))
        isometric = from_diagonal(diagonal(Q, _rewrite(_entries(a))))
        for b in (random_class(rng.randint(1, 16)), isometric):
            got = witt_eq(a, b)
            assert got == _hyperbolic_by_definition(witt_sub(a, b))
            answers.append(got)
        for at_two in (False, True):
            b = witt_add(isometric, pfister(Q, hasse_pair(at_two)))
            assert _hyperbolic_by_definition(witt_sub(a, b)) is False
            assert witt_eq(a, b) is False
    assert True in answers and False in answers

    for p in (2, 3, 5, 7, 11, 13):
        for x in range(-60, 61):
            for y in range(-60, 61):
                if x and y:
                    # the public entry on other representatives of the classes
                    assert fields._hilbert_at_prime(x, y, p) == hilbert_symbol(
                        Fraction(x, 9), 4 * y, p
                    )


def test_witt_eq_172_entries_factors_each_class_once(monkeypatch):
    rng = random.Random(172)
    entries = rng.sample([x for x in range(-10**5, 10**5 + 1) if x], 86)
    a, b = wq(*entries), wq(*_rewrite(entries))
    classes = len(witt_sub(a, b).terms)
    calls = []
    factor = fields.factor

    def counting(*args, **kwargs):
        calls.append(args[0])
        return factor(*args, **kwargs)

    monkeypatch.setattr(fields, "factor", counting)
    t0 = time.monotonic()
    assert witt_eq(a, b) is True
    assert time.monotonic() - t0 < 0.5
    assert len(calls) <= classes + 1


def _oracle_class(rng, field):
    if field.kind == fields.LAURENT_Q:
        r = rng.choice((1, -1)) * rng.randint(1, 30)
        return canonicalize((r, tuple(i for i in range(field.g) if rng.random() < 0.5)), field)
    return random_square_class(rng, field, height=30)


@pytest.mark.parametrize(
    "field",
    [rationals(), finite_field(3), finite_field(5), reals(), formal(4), laurent_q(2)],
    ids=str,
)
def test_payload_products_match_square_class_products(field):
    # lambda_power and witt_mul multiply payloads; the oracle folds SquareClass
    # objects with sq_mul, subset by subset and term by term.
    # lambda_combination and sw_mod_lift(n, d).apply sum rows of one DP in W,
    # or from witt.SPLIT_DIM entries on, products of two halves' rows; the
    # oracle sums lambda_power terms with witt_add and witt_int_scale
    rng = random.Random(str(field))
    crng = random.Random(f"combination {field}")

    def lambda_sum(q, coeffs):
        out = witt_zero(field)
        for l, c in enumerate(coeffs):
            out = witt_add(out, witt_int_scale(c, lambda_power(q, l)))
        return out

    for dim in (0, 1, 2, 5, 8, 11, 14):
        q = DiagonalForm(field, tuple(_oracle_class(rng, field) for _ in range(dim)))
        for d in range(dim + 1):
            want = []
            for subset in itertools.combinations(q.entries, d):
                want.append((functools.reduce(fields.sq_mul, subset, trivial_class(field)), 1))
            assert lambda_power(q, d) == make_witt(field, want)
            coeffs = [crng.choice((0, 0, 1, -1, 3, -4)) for _ in range(d + 1)]
            assert lambda_combination(q, coeffs) == lambda_sum(q, coeffs)
        assert lambda_combination(q, []) == witt_zero(field)
        with pytest.raises(errors.DegreeOutOfRange):
            lambda_combination(q, [1] * (dim + 2))
    two = pfister(field, [canonicalize(2, field)])
    for n in range(7):
        q = DiagonalForm(field, tuple(_oracle_class(crng, field) for _ in range(n)))
        for d in range(n + 1):
            rec = sw_mod_lift(n, d)
            want = lambda_sum(q, rec.plain)
            if rec.two_scaled is not None:
                want = witt_add(want, witt_mul(two, lambda_sum(q, rec.two_scaled)))
            assert rec.apply(q) == want
    for _ in range(10):
        a, b = (
            make_witt(field, [(_oracle_class(rng, field), rng.randint(-3, 3)) for _ in range(6)])
            for _ in range(2)
        )
        want = [(fields.sq_mul(ca, cb), ka * kb) for ca, ka in a.terms for cb, kb in b.terms]
        assert witt_mul(a, b) == make_witt(field, want)
        assert witt_add(a, b) == make_witt(field, a.terms + b.terms)


@pytest.mark.parametrize(
    "field",
    [rationals(), finite_field(3), finite_field(5), reals(), formal(4), laurent_q(2)],
    ids=str,
)
def test_folded_payloads_are_closed_under_products(field):
    # witt_mul, witt_add and the lambda DP and split sum products of folded
    # payloads without folding them again
    rng = random.Random(f"fold closure {field}")
    fold, mul = fields.payload_fold(field), fields.payload_mul(field)
    for _ in range(200):
        a, b = (fold(_oracle_class(rng, field).data)[0] for _ in range(2))
        assert fold(mul(a, b)) == (mul(a, b), 1)


def test_lambda_split_products_are_bounded_by_its_output(monkeypatch):
    # lambda^7 of the first 14 primes: C(14, 7) products of the two halves'
    # rows and 2^7 - 1 in each half's DP; one DP over all 14 makes 9,907
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    q = diagonal(Q, primes)
    calls = []
    mul = fields._squarefree_mul

    def counting(a, b):
        calls.append(None)
        return mul(a, b)

    monkeypatch.setattr(fields, "_squarefree_mul", counting)
    w = lambda_power(q, 7)
    assert len(w.data) == math.comb(14, 7)
    assert len(calls) <= math.comb(14, 7) + 2 * (2**7 - 1)


def _parent_fold(field, cls, coeff):
    """The fold <-a> = -<a> as witt._fold did it before fields.payload_fold."""
    kind = field.kind
    if kind == fields.RATIONALS:
        if cls.data < 0:
            return SquareClass(field, -cls.data), -coeff
    elif kind == fields.REALS:
        if cls.data < 0:
            return SquareClass(field, 1), -coeff
    elif kind == fields.FORMAL:
        neg, gens = cls.data
        if neg:
            return SquareClass(field, (False, gens)), -coeff
    elif kind == fields.LAURENT_Q:
        r, gens = cls.data
        if r < 0:
            return SquareClass(field, (-r, gens)), -coeff
    elif kind == fields.FINITE:
        if cls.data == 1 and cls == fields.minus_one(field):
            return trivial_class(field), -coeff
    return cls, coeff


def _parent_make_witt(field, term_map):
    """make_witt through _parent_fold and the old SquareClass.sort_key."""
    acc = {}
    for cls, coeff in term_map.items() if isinstance(term_map, dict) else term_map:
        cls, coeff = _parent_fold(field, cls, coeff)
        acc[cls] = acc.get(cls, 0) + coeff
    items = [(c, k) for c, k in acc.items() if k != 0]
    items.sort(key=lambda t: t[0].data if isinstance(t[0].data, tuple) else (t[0].data,))
    return WittClass(field, tuple((c.data, k) for c, k in items))


def _parent_mul(a, b):
    return _parent_make_witt(
        a.field, [(fields.sq_mul(ca, cb), ka * kb) for ca, ka in a.terms for cb, kb in b.terms]
    )


def _parent_pfister(field, alphas):
    """<<a_1, ..., a_n>> as the product of the binary forms <1> - <a_i>."""
    one = trivial_class(field)
    out = _parent_make_witt(field, {one: 1})
    for a in alphas:
        out = _parent_mul(out, _parent_make_witt(field, [(one, 1), (canonicalize(a, field), -1)]))
    return out


@pytest.mark.parametrize(
    "field",
    [rationals(), finite_field(3), finite_field(5), reals(), formal(4), laurent_q(2)],
    ids=str,
)
def test_payload_constructor_matches_parent_fold(field):
    # every class is built from payloads by one constructor; the oracle folds
    # SquareClass objects one by one and sorts them by the old sort key
    rng = random.Random(f"fold {field}")
    m1 = fields.minus_one(field)
    ref = _parent_make_witt

    def draw():
        terms = [(_oracle_class(rng, field), rng.choice((-2, -1, 0, 0, 1, 3))) for _ in range(6)]
        c = _oracle_class(rng, field)
        # a pair that cancels, and <-c> + <c>, which cancels where -1 is no square
        terms += [(c, 2), (c, -2), (fields.sq_mul(c, m1), 1), (c, 1)]
        rng.shuffle(terms)
        return terms

    for _ in range(20):
        terms, other = draw(), draw()
        a, b = make_witt(field, terms), make_witt(field, dict(other))
        assert a == ref(field, terms) and b == ref(field, dict(other))
        q = DiagonalForm(field, tuple(c for c, _ in terms))
        assert from_diagonal(q) == ref(field, [(e, 1) for e in q.entries])
        assert witt_add(a, b) == ref(field, a.terms + b.terms)
        assert witt_mul(a, b) == _parent_mul(a, b)
        for k in (0, -1, -3, 2):
            assert witt_int_scale(k, a) == ref(field, [(c, k * v) for c, v in a.terms])
    assert witt_one(field) == ref(field, {trivial_class(field): 1})
    for n in range(6):
        for _ in range(4):
            alphas = [rng.choice((_oracle_class(rng, field), m1, -1)) for _ in range(n)]
            if n:
                alphas.append(rng.choice(alphas))  # a repeated entry
            assert pfister(field, alphas) == _parent_pfister(field, alphas)
    for degree in range(4):
        terms = tuple(
            (
                rng.choice((-2, -1, 1, 3)),
                tuple(rng.choice((_oracle_class(rng, field), m1)) for _ in range(degree)),
            )
            for _ in range(rng.randint(0, 3))
        )
        want = [
            (c, coeff * k) for coeff, gens in terms for c, k in _parent_pfister(field, gens).terms
        ]
        assert PfisterPresentation(field, degree, terms).to_witt() == ref(field, want)


def _random_formal_class(rng, g):
    """A class of formal(g): sparse sums of Pfister forms scaled by powers of
    2, or random coefficients on every generator mask (with signs on the
    payloads, as a raw WittClass may carry them)."""
    f = formal(g)
    if rng.random() < 0.3:
        terms = []
        for gens in itertools.chain.from_iterable(
            itertools.combinations(range(g), j) for j in range(g + 1)
        ):
            cls = SquareClass(f, (rng.random() < 0.2, gens))
            terms.append((cls, rng.randint(-3, 3) << rng.randint(0, 3)))
        return WittClass(f, tuple((c.data, k) for c, k in terms if k))
    w = witt_zero(f)
    for _ in range(rng.randint(0, 4)):
        alphas = [random_square_class(rng, f) for _ in range(rng.randint(0, 3))]
        scale = rng.choice((1, -1, 3)) << rng.randint(0, 3)
        w = witt_add(w, witt_int_scale(scale, pfister(f, alphas)))
    return w


def test_filtration_degree_matches_signature_gcd():
    # the largest d <= cap with every signature divisible by 2^d
    def oracle(w, cap):
        n = math.gcd(*signature_vector(w))
        return cap if n == 0 else min(cap, (n & -n).bit_length() - 1)

    rng = random.Random(1701)
    seen = set()
    for _ in range(600):
        g = rng.randint(0, 8)
        w = _random_formal_class(rng, g)
        for cap in (0, rng.randint(1, 4), g + 3):
            d = filtration_degree(w, cap)
            assert d == oracle(w, cap)
            seen.add(d)
    for g in range(9):
        for cap in (0, 2):
            assert filtration_degree(witt_zero(formal(g)), cap) == cap
    for k in (0, 1, -4, 6, 12, -7):
        w = make_witt(reals(), {canonicalize(1, reals()): k})
        for cap in (0, 1, 5):
            assert filtration_degree(w, cap) == oracle(w, cap)
    assert seen >= set(range(6))


def test_filtration_degree_raise_order():
    big = formal(fields.MAX_ORDERING_GENERATORS + 1)
    t0 = SquareClass(big, (False, (0,)))
    # the cap is checked before the ordering cap, for any field size
    for f in (formal(3), big, reals()):
        with pytest.raises(errors.DegreeOutOfRange, match="cap must be >= 0"):
            filtration_degree(witt_one(f), -1)
    with pytest.raises(errors.OrderingLimitExceeded):
        filtration_degree(pfister(big, [t0]), 0)
    with pytest.raises(errors.UnsupportedBackend):
        filtration_degree(witt_one(Q), -1)


def test_superset_sums_match_direct_sums_on_both_branches():
    # C_T = sum of the signed coefficients c_S over S containing T, summed
    # term by term, for |T| <= k, on both sides of the enumerate/transform switch
    from wittcalc.witt import _superset_sums

    rng = random.Random(1723)
    branches = set()
    for _ in range(1000):
        g = rng.randint(0, 8)
        w = _random_formal_class(rng, g)
        k = rng.randint(-1, g + 1)
        terms = []
        for cls, c in w.terms:
            neg, gens = cls.data
            terms.append((sum(1 << (g - 1 - i) for i in gens), -c if neg else c))
        want = {}
        for t in range(1 << g):
            if t.bit_count() <= k:
                want[t] = sum(c for s, c in terms if s & t == t)
        assert _superset_sums(w, k) == {t: c for t, c in want.items() if c}
        count = sum(math.comb(s.bit_count(), j) for s, _ in terms for j in range(max(k, 0) + 1))
        branches.add(count <= g << g)
    assert branches == {True, False}


def _parent_diagonalize(g, seen):
    # diagonalize before it updated only the trailing block: every row and
    # column pass over the whole matrix; ``seen`` counts the swap and repair
    n = g.dim
    m = [list(row) for row in g.entries]
    entries = []
    for k in range(n):
        if m[k][k] == 0:
            j = next((j for j in range(k + 1, n) if m[j][j] != 0), None)
            if j is not None:
                seen["swap"] += 1
                m[k], m[j] = m[j], m[k]
                for row in m:
                    row[k], row[j] = row[j], row[k]
            else:
                j = next((j for j in range(k + 1, n) if m[k][j] != 0), None)
                if j is None:
                    raise errors.DegenerateMatrix("gram matrix is degenerate")
                seen["repair"] += 1
                for col in range(n):
                    m[k][col] += m[j][col]
                for row in m:
                    row[k] += row[j]
        piv = m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / piv
            if f == 0:
                continue
            for col in range(n):
                m[i][col] -= f * m[k][col]
            for row in m:
                row[i] -= f * row[k]
        entries.append(canonicalize(piv, g.field))
    return DiagonalForm(g.field, tuple(entries))


def test_diagonalize_matches_full_matrix_updates():
    # same forms and same raises as the full-matrix routine on seeded
    # symmetric Gram matrices, many with zero diagonals (swap and repair)
    # and many degenerate
    rng = random.Random(1901)
    seen = {"swap": 0, "repair": 0, "degenerate": 0}
    for _ in range(3000):
        n = rng.randint(1, 6)
        zero_diagonal = rng.random() < 0.3
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if (i == j and zero_diagonal) or rng.random() < 0.35:
                    continue
                m[i][j] = m[j][i] = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        g = gram(Q, m)
        try:
            want = _parent_diagonalize(g, seen)
        except errors.DegenerateMatrix:
            seen["degenerate"] += 1
            with pytest.raises(errors.DegenerateMatrix):
                diagonalize(g)
            continue
        assert diagonalize(g) == want
    assert min(seen.values()) >= 100, seen
