import itertools
import random

import pytest

from wittcalc import cohomology, errors, fields, weyl
from wittcalc.cohomology import (
    coh_add,
    coh_from_json,
    coh_to_json,
    coh_zero,
    cup,
    e_map,
    is_zero,
    sw,
    sw_lift,
    sw_mod,
    sw_mod_lift,
    symbol_normalize,
)
from wittcalc.fields import canonicalize, finite_field, formal, laurent_q, rationals
from wittcalc.sampling import random_form, random_square_class
from wittcalc.witt import (
    PfisterPresentation,
    diagonal,
    pfister,
    witt_eq,
    witt_sub,
    witt_zero,
)

Q = rationals()


def sym(factors, field=Q):
    return symbol_normalize(factors, field)


def test_degree_one_multilinearity():
    assert sym([6]) == coh_add(sym([2]), sym([3]))
    assert sym([4]).is_presented_zero()


def test_square_relation():
    f = formal(2)
    t1 = canonicalize((False, (0,)), f)
    got = sym([t1, t1], f)
    assert got == sym([t1, -1], f)
    # consistency with the Witt-side identity <<a,a>> = <<a,-1>>
    assert witt_eq(
        witt_sub(pfister(Q, [3, 3]), pfister(Q, [3, -1])), witt_zero(Q)
    )


def test_zero_factor_rejected():
    with pytest.raises(errors.ZeroFactor):
        sym([0, 3])


def test_cup_expansion():
    f = formal(2)
    t1 = canonicalize((False, (0,)), f)
    t2 = canonicalize((False, (1,)), f)
    lhs = cup(coh_add(sym([t1], f), sym([t2], f)), sym([t1], f))
    rhs = coh_add(sym([t1, -1], f), sym([t1, t2], f))
    assert lhs == rhs
    assert cup(sym([t1], f), coh_zero(f, 1)).is_presented_zero()


def test_is_zero_rationals():
    assert not is_zero(sym([-1, -1, -1]))
    assert is_zero(coh_add(sym([2, -1]), sym([2, -1])))
    # (2,3) has Hilbert symbol -1 at the dyadic place
    assert not is_zero(sym([2, 3]))
    assert is_zero(sym([2, 7]))  # 2 is a square mod 7, and (2,7)_2 = +1


def test_finite_field_cohomology_collapses():
    f5 = finite_field(5)
    assert sym([2, 2], f5).is_presented_zero()
    assert not sym([2], f5).is_presented_zero()
    assert is_zero(cup(sym([2], f5), sym([2], f5)))


def test_e_map():
    p = PfisterPresentation(Q, 1, ((1, (canonicalize(3, Q),)),))
    assert e_map(p) == sym([3])
    even = PfisterPresentation(Q, 2, ((2, (canonicalize(3, Q), canonicalize(5, Q))),))
    assert e_map(even).is_presented_zero()


def test_sw_small_cases():
    q = diagonal(Q, [2, 3])
    assert sw(q, 0).symbols == symbol_normalize([], Q).symbols
    assert sw(q, 1) == coh_add(sym([2]), sym([3]))
    assert sw(q, 2) == sym([2, 3])
    assert sw(diagonal(Q, [1, 1, 1]), 2).is_presented_zero()
    with pytest.raises(errors.DegreeOutOfRange):
        sw(q, 3)


def test_sw_first_class_is_discriminant():
    rng = random.Random(3)
    for _ in range(10):
        q = random_form(rng, Q, rng.randint(1, 4), height=10)
        prod = 1
        for e in q.entries:
            prod *= e.data
        assert sw(q, 1) == sym([prod])


def test_sw_formal_fast_path_matches_subset_formula():
    rng = random.Random(9)
    backends = [formal(3), Q, fields.reals(), finite_field(5), finite_field(7), laurent_q(2)]
    for f in backends:
        for _ in range(10):
            dim = rng.randint(1, 5)
            if f.kind == fields.LAURENT_Q:
                entries = []
                for _ in range(dim):
                    r = rng.choice((1, -1)) * rng.randint(1, 30)
                    entries.append((r, tuple(i for i in range(f.g) if rng.random() < 0.5)))
                q = diagonal(f, entries)
            else:
                q = random_form(rng, f, dim)
            for d in range(q.dim + 1):
                brute = coh_zero(f, d)
                for idx in itertools.combinations(range(q.dim), d):
                    brute = coh_add(brute, sym([q.entries[i] for i in idx], f))
                assert sw(q, d) == brute, (f, q, d)


def test_whitney_sum_formula():
    rng = random.Random(17)
    f = formal(3)
    for _ in range(10):
        a = random_form(rng, f, rng.randint(1, 3))
        b = random_form(rng, f, rng.randint(1, 3))
        ab = diagonal(f, list(a.entries) + list(b.entries))
        for d in range(ab.dim + 1):
            want = coh_zero(f, d)
            for i in range(d + 1):
                if i <= a.dim and d - i <= b.dim:
                    want = coh_add(want, cup(sw(a, i), sw(b, d - i)))
            assert sw(ab, d) == want


def test_sw_mod():
    q = diagonal(Q, [2, 3])
    assert sw_mod(q, 1) == sw(q, 1)
    assert sw_mod(q, 2) == coh_add(sym([2, 3]), sym([2, 6]))
    assert sw_mod(diagonal(Q, [1, 1, 1]), 2).is_presented_zero()
    # (2) dies over the formal backend, so no modification happens there
    f = formal(1)
    qf = diagonal(f, [(False, (0,)), (True, ())])
    assert sw_mod(qf, 2) == sw(qf, 2)


def test_lift_coefficients():
    assert sw_lift(2, 2) == [1, -1, 1]
    assert sw_lift(3, 1) == [3, -1]
    assert sw_lift(4, 0) == [1]
    rec = sw_mod_lift(2, 2)
    assert rec.plain == (1, -1, 1)
    assert rec.two_scaled == (2, -1)
    assert sw_mod_lift(3, 1).two_scaled is None
    assert sw_mod_lift(3, 0).two_scaled is None
    with pytest.raises(errors.DegreeOutOfRange):
        sw_lift(2, 3)


def test_coh_json_roundtrip():
    c = sym([2, -15])
    assert coh_from_json(coh_to_json(c), Q) == c


def test_is_zero_unsupported_over_laurent_q():
    k = laurent_q(1)
    with pytest.raises(errors.UnsupportedBackend):
        is_zero(sym([2, (1, (0,))], k))


def test_is_zero_visits_places_in_order(monkeypatch):
    places = []

    hilbert_at_prime = fields._hilbert_at_prime

    def recording(a, b, place):
        places.append(place)
        return hilbert_at_prime(a, b, place)

    monkeypatch.setattr(fields, "_hilbert_at_prime", recording)
    # every symbol vanishes, so no place ends the loop early: (-1, a) = 1 for
    # a sum of two squares a, and (2, 7) = 1 since 7 = 3^2 - 2 * 1^2
    c = sym([-1, 2])
    for factors in ([-1, 5], [2, 7], [-1, 13]):
        c = coh_add(c, sym(factors))
    assert is_zero(c)
    assert places == [v for v in (2, 5, 7, 13) for _ in c.symbols]


def _parent_reduce_symbol(field, factors):
    """(a)(a) = (a)(-1) to exhaustion, as cohomology._reduce_symbol did it."""
    return cohomology.padded_symbol(field, set(factors) - {fields.minus_one(field)}, len(factors))


def _parent_xor(acc, s):
    if s in acc:
        acc.remove(s)
    else:
        acc.add(s)


def _parent_symbol_normalize(raw_factors, field):
    """symbol_normalize before coh_sum: per-symbol xor with its own F_p guard."""
    try:
        factors = [canonicalize(f, field) for f in raw_factors]
    except errors.ZeroElement as exc:
        raise errors.ZeroFactor("symbol factor is zero") from exc
    degree = len(factors)
    if field.kind == fields.FINITE and degree >= 2:
        return coh_zero(field, degree)
    acc = set()
    for combo in itertools.product(*[fields.basis_factors(f) for f in factors]):
        _parent_xor(acc, _parent_reduce_symbol(field, combo))
    return cohomology.CohClass(field, degree, frozenset(tuple(f.data for f in s.factors) for s in acc))


def _parent_cup(a, b):
    degree = a.degree + b.degree
    if a.field.kind == fields.FINITE and degree >= 2:
        return coh_zero(a.field, degree)
    acc = set()
    for sa in a.symbols:
        for sb in b.symbols:
            _parent_xor(acc, _parent_reduce_symbol(a.field, sa.factors + sb.factors))
    return cohomology.CohClass(a.field, degree, frozenset(tuple(f.data for f in s.factors) for s in acc))


def _parent_e_map(p):
    out = coh_zero(p.field, p.degree)
    for coeff, gens in p.terms:
        if coeff % 2:
            out = coh_add(out, _parent_symbol_normalize(gens, p.field))
    return out


def _parent_specialize_coh(c, subs):
    out = coh_zero(Q, c.degree)
    for s in c.symbols:
        images = [weyl.specialize_class(f, subs) for f in s.factors]
        out = coh_add(out, _parent_symbol_normalize(images, Q))
    return out


def _raw_factor(rng, field):
    """A random class, the class of -1, or one of the raw elements -1, 4 and 1."""
    if field.kind == fields.LAURENT_Q:
        r = rng.choice((1, -1)) * rng.randint(1, 30)
        cls = canonicalize((r, tuple(i for i in range(field.g) if rng.random() < 0.5)), field)
    else:
        cls = random_square_class(rng, field, height=30)
    return rng.choice((cls, cls, fields.minus_one(field), -1, 4, 1))


def _raw_symbol(rng, field, degree):
    factors = [_raw_factor(rng, field) for _ in range(degree)]
    if degree >= 2 and rng.random() < 0.5:
        factors[rng.randrange(degree)] = rng.choice(factors)  # a repeated factor
    return factors


def _symbol_sum(rng, field, degree):
    c = coh_zero(field, degree)
    for _ in range(rng.randint(0, 3)):
        c = coh_add(c, symbol_normalize(_raw_symbol(rng, field, degree), field))
    return c


@pytest.mark.parametrize(
    "field",
    [rationals(), finite_field(3), finite_field(5), fields.reals(), formal(4), laurent_q(2)],
    ids=str,
)
def test_normal_form_constructor_matches_parent(field):
    # every class is built by coh_sum; the oracle xors reduced symbols one by
    # one, with an F_p guard in each routine and a coh_add loop in e_map
    rng = random.Random(f"coh_sum {field}")
    has_json = field.kind != fields.LAURENT_Q

    def same(got, want):
        assert got == want
        if has_json:
            assert coh_to_json(got) == coh_to_json(want)
            assert coh_from_json(coh_to_json(want), field) == want

    for degree in range(5):
        for _ in range(8):
            raw = _raw_symbol(rng, field, degree)
            same(symbol_normalize(raw, field), _parent_symbol_normalize(raw, field))
    for _ in range(30):
        a = _symbol_sum(rng, field, rng.randint(0, 3))
        b = _symbol_sum(rng, field, rng.randint(0, 3))
        same(cup(a, b), _parent_cup(a, b))
        same(cup(a, a), _parent_cup(a, a))
    if field.kind == fields.LAURENT_Q:
        for subs in [(2, 3), (-1, 5), (4, 6), (-3, -7), (10, 15)]:
            for degree in range(4):
                c = _symbol_sum(rng, field, degree)
                got, want = weyl.specialize_coh(c, subs), _parent_specialize_coh(c, subs)
                assert got == want and coh_to_json(got) == coh_to_json(want)
        return
    m1 = fields.minus_one(field)
    for degree in range(5):
        for _ in range(8):
            terms = tuple(
                (
                    rng.choice((-2, -1, 0, 1, 2, 3)),
                    tuple(canonicalize(f, field) for f in _raw_symbol(rng, field, degree)),
                )
                for _ in range(rng.randint(0, 4))
            )
            if terms and degree:
                terms += ((1, (m1,) * degree), terms[0])  # (-1)...(-1), and a repeat
            p = PfisterPresentation(field, degree, terms)
            same(e_map(p), _parent_e_map(p))


@pytest.mark.parametrize("field", [rationals(), finite_field(5)], ids=str)
def test_e_map_checks_every_odd_term(field):
    # also over F_p in degree 2, where the class is 0 whatever the terms
    other = canonicalize(3, formal(1))
    with pytest.raises(errors.BadBackend):
        e_map(PfisterPresentation(field, 2, ((1, (canonicalize(2, field), other)),)))
    with pytest.raises(errors.ZeroFactor):
        e_map(PfisterPresentation(field, 2, ((3, (2, 0)),)))
    with pytest.raises(errors.ZeroFactor):
        e_map(PfisterPresentation(field, 2, ((2, (2, 0)),)))


def test_coh_from_json_checks_symbol_length():
    with pytest.raises(errors.DegreeOutOfRange, match="symbol of length 1 in a degree-2 class"):
        coh_from_json({"degree": 2, "symbols": [[2]]}, Q)
    with pytest.raises(errors.DegreeOutOfRange, match="length 3"):
        coh_from_json({"degree": 2, "symbols": [[1, 1], [1, 0, 1]]}, finite_field(5))
