"""Witt and cohomology classes stored on payloads, against copies of the
routines that built every class through SquareClass and Symbol objects, and
a count of the view objects that the payload routines build."""

import itertools
import random

import pytest

from wittcalc import errors, fields, lifting
from wittcalc.cohomology import Symbol, cup, is_zero, sw, sw_mod, symbol_sum
from wittcalc.fields import (
    SquareClass,
    canonicalize,
    finite_field,
    formal,
    laurent_q,
    rationals,
    reals,
)
from wittcalc.witt import (
    DiagonalForm,
    from_diagonal,
    lambda_power,
    make_witt,
    pfister,
    witt_add,
    witt_eq,
    witt_int_scale,
    witt_mul,
    witt_zero,
)

FIELDS = [rationals(), finite_field(3), finite_field(5), reals(), formal(4), laurent_q(2)]


def _int(rng, field):
    """A random integer that is nonzero in ``field``."""
    v = 0
    while v == 0 or (field.kind == fields.FINITE and v % field.p == 0):
        v = rng.randint(-30, 30)
    return v


def _raw(rng, field):
    """A random nonzero element of ``field`` in a form canonicalize reads."""
    if field.kind not in fields.TOWERS:
        return _int(rng, field)
    gens = tuple(i for i in range(field.g) if rng.random() < 0.5)
    if field.kind == fields.FORMAL:
        return (rng.random() < 0.5, gens)
    return (rng.choice((1, -1)) * rng.randint(1, 30), gens)


def _cls(rng, field):
    return canonicalize(_raw(rng, field), field)


def _form(rng, field, dim):
    return DiagonalForm(field, tuple(_cls(rng, field) for _ in range(dim)))


def _witt(rng, field):
    return make_witt(field, [(_cls(rng, field), rng.randint(-3, 3)) for _ in range(rng.randint(0, 4))])


def _symbols(rng, field, degree):
    """Lists of raw factors, with -1 and repeated factors among them."""
    out = []
    for _ in range(rng.randint(0, 3)):
        factors = [rng.choice((_raw(rng, field), _raw(rng, field), -1)) for _ in range(degree)]
        if degree >= 2 and rng.random() < 0.3:
            factors[rng.randrange(degree)] = rng.choice(factors)
        out.append(factors)
    return out


# ---------------------------------------------------------------------------
# the routines as they were when every class was built from SquareClass and
# Symbol objects: Witt terms as (SquareClass, coeff) tuples, cohomology
# classes as frozensets of Symbols


def _old_witt(field, terms):
    """Fold <-a> = -<a>, sum equal classes, drop zeros, sort by payload."""
    fold = fields.payload_fold(field)
    acc = {}
    for c, k in terms:
        p, s = fold(c.data)
        acc[p] = acc.get(p, 0) + s * k
    return tuple((SquareClass(field, p), k) for p, k in sorted(acc.items()) if k)


def _old_mul(field, a, b):
    return _old_witt(field, [(fields.sq_mul(ca, cb), ka * kb) for ca, ka in a for cb, kb in b])


def _old_lambda_power(q, d):
    rows = [{canonicalize(1, q.field): 1}] + [{} for _ in range(d)]
    for idx, a in enumerate(q.entries):
        for j in range(min(d, idx + 1), 0, -1):
            for c, k in rows[j - 1].items():
                c = fields.sq_mul(c, a)
                rows[j][c] = rows[j].get(c, 0) + k
    return _old_witt(q.field, rows[d].items())


def _old_witt_eq(field, a, b):
    if field.kind == fields.LAURENT_Q:
        raise errors.UnsupportedBackend("witt_eq over laurent_q")
    w = _old_witt(field, a + tuple((c, -k) for c, k in b))
    if field.kind == fields.FORMAL:
        return not w
    if field.kind == fields.REALS:
        return sum(k * fields.signature_at(c, ()) for c, k in w) == 0
    m1, one = canonicalize(-1, field), canonicalize(1, field)
    runs = [(c, k) if k > 0 else (fields.sq_mul(c, m1), -k) for c, k in w]
    dim = sum(m for _, m in runs)
    if dim % 2:
        return False
    h = dim // 2
    disc = m1 if h % 2 else one
    for rep, m in runs:
        if m % 2:
            disc = fields.sq_mul(disc, rep)
    if disc != one:
        return False
    if field.kind == fields.FINITE:
        return True
    if sum(m if rep.data > 0 else -m for rep, m in runs) != 0:
        return False
    for p in fields.hilbert_places(rep.data for rep, _ in runs):
        s, prefix = 1, 1
        for rep, m in runs:
            x = prefix if m % 2 else 1
            if m * (m - 1) // 2 % 2:
                x = -x
            s *= fields._hilbert_at_prime(x, rep.data, p)
            if m % 2:
                prefix = fields._squarefree_mul(prefix, rep.data)
        if s != fields._hilbert_at_prime(-1, -1, p) ** (h * (h - 1) // 2 % 2):
            return False
    return True


def _old_basis_factors(a):
    field = a.field
    if field.kind == fields.RATIONALS:
        sign = (SquareClass(field, -1),) if a.data < 0 else ()
        return sign + tuple(SquareClass(field, p) for p, _ in fields.factor(a.data))
    if field.kind == fields.FINITE:
        return (a,) if a.data == 1 else ()
    if field.kind == fields.REALS:
        return (a,) if a.data == -1 else ()
    if field.kind == fields.FORMAL:
        neg, gens = a.data
        return ((SquareClass(field, (True, ())),) if neg else ()) + tuple(
            SquareClass(field, (False, (i,))) for i in gens
        )
    r, gens = a.data
    consts = _old_basis_factors(SquareClass(rationals(), r))
    return tuple(SquareClass(field, (c.data, ())) for c in consts) + tuple(
        fields.generator(field, i) for i in gens
    )


def _old_padded(field, classes, degree):
    factors = list(classes)
    factors += [canonicalize(-1, field)] * (degree - len(factors))
    factors.sort(key=lambda c: c.data)
    return Symbol(field, tuple(factors))


def _old_coh_sum(field, degree, products):
    if field.kind == fields.FINITE and degree >= 2:
        return frozenset()
    symbols = set()
    for bs in products:
        symbols ^= {_old_padded(field, set(bs), degree)}
    return frozenset(symbols)


def _old_symbol_sum(field, degree, symbols):
    symbols = [[canonicalize(f, field) for f in factors] for factors in symbols]
    products = (itertools.product(*map(_old_basis_factors, factors)) for factors in symbols)
    return _old_coh_sum(field, degree, itertools.chain.from_iterable(products))


def _old_cup(field, a, b, degree):
    return _old_coh_sum(field, degree, (sa.factors + sb.factors for sa in a for sb in b))


def _old_sw(q, d):
    field = q.field
    if field.kind == fields.FINITE and d >= 2:
        return frozenset()
    m1 = canonicalize(-1, field)
    bits = {}
    rows = [{0}] + [set() for _ in range(d)]
    for idx, a in enumerate(q.entries):
        items = [0 if f == m1 else 1 << bits.setdefault(f, len(bits)) for f in _old_basis_factors(a)]
        for j in range(min(d, idx + 1), 0, -1):
            for it in items:
                for m in rows[j - 1]:
                    rows[j] ^= {m | it}
    classes = list(bits)
    return frozenset(
        _old_padded(field, [c for i, c in enumerate(classes) if mask >> i & 1], d)
        for mask in rows[d]
    )


def _old_sw_mod(q, d):
    out = _old_sw(q, d)
    if d >= 2 and d % 2 == 0:
        two = _old_symbol_sum(q.field, 1, [[2]])
        out = out ^ _old_cup(q.field, two, _old_sw(q, d - 1), d)
    return out


def _old_is_zero(field, degree, symbols):
    if field.kind == fields.LAURENT_Q:
        raise errors.UnsupportedBackend("is_zero over laurent_q")
    if field.kind != fields.RATIONALS or degree <= 1:
        return not symbols
    m1 = canonicalize(-1, field)
    if degree == 2:
        factors = (f.data for sym in symbols for f in sym.factors)
        for v in fields.hilbert_places(factors) + [fields.INF]:
            s = 1
            for sym in symbols:
                a, b = sym.factors
                s *= fields.hilbert_symbol(a.data, b.data, v)
            if s != 1:
                return False
        return True
    return sum(1 for sym in symbols if all(f == m1 for f in sym.factors)) % 2 == 0


def _old_e_extract(field, terms, d):
    """Masks of the degree-d image from the signature at each ordering."""
    sigs = [sum(k * fields.signature_at(c, eps) for c, k in terms) for eps in fields.orderings(field)]
    g = field.g
    gens = [fields.generator(field, i) for i in range(g)]
    products = (
        [gens[i] for i in range(g) if m >> (g - 1 - i) & 1] for m in lifting._e_masks(sigs, g, d)
    )
    return _old_coh_sum(field, d, products)


# ---------------------------------------------------------------------------


def _both(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except errors.WittCalcError as exc:
        return type(exc)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_payload_routines_match_square_class_routines(field):
    rng = random.Random(f"payload views {field}")
    accepted = 0
    for _ in range(200):
        a, b = _witt(rng, field), _witt(rng, field)
        assert witt_add(a, b).terms == _old_witt(field, a.terms + b.terms)
        assert witt_mul(a, b).terms == _old_mul(field, a.terms, b.terms)
        assert _both(witt_eq, a, b) == _both(_old_witt_eq, field, a.terms, b.terms)
        # <x, y> = <x + y, xy(x + y)>, so a + <x, y> = a + <x + y, xy(x + y)>
        x, y = _int(rng, field), _int(rng, field)
        if x + y and (field.kind != fields.FINITE or (x + y) % field.p):
            lhs = witt_add(a, make_witt(field, [(canonicalize(v, field), 1) for v in (x, y)]))
            rhs = witt_add(
                a, make_witt(field, [(canonicalize(v, field), 1) for v in (x + y, x * y * (x + y))])
            )
            got = _both(witt_eq, lhs, rhs)
            assert got == _both(_old_witt_eq, field, lhs.terms, rhs.terms)
            accepted += got is True

        q = _form(rng, field, rng.randint(0, 5))
        d = rng.randint(0, q.dim)
        assert lambda_power(q, d).terms == _old_lambda_power(q, d)
        assert sw(q, d).symbols == _old_sw(q, d)
        assert sw_mod(q, d).symbols == _old_sw_mod(q, d)

        da, db = rng.randint(0, 3), rng.randint(0, 3)
        sa, sb = _symbols(rng, field, da), _symbols(rng, field, db)
        u, v = symbol_sum(field, da, sa), symbol_sum(field, db, sb)
        assert u.symbols == _old_symbol_sum(field, da, sa)
        assert v.symbols == _old_symbol_sum(field, db, sb)
        c = cup(u, v)
        assert c.symbols == _old_cup(field, u.symbols, v.symbols, da + db)
        for z in (u, c, sw(q, d)):
            assert _both(is_zero, z) == _both(_old_is_zero, field, z.degree, z.symbols)
    assert field.kind == fields.LAURENT_Q or accepted > 20


def test_e_extract_matches_signature_interpolation():
    field = formal(4)
    rng = random.Random("payload views e_extract")
    for _ in range(200):
        d = rng.randint(0, 4)
        w = witt_zero(field)
        for _ in range(rng.randint(0, 3)):
            alphas = [_cls(rng, field) for _ in range(d)]
            w = witt_add(w, witt_int_scale(rng.choice((1, -1, 3)), pfister(field, alphas)))
        for e in range(d + 2):  # d + 1 mostly raises NotInIdealPower on both sides
            got = _both(lifting.e_extract, w, e)
            want = _both(_old_e_extract, field, w.terms, e)
            assert (got if isinstance(got, type) else got.symbols) == want


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_routines_build_no_views_until_one_is_read(field, monkeypatch):
    rng = random.Random(f"no views {field}")
    q = _form(rng, field, 6)
    a, x = from_diagonal(q), sw(q, 1)
    built = []
    for cls in (SquareClass, Symbol):

        def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    one = witt_mul(lambda_power(q, 0), lambda_power(q, 0))  # <1>, never empty
    prod = witt_mul(lambda_power(q, 3), a)
    unit, c = cup(sw(q, 0), sw(q, 0)), cup(x, sw(q, 2))
    if field.kind != fields.LAURENT_Q:
        for z in (x, unit, c, cup(c, x), sw(q, 2)):
            is_zero(z)
    assert built == []
    assert len(one.data) == len(unit.data) == 1
    terms, symbols = one.terms + prod.terms, unit.symbols | c.symbols
    assert built.count(SquareClass) == len(terms) + sum(len(s.factors) for s in symbols)
    assert built.count(Symbol) == len(symbols)
