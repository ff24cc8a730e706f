import itertools
import random
import time

import numpy as np
import pytest
import sympy
from fractions import Fraction

from wittcalc import errors, fields
from wittcalc.etale import (
    EtaleAlgebra,
    Multiquadratic,
    Poly,
    etale,
    etale_from_json,
    etale_to_json,
    multiquadratic,
    pair_from_json,
    pair_to_json,
    poly_component,
    poly_mod,
    poly_trim,
    power_sums,
    quadratic_layer_trace_form,
    quadratic_pair,
    trace_form,
    trace_gram,
)
from wittcalc.fields import canonicalize, formal, rationals
from wittcalc.witt import DiagonalForm, diagonalize, from_diagonal, gram, witt_eq

Q = rationals()


def test_power_sums_quadratic():
    # x^2 - 2: p0 = 2, p1 = 0, p2 = 4, p3 = 0, p4 = 8
    p = power_sums([Fraction(-2), Fraction(0), Fraction(1)], 5)
    assert p == [2, 0, 4, 0, 8]


def test_power_sums_with_linear_term():
    # x^2 - 3x + 2 has roots 1, 2
    p = power_sums([Fraction(2), Fraction(-3), Fraction(1)], 4)
    assert p == [2, 3, 5, 9]


def test_trace_gram_quadratic():
    g = trace_gram(etale([poly_component([-5, 0, 1])]))
    assert g.entries == ((Fraction(2), Fraction(0)), (Fraction(0), Fraction(10)))


def test_trace_form_values():
    q = trace_form(etale([poly_component([-5, 0, 1])]))
    assert [e.data for e in q.entries] == [2, 10]
    mq = trace_form(etale([multiquadratic([2, 3])]))
    assert sorted(e.data for e in mq.entries) == [1, 2, 3, 6]


def test_component_validation():
    with pytest.raises(errors.InvalidInput):
        poly_component([1, 0, 2])  # not monic
    with pytest.raises(errors.InvalidInput):
        poly_component([0, 0, 1])  # x^2 is not squarefree
    with pytest.raises(errors.DegreeOutOfRange):
        poly_component([0] * 13 + [1])
    with pytest.raises(errors.InvalidInput):
        multiquadratic([2, 8])  # 8 = 2 * square


def test_split_algebra_is_unit_form():
    split = etale([poly_component([2, -3, 1])])  # (x-1)(x-2)
    assert witt_eq(
        from_diagonal(trace_form(split)),
        from_diagonal(trace_form(etale([poly_component([-1, 1]), poly_component([-2, 1])]))),
    )


def test_quadratic_pair_validation():
    base = etale([poly_component([-2, 0, 1])])
    quadratic_pair(base, [[0, 1]])
    with pytest.raises(errors.InvalidInput):
        quadratic_pair(base, [])  # missing delta
    with pytest.raises(errors.InvalidInput):
        quadratic_pair(base, [[0]])  # delta = 0
    with pytest.raises(errors.InvalidInput):
        quadratic_pair(etale([poly_component([0, 1])]), [[0, 1]])  # delta = x = 0 in Q[x]/(x)


def test_quadratic_layer_frozen_oracle():
    pair = quadratic_pair(etale([poly_component([-2, 0, 1])]), [[0, 1]])
    layer = quadratic_layer_trace_form(pair)
    oracle = gram(Q, [[4, 0, 0, 0], [0, 8, 0, 0], [0, 0, 0, 8], [0, 0, 8, 0]])
    from wittcalc.witt import diagonalize

    assert witt_eq(from_diagonal(layer), from_diagonal(diagonalize(oracle)))


def test_quadratic_layer_numeric_signature():
    # L = Q(2^{1/4}) has two real embeddings, so the trace form has
    # signature 2; cross-check the exact Gram against floating point
    pair = quadratic_pair(etale([poly_component([-2, 0, 1])]), [[0, 1]])
    layer = quadratic_layer_trace_form(pair)
    signs = [1 if e.data > 0 else -1 for e in layer.entries]
    assert sum(signs) == 2

    theta = 2 ** 0.25
    basis = [lambda x: 1, lambda x: x * x, lambda x: x, lambda x: x**3]
    roots = [theta, -theta, 1j * theta, -1j * theta]
    m = np.array(
        [[sum(f(r) * g(r) for r in roots) for g in basis] for f in basis]
    )
    eig = np.linalg.eigvalsh(np.real(m))
    assert sum(1 if v > 0 else -1 for v in eig) == 2


def test_formal_multiquadratic_trace_form():
    f = formal(1)
    t0 = canonicalize((False, (0,)), f)
    alg = EtaleAlgebra(f, (Multiquadratic(f, (t0,)),))
    q = trace_form(alg)
    # 2 is a square here, so the closed form collapses to <1, t>
    assert [e.data for e in q.entries] == [(False, ()), (False, (0,))]
    with pytest.raises(errors.UnsupportedBackend):
        trace_gram(alg)


def test_degrees_add_up():
    alg = etale([poly_component([-2, 0, 1]), multiquadratic([3, 5])])
    assert alg.degree == 6
    assert trace_form(alg).dim == 6


def test_json_roundtrip():
    alg = etale([poly_component([-2, 0, 1]), multiquadratic([3])])
    back = etale_from_json(etale_to_json(alg), Q)
    assert back == alg
    pair = quadratic_pair(etale([poly_component([-2, 0, 1])]), [[0, 1]])
    assert pair_from_json(pair_to_json(pair)) == pair


def test_trace_form_with_prime_pivot_cofactor():
    # x^6 - 6x^5 - 3x^4 - 4x^3 - 8x^2 + 5x - 9: a pivot has the prime cofactor
    # 1542617003933, above the square of the factor bound
    coeffs = [-9, 5, -8, -4, -3, -6, 1]
    q = trace_form(etale([poly_component(coeffs)]))
    x = sympy.symbols("x")
    f = sum(c * x**i for i, c in enumerate(coeffs))
    assert sum(1 if e.data > 0 else -1 for e in q.entries) == len(sympy.real_roots(f))
    det = 1
    for e in q.entries:
        det *= e.data
    assert canonicalize(det, Q) == canonicalize(int(sympy.discriminant(f, x)), Q)
    assert any(e.data % 1542617003933 == 0 for e in q.entries)


PRIME_COFACTOR_SEXTIC = (-9, 5, -8, -4, -3, -6, 1)


def test_prime_cofactor_trace_form_budget():
    # the pivots 3234440376479073110638 and -4149007827154116 have the prime
    # factors 440303 and 329801, far past the divisors tried one by one
    alg = etale([poly_component(PRIME_COFACTOR_SEXTIC)])
    first = trace_form(alg)  # may build the factor table
    t0 = time.perf_counter()
    assert trace_form(alg) == first
    assert time.perf_counter() - t0 < 0.020


# ---------------------------------------------------------------------------
# trace forms as they were written before the Hankel pairing: each trace
# reduced mod f, and Gram blocks built densely and then copied, kept as oracles


def _parent_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def _parent_tr_element(f, g, p):
    g = poly_mod(list(g), list(f))
    return sum((c * p[i] for i, c in enumerate(g)), Fraction(0))


def _parent_poly_trace_block(comp):
    n = comp.degree
    p = power_sums(list(comp.coeffs), 2 * n - 1)
    return [[p[i + j] for j in range(n)] for i in range(n)]


def _parent_mq_diag(comp, scale, value):
    out = []
    for mask in itertools.product((0, 1), repeat=len(comp.classes)):
        v = scale
        for bit, d in zip(mask, comp.classes):
            if bit:
                v = v * value(d)
        out.append(v)
    return out


def _parent_trace_gram(e):
    blocks = []
    for comp in e.components:
        if isinstance(comp, Poly):
            blocks.append(_parent_poly_trace_block(comp))
        else:
            diag = _parent_mq_diag(comp, Fraction(comp.degree), lambda d: d.data)
            blocks.append(
                [[diag[i] if i == j else Fraction(0) for j in range(len(diag))] for i in range(len(diag))]
            )
    n = sum(len(b) for b in blocks)
    m = [[Fraction(0)] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                m[off + i][off + j] = v
        off += len(b)
    return gram(e.field, m)


def _parent_trace_form(e):
    entries = []
    for comp in e.components:
        if isinstance(comp, Poly):
            entries.extend(diagonalize(gram(e.field, _parent_poly_trace_block(comp))).entries)
        else:
            two = canonicalize(2 if len(comp.classes) % 2 else 1, e.field)
            entries.extend(_parent_mq_diag(comp, two, lambda d: d))
    return DiagonalForm(e.field, tuple(entries))


def _parent_quadratic_layer_trace_form(pair):
    entries = []
    for comp, delta in zip(pair.base.components, pair.deltas):
        f = list(comp.coeffs)
        n = comp.degree
        p = power_sums(f, 2 * n - 1 + max(0, len(delta) - 1))
        even = [[2 * p[a + b] for b in range(n)] for a in range(n)]
        odd = []
        for a in range(n):
            row = []
            for b in range(n):
                mono = [Fraction(0)] * (a + b) + [Fraction(1)]
                row.append(2 * _parent_tr_element(f, _parent_poly_mul(mono, list(delta)), p))
            odd.append(row)
        for block in (even, odd):
            entries.extend(diagonalize(gram(pair.base.field, block)).entries)
    return DiagonalForm(pair.base.field, tuple(entries))


def _random_poly(rng, max_degree=4, height=5):
    """A monic squarefree polynomial, constant coefficient first."""
    while True:
        coeffs = [rng.randint(-height, height) for _ in range(rng.randint(1, max_degree))] + [1]
        try:
            return poly_component(coeffs)
        except errors.InvalidInput:
            continue


def _outcome(fn, *args):
    """fn(*args), or the type of the error it raised (the factor bound can
    fire inside diagonalize on either side)."""
    try:
        return fn(*args)
    except errors.WittCalcError as exc:
        return type(exc)


def test_quadratic_layer_matches_parent():
    rng = random.Random("quadratic layer")
    checked = wide = padded = answered = 0
    while checked < 150:
        comps = [_random_poly(rng) for _ in range(rng.randint(1, 2))]
        deltas = []
        for comp in comps:
            delta = [rng.choice((Fraction(rng.randint(-6, 6)), Fraction(rng.randint(-6, 6), rng.randint(1, 4))))
                     for _ in range(rng.randint(1, comp.degree + 2))]
            if rng.random() < 0.25:
                delta += [0] * rng.randint(1, 2)  # trailing zeros
            deltas.append(delta)
        try:
            pair = quadratic_pair(etale(comps), deltas)
        except errors.InvalidInput:
            continue  # a delta that is not a unit
        checked += 1
        wide += any(len(poly_trim(list(d))) > c.degree for c, d in zip(comps, deltas))
        padded += any(d[-1] == 0 for d in deltas)
        got = _outcome(quadratic_layer_trace_form, pair)
        assert got == _outcome(_parent_quadratic_layer_trace_form, pair), pair
        answered += isinstance(got, DiagonalForm)
    assert wide and padded and answered > 100


def test_trace_gram_and_form_match_parent():
    rng = random.Random("trace gram")
    for _ in range(80):
        comps = []
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.5:
                comps.append(_random_poly(rng))
            else:
                classes = []
                for c in rng.sample((-1, 2, 3, 5, -7, 6, 10, Fraction(1, 3)), rng.randint(0, 3)):
                    if fields.f2_independent([canonicalize(x, Q) for x in classes + [c]]):
                        classes.append(c)
                comps.append(multiquadratic(classes))
        e = etale(comps)
        assert trace_gram(e) == _parent_trace_gram(e), e
        assert _outcome(trace_form, e) == _outcome(_parent_trace_form, e), e


def test_quadratic_layer_matches_primitive_element_trace_form():
    # L = K[y]/(y^2 - delta) over K = Q[x]/(f): the roots of
    # chi(y) = Res_x(f(x), y^2 - delta(x)) are the +-sqrt(delta(alpha)), so when
    # chi is squarefree y is a primitive element, L = Q[y]/(chi), and the two
    # trace forms are isometric; deg f <= 3 keeps chi within DEGREE_CAP
    x, y = sympy.symbols("x y")
    rng = random.Random("quadratic layer by resultant")
    checked = 0
    for _ in range(300):
        fc = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))] + [1]
        dc = [rng.randint(-3, 3) for _ in range(rng.randint(1, len(fc) - 1))]
        try:
            pair = quadratic_pair(etale([poly_component(fc)]), [dc])
        except errors.InvalidInput:
            continue  # f is not squarefree, or delta is not a unit
        f = sum(c * x**i for i, c in enumerate(fc))
        delta = sum(c * x**i for i, c in enumerate(dc))
        chi = sympy.Poly(sympy.resultant(f, y**2 - delta, x), y).monic()
        if chi.gcd(chi.diff(y)).degree() > 0:
            continue  # y is not a primitive element
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(chi.all_coeffs())]
        want = trace_form(etale([poly_component(coeffs)]))
        got = quadratic_layer_trace_form(pair)
        assert got.dim == want.dim == 2 * (len(fc) - 1)
        assert witt_eq(from_diagonal(got), from_diagonal(want)), (fc, dc)
        checked += 1
    assert checked >= 120
