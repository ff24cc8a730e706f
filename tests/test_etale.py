import time

import numpy as np
import pytest
import sympy
from fractions import Fraction

from wittcalc import errors
from wittcalc.etale import (
    EtaleAlgebra,
    Multiquadratic,
    etale,
    etale_from_json,
    etale_to_json,
    multiquadratic,
    pair_from_json,
    pair_to_json,
    poly_component,
    power_sums,
    quadratic_layer_trace_form,
    quadratic_pair,
    trace_form,
    trace_gram,
)
from wittcalc.fields import canonicalize, formal, rationals
from wittcalc.witt import from_diagonal, gram, witt_eq

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
