"""Tests of the benchmark's own oracles and input generators.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_squarefree():
    assert oracles.squarefree(12) == 3
    assert oracles.squarefree(-18) == -2
    assert oracles.squarefree(Fraction(3, 8)) == 6
    assert oracles.class_factors(-12) == {-1, 3}


def test_lambda_classes_by_hand():
    # lambda^2 <2, 3, 5> = <6> + <10> + <15>
    assert oracles.lambda_classes([2, 3, 5], 2) == {6: 1, 10: 1, 15: 1}
    # lambda^2 <-1, 2> = <-2> = -<2>;  lambda^2 <2, 2> = <4> = <1>
    assert oracles.lambda_classes([-1, 2], 2) == {2: -1}
    assert oracles.lambda_classes([2, 2], 2) == {1: 1}
    # lambda^1 <3, -3> = <3> - <3> = 0
    assert oracles.lambda_classes([3, -3], 1) == {}


def test_rewrite_is_an_isometry_by_hand():
    assert oracles.rewrite(1, 1) == (2, 2)  # <1, 1> = <2, 2>
    assert oracles.rewrite(2, 3) == (5, 30)
    with pytest.raises(ValueError):
        oracles.rewrite(2, -2)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 3), (-5, 7), (-2, -3), (6, 10)])
def test_rewrite_keeps_signature_and_determinant(a, b):
    c, d = oracles.rewrite(a, b)
    assert (a > 0) + (b > 0) == (c > 0) + (d > 0)
    assert oracles.squarefree(a * b) == oracles.squarefree(c * d)


def test_hasse_pairs_by_legendre():
    assert oracles.hasse_pair(3, 2)  # 2 is not a square mod 3
    assert oracles.hasse_pair(5, 2)
    assert not oracles.hasse_pair(7, 2)  # 3^2 = 2 mod 7
    assert not oracles.hasse_pair(3, 7)  # 7 = 1 mod 3
    assert not oracles.hasse_pair(3, 6)  # not prime to p
    assert not oracles.hasse_pair(9, 2)  # not a prime


def test_sylvester_by_hand():
    assert oracles.sylvester((-5, 0, 1)) == (2, 5)  # disc 20
    assert oracles.sylvester((1, 0, 1)) == (0, -1)  # disc -4
    assert oracles.sylvester((-2, 0, 0, 1)) == (1, -3)  # disc -108
    assert oracles.discriminant((1, 2, 1)) == 0  # (x + 1)^2


def test_hankel_pivots_by_hand():
    # x^2 - 5: power sums 2, 0, 10, so the trace form is <2, 10>
    assert oracles.hankel_pivots((-5, 0, 1)) == [2, 10]
    # x^2 + x: power sums 2, -1, 1; pivots 2 and (2 - 1) / 2
    assert oracles.hankel_pivots((0, 1, 1)) == [2, Fraction(1, 2)]


def test_factor_bound_prediction():
    assert not oracles.exceeds_factor_bound(1000003)  # prime, found below sqrt
    assert oracles.exceeds_factor_bound(1000003 * 1000033)
    assert not oracles.exceeds_factor_bound(Fraction(2**40 * 3, 7))
    pivots = oracles.hankel_pivots(workloads.PRIME_COFACTOR_SEXTIC)
    assert [oracles.exceeds_factor_bound(x) for x in pivots] == [False] * 5 + [True]
    assert pivots[-1].numerator == 1542617003933


def test_inertia_by_hand():
    assert oracles.inertia([[0, 1], [1, 0]]) == (0, -1)  # hyperbolic plane
    assert oracles.inertia([[2, 0], [0, 3]]) == (2, 6)
    assert oracles.inertia([[1, 2], [2, 4]]) is None


def test_elementary_symmetric_and_signs():
    assert oracles.elementary_symmetric([1, 1, -1], 2) == -1
    assert oracles.elementary_symmetric([1, -1, 1, -1], 4) == 1
    assert oracles.elementary_symmetric([1, 1], 0) == 1
    # -t_1 at the ordering t_1 < 0 is positive
    assert oracles.formal_sign(True, 0b01, 0b01) == 1
    assert oracles.formal_sign(False, 0b11, 0b01) == -1


def test_formal_sw_by_hand():
    assert oracles.formal_sw_masks([(False, 0b01), (False, 0b10)], 2) == {0b11}
    # (t)(t) = (t)(-1)
    assert oracles.formal_sw_masks([(False, 0b01), (False, 0b01)], 2) == {0b01}
    assert oracles.formal_sw_masks([(True, 0)], 1) == {0}
    # sw_1 <1> = 0
    assert oracles.formal_sw_masks([(False, 0)], 1) == set()
    # sw_1 <-t_1> = (-1) + (t_1)
    assert oracles.formal_sw_masks([(True, 0b01)], 1) == {0, 0b01}


def test_group_ring():
    assert oracles.formal_group_ring_mul({1: 1}, {1: 1}) == {0: 1}
    assert oracles.formal_group_ring_mul({0: 1, 1: -1}, {0: 1, 2: -1}) == {0: 1, 1: -1, 2: -1, 3: 1}
    assert oracles.formal_group_ring_add({0: 2}, {0: 2}, -1) == {}


def test_f2_independence():
    assert not oracles.f2_independent([1, 2, 3])
    assert oracles.f2_independent([1, 2, 4])
    assert not oracles.rational_classes_independent([2, 3, 6])
    assert oracles.rational_classes_independent([2, 3, -5])
    assert not oracles.rational_classes_independent([2, 8])


def _compose(a, b):
    """(sigma, I)(tau, J) = (sigma tau, tau^-1(I) xor J), as in weyl.wreath_mul."""
    (pa, fa), (pb, fb) = a, b
    inv = {v: i + 1 for i, v in enumerate(pb)}
    return tuple(pa[pb[i] - 1] for i in range(len(pa))), frozenset(inv[i] for i in fa) ^ fb


@pytest.mark.parametrize("even", [False, True])
def test_commuting_involutions(even):
    rng = random.Random(0)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 3)
        images = workloads.commuting_involutions(rng, n, m, even)
        ident = (tuple(range(1, n + 1)), frozenset())
        for g in images:
            assert _compose(g, g) == ident
            assert not even or len(g[1]) % 2 == 0
        for g in images:
            for h in images:
                assert _compose(g, h) == _compose(h, g)


def test_generators_are_seeded():
    assert workloads.trace_poly(random.Random(5), 6) == workloads.trace_poly(random.Random(5), 6)
    for degree in range(2, 7):
        coeffs = workloads.trace_poly(random.Random(degree), degree)
        assert len(coeffs) == degree + 1 and coeffs[-1] == 1
        assert oracles.discriminant(coeffs) != 0
        assert not any(oracles.exceeds_factor_bound(x) for x in oracles.hankel_pivots(coeffs))
    p, v = workloads.hasse_pair(random.Random(1))
    assert oracles.hasse_pair(p, v)


@pytest.mark.parametrize("name", ["q-arith", "formal-lift"])
def test_rounds_have_one_shape_for_every_seed(name):
    workloads.import_program()
    build = workloads.q_arith_round if name == "q-arith" else workloads.formal_lift_round
    shapes = {tuple(op.kind for op in build(seed, 0)) for seed in (0, 1, 2)}
    assert len(shapes) == 1


def test_cli_rounds_have_one_shape(tmp_path):
    cli = workloads.Cli(tmp_path, in_process=True)
    shapes = {
        tuple(op.kind for op in workloads.cli_round(seed, 0, cli, tmp_path / str(seed)))
        for seed in (0, 1, 2)
    }
    assert len(shapes) == 1


def test_benchmark_json_lists_the_traced_metrics():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
