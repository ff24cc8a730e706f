import random

import pytest

from wittcalc import errors, fields, witt
from wittcalc.cohomology import coh_add, coh_zero, e_map
from wittcalc.fields import canonicalize, formal, rationals
from wittcalc.lifting import (
    EvaluationTable,
    _solve_f2,
    decompose,
    e_extract,
    table_from_json,
    table_to_json,
)
from wittcalc.sampling import random_pfister_presentation, random_torsor
from wittcalc.weyl import BN, lift_u
from wittcalc.witt import (
    filtration_degree,
    pfister,
    signatures,
    witt_add,
    witt_eq,
    witt_int_scale,
    witt_mul,
    witt_one,
    witt_sub,
    witt_zero,
)

F2 = formal(2)
F4 = formal(4)


def gen(field, i):
    return canonicalize((False, (i,)), field)


def test_e_extract_frozen_pfister():
    w = pfister(F2, [gen(F2, 0), gen(F2, 1)])
    got = e_extract(w, 2)
    (sym,) = got.symbols
    assert [f.data for f in sym.factors] == [(False, (0,)), (False, (1,))]


def test_e_extract_zero_and_additivity():
    assert e_extract(witt_zero(F2), 3).is_presented_zero()
    a = pfister(F2, [gen(F2, 0)])
    b = pfister(F2, [gen(F2, 1)])
    assert e_extract(witt_add(a, b), 1) == coh_add(e_extract(a, 1), e_extract(b, 1))


def test_e_extract_rejects_low_filtration():
    with pytest.raises(errors.NotInIdealPower):
        e_extract(witt_one(F2), 1)
    with pytest.raises(errors.UnsupportedBackend):
        e_extract(witt_one(rationals()), 0)


def test_e_extract_matches_e_map_on_presentations():
    rng = random.Random(31)
    for _ in range(100):
        d = rng.randint(1, 4)
        pres = random_pfister_presentation(rng, F4, d, nterms=rng.randint(1, 3))
        assert e_extract(pres.to_witt(), d) == e_map(pres)


def test_e_extract_kernel_means_higher_filtration():
    rng = random.Random(37)
    for _ in range(50):
        d = rng.randint(1, 3)
        pres = random_pfister_presentation(rng, F2, d, nterms=rng.randint(1, 3))
        w = pres.to_witt()
        if e_extract(w, d).is_presented_zero():
            assert filtration_degree(w, d + 1) >= d + 1


def test_solve_f2_units():
    # x0 = 1
    assert _solve_f2([(0b1, 1)], 1) == 0b1
    # x0 + x1 = 1, x1 = 0
    assert _solve_f2([(0b11, 1), (0b10, 0)], 2) == 0b01
    # inconsistent
    assert _solve_f2([(0b1, 1), (0b1, 0)], 1) is None
    # free variable: any particular solution satisfies the system
    sol = _solve_f2([(0b11, 0)], 2)
    assert sol is not None and bin(sol).count("1") % 2 == 0


def make_tables(rng, ntrials=6, n=2, field=F4):
    samples = tuple(
        random_torsor(rng, field, BN, rng.randint(n, 3), rng.randint(1, 3))
        for _ in range(ntrials)
    )
    tables = [
        EvaluationTable(samples, tuple(lift_u(t, d) for t in samples), d)
        for d in range(n + 1)
    ]
    return samples, tables


def test_decompose_identity():
    rng = random.Random(41)
    samples, tables = make_tables(rng)
    dec = decompose(tables[1], tables, n0=3)
    assert witt_eq(dec.coefficients[1], witt_one(F4))
    assert witt_eq(dec.coefficients[0], witt_zero(F4))
    assert witt_eq(dec.constant, witt_zero(F4))
    assert dec.residual_ok


def test_decompose_synthetic_combination():
    rng = random.Random(43)
    samples, tables = make_tables(rng)
    c0 = witt_int_scale(3, witt_one(F4))
    c1 = witt_sub(pfister(F4, [gen(F4, 0)]), pfister(F4, [gen(F4, 2)]))
    values = tuple(
        witt_add(
            witt_mul(c0, tables[0].values[s]), witt_mul(c1, tables[1].values[s])
        )
        for s in range(len(samples))
    )
    target = EvaluationTable(samples, values, 0)
    dec = decompose(target, tables, n0=4)
    assert dec.residual_ok
    assert witt_eq(dec.constant, witt_zero(F4))
    for s in range(len(samples)):
        rebuilt = witt_zero(F4)
        for c, tab in zip(dec.coefficients, tables):
            rebuilt = witt_add(rebuilt, witt_mul(c, tab.values[s]))
        assert witt_eq(rebuilt, target.values[s])


def test_decompose_constant_offset():
    rng = random.Random(47)
    samples, tables = make_tables(rng)
    shift = witt_int_scale(2, witt_one(F4))
    values = tuple(witt_add(tables[1].values[s], shift) for s in range(len(samples)))
    target = EvaluationTable(samples, values, 0)
    dec = decompose(target, tables, n0=3)
    assert dec.residual_ok
    # the shift is absorbed by the degree-0 generator, whose table is
    # identically <1>, so the leftover constant vanishes
    assert witt_eq(dec.constant, witt_zero(F4))
    for s in range(len(samples)):
        rebuilt = dec.constant
        for c, tab in zip(dec.coefficients, tables):
            rebuilt = witt_add(rebuilt, witt_mul(c, tab.values[s]))
        assert witt_eq(rebuilt, target.values[s])


def test_decompose_output_is_pinned():
    # recorded before e_extract and decompose moved onto normal-form
    # symbols; listing the unknowns of a generator in reverse order makes
    # this input raise ResidualNonConstant instead
    rng = random.Random(0)
    samples, tables = make_tables(rng)
    t = [gen(F4, i) for i in range(4)]
    c0 = witt_add(pfister(F4, [t[0]]), pfister(F4, [t[2], t[3]]))
    c1 = witt_sub(pfister(F4, [t[1]]), pfister(F4, [t[1], t[2]]))
    values = tuple(
        witt_add(witt_mul(c0, tables[0].values[s]), witt_mul(c1, tables[1].values[s]))
        for s in range(len(samples))
    )
    dec = decompose(EvaluationTable(samples, values, 0), tables, n0=4)
    got = [[(cls.data, k) for cls, k in c.terms] for c in dec.coefficients]
    assert got == [
        [
            ((False, ()), 2),
            ((False, (0,)), -1),
            ((False, (2,)), -1),
            ((False, (2, 3)), 1),
            ((False, (3,)), -1),
        ],
        [((False, (1, 2)), -1), ((False, (2,)), 1)],
        [],
    ]
    assert dec.constant.terms == ()
    assert dec.residual_ok


def test_ordering_cap():
    f = formal(fields.MAX_ORDERING_GENERATORS + 1)
    w = pfister(f, [gen(f, 0)])
    with pytest.raises(errors.OrderingLimitExceeded):
        signatures(w)
    with pytest.raises(errors.OrderingLimitExceeded):
        filtration_degree(w, 2)
    with pytest.raises(errors.OrderingLimitExceeded):
        e_extract(w, 1)
    fields.orderings(formal(fields.MAX_ORDERING_GENERATORS))  # at the cap: allowed


def test_no_per_ordering_evaluation(monkeypatch):
    # every signature comes from the one transform, never ordering by ordering
    def refuse(*args):
        raise AssertionError("signature evaluated at a single ordering")

    monkeypatch.setattr(witt, "total_signature", refuse)
    monkeypatch.setattr(witt, "signature_at", refuse)
    monkeypatch.setattr(fields, "signature_at", refuse)
    f6 = formal(6)
    samples, tables = make_tables(random.Random(67), field=f6)
    w = tables[2].values[0]
    assert list(signatures(w)) == list(fields.orderings(f6))
    assert filtration_degree(w, 4) >= 2
    assert e_extract(w, 2).degree == 2
    dec = decompose(tables[1], tables, n0=3)
    assert witt_eq(dec.coefficients[1], witt_one(f6))
    assert dec.residual_ok


def test_table_validation():
    rng = random.Random(53)
    samples = (random_torsor(rng, F2, BN, 2, 1),)
    with pytest.raises(errors.InvalidInput):
        EvaluationTable(samples, (), 0)
    with pytest.raises(errors.InvalidInput):
        # <1> has filtration degree 0, below a declared degree of 1
        EvaluationTable(samples, (witt_one(F2),), 1)
    with pytest.raises(errors.UnsupportedBackend):
        EvaluationTable(samples, (witt_one(rationals()),), 0)


def test_table_json_roundtrip():
    rng = random.Random(59)
    samples, tables = make_tables(rng, ntrials=3, n=1)
    for tab in tables:
        back = table_from_json(table_to_json(tab))
        assert back == tab
