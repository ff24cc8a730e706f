import itertools
import math
import random
import time

import pytest

from wittcalc import errors, fields, lifting, witt
from wittcalc.cohomology import CohClass, coh_add, coh_zero, cup, e_map, padded_symbol
from wittcalc.fields import canonicalize, formal, rationals
from wittcalc.lifting import (
    EvaluationTable,
    _solve_f2,
    decompose,
    e_extract,
    table_from_json,
    table_to_json,
)
from wittcalc.sampling import random_pfister_presentation, random_square_class, random_torsor
from wittcalc.weyl import BN, lift_u
from wittcalc.witt import (
    filtration_degree,
    pfister,
    signature_vector,
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


def test_e_extract_rejects_negative_degree():
    # refused as a degree, not left to a shift by a negative count
    for w in (witt_zero(F2), witt_one(F2), pfister(F2, [gen(F2, 0)])):
        with pytest.raises(errors.DegreeOutOfRange):
            e_extract(w, -1)


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


def _reference_decompose(target, generators, n0):
    """decompose as it was before it moved onto signature vectors and masks:
    e_extract of every residual at every degree, cups of normal-form
    symbols, both signs built as Witt classes, constancy by witt_eq."""
    if not target.samples:
        raise errors.InvalidInput("empty sample list")
    field = target.values[0].field
    for tab in generators:
        if tab.samples != target.samples:
            raise errors.BackendMismatch("tables must share the sample list")
        if tab.declared_degree > n0:
            raise errors.InvalidInput("generator degree exceeds n0")
    g = field.g
    fields.orderings(field)
    nsamples = len(target.samples)
    residual = list(target.values)
    coeffs = [witt_zero(field) for _ in generators]
    gens = [fields.generator(field, j) for j in range(g)]
    basis = {
        n: [
            padded_symbol(field, [gens[j] for j in s], n)
            for k in range(min(n, g) + 1)
            for s in itertools.combinations(range(g), k)
        ]
        for n in range(n0 + 1)
    }
    for n in range(n0 + 1):
        r_sym = [e_extract(residual[s], n) for s in range(nsamples)]
        if all(c.is_presented_zero() for c in r_sym):
            continue
        unknowns = []
        columns = []
        for i, tab in enumerate(generators):
            m = tab.declared_degree
            if m > n:
                continue
            gen_sym = [e_extract(tab.values[s], m) for s in range(nsamples)]
            for beta in basis[n - m]:
                beta_cls = CohClass(field, n - m, frozenset({tuple(f.data for f in beta.factors)}))
                unknowns.append((i, beta))
                columns.append([cup(beta_cls, gen_sym[s]).symbols for s in range(nsamples)])
        rows = []
        for s in range(nsamples):
            for tgt in basis[n]:
                mask = 0
                for u, col in enumerate(columns):
                    if tgt in col[s]:
                        mask |= 1 << u
                rows.append((mask, 1 if tgt in r_sym[s].symbols else 0))
        sol = _solve_f2(rows, len(unknowns))
        if sol is None:
            raise errors.NotInSpan(f"degree-{n} image not in the span of the generators")
        for u, (i, beta) in enumerate(unknowns):
            if not (sol >> u & 1):
                continue
            q = pfister(field, beta.factors)
            best = None
            for sign in (1, -1):
                cand = [
                    witt_sub(residual[s], witt_int_scale(sign, witt_mul(q, generators[i].values[s])))
                    for s in range(nsamples)
                ]
                norm = sum(abs(s) for w in cand for s in signature_vector(w))
                if best is None or norm < best[0]:
                    best = (norm, sign, cand)
            coeffs[i] = witt_add(coeffs[i], witt_int_scale(best[1], q))
            residual = best[2]
    constant = residual[0]
    if not all(witt_eq(residual[s], constant) for s in range(1, nsamples)):
        raise errors.ResidualNonConstant("residual differs across samples")
    base_ok = not any(cls.data[1] for cls, _ in constant.terms)
    return [c.terms for c in coeffs], constant.terms, base_ok


def _unchecked_table(samples, values, degree):
    # skips the filtration check, so a value may lie below its declared degree
    tab = object.__new__(EvaluationTable)
    for name, value in (("samples", samples), ("values", values), ("declared_degree", degree)):
        object.__setattr__(tab, name, value)
    return tab


def _decompose_cases(rng, g):
    """Seeded decompose inputs over formal(g): a W-combination of the lift_u
    tables with integer and Pfister coefficients, then either kept, with a
    table dropped, one value moved, a table declared one degree too high,
    or every value shifted by an integer."""
    field = formal(g)
    for kind in range(5):
        n = rng.randint(1, 3)
        nsamples = rng.randint(1, 6)
        samples = tuple(
            random_torsor(rng, field, BN, n, rng.randint(1, min(3, g))) for _ in range(nsamples)
        )
        tables = [
            EvaluationTable(samples, tuple(lift_u(t, d) for t in samples), d) for d in range(n + 1)
        ]
        values = [witt_zero(field)] * nsamples
        for tab in tables:
            c = witt_int_scale(rng.randint(-3, 3), witt_one(field))
            for _ in range(rng.randint(0, 2)):
                alphas = [random_square_class(rng, field) for _ in range(rng.randint(0, 2))]
                c = witt_add(c, witt_int_scale(rng.choice((1, -1)), pfister(field, alphas)))
            values = [witt_add(v, witt_mul(c, w)) for v, w in zip(values, tab.values)]
        if kind == 1:
            del tables[rng.randrange(len(tables))]
        elif kind == 2:
            s = rng.randrange(nsamples)
            alphas = [random_square_class(rng, field) for _ in range(rng.randint(0, 2))]
            values[s] = witt_add(values[s], pfister(field, alphas))
        elif kind == 3:
            d = rng.randrange(len(tables))
            tables[d] = _unchecked_table(samples, tables[d].values, d + 1)
        elif kind == 4:
            shift = witt_int_scale(rng.choice((2, 4, 8, -8)), witt_one(field))
            values = [witt_add(v, shift) for v in values]
        yield EvaluationTable(samples, tuple(values), 0), tables, rng.randint(n, n + 3)


def _outcome(fn, target, tables, n0):
    try:
        got = fn(target, tables, n0)
    except errors.WittCalcError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, tuple):
        return got
    return [c.terms for c in got.coefficients], got.constant.terms, got.residual_ok


def test_decompose_matches_symbol_peel():
    # same coefficients, constant and residual_ok, or the same raise, as the
    # symbol-based peel, over formal(3)..formal(8)
    rng = random.Random(74)
    seen = set()
    for g in range(3, 9):
        # the symbol-based peel takes up to seconds a case from g = 6 on
        for _ in range(4 if g < 6 else 1):
            for target, tables, n0 in _decompose_cases(rng, g):
                want = _outcome(_reference_decompose, target, tables, n0)
                assert _outcome(decompose, target, tables, n0) == want
                seen.add(want[0] if isinstance(want[0], str) else "answer")
    assert seen >= {"answer", "NotInSpan", "ResidualNonConstant", "NotInIdealPower"}


def test_decompose_budget():
    # 6 samples over formal(8), n = 3, integer and Pfister coefficients:
    # best of 5 takes 14-25 ms, and 240 ms for the symbol-based peel
    rng = random.Random(38)
    f8 = formal(8)
    samples = tuple(random_torsor(rng, f8, BN, 3, rng.randint(1, 3)) for _ in range(6))
    tables = [
        EvaluationTable(samples, tuple(lift_u(t, d) for t in samples), d) for d in range(4)
    ]
    values = [witt_zero(f8)] * 6
    for tab in tables:
        c = witt_zero(f8)
        for _ in range(2):
            alphas = [random_square_class(rng, f8) for _ in range(rng.randint(0, 1))]
            c = witt_add(c, witt_int_scale(rng.choice((1, -1)), pfister(f8, alphas)))
        values = [witt_add(v, witt_mul(c, w)) for v, w in zip(values, tab.values)]
    target = EvaluationTable(samples, tuple(values), 0)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        dec = decompose(target, tables, 5)
        best = min(best, time.perf_counter() - t0)
    assert dec.residual_ok
    assert best < 0.050


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
    with pytest.raises(errors.DegreeOutOfRange, match="cap must be >= 0"):
        EvaluationTable(samples, (witt_one(F2),), -1)
    big = formal(fields.MAX_ORDERING_GENERATORS + 1)
    with pytest.raises(errors.OrderingLimitExceeded):
        EvaluationTable(samples, (witt_one(big),), 0)


def test_table_samples_and_values_share_one_field():
    # a formal(5) value on a formal(3) sample used to be accepted, and
    # decompose then failed with a misleading NotInIdealPower
    rng = random.Random(67)
    f3, f5 = formal(3), formal(5)
    s3, s5 = random_torsor(rng, f3, BN, 2, 1), random_torsor(rng, f5, BN, 2, 1)
    with pytest.raises(errors.BackendMismatch):
        EvaluationTable((s3,), (lift_u(s5, 1),), 1)
    with pytest.raises(errors.BackendMismatch):
        EvaluationTable((s3, s3), (lift_u(s3, 1), lift_u(s5, 1)), 1)
    with pytest.raises(errors.BackendMismatch):
        EvaluationTable((s3, s5), (lift_u(s3, 1), lift_u(s3, 1)), 1)
    tab = EvaluationTable((s3, s3), (lift_u(s3, 1), lift_u(s3, 1)), 1)
    assert decompose(tab, [tab], n0=1).residual_ok


def test_table_signature_vectors_are_computed_once(monkeypatch):
    rng = random.Random(61)
    _, tables = make_tables(rng, ntrials=3, n=1)
    seen = []

    def counting(w):
        seen.append(w)
        return signature_vector(w)

    monkeypatch.setattr(lifting, "signature_vector", counting)
    tables = [EvaluationTable(t.samples, t.values, t.declared_degree) for t in tables]
    values = [w for t in tables for w in t.values]
    assert seen == values
    for tab in tables:
        assert tab.signature_vectors == [signature_vector(w) for w in tab.values]
    seen.clear()
    dec = decompose(tables[1], tables, n0=2)
    assert dec.residual_ok
    # decompose reads the tables' vectors; it computes only its coefficients'
    assert not any(w is v for w in seen for v in values)


def test_table_json_roundtrip():
    rng = random.Random(59)
    samples, tables = make_tables(rng, ntrials=3, n=1)
    for tab in tables:
        back = table_from_json(table_to_json(tab))
        assert back == tab


def _ideal_power_class(rng, g, d):
    """A class of formal(g) in I^d: a sum of 2^e times (d-e)-fold Pfister
    forms, plus, for about a third of the draws, 2^d times random
    coefficients on every generator mask (some payloads carrying the sign)."""
    f = formal(g)
    w = witt_zero(f)
    for _ in range(rng.randint(0, 4)):
        e = rng.randint(0, d)
        alphas = [random_square_class(rng, f) for _ in range(d - e)]
        w = witt_add(w, witt_int_scale(rng.choice((1, -1, 3)) << e, pfister(f, alphas)))
    if rng.random() < 0.35:
        masks = itertools.chain.from_iterable(
            itertools.combinations(range(g), j) for j in range(g + 1)
        )
        dense = [
            (fields.SquareClass(f, (rng.random() < 0.2, gens)), rng.randint(-3, 3) << d)
            for gens in masks
        ]
        w = witt.WittClass(f, w.data + tuple((c.data, k) for c, k in dense if k))
    return w


def _enumerates(w, d):
    """Whether witt._superset_sums enumerates subsets (not transforms) for w."""
    g, k = w.field.g, min(d, w.field.g)
    count = sum(
        sum(math.comb(len(cls.data[1]), j) for j in range(k + 1)) for cls, _ in w.terms
    )
    return count <= g << g


def test_image_masks_match_signature_masks_on_both_branches():
    # the degree-d image read from the superset sums equals the one read from
    # the 2^g signatures by the F2 zeta transform, on either side of the switch
    rng = random.Random(1729)
    branches = {True: 0, False: 0}
    for _ in range(3000):
        g, d = rng.randint(0, 8), rng.randint(0, 4)
        w = _ideal_power_class(rng, g, d)
        want = lifting._e_masks(signature_vector(w), g, d)
        assert sorted(lifting._image_masks(w, d)) == want
        branches[_enumerates(w, d)] += 1
    assert min(branches.values()) >= 300


E_EXTRACT_BUDGET_S = 1.0  # one call at the ordering cap, g = 20


def test_e_extract_at_the_ordering_cap_within_budget():
    # 0.5-1.5 s when e_extract transformed the 2^20 signatures twice
    f = formal(fields.MAX_ORDERING_GENERATORS)
    for n in (1, 3):
        alphas = tuple(gen(f, i) for i in range(n))
        w = pfister(f, alphas)
        t0 = time.perf_counter()
        image = e_extract(w, n)
        assert time.perf_counter() - t0 < E_EXTRACT_BUDGET_S
        assert image == e_map(witt.PfisterPresentation(f, n, ((1, alphas),)))


def test_e_extract_raises_in_the_same_order_with_the_same_text():
    big = formal(fields.MAX_ORDERING_GENERATORS + 1)
    # backend, then the ordering cap, then a negative degree, then divisibility
    with pytest.raises(errors.UnsupportedBackend):
        e_extract(witt_one(rationals()), -1)
    with pytest.raises(errors.OrderingLimitExceeded):
        e_extract(pfister(big, [gen(big, 0)]), -1)
    with pytest.raises(errors.DegreeOutOfRange, match=r"e-map degree -1 out of range"):
        e_extract(witt_one(F4), -1)
    rng = random.Random(4099)
    for _ in range(200):
        g = rng.randint(1, 8)
        f = formal(g)
        w = witt_zero(f)
        while w.is_presented_zero():
            for _ in range(rng.randint(1, 4)):
                alphas = [random_square_class(rng, f) for _ in range(rng.randint(0, 2))]
                w = witt_add(w, witt_int_scale(rng.choice((1, -1, 2, 3)), pfister(f, alphas)))
        d = filtration_degree(w, 8) + rng.randint(1, 2)
        # the first signature, in ordering order, that 2^d does not divide
        bad = next(s for s in signature_vector(w) if s % 2**d)
        with pytest.raises(errors.NotInIdealPower) as exc:
            e_extract(w, d)
        assert str(exc.value) == f"signature {bad} not divisible by 2^{d}"


def test_table_filtration_check_matches_signature_divisibility():
    rng = random.Random(4111)
    samples, _ = make_tables(rng, ntrials=2, n=1)
    outcomes = set()
    for _ in range(120):
        d = rng.randint(0, 3)
        values = tuple(_ideal_power_class(rng, 4, rng.randint(0, d)) for _ in samples)
        ok = not any(s % 2**d for w in values for s in signature_vector(w))
        outcomes.add(ok)
        if ok:
            assert EvaluationTable(samples, values, d).declared_degree == d
        else:
            with pytest.raises(errors.InvalidInput, match="below the declared filtration degree"):
                EvaluationTable(samples, values, d)
    assert outcomes == {True, False}
    # a table without values is not checked against its degree (decompose
    # refuses it as an empty sample list)
    assert EvaluationTable((), (), -1).declared_degree == -1
