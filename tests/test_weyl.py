import itertools
import random
import time

import pytest

from wittcalc import errors, fields, weyl
from wittcalc.cohomology import coh_add, coh_unit, cup, is_zero
from wittcalc.etale import DEGREE_CAP, EtaleAlgebra, Multiquadratic
from wittcalc.fields import canonicalize, formal, laurent_q, rationals
from wittcalc.sampling import (
    random_commuting_involutions,
    random_involution,
    random_torsor,
    trivial_torsor,
)
from wittcalc.weyl import (
    BN,
    DN,
    SN,
    GSet,
    MultiquadraticTorsor,
    dn_coset_action,
    eval_aK,
    eval_aL,
    eval_dn_traces,
    eval_g2_basis,
    eval_r,
    eval_u,
    eval_v,
    eval_v_prime,
    gset_rho,
    gset_rho2,
    lift_u,
    lift_v_prime,
    perm_identity,
    rho,
    rho2,
    specialize_class,
    specialize_form,
    specialize_torsor,
    torsor,
    torsor_from_json,
    torsor_to_json,
    twist,
    wreath,
    wreath_mul,
)
from wittcalc.witt import (
    diagonal,
    from_diagonal,
    make_witt,
    witt_eq,
    witt_int_scale,
    witt_one,
    witt_zero,
)

Q = rationals()


def rand_wreath(rng, n):
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    flips = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
    return wreath(n, perm, flips)


def test_wreath_identities():
    e = wreath(2)
    s1 = wreath(2, flips=[1])
    assert wreath_mul(e, s1) == s1
    assert wreath_mul(s1, s1).is_identity()


def test_semidirect_relation():
    # sigma * s_1 = s_{sigma(1)} * sigma for sigma = (12)
    sigma = wreath(2, (2, 1))
    s1 = wreath(2, flips=[1])
    s2 = wreath(2, flips=[2])
    assert wreath_mul(sigma, s1) == wreath_mul(s2, sigma)


def test_wreath_associativity_random():
    rng = random.Random(1)
    for _ in range(100):
        n = rng.randint(1, 5)
        a, b, c = (rand_wreath(rng, n) for _ in range(3))
        assert wreath_mul(wreath_mul(a, b), c) == wreath_mul(a, wreath_mul(b, c))


def test_size_mismatch():
    with pytest.raises(errors.SizeMismatch):
        wreath_mul(wreath(2), wreath(3))


def test_rho2_frozen():
    assert rho2(wreath(2, flips=[1])) == (3, 2, 1, 4)
    assert rho2(wreath(2, (2, 1))) == (2, 1, 4, 3)


def test_rho_maps_are_homomorphisms():
    rng = random.Random(2)
    for _ in range(50):
        n = rng.randint(1, 4)
        a, b = rand_wreath(rng, n), rand_wreath(rng, n)
        ab = wreath_mul(a, b)
        assert rho(ab) == tuple(rho(a)[rho(b)[i] - 1] for i in range(n))
        pa, pb = rho2(a), rho2(b)
        assert rho2(ab) == tuple(pa[pb[i] - 1] for i in range(2 * n))


def test_dn_coset_action():
    assert dn_coset_action(2, wreath(2)) == (1, 2)
    # s1 s2 swaps the two cosets (0,0) <-> (1,1)
    assert dn_coset_action(2, wreath(2, flips=[1, 2])) == (2, 1)
    with pytest.raises(errors.NotInDn):
        dn_coset_action(2, wreath(2, flips=[1]))
    rng = random.Random(3)
    for _ in range(50):
        a = random_involution(rng, 3, DN)
        b = random_involution(rng, 3, DN)
        ab = wreath_mul(a, b)
        pa, pb = dn_coset_action(3, a), dn_coset_action(3, b)
        assert dn_coset_action(3, ab) == tuple(pa[pb[i] - 1] for i in range(4))


def test_torsor_validation():
    with pytest.raises(errors.InvalidInput):
        torsor(Q, [2, 8], (BN, 2), [wreath(2), wreath(2)])  # dependent classes
    with pytest.raises(errors.InvalidInput):
        torsor(Q, [2], (BN, 3), [wreath(3, (2, 3, 1))])  # 3-cycle, not an involution
    with pytest.raises(errors.NotInDn):
        torsor(Q, [2], (DN, 2), [wreath(2, flips=[1])])
    with pytest.raises(errors.InvalidInput):
        torsor(Q, [2], (SN, 2), [wreath(2, flips=[1, 2])])
    with pytest.raises(errors.InvalidInput):
        torsor(
            Q,
            [2, 3],
            (BN, 3),
            [wreath(3, (2, 1, 3)), wreath(3, (1, 3, 2))],  # do not commute
        )
    f = formal(2)
    with pytest.raises(errors.InvalidInput):
        torsor(f, [(False, (0, 1))], (BN, 1), [wreath(1)])  # not a single generator
    k = laurent_q(2)
    with pytest.raises(errors.InvalidInput):
        torsor(k, [(2, (0,))], (BN, 1), [wreath(1)])  # 2 t_1 is not a generator
    with pytest.raises(errors.InvalidInput):
        torsor(k, [(1, (0, 1))], (BN, 1), [wreath(1)])


def test_twist_trivial_splits():
    t = trivial_torsor(Q, BN, 3)
    alg = twist(t, gset_rho(t))
    assert len(alg.components) == 3
    assert all(c.degree == 1 for c in alg.components)


def test_twist_single_swap():
    t = torsor(Q, [5], (SN, 2), [wreath(2, (2, 1))])
    alg = twist(t, gset_rho(t))
    assert len(alg.components) == 1
    comp = alg.components[0]
    assert isinstance(comp, Multiquadratic)
    assert [c.data for c in comp.classes] == [5]


def test_twist_degrees_partition():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 4)
        t = random_torsor(rng, Q, BN, n, rng.randint(1, 2))
        for x in (gset_rho(t), gset_rho2(t)):
            alg = twist(t, x)
            assert sum(c.degree for c in alg.components) == x.size


def test_gset_validation():
    with pytest.raises(errors.InconsistentAction):
        GSet(3, ((2, 3, 1),))  # 3-cycle is not an involution


def test_trace_evaluators_base_cases():
    t = trivial_torsor(Q, BN, 2)
    assert witt_eq(from_diagonal(eval_aK(t)), make_witt(Q, {canonicalize(1, Q): 2}))
    assert witt_eq(from_diagonal(eval_aL(t)), make_witt(Q, {canonicalize(1, Q): 4}))
    s = torsor(Q, [7], (BN, 1), [wreath(1, flips=[1])])
    assert [e.data for e in eval_aK(s).entries] == [1]
    assert sorted(e.data for e in eval_aL(s).entries) == [2, 14]
    assert eval_aK(s).dim == 1 and eval_aL(s).dim == 2
    with pytest.raises(errors.WrongTarget):
        eval_aK(trivial_torsor(Q, DN, 2))


def test_cohomological_evaluators():
    f = formal(1)
    t = torsor(f, [(False, (0,))], (BN, 1), [wreath(1, flips=[1])])
    # v'_1 = sw_1<2, 2t> = (t) since (2) dies over the formal backend
    got = eval_v_prime(t, 1)
    t0 = canonicalize((False, (0,)), f)
    from wittcalc.cohomology import symbol_normalize

    assert got == symbol_normalize([t0], f)
    assert eval_v(t, 0).symbols == symbol_normalize([], f).symbols
    triv = trivial_torsor(f, BN, 2)
    for d in (1, 2):
        assert is_zero(eval_u(triv, d))
        assert is_zero(eval_v(triv, d))


def test_lift_u_trivial_vanishes():
    f = formal(1)
    t = trivial_torsor(f, BN, 2)
    assert lift_u(t, 1).is_presented_zero()
    assert lift_u(t, 0) == witt_one(f)


def test_eval_r():
    t = torsor(Q, [5], (DN, 2), [wreath(2, flips=[1, 2])])
    assert sorted(e.data for e in eval_r(t).entries) == [2, 10]
    assert eval_r(trivial_torsor(Q, DN, 4)).dim == 8


def test_eval_dn_traces_match_inclusion():
    rng = random.Random(13)
    for _ in range(5):
        t = random_torsor(rng, Q, DN, 3, 1)
        aK, aL = eval_dn_traces(t)
        b = MultiquadraticTorsor(t.field, t.d, (BN, t.n), t.images)
        assert aK == eval_aK(b) and aL == eval_aL(b)
        # images stay inside the even-flip subgroup under products
        for g in t.images:
            for h in t.images:
                assert len(wreath_mul(g, h).flips) % 2 == 0


def test_g2_basis():
    f = formal(2)
    t2 = trivial_torsor(f, SN, 2, m=0)
    t3 = trivial_torsor(f, SN, 3, m=0)
    one, a2, a3, prod = eval_g2_basis(t2, t3)
    assert one == witt_one(f)
    assert a2 == witt_int_scale(2, witt_one(f))
    assert a3 == witt_int_scale(3, witt_one(f))
    assert prod == witt_int_scale(6, witt_one(f))
    with pytest.raises(errors.WrongTarget):
        eval_g2_basis(t3, t3)


def test_commuting_involution_sampler():
    rng = random.Random(21)
    for kind in (SN, BN, DN):
        gens = random_commuting_involutions(rng, 4, 3, kind)
        for g in gens:
            assert wreath_mul(g, g).is_identity()
            if kind == DN:
                assert len(g.flips) % 2 == 0
        for g in gens:
            for h in gens:
                assert wreath_mul(g, h) == wreath_mul(h, g)


def test_torsor_json_roundtrip():
    rng = random.Random(23)
    for _ in range(5):
        t = random_torsor(rng, formal(3), BN, 3, 2)
        assert torsor_from_json(torsor_to_json(t)) == t


def test_specialization_starts_from_laurent_q():
    t0 = canonicalize((False, (0,)), formal(1))
    with pytest.raises(errors.BadBackend, match="2 is a square"):
        specialize_class(t0, (3,))
    k = laurent_q(2)
    assert specialize_class(canonicalize((-2, (0, 1)), k), (3, 5)).data == -30
    with pytest.raises(errors.InvalidInput):
        specialize_class(canonicalize(2, k), (3,))


def test_sqrt_t_trace_form_specializes_over_q():
    # the sqrt(t_1) algebra over Q((t_1)) has trace form <2, 2 t_1>; at
    # t_1 -> 3 it is the trace form <2, 6> of Q(sqrt 3), not the <1, 3>
    # that formal(1) would give, since (2, -3)_3 = -1
    k = laurent_q(1)
    t = torsor(k, [(1, (0,))], (BN, 2), [wreath(2, (2, 1))])
    assert eval_aK(t) == diagonal(k, [2, (2, (0,))])
    ts = specialize_torsor(t, (3,))
    assert witt_eq(
        from_diagonal(specialize_form(eval_aK(t), (3,))), from_diagonal(eval_aK(ts))
    )
    assert not witt_eq(from_diagonal(diagonal(Q, [1, 3])), from_diagonal(eval_aK(ts)))


def test_twist_basis_rows_are_pinned():
    # a regular orbit of (Z/2)^2: the character basis is reduced with the
    # lowest generator as pivot, so d_2 comes before d_1 (the order trace
    # forms, and so CLI output, list their entries in)
    t = torsor(Q, [2, 3], (BN, 2), [wreath(2, (2, 1)), wreath(2, flips=(1, 2))])
    alg = twist(t, gset_rho2(t))
    assert [[c.data for c in comp.classes] for comp in alg.components] == [[3, 2]]


def test_each_form_is_twisted_once_per_torsor(monkeypatch):
    rng = random.Random(71)
    t = random_torsor(rng, formal(3), BN, 3, 2)
    fresh = torsor_from_json(torsor_to_json(t))
    seen = []

    def counting(tt, x):
        seen.append(x.size)
        return twist(tt, x)

    monkeypatch.setattr(weyl, "twist", counting)
    eval_aK(t)
    eval_aL(t)
    for d in range(t.n + 1):
        eval_u(t, d)
        lift_u(t, d)
    for d in range(2 * t.n + 1):
        eval_v_prime(t, d)
        eval_v(t, d)
        lift_v_prime(t, d)
    assert sorted(seen) == [t.n, 2 * t.n]
    # the cached forms change neither equality, hashing nor JSON
    assert t == fresh and hash(t) == hash(fresh)
    assert torsor_from_json(torsor_to_json(t)) == t
    assert eval_aK(fresh) == eval_aK(t) and eval_aL(fresh) == eval_aL(t)
    assert len(seen) == 4


def test_dn_degree_error_is_raised_on_every_call():
    n = DEGREE_CAP + 2
    t = trivial_torsor(Q, DN, n)
    for _ in range(2):
        with pytest.raises(errors.DegreeOutOfRange):
            eval_r(t)


def _unrolled_eval_v(t, d):
    # v_d = v'_d + sum_{i<d} u_{d-i} . v_i, with every term evaluated afresh
    vs = [coh_unit(t.field)]
    for k in range(1, d + 1):
        acc = eval_v_prime(t, k)
        for i in range(k):
            if k - i <= t.n:
                acc = coh_add(acc, cup(eval_u(t, k - i), vs[i]))
        vs.append(acc)
    return vs[d]


@pytest.mark.parametrize(
    "field", [Q, formal(3), laurent_q(3)], ids=["q", "formal3", "laurent_q3"]
)
def test_eval_v_matches_unrolled_recurrence(field):
    rng = random.Random(73)
    for _ in range(4):
        n = rng.randint(1, 3)
        t = random_torsor(rng, field, BN, n, rng.randint(1, 2))
        for d in range(2 * n + 1):
            assert eval_v(t, d) == _unrolled_eval_v(t, d), (t, d)


def test_image_free_bn_trace_form_is_linear_in_n():
    t = trivial_torsor(Q, BN, 20_000, m=0)
    t0 = time.perf_counter()
    assert eval_aK(t).dim == 20_000
    assert time.perf_counter() - t0 < 1


# ---------------------------------------------------------------------------
# the coset action and twist as they were written before the int-mask cosets
# and the orbit-marking stabilizer walk, kept as oracles


def _parent_dn_coset_action(n, a):
    vecs = [v for v in itertools.product((0, 1), repeat=n) if sum(v) % 2 == 0]
    index = {v: i + 1 for i, v in enumerate(vecs)}
    w = tuple(1 if i + 1 in a.flips else 0 for i in range(n))
    pinv = weyl.perm_inv(a.perm)
    out = []
    for v in vecs:
        shifted = tuple((x + y) % 2 for x, y in zip(v, w))
        permuted = tuple(shifted[pinv[j] - 1] for j in range(n))
        out.append(index[permuted])
    return tuple(out)


def _parent_orbit(x, start):
    seen = {start}
    frontier = [start]
    while frontier:
        pt = frontier.pop()
        for p in x.perms:
            nxt = p[pt - 1]
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return frozenset(seen)


def _parent_twist(t, x):
    m = t.rank
    bits = [1 << (m - 1 - i) for i in range(m)]
    seen = set()
    components = []
    for start in range(1, x.size + 1):
        if start in seen:
            continue
        seen |= _parent_orbit(x, start)
        stab = []
        for eps in range(2**m):
            pt = start
            for i, bit in enumerate(bits):
                if eps & bit:
                    pt = x.perms[i][pt - 1]
            if pt == start:
                stab.append(eps)
        perp = [
            delta
            for delta in range(2**m)
            if all((delta & eps).bit_count() % 2 == 0 for eps in stab)
        ]
        classes = []
        for delta in fields.f2_reduce(perp):
            cls = fields.trivial_class(t.field)
            for i, bit in enumerate(bits):
                if delta & bit:
                    cls = cls * t.d[i]
            classes.append(cls)
        components.append(Multiquadratic(t.field, tuple(classes)))
    return EtaleAlgebra(t.field, tuple(components))


def test_dn_coset_action_matches_parent():
    for n in range(1, 6):
        for perm in itertools.permutations(range(1, n + 1)):
            for flips in itertools.product((0, 1), repeat=n):
                if sum(flips) % 2 == 0:
                    a = wreath(n, perm, [i + 1 for i, f in enumerate(flips) if f])
                    assert dn_coset_action(n, a) == _parent_dn_coset_action(n, a), a
    rng = random.Random("dn cosets at n = 8")
    for _ in range(40):
        a = rand_wreath(rng, 8)
        if len(a.flips) % 2:
            a = wreath(8, a.perm, a.flips ^ {rng.randint(1, 8)})
        assert dn_coset_action(8, a) == _parent_dn_coset_action(8, a), a


@pytest.mark.parametrize(
    "field", [Q, formal(4), laurent_q(3)], ids=["q", "formal4", "laurent_q3"]
)
def test_twist_matches_parent(field):
    rng = random.Random(f"twist {field}")
    for _ in range(30):
        kind = rng.choice((SN, BN, DN))
        n = rng.randint(1, 5)
        t = random_torsor(rng, field, kind, n, rng.randint(0, 3))
        gsets = [gset_rho(t), gset_rho2(t)] + ([weyl.gset_dn(t)] if kind == DN else [])
        for x in gsets:
            assert twist(t, x) == _parent_twist(t, x), (t, x.size)
