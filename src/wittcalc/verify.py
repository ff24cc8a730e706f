"""Self-check suites exercised by the CLI and the acceptance tests.

Each suite returns {"suite", "passed", "cases", "failures"}; failures carry
human-readable counterexample descriptions.
"""

from __future__ import annotations

import itertools
import random

from . import fields
from .cohomology import coh_add, cup, is_zero, sw, sw_lift
from .etale import (
    etale,
    multiquadratic,
    poly_component,
    quadratic_layer_trace_form,
    quadratic_pair,
    trace_form,
)
from .fields import canonicalize, formal, generator, hilbert_symbol, rationals
from .lifting import EvaluationTable, decompose, e_extract
from .sampling import (
    random_form,
    random_square_class,
    random_torsor,
    trivial_torsor,
)
from .weyl import (
    BN,
    DN,
    SN,
    eval_g2_basis,
    eval_r,
    eval_u,
    eval_v,
    eval_v_prime,
    lift_u,
    lift_v_prime,
    torsor,
    wreath,
)
from .witt import (
    DiagonalForm,
    _disc_class,
    _realized_entries,
    diagonalize,
    from_diagonal,
    gram,
    gram_of_diagonal,
    lambda_power,
    lambda_power_gram_oracle,
    make_witt,
    pfister,
    virtual_rank,
    witt_add,
    witt_eq,
    witt_int_scale,
    witt_mul,
    witt_sub,
    witt_zero,
)

HILBERT_ENTRIES = (1, -1, 2, -2, 3, -3, 5, -5, 7, -7)
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _report(name: str, cases: int, failures: list[str]) -> dict:
    return {
        "suite": name,
        "passed": not failures,
        "cases": cases,
        "failures": failures[:20],
    }


# ---------------------------------------------------------------------------


def suite_lemma34(seed: int = 0) -> dict:
    """e-image of the lambda-combination lift equals the plain
    Stiefel-Whitney class, over the formal backends."""
    rng = random.Random(seed)
    cases = 0
    failures: list[str] = []
    for n in range(1, 6):
        field = formal(n)
        for _ in range(30):
            q = random_form(rng, field, n)
            for d in range(n + 1):
                combo = witt_zero(field)
                for l, c in enumerate(sw_lift(n, d)):
                    combo = witt_add(combo, witt_int_scale(c, lambda_power(q, l)))
                cases += 1
                if e_extract(combo, d).data != sw(q, d).data:
                    failures.append(f"n={n} d={d} q={q}")
    return _report("lemma34", cases, failures)


def suite_lambda_oracle(seed: int = 0) -> dict:
    """Subset-product lambda powers against exterior-power Gram minors."""
    rng = random.Random(seed)
    field = rationals()
    cases = 0
    failures: list[str] = []
    for _ in range(100):
        dim = rng.randint(1, 5)
        q = random_form(rng, field, dim, height=10)
        g = gram_of_diagonal(q)
        for d in range(dim + 1):
            oracle = from_diagonal(diagonalize(lambda_power_gram_oracle(g, d)))
            cases += 1
            if not witt_eq(lambda_power(q, d), oracle):
                failures.append(f"q={[e.data for e in q.entries]} d={d}")
    return _report("lambda-oracle", cases, failures)


# ---------------------------------------------------------------------------


def _soluble_two(a: int, b: int) -> bool:
    """Primitive solubility of z^2 = a x^2 + b y^2 mod 2^6."""
    mod = 64
    squares = {(z * z) % mod for z in range(mod)}
    for x in range(mod):
        for y in range(mod):
            if x % 2 == 0 and y % 2 == 0:
                continue
            if (a * x * x + b * y * y) % mod in squares:
                return True
    return False


def suite_hilbert(seed: int = 0) -> dict:
    """Closed-form local symbols against congruence solubility searches
    (mod p^3 for odd p, mod 2^6 at two), plus the product formula."""
    import numpy as np

    rng = random.Random(seed)
    cases = 0
    failures: list[str] = []
    for a, b in itertools.product(HILBERT_ENTRIES, repeat=2):
        cases += 1
        if _soluble_two(a, b) != (hilbert_symbol(a, b, 2) == 1):
            failures.append(f"(a,b)=({a},{b}) at 2")
    for p in ODD_PRIMES:
        mod = p**3
        t = np.arange(mod, dtype=np.int64)
        unit = t[t % p != 0]
        fft_sq = np.fft.rfft(
            np.bincount((t * t) % mod, minlength=mod).astype(np.float64)
        )
        ffts = {}
        unit_vals = {}
        for e in HILBERT_ENTRIES:
            vals = (e % mod) * t % mod * t % mod
            ffts[e] = np.fft.rfft(np.bincount(vals, minlength=mod).astype(np.float64))
            unit_vals[e] = np.unique((e % mod) * unit % mod * unit % mod)

        def soluble(a: int, b: int) -> bool:
            # N[v] = #{(y, z) : z^2 - b*y^2 = v}; ask for v = a*(unit)^2
            def orientation(first: int, second: int) -> bool:
                corr = np.fft.irfft(fft_sq * np.conj(ffts[second]), mod)
                counts = np.rint(corr).astype(np.int64)
                return bool(np.any(counts[unit_vals[first]] > 0))

            return orientation(a, b) or orientation(b, a)

        for a, b in itertools.combinations_with_replacement(HILBERT_ENTRIES, 2):
            cases += 1
            if soluble(a, b) != (hilbert_symbol(a, b, p) == 1):
                failures.append(f"(a,b)=({a},{b}) at {p}")
    field = rationals()
    for _ in range(50):
        a = random_square_class(rng, field, 30).data
        b = random_square_class(rng, field, 30).data
        prod = 1
        for v in fields.hilbert_places((a, b)) + [fields.INF]:
            prod *= hilbert_symbol(a, b, v)
        cases += 1
        if prod != 1:
            failures.append(f"product formula fails for ({a},{b})")
    return _report("hilbert", cases, failures)


# ---------------------------------------------------------------------------


def _poly_from_roots(roots):
    coeffs = [1]
    for r in roots:
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def suite_trace_oracle(seed: int = 0) -> dict:
    cases = 0
    failures: list[str] = []
    field = rationals()

    def check(label: str, ok: bool) -> None:
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(label)

    for d in (-1, 2, -2, 3, -3, 5, 6):
        got = trace_form(etale([poly_component([-d, 0, 1])]))
        want = DiagonalForm(field, (canonicalize(2, field), canonicalize(2 * d, field)))
        check(f"x^2-{d} trace form", got.entries == want.entries)
        mq = trace_form(etale([multiquadratic([d])]))
        check(
            f"multiquadratic [{d}] vs polynomial",
            witt_eq(from_diagonal(mq), from_diagonal(want)),
        )
    for d1, d2 in ((2, 3), (2, 5), (3, 5)):
        quartic = poly_component([(d1 - d2) ** 2, 0, -2 * (d1 + d2), 0, 1])
        check(
            f"multiquadratic [{d1},{d2}] vs quartic",
            witt_eq(
                from_diagonal(trace_form(etale([multiquadratic([d1, d2])]))),
                from_diagonal(trace_form(etale([quartic]))),
            ),
        )
    for n in (2, 3, 4):
        split = poly_component(_poly_from_roots(range(1, n + 1)))
        check(
            f"split Q^{n} trace form",
            witt_eq(
                from_diagonal(trace_form(etale([split]))),
                make_witt(field, {canonicalize(1, field): n}),
            ),
        )
    # quadratic layer over Q(sqrt 2) with delta = sqrt 2: frozen Gram oracle
    pair = quadratic_pair(etale([poly_component([-2, 0, 1])]), [[0, 1]])
    layer = quadratic_layer_trace_form(pair)
    oracle = diagonalize(
        gram(field, [[4, 0, 0, 0], [0, 8, 0, 0], [0, 0, 0, 8], [0, 0, 8, 0]])
    )
    check(
        "quadratic layer over Q(sqrt 2)",
        witt_eq(from_diagonal(layer), from_diagonal(oracle)),
    )
    check(
        "split quadratic layer",
        witt_eq(
            from_diagonal(
                quadratic_layer_trace_form(
                    quadratic_pair(etale([poly_component([-1, 1])]), [[1]])
                )
            ),
            make_witt(field, {canonicalize(1, field): 2}),
        ),
    )
    prod = etale([poly_component([-2, 0, 1]), poly_component([-3, 0, 1])])
    check(
        "product algebra is the orthogonal sum",
        witt_eq(
            from_diagonal(trace_form(prod)),
            witt_add(
                from_diagonal(trace_form(etale([poly_component([-2, 0, 1])]))),
                from_diagonal(trace_form(etale([poly_component([-3, 0, 1])]))),
            ),
        ),
    )
    return _report("trace-oracle", cases, failures)


# ---------------------------------------------------------------------------


def suite_weyl_consistency(seed: int = 0) -> dict:
    rng = random.Random(seed)
    cases = 0
    failures: list[str] = []

    def check(label: str, ok: bool) -> None:
        nonlocal cases
        cases += 1
        if not ok:
            failures.append(label)

    # normalization on trivial torsors
    for fld in (rationals(), formal(2)):
        for n in (2, 3):
            t = trivial_torsor(fld, BN, n)
            for d in range(1, n + 1):
                check(f"u_{d} trivial {fld} n={n}", is_zero(eval_u(t, d)))
                check(f"v'_{d} trivial {fld} n={n}", is_zero(eval_v_prime(t, d)))
                check(f"v_{d} trivial {fld} n={n}", is_zero(eval_v(t, d)))

    # central identity: e_d of the lifts matches the cohomological evaluation
    field = formal(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        t = random_torsor(rng, field, BN, n, m)
        for d in range(n + 1):
            check(
                f"e_{d}(lift_u) n={n} m={m}",
                e_extract(lift_u(t, d), d).data == eval_u(t, d).data,
            )
        for d in range(min(2 * n, 4) + 1):
            check(
                f"e_{d}(lift_v') n={n} m={m}",
                e_extract(lift_v_prime(t, d), d).data == eval_v_prime(t, d).data,
            )
        for d in range(min(2 * n, 3) + 1):
            unrolled = eval_v_prime(t, d)
            for i in range(d):
                if d - i <= n:
                    unrolled = coh_add(unrolled, cup(eval_u(t, d - i), eval_v(t, i)))
            check(f"v-recursion d={d}", eval_v(t, d).data == unrolled.data)

    # D_n shadows over Q
    for n in (2, 3, 4):
        t = trivial_torsor(rationals(), DN, n)
        check(f"r dim n={n}", eval_r(t).dim == 2 ** (n - 1))
    split_r = {
        n: from_diagonal(eval_r(trivial_torsor(rationals(), DN, n))) for n in (2, 4)
    }
    for i in range(10):
        for n in (2, 4):
            t = random_torsor(rng, rationals(), DN, n, min(2, n - 1))
            normalized = witt_sub(from_diagonal(eval_r(t)), split_r[n])
            check(
                f"r normalized even rank n={n} #{i}",
                virtual_rank(normalized) % 2 == 0,
            )
            if n == 4:
                entries = _realized_entries(normalized)
                check(
                    f"r normalized disc n=4 #{i}",
                    _disc_class(rationals(), entries).is_trivial(),
                )

    # rank-2 basis on the four designated formal(2) torsors
    f2 = formal(2)
    swap2 = torsor(f2, [generator(f2, 0)], (SN, 2), [wreath(2, (2, 1))])
    split2 = trivial_torsor(f2, SN, 2, m=0)
    trans3 = torsor(f2, [generator(f2, 1)], (SN, 3), [wreath(3, (2, 1, 3))])
    split3 = trivial_torsor(f2, SN, 3, m=0)
    samples = [(swap2, split3), (split2, trans3), (swap2, trans3), (split2, split3)]
    evals = [eval_g2_basis(t2, t3) for t2, t3 in samples]
    for row in evals:
        check("g2 product column", witt_eq(row[3], witt_mul(row[1], row[2])))
    for mask in range(1, 16):
        vanishes_everywhere = True
        for row in evals:
            combo = witt_zero(f2)
            for i in range(4):
                if mask >> i & 1:
                    combo = witt_add(combo, row[i])
            if not witt_eq(combo, witt_zero(f2)):
                vanishes_everywhere = False
                break
        check(f"g2 combination {mask:04b} nonvanishing", not vanishes_everywhere)
    return _report("weyl-consistency", cases, failures)


# ---------------------------------------------------------------------------


def suite_lift_roundtrip(seed: int = 0) -> dict:
    rng = random.Random(seed)
    cases = 0
    failures: list[str] = []
    field = formal(3)
    for trial in range(20):
        n = rng.randint(1, 3)
        samples = tuple(
            random_torsor(rng, field, BN, n, rng.randint(1, 3)) for _ in range(6)
        )
        gens = [
            EvaluationTable(samples, tuple(lift_u(t, d) for t in samples), d)
            for d in range(n + 1)
        ]
        coefs = []
        for d in range(n + 1):
            c = witt_zero(field)
            for _ in range(rng.randint(0, 2)):
                deg = rng.randint(0, 1)
                alphas = [random_square_class(rng, field) for _ in range(deg)]
                c = witt_add(
                    c, witt_int_scale(rng.choice((1, -1)), pfister(field, alphas))
                )
            coefs.append(c)
        target_vals = []
        for s in range(len(samples)):
            acc = witt_zero(field)
            for d in range(n + 1):
                acc = witt_add(acc, witt_mul(coefs[d], gens[d].values[s]))
            target_vals.append(acc)
        target = EvaluationTable(samples, tuple(target_vals), 0)
        cases += 1
        try:
            dec = decompose(target, gens, n0=n + 2)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            failures.append(f"trial {trial} (n={n}): {type(exc).__name__}: {exc}")
            continue
        for s in range(len(samples)):
            acc = dec.constant
            for i, tab in enumerate(gens):
                acc = witt_add(acc, witt_mul(dec.coefficients[i], tab.values[s]))
            if not witt_eq(acc, target.values[s]):
                failures.append(f"trial {trial} (n={n}): sample {s} not reproduced")
                break
    return _report("lift-roundtrip", cases, failures)


# ---------------------------------------------------------------------------

SUITES = {
    "lemma34": suite_lemma34,
    "lambda-oracle": suite_lambda_oracle,
    "hilbert": suite_hilbert,
    "trace-oracle": suite_trace_oracle,
    "weyl-consistency": suite_weyl_consistency,
    "lift-roundtrip": suite_lift_roundtrip,
}


def run_suite(name: str, seed: int = 0) -> list[dict]:
    if name == "all":
        return [fn(seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise KeyError(name)
    return [SUITES[name](seed)]
