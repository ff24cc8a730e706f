"""e-map extraction by signature interpolation, and sample-level
decomposition of a Witt-valued evaluation table over its generators.

Over R((t_1))...((t_g)) the total signature at the 2^g orderings determines
a Witt class; for a class in the d-th power of the fundamental ideal the
function (ordering -> signature / 2^d mod 2) is a polynomial of degree <= d
in the indicators x_i = [t_i < 0], and its subset zeta transform reads off
the degree-d cohomological image symbol by symbol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import xor

from . import fields
from .cohomology import CohClass, cup, padded_symbol
from .errors import (
    BackendMismatch,
    InvalidInput,
    NotInIdealPower,
    NotInSpan,
    ResidualNonConstant,
    UnsupportedBackend,
)
from .weyl import MultiquadraticTorsor, torsor_from_json, torsor_to_json
from .witt import (
    WittClass,
    filtration_degree,
    pfister,
    signature_vector,
    witt_add,
    witt_eq,
    witt_from_json,
    witt_int_scale,
    witt_mul,
    witt_sub,
    witt_to_json,
    witt_zero,
)


def e_extract(w: WittClass, d: int) -> CohClass:
    """Degree-d cohomological image of a class in I^d over the formal backend."""
    field = w.field
    if field.kind != fields.FORMAL:
        raise UnsupportedBackend("signature interpolation needs the formal backend")
    g = field.g
    scale = 2**d
    sigs = signature_vector(w)  # by the mask of the negative generators
    bad = next((s for s in sigs if s % scale), None)
    if bad is not None:
        raise NotInIdealPower(f"signature {bad} not divisible by 2^{d}")
    f = [s >> d & 1 for s in sigs]
    # subset zeta transform over F2 in constant geometry: f[S] becomes the
    # xor of f[T] over T in S, the coefficient of prod_{i in S} x_i
    for _ in range(g):
        ev, od = f[0::2], f[1::2]
        f = ev + list(map(xor, ev, od))
    gens = [fields.generator(field, i) for i in range(g)]
    symbols = set()
    for mask, c in enumerate(f):
        if not c:
            continue
        if mask.bit_count() > d:
            raise NotInIdealPower(
                "signature function has degree above the requested power"
            )
        factors = [gens[i] for i in range(g) if mask >> (g - 1 - i) & 1]
        symbols.add(padded_symbol(field, factors, d))
    return CohClass(field, d, frozenset(symbols))


@dataclass(frozen=True)
class EvaluationTable:
    """Witt values of one invariant on a shared list of formal torsors."""

    samples: tuple[MultiquadraticTorsor, ...]
    values: tuple[WittClass, ...]
    declared_degree: int

    def __post_init__(self) -> None:
        if len(self.samples) != len(self.values):
            raise InvalidInput("one value per sample required")
        for w in self.values:
            if w.field.kind != fields.FORMAL:
                raise UnsupportedBackend("tables are evaluated over the formal backend")
            if filtration_degree(w, self.declared_degree) < self.declared_degree:
                raise InvalidInput("value below the declared filtration degree")


@dataclass(frozen=True)
class Decomposition:
    coefficients: tuple[WittClass, ...]
    constant: WittClass
    residual_ok: bool


def _solve_f2(rows: list[tuple[int, int]], ncols: int):
    """Solve the F2 system given as (column-bitmask, rhs-bit) rows; returns a
    particular solution bitmask (free columns 0) or None."""
    # augmented rows: column c on bit c + 1, the rhs on bit 0
    reduced = fields.f2_reduce(mask << 1 | rhs for mask, rhs in rows)
    if 1 in reduced:
        return None
    # each reduced row has its pivot column as top bit, so solve bottom-up
    sol = 1  # bit 0 stands for the rhs
    for row in sorted(reduced):
        top = 1 << (row.bit_length() - 1)
        if (row & ~top & sol).bit_count() % 2:
            sol |= top
    return sol >> 1


def decompose(
    target: EvaluationTable, generators: list[EvaluationTable], n0: int
) -> Decomposition:
    """Express the target table as a W-combination of the generator tables,
    peeling cohomological images degree by degree up to n0."""
    if not target.samples:
        raise InvalidInput("empty sample list")
    field = target.values[0].field
    for tab in generators:
        if tab.samples != target.samples:
            raise BackendMismatch("tables must share the sample list")
        if tab.declared_degree > n0:
            raise InvalidInput("generator degree exceeds n0")
    g = field.g
    fields.orderings(field)  # refuses g above the cap before any work
    nsamples = len(target.samples)
    residual = list(target.values)
    coeffs = [witt_zero(field) for _ in generators]
    gens = [fields.generator(field, j) for j in range(g)]
    # degree-n normal-form symbols, by generator subset: size, then lexicographic
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
        # unknowns: (generator index, coefficient symbol)
        unknowns = []
        columns = []  # per unknown, per sample, the degree-n symbols
        for i, tab in enumerate(generators):
            m = tab.declared_degree
            if m > n:
                continue
            gen_sym = [e_extract(tab.values[s], m) for s in range(nsamples)]
            for beta in basis[n - m]:
                beta_cls = CohClass(field, n - m, frozenset({beta}))
                unknowns.append((i, beta))
                columns.append(
                    [cup(beta_cls, gen_sym[s]).symbols for s in range(nsamples)]
                )
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
            raise NotInSpan(f"degree-{n} image not in the span of the generators")
        for u, (i, beta) in enumerate(unknowns):
            if not (sol >> u & 1):
                continue
            q = pfister(field, beta.factors)
            # +q and -q have the same mod-2 image; pick the sign that
            # shrinks the signature profile of the residual
            best = None
            for sign in (1, -1):
                cand = [
                    witt_sub(
                        residual[s],
                        witt_int_scale(sign, witt_mul(q, generators[i].values[s])),
                    )
                    for s in range(nsamples)
                ]
                norm = sum(abs(s) for w in cand for s in signature_vector(w))
                if best is None or norm < best[0]:
                    best = (norm, sign, cand)
            coeffs[i] = witt_add(coeffs[i], witt_int_scale(best[1], q))
            residual = best[2]
    constant = residual[0]
    if not all(witt_eq(residual[s], constant) for s in range(1, nsamples)):
        raise ResidualNonConstant("residual differs across samples")
    base_ok = not any(cls.data[1] for cls, _ in constant.terms)
    return Decomposition(tuple(coeffs), constant, base_ok)


def table_to_json(tab: EvaluationTable):
    return {
        "samples": [torsor_to_json(t) for t in tab.samples],
        "values": [witt_to_json(w) for w in tab.values],
        "degree": tab.declared_degree,
    }


def table_from_json(obj) -> EvaluationTable:
    obj = fields.json_checked(obj, dict, "table")
    samples = fields.json_checked(obj["samples"], list, "samples")
    samples = tuple(torsor_from_json(t) for t in samples)
    values = fields.json_checked(obj["values"], list, "values")
    # checked before the values are read over the first sample's field
    if len(values) != len(samples):
        raise InvalidInput("one value per sample required")
    field = samples[0].field if samples else None
    values = tuple(witt_from_json(w, field) for w in values)
    return EvaluationTable(samples, values, fields.json_checked(obj["degree"], int, "degree"))
