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

from . import fields
from .cohomology import CohClass, Symbol, coh_add, coh_zero, cup
from .errors import (
    BackendMismatch,
    InvalidInput,
    NotInIdealPower,
    NotInSpan,
    ResidualNonConstant,
    UnsupportedBackend,
)
from .fields import SquareClass, minus_one
from .weyl import MultiquadraticTorsor
from .witt import (
    WittClass,
    filtration_degree,
    pfister,
    total_signature,
    witt_add,
    witt_eq,
    witt_int_scale,
    witt_mul,
    witt_sub,
    witt_zero,
)


def _subset_symbol(field, subset: tuple[int, ...], degree: int) -> Symbol:
    m1 = minus_one(field)
    factors = [m1] * (degree - len(subset))
    factors.extend(SquareClass(field, (False, (i,))) for i in subset)
    factors.sort(key=lambda c: c.sort_key())
    return Symbol(field, tuple(factors))


def _class_to_subsets(c: CohClass) -> set:
    """Normalized formal symbols of degree d <-> generator subsets."""
    out = set()
    for sym in c.symbols:
        subset = []
        for f in sym.factors:
            neg, gens = f.data
            subset.extend(gens)
        out.add(tuple(sorted(subset)))
    return out


def e_extract(w: WittClass, d: int) -> CohClass:
    """Degree-d cohomological image of a class in I^d over the formal backend."""
    field = w.field
    if field.kind != fields.FORMAL:
        raise UnsupportedBackend("signature interpolation needs the formal backend")
    g = field.g
    scale = 2**d
    # f indexed by the negative-generator subset of the ordering
    f: dict[tuple[int, ...], int] = {}
    for neg_set in itertools.chain.from_iterable(
        itertools.combinations(range(g), k) for k in range(g + 1)
    ):
        eps = tuple(-1 if i in neg_set else 1 for i in range(g))
        s = total_signature(w, eps)
        if s % scale:
            raise NotInIdealPower(f"signature {s} not divisible by 2^{d}")
        f[neg_set] = (s // scale) % 2
    out = coh_zero(field, d)
    for size in range(g + 1):
        for subset in itertools.combinations(range(g), size):
            c = 0
            for k in range(size + 1):
                for sub in itertools.combinations(subset, k):
                    c ^= f[sub]
            if c:
                if size > d:
                    raise NotInIdealPower(
                        "signature function has degree above the requested power"
                    )
                out = coh_add(
                    out,
                    CohClass(
                        field, d, frozenset({_subset_symbol(field, subset, d)})
                    ),
                )
    return out


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
    nsamples = len(target.samples)
    residual = list(target.values)
    coeffs = [witt_zero(field) for _ in generators]
    basis_subsets = {
        n: [
            s
            for k in range(min(n, g) + 1)
            for s in itertools.combinations(range(g), k)
        ]
        for n in range(n0 + 1)
    }
    for n in range(n0 + 1):
        r_sym = [e_extract(residual[s], n) for s in range(nsamples)]
        if all(c.is_presented_zero() for c in r_sym):
            continue
        # unknowns: (generator index, coefficient symbol subset)
        unknowns = []
        columns = []  # per unknown, per sample, the degree-n subset set
        for i, tab in enumerate(generators):
            m = tab.declared_degree
            if m > n:
                continue
            gen_sym = [e_extract(tab.values[s], m) for s in range(nsamples)]
            for subset in basis_subsets[n - m]:
                beta = CohClass(
                    field, n - m, frozenset({_subset_symbol(field, subset, n - m)})
                )
                unknowns.append((i, subset, n - m))
                columns.append(
                    [_class_to_subsets(cup(beta, gen_sym[s])) for s in range(nsamples)]
                )
        rows = []
        for s in range(nsamples):
            rhs_sets = _class_to_subsets(r_sym[s])
            for tgt_subset in basis_subsets[n]:
                mask = 0
                for u, col in enumerate(columns):
                    if tgt_subset in col[s]:
                        mask |= 1 << u
                rows.append((mask, 1 if tgt_subset in rhs_sets else 0))
        sol = _solve_f2(rows, len(unknowns))
        if sol is None:
            raise NotInSpan(f"degree-{n} image not in the span of the generators")
        eps_list = list(fields.orderings(field))
        for u, (i, subset, deg) in enumerate(unknowns):
            if not (sol >> u & 1):
                continue
            alphas = [minus_one(field)] * (deg - len(subset)) + [
                SquareClass(field, (False, (j,))) for j in subset
            ]
            q = pfister(field, alphas)
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
                norm = sum(
                    abs(total_signature(w, eps)) for w in cand for eps in eps_list
                )
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
    from .weyl import torsor_to_json
    from .witt import witt_to_json

    return {
        "samples": [torsor_to_json(t) for t in tab.samples],
        "values": [witt_to_json(w) for w in tab.values],
        "degree": tab.declared_degree,
    }


def table_from_json(obj) -> EvaluationTable:
    from .weyl import torsor_from_json
    from .witt import witt_from_json

    samples = tuple(torsor_from_json(t) for t in obj["samples"])
    field = samples[0].field if samples else None
    values = tuple(witt_from_json(w, field) for w in obj["values"])
    return EvaluationTable(samples, values, int(obj["degree"]))
