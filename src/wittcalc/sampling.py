"""Seeded random generators for forms, Pfister presentations and torsors.

Everything takes an explicit random.Random so suites are reproducible.
"""

from __future__ import annotations

import random

from . import fields
from .errors import InvalidInput, UnsupportedBackend
from .fields import FieldDescriptor, SquareClass, canonicalize
from .weyl import (
    DN,
    SN,
    MultiquadraticTorsor,
    WreathElement,
    perm_identity,
    wreath_mul,
)
from .witt import DiagonalForm, PfisterPresentation

RATIONAL_TORSOR_CLASSES = (2, 3, 5)

#: draws per involution, and restarts of the set, before giving up
SAMPLE_TRIES = 4000


def random_square_class(rng: random.Random, field: FieldDescriptor, height: int = 10) -> SquareClass:
    if field.kind == fields.RATIONALS:
        v = 0
        while v == 0:
            v = rng.randint(-height, height)
        return canonicalize(v, field)
    if field.kind == fields.FORMAL:
        gens = tuple(i for i in range(field.g) if rng.random() < 0.5)
        return canonicalize((rng.random() < 0.5, gens), field)
    if field.kind == fields.REALS:
        return canonicalize(rng.choice((1, -1)), field)
    if field.kind == fields.FINITE:
        return SquareClass(field, rng.choice((0, 1)))
    raise UnsupportedBackend(f"no random square classes over {field}")


def random_form(rng: random.Random, field: FieldDescriptor, dim: int, height: int = 10) -> DiagonalForm:
    return DiagonalForm(
        field, tuple(random_square_class(rng, field, height) for _ in range(dim))
    )


def random_pfister_presentation(
    rng: random.Random, field: FieldDescriptor, degree: int, nterms: int, height: int = 10
) -> PfisterPresentation:
    terms = []
    for _ in range(nterms):
        gens = tuple(random_square_class(rng, field, height) for _ in range(degree))
        terms.append((rng.choice((1, -1, 2)), gens))
    return PfisterPresentation(field, degree, tuple(terms))


def random_involution(rng: random.Random, n: int, kind: str) -> WreathElement:
    """Random order-<=2 element of the target group."""
    points = list(range(1, n + 1))
    rng.shuffle(points)
    perm = list(perm_identity(n))
    i = 0
    while i + 1 < len(points):
        if rng.random() < 0.5:
            a, b = points[i], points[i + 1]
            perm[a - 1], perm[b - 1] = b, a
            i += 2
        else:
            i += 1
    if kind == SN:
        flips: frozenset = frozenset()
    else:
        # flip set must be invariant under the permutation
        flips_set: set = set()
        for j in range(1, n + 1):
            if j in flips_set or perm[j - 1] in flips_set:
                continue
            if rng.random() < 0.5:
                flips_set.add(j)
                flips_set.add(perm[j - 1])
        if kind == DN and len(flips_set) % 2:
            # drop a fixed flipped point if one exists, else a whole 2-cycle
            solo = next((j for j in flips_set if perm[j - 1] == j), None)
            if solo is not None:
                flips_set.discard(solo)
            else:
                j = next(iter(flips_set))
                flips_set.discard(j)
                flips_set.discard(perm[j - 1])
        flips = frozenset(flips_set)
    return WreathElement(n, tuple(perm), flips)


def random_commuting_involutions(rng: random.Random, n: int, m: int, kind: str) -> tuple[WreathElement, ...]:
    """Rejection-sample m pairwise commuting involutions."""
    for _ in range(SAMPLE_TRIES):
        out: list[WreathElement] = []
        ok = True
        for _ in range(m):
            for _ in range(SAMPLE_TRIES):
                g = random_involution(rng, n, kind)
                if all(wreath_mul(g, h) == wreath_mul(h, g) for h in out):
                    out.append(g)
                    break
            else:
                ok = False
                break
        if ok:
            return tuple(out)
    raise InvalidInput(f"could not sample {m} commuting involutions in rank {n}")


def random_torsor(
    rng: random.Random, field: FieldDescriptor, kind: str, n: int, m: int
) -> MultiquadraticTorsor:
    if field.kind in fields.TOWERS:
        if m > field.g:
            raise InvalidInput("more classes than formal generators")
        picks = rng.sample(range(field.g), m)
        d = tuple(fields.generator(field, i) for i in picks)
    else:
        if m > len(RATIONAL_TORSOR_CLASSES):
            raise InvalidInput("rational torsor rank limited by the fixed class pool")
        d = tuple(
            canonicalize(v, field) for v in rng.sample(RATIONAL_TORSOR_CLASSES, m)
        )
    images = random_commuting_involutions(rng, n, m, kind)
    return MultiquadraticTorsor(field, d, (kind, n), images)


def trivial_torsor(field: FieldDescriptor, kind: str, n: int, m: int = 1) -> MultiquadraticTorsor:
    if field.kind in fields.TOWERS:
        d = tuple(fields.generator(field, i) for i in range(m))
    else:
        d = tuple(canonicalize(v, field) for v in RATIONAL_TORSOR_CLASSES[:m])
    ident = WreathElement(n, perm_identity(n), frozenset())
    return MultiquadraticTorsor(field, d, (kind, n), (ident,) * m)
