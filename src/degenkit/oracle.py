"""Desk-scale ground truth: branched-cover counts from symmetric-group
factorizations, a relative-invariant table for the projective line with one
marked point, and the end-to-end check of the degeneration evaluator on the
line degenerating into two lines glued at a point.

Counts combine by plain integer addition over independent branches of the
factorization walk, so parallel evaluation would be safe; the sizes involved
(degree at most five) keep the sequential version instant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .algebra import BasisClass, Parity, Sector, SectorCatalog
from .correlator import (
    CorrelatorKey,
    Insertion,
    InvariantTable,
    evaluate_degeneration,
)
from .errors import InfeasibleInstanceError, ScaleError
from .graphs import CurveClass, CurveClassMonoid, Generator, Leg, ModularGraph, Root, Vertex
from .splitting import DegenerationProblem, LegSpec
from .twisting import MINIMAL_TWIST, TwistingChoice

MAX_DEGREE = 5


@dataclass(frozen=True)
class RamificationProfile:
    """Partition of the degree: cycle type over a branch point."""

    parts: tuple[int, ...]

    def __init__(self, parts):
        norm = tuple(sorted((int(p) for p in parts), reverse=True))
        if any(p < 1 for p in norm):
            raise InfeasibleInstanceError("profile parts must be positive")
        object.__setattr__(self, "parts", norm)

    @property
    def degree(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def part_multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out


@dataclass(frozen=True)
class HurwitzInstance:
    """Branch data over the line: marked profiles plus however many simple
    branch points the Riemann-Hurwitz count forces."""

    degree: int
    genus: int
    profiles: tuple[RamificationProfile, ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self,
            "profiles",
            tuple(
                p if isinstance(p, RamificationProfile) else RamificationProfile(p)
                for p in self.profiles
            ),
        )
        if self.degree < 1:
            raise InfeasibleInstanceError("degree must be positive")
        if self.genus < 0:
            raise InfeasibleInstanceError("genus must be nonnegative")
        for p in self.profiles:
            if p.degree != self.degree:
                raise InfeasibleInstanceError(
                    "profile %s does not sum to the degree %d" % (p.parts, self.degree)
                )
        if self.simple_branch_count < 0:
            raise InfeasibleInstanceError(
                "negative simple branch count %d" % self.simple_branch_count
            )

    @property
    def simple_branch_count(self) -> int:
        ram = sum(self.degree - p.length for p in self.profiles)
        return 2 * self.genus - 2 + 2 * self.degree - ram


def _identity(d: int) -> tuple[int, ...]:
    return tuple(range(d))


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def _cycle_type(perm: tuple[int, ...]) -> tuple[int, ...]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def _orbit_partition(perm: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(perm)
    blocks = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        block = []
        x = start
        while not seen[x]:
            seen[x] = True
            block.append(x)
            x = perm[x]
        blocks.append(tuple(sorted(block)))
    return tuple(sorted(blocks))


def _join(p1, p2) -> tuple[tuple[int, ...], ...]:
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for block in list(p1) + list(p2):
        for x in block:
            parent.setdefault(x, x)
        a = find(block[0])
        for x in block[1:]:
            b = find(x)
            if a != b:
                parent[b] = a
    blocks: dict[int, list[int]] = {}
    for x in parent:
        blocks.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(sorted(b)) for b in blocks.values()))


@lru_cache(maxsize=None)
def _class_elements(d: int, parts: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(
        perm
        for perm in itertools.permutations(range(d))
        if _cycle_type(perm) == tuple(sorted(parts, reverse=True))
    )


@lru_cache(maxsize=None)
def factorization_count(
    d: int, profiles: tuple[tuple[int, ...], ...], transposition_slots: int
) -> int:
    """Number of tuples (one permutation per profile, then transpositions)
    multiplying to the identity and generating a transitive subgroup.

    Dynamic programming over (partial product, orbit partition of the
    group generated so far); the join of the generators' orbit partitions is
    the orbit partition of the generated group.  Partitions are interned as
    small ids, and each join of two of them is computed once per call.
    """
    if d > MAX_DEGREE:
        raise ScaleError("degree %d exceeds the brute-force bound %d" % (d, MAX_DEGREE))
    partitions: list[tuple[tuple[int, ...], ...]] = []
    partition_ids: dict[tuple, int] = {}

    def intern(partition) -> int:
        if partition not in partition_ids:
            partition_ids[partition] = len(partitions)
            partitions.append(partition)
        return partition_ids[partition]

    joins: dict[tuple[int, int], int] = {}
    discrete = intern(tuple((i,) for i in range(d)))
    states: dict[tuple, int] = {(_identity(d), discrete): 1}
    slot_classes = [tuple(sorted(p, reverse=True)) for p in profiles]
    slot_classes += [(2,) + (1,) * (d - 2)] * transposition_slots if d >= 2 else []
    if d < 2 and transposition_slots:
        return 0
    for parts in slot_classes:
        new_states: dict[tuple, int] = {}
        elements = [
            (sigma, intern(_orbit_partition(sigma)))
            for sigma in _class_elements(d, parts)
        ]
        for (prod, pid), count in states.items():
            for sigma, sid in elements:
                joined = joins.get((pid, sid))
                if joined is None:
                    joined = intern(_join(partitions[pid], partitions[sid]))
                    joins[pid, sid] = joined
                key = (_compose(prod, sigma), joined)
                new_states[key] = new_states.get(key, 0) + count
        states = new_states
    full = partition_ids.get((tuple(range(d)),))
    return states.get((_identity(d), full), 0)


def hurwitz_count(instance: HurwitzInstance) -> Fraction:
    """Weighted count of branched covers: factorizations divided by d!."""
    d = instance.degree
    if d > MAX_DEGREE:
        raise ScaleError("degree %d exceeds the brute-force bound %d" % (d, MAX_DEGREE))
    count = factorization_count(
        d,
        tuple(p.parts for p in instance.profiles),
        instance.simple_branch_count,
    )
    return Fraction(count, math.factorial(d))


# -- the line glued at a point as a degeneration problem ----------------------


@dataclass(frozen=True)
class P1Conventions:
    """Naming conventions shared by the table builder and the problem."""

    generator_1: str = "line1"
    generator_2: str = "line2"
    branch_class: str = "brp"
    point_class: str = "pt"

    def monoid(self) -> CurveClassMonoid:
        return CurveClassMonoid(
            (
                Generator(self.generator_1, "X1", Fraction(1)),
                Generator(self.generator_2, "X2", Fraction(1)),
            )
        )

    def divisor_catalog(self) -> SectorCatalog:
        return SectorCatalog(
            sectors=(Sector("untwisted", 1, "untwisted"),),
            basis=(BasisClass(self.point_class, "untwisted", Parity.EVEN),),
            pairing=((Fraction(1),),),
        )

    def ambient_catalog(self) -> SectorCatalog:
        return SectorCatalog(
            sectors=(Sector("main", 1, "main"),),
            basis=(BasisClass(self.branch_class, "main", Parity.EVEN),),
            pairing=((Fraction(1),),),
        )


def labeled_profile_normalization(pattern: Sequence[int]) -> int:
    """Relabeling factor for a fully labeled contact pattern: the product of
    factorials of the part multiplicities."""
    mult: dict[int, int] = {}
    for c in pattern:
        mult[c] = mult.get(c, 0) + 1
    out = 1
    for a in mult.values():
        out *= math.factorial(a)
    return out


def connected_relative_value(
    degree: int, genus: int, pattern: Sequence[int], simple_points: int
) -> Fraction:
    """Labeled relative correlator of the line with one marked point:
    connected covers with full contact pattern over the point and the given
    number of simple branch insertions.

    Nonzero only when the branch count matches the genus by Riemann-Hurwitz.
    """
    pattern = tuple(sorted(int(c) for c in pattern), )
    ell = len(pattern)
    num = simple_points + 2 - degree - ell
    if num % 2 or num // 2 != genus:
        return Fraction(0)
    count = factorization_count(degree, (tuple(pattern),), simple_points)
    return labeled_profile_normalization(pattern) * Fraction(
        count, math.factorial(degree)
    )


def _compositions(total: int) -> list[tuple[int, ...]]:
    """All ordered tuples of positive integers with the given sum."""
    if total == 0:
        return [()]
    out = []
    for head in range(1, total + 1):
        for tail in _compositions(total - head):
            out.append((head,) + tail)
    return out


def build_p1_table(
    d_max: int,
    g_max: int,
    conventions: P1Conventions | None = None,
    max_legs: int | None = None,
) -> InvariantTable:
    """Every one-vertex relative key up to the given degree, genus, and
    branch-insertion budget, on both sides of the degeneration.

    Keys whose branch count is incompatible with their genus get the value 0
    so the evaluator can see every key it asks for.
    """
    if d_max > MAX_DEGREE:
        raise ScaleError("d_max %d exceeds the brute-force bound %d" % (d_max, MAX_DEGREE))
    conv = conventions or P1Conventions()
    if max_legs is None:
        max_legs = 2 * g_max - 2 + 2 * d_max
    table = InvariantTable()
    for side, gen in (("X1", conv.generator_1), ("X2", conv.generator_2)):
        for d in range(1, d_max + 1):
            weight = CurveClass({gen: d})
            for pattern in _compositions(d):
                for g in range(0, g_max + 1):
                    for s in range(0, max_legs + 1):
                        graph = ModularGraph(
                            vertices=(Vertex(g, weight),),
                            edges=(),
                            legs=tuple(Leg(i + 1, 1, 0) for i in range(s)),
                            roots=tuple(
                                Root(s + j + 1, 1, c, 0)
                                for j, c in enumerate(pattern)
                            ),
                        )
                        key = CorrelatorKey.for_component(
                            side,
                            graph,
                            {i + 1: Insertion(0, conv.branch_class) for i in range(s)},
                            {s + j + 1: conv.point_class for j in range(len(pattern))},
                        )
                        table.set(key, connected_relative_value(d, g, pattern, s))
    return table


def p1_problem(
    degree: int,
    genus: int,
    conventions: P1Conventions | None = None,
    second_side_legs: int = 0,
) -> tuple[DegenerationProblem, list[Insertion]]:
    """Degeneration data for degree-d genus-g covers of the smoothing.

    Each simple branch insertion is pinned to one side of the degeneration
    (the limit in which that branch condition specializes there); by default
    all of them sit on the first side.  Any fixed split gives the same count,
    which the tests exercise as a deformation-invariance identity.
    """
    conv = conventions or P1Conventions()
    b = 2 * genus - 2 + 2 * degree
    if b < 0:
        raise InfeasibleInstanceError("no branch data at degree %d genus %d" % (degree, genus))
    if not 0 <= second_side_legs <= b:
        raise InfeasibleInstanceError(
            "second-side branch count must lie in 0..%d" % b
        )
    sides = ["X1"] * (b - second_side_legs) + ["X2"] * second_side_legs
    problem = DegenerationProblem(
        monoid=conv.monoid(),
        genus=genus,
        legs=tuple(LegSpec(i + 1, 1, side) for i, side in enumerate(sides)),
        beta=CurveClass({conv.generator_1: degree, conv.generator_2: degree}),
        divisor=conv.divisor_catalog(),
        c_max=degree,
        ambient=conv.ambient_catalog(),
    )
    insertions = [Insertion(0, conv.branch_class) for _ in range(b)]
    return problem, insertions


@dataclass(frozen=True)
class DegenerationCheckReport:
    degree: int
    genus: int
    engine_value: Fraction
    oracle_value: Fraction

    @property
    def equal(self) -> bool:
        return self.engine_value == self.oracle_value

    def as_dict(self) -> dict:
        return {
            "degree": self.degree,
            "genus": self.genus,
            "engine_value": str(self.engine_value),
            "oracle_value": str(self.oracle_value),
            "equal": self.equal,
        }


def degeneration_check(
    degree: int,
    genus: int,
    rule: TwistingChoice = MINIMAL_TWIST,
    convention: str = "standard_dual",
) -> DegenerationCheckReport:
    """Compare the degeneration evaluator against the direct cover count."""
    if degree > 4:
        raise ScaleError("degeneration check supports degree <= 4")
    if genus > 2:
        raise ScaleError("degeneration check supports genus <= 2")
    conv = P1Conventions()
    problem, insertions = p1_problem(degree, genus, conv)
    table = build_p1_table(degree, genus, conv, max_legs=len(insertions))
    engine = evaluate_degeneration(
        problem, insertions, table, rule=rule, convention=convention
    ).value
    oracle = hurwitz_count(HurwitzInstance(degree, genus))
    return DegenerationCheckReport(degree, genus, engine, oracle)
