"""Desk-scale ground truth: branched-cover counts from symmetric-group
factorizations, a relative-invariant table for the projective line with one
marked point, and the end-to-end check of the degeneration evaluator on the
line degenerating into two lines glued at a point.

Factorization counts come from one dynamic-programming sweep per degree and
tuple of profiles.  The sweep runs the profile slots once, then one
transposition slot at a time, keeping its current states and the count after
every slot so far; a count for more slots extends it, a count for fewer is
read off.  Permutations of S_d are composed by index through one table per
degree (degree at most five, so at most 120 x 120 entries).
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
from .errors import DegenkitError, InfeasibleInstanceError, ScaleError
from .graphs import CurveClass, CurveClassMonoid, Generator
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


class _SymmetricGroup:
    """S_d with its elements numbered, the identity first.

    ``product[i][j]`` numbers the permutation that applies element j, then
    element i.  Orbit partitions are interned as small ids, and the join of
    two ids (the orbit partition of the group the two generate) is computed
    once per pair.
    """

    def __init__(self, d: int):
        perms = list(itertools.permutations(range(d)))
        number = {p: i for i, p in enumerate(perms)}
        self.product = [[number[tuple(map(p.__getitem__, q))] for q in perms] for p in perms]
        self.partitions: list[tuple[tuple[int, ...], ...]] = []
        self.partition_ids: dict[tuple, int] = {}
        self.joins: dict[tuple[int, int], int] = {}
        self.classes: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        for i, perm in enumerate(perms):
            self.classes.setdefault(_cycle_type(perm), []).append(
                (i, self.intern(_orbit_partition(perm)))
            )
        self.discrete = self.intern(tuple((i,) for i in range(d)))
        self.transitive = self.intern((tuple(range(d)),))

    def intern(self, partition) -> int:
        if partition not in self.partition_ids:
            self.partition_ids[partition] = len(self.partitions)
            self.partitions.append(partition)
        return self.partition_ids[partition]

    def join(self, pid: int, sid: int) -> int:
        joined = self.intern(_join(self.partitions[pid], self.partitions[sid]))
        self.joins[pid, sid] = joined
        return joined

    def step(self, states: dict, parts: tuple[int, ...]) -> dict:
        """DP states after one more slot of the given cycle type: counts by
        (partial product, orbit partition of the generators so far)."""
        product, joins = self.product, self.joins
        elements = self.classes.get(parts, [])
        out: dict[tuple[int, int], int] = {}
        for (prod, pid), count in states.items():
            row = product[prod]
            for sigma, sid in elements:
                joined = joins.get((pid, sid))
                if joined is None:
                    joined = self.join(pid, sid)
                key = (row[sigma], joined)
                out[key] = out.get(key, 0) + count
        return out


@lru_cache(maxsize=None)
def _symmetric_group(d: int) -> _SymmetricGroup:
    return _SymmetricGroup(d)


class _Sweep:
    """The factorization DP of one degree and one tuple of profiles, with
    the count after every transposition slot run so far."""

    def __init__(self, d: int, profiles: tuple[tuple[int, ...], ...]):
        self.group = _symmetric_group(d)
        self.transposition = (2,) + (1,) * (d - 2)
        self.states = {(0, self.group.discrete): 1}
        for parts in profiles:
            self.states = self.group.step(self.states, parts)
        self.counts = [self._count()]

    def _count(self) -> int:
        return self.states.get((0, self.group.transitive), 0)

    def count(self, slots: int) -> int:
        while len(self.counts) <= slots:
            self.states = self.group.step(self.states, self.transposition)
            self.counts.append(self._count())
        return self.counts[slots]


@lru_cache(maxsize=None)
def _sweep(d: int, profiles: tuple[tuple[int, ...], ...]) -> _Sweep:
    return _Sweep(d, profiles)


@lru_cache(maxsize=None)
def factorization_count(
    d: int, profiles: tuple[tuple[int, ...], ...], transposition_slots: int
) -> int:
    """Number of tuples (one permutation per profile, then transpositions)
    multiplying to the identity and generating a transitive subgroup.

    Read off the sweep of (d, profiles), extended as far as
    ``transposition_slots`` if it has not got there yet.  The sweep is a
    dynamic program over (partial product, orbit partition of the group
    generated so far); the join of the generators' orbit partitions is the
    orbit partition of the generated group.  Profiles are taken as
    partitions of d in any order of parts; all-ones profiles (the identity
    class, one element) are dropped, so they share the sweep without them.
    """
    if d > MAX_DEGREE:
        raise ScaleError("degree %d exceeds the brute-force bound %d" % (d, MAX_DEGREE))
    if d < 1:
        raise InfeasibleInstanceError("degree must be positive")
    if transposition_slots < 0:
        raise InfeasibleInstanceError(
            "negative transposition slot count %d" % transposition_slots
        )
    classes = []
    for parts in profiles:
        parts = tuple(sorted(parts, reverse=True))
        if sum(parts) != d or any(p < 1 for p in parts):
            raise InfeasibleInstanceError(
                "profile %s is not a partition of the degree %d" % (parts, d)
            )
        if parts[0] > 1:
            classes.append(parts)
    return _sweep(d, tuple(classes)).count(transposition_slots)


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
    so the evaluator can see every key it asks for.  Bounds that leave the
    table empty (d_max < 1, g_max < 0, max_legs < 0) are rejected.
    """
    if d_max > MAX_DEGREE:
        raise ScaleError("d_max %d exceeds the brute-force bound %d" % (d_max, MAX_DEGREE))
    if max_legs is None:
        max_legs = 2 * g_max - 2 + 2 * d_max
    if d_max < 1 or g_max < 0 or max_legs < 0:
        raise DegenkitError(
            "empty P1 table: need d_max >= 1, g_max >= 0 and max_legs >= 0"
            " (got %d, %d, %d)" % (d_max, g_max, max_legs)
        )
    conv = conventions or P1Conventions()
    table = InvariantTable()
    for side, gen in (("X1", conv.generator_1), ("X2", conv.generator_2)):
        for d in range(1, d_max + 1):
            weight = CurveClass({gen: d})
            for pattern in _compositions(d):
                for g in range(0, g_max + 1):
                    for s in range(0, max_legs + 1):
                        key = CorrelatorKey.for_vertex(
                            side,
                            g,
                            weight,
                            ((1, 0, conv.branch_class),) * s,
                            tuple((1, c, conv.point_class) for c in pattern),
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
