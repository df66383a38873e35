"""Desk-scale ground truth: branched-cover counts from the character table
of the symmetric group, a relative-invariant table for the projective line
with one marked point, and the end-to-end check of the degeneration evaluator
on the line degenerating into two lines glued at a point.

A cover count is a number of permutation tuples, one per branch point, that
multiply to the identity and generate a transitive subgroup.  Without the
transitivity condition it is Frobenius' formula over the irreducible
characters of S_d, each class entering through its central character, an
integer; the characters come from the Murnaghan-Nakayama rule on beta-sets
(Okounkov-Pandharipande, math/0204305, sections 0-1).  The transitive count
is the full count minus the tuples whose orbit of sheet 0 is smaller, which
factor into a transitive tuple on that orbit and any tuple on the other
sheets.  All arithmetic is in exact ints.

The relative-invariant table is read-only and lazy: it holds every
one-vertex key up to its bounds, but a value is worked out, from these
counts, only when it is looked up, by vertex data or by key.  Listing the
table enumerates the keys directly, with the bytes a table storing every key
would have.
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


def _partitions(d: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of d with parts in decreasing order, none above ``largest``."""
    if d == 0:
        return [()]
    largest = d if largest is None else largest
    return [
        (head,) + tail
        for head in range(min(d, largest), 0, -1)
        for tail in _partitions(d - head, head)
    ]


def _character(beta: frozenset[int], parts: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama: the irreducible character of S_d with beta-set
    ``beta`` at the class of cycle type ``parts``.  Removing a rim hook of
    length r moves one bead from b down to an empty b - r, with the sign
    (-1)^(beads jumped over)."""
    if not parts:
        return 1
    r, rest = parts[0], parts[1:]
    total = 0
    for b in beta:
        if b >= r and b - r not in beta:
            jumped = sum(1 for x in beta if b - r < x < b)
            total += (-1) ** jumped * _character(beta - {b} | {b - r}, rest)
    return total


def _beta_set(lam: tuple[int, ...]) -> frozenset[int]:
    """The first-column hook lengths of lam: one bead per row."""
    return frozenset(p + len(lam) - 1 - i for i, p in enumerate(lam))


def _class_size(parts: tuple[int, ...]) -> int:
    """Number of permutations of cycle type ``parts``: d! / prod(m_i! i^m_i)."""
    return math.factorial(sum(parts)) // (
        labeled_profile_normalization(parts) * math.prod(parts)
    )


@lru_cache(maxsize=None)
def _dimensions(d: int) -> tuple[int, ...]:
    """dim lam for each partition lam of d, in ``_partitions`` order."""
    return tuple(_character(_beta_set(lam), (1,) * d) for lam in _partitions(d))


@lru_cache(maxsize=None)
def _central_characters(d: int, parts: tuple[int, ...]) -> tuple[int, ...]:
    """The central character |C| chi_lam(C) / dim lam of the class C of cycle
    type ``parts``, for each partition lam of d in ``_partitions`` order.
    It is an algebraic integer and rational, so an integer."""
    size = _class_size(parts)
    return tuple(
        size * _character(_beta_set(lam), parts) // dim
        for lam, dim in zip(_partitions(d), _dimensions(d))
    )


@lru_cache(maxsize=None)
def _disconnected_count(
    d: int, profiles: tuple[tuple[int, ...], ...], transposition_slots: int
) -> int:
    """Tuples (one permutation per profile, then transpositions) multiplying
    to the identity, transitive or not.  Frobenius' formula

        (prod |C_i| / d!) sum_lam prod chi_lam(C_i) / (dim lam)^(n-2)
        = (1/d!) sum_lam (dim lam)^2 prod (central character of C_i at lam).
    """
    if transposition_slots and d < 2:
        return 0
    rows = [_central_characters(d, parts) for parts in profiles]
    transposition = _central_characters(d, (2,) + (1,) * (d - 2))
    total = 0
    for i, dim in enumerate(_dimensions(d)):
        term = dim * dim * transposition[i] ** transposition_slots
        for row in rows:
            term *= row[i]
        total += term
    return total // math.factorial(d)


def _sub_partitions(
    parts: tuple[int, ...], k: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every distinct sub-multiset of ``parts`` summing to k, as (taken,
    rest); both stay in decreasing order."""
    if k == 0:
        return [((), parts)]
    if not parts:
        return []
    head = parts[0]
    copies = parts.count(head)
    out = []
    for take in range(min(copies, k // head) + 1):
        for taken, rest in _sub_partitions(parts[copies:], k - take * head):
            out.append(((head,) * take + taken, (head,) * (copies - take) + rest))
    return out


def _nontrivial(profiles) -> tuple[tuple[int, ...], ...]:
    """Profiles without the identity class (all parts 1: one element, central
    character 1), in sorted order, so the counts below share their caches."""
    return tuple(sorted(p for p in profiles if p[0] > 1))


@lru_cache(maxsize=None)
def _connected_count(
    d: int, profiles: tuple[tuple[int, ...], ...], transposition_slots: int
) -> int:
    """Tuples as in ``_disconnected_count`` that generate a transitive
    subgroup: all of them, minus those where the orbit of sheet 0 has k < d
    sheets.  Such a tuple is a choice of the other k - 1 sheets of the orbit,
    a transitive tuple on the orbit and any tuple on the rest; each profile
    splits into the parts inside the orbit and the others, and each
    transposition acts on one side."""
    s = transposition_slots
    total = _disconnected_count(d, profiles, s)
    for k in range(1, d):
        sheets = math.comb(d - 1, k - 1)
        for split in itertools.product(*(_sub_partitions(p, k) for p in profiles)):
            inner = _nontrivial(taken for taken, _ in split)
            outer = _nontrivial(rest for _, rest in split)
            for s1 in range(s + 1):
                total -= (
                    sheets
                    * math.comb(s, s1)
                    * _connected_count(k, inner, s1)
                    * _disconnected_count(d - k, outer, s - s1)
                )
    return total


@lru_cache(maxsize=None)
def factorization_count(
    d: int, profiles: tuple[tuple[int, ...], ...], transposition_slots: int
) -> int:
    """Number of tuples (one permutation per profile, then transpositions)
    multiplying to the identity and generating a transitive subgroup.

    The count of all such tuples comes from the character table of S_d
    (Frobenius' formula, characters by Murnaghan-Nakayama, exact ints); the
    transitive ones are those minus the tuples whose orbit of sheet 0 is
    smaller, counted recursively.  Profiles are taken as partitions of d in
    any order of parts and of profiles.
    """
    if d > MAX_DEGREE:
        raise ScaleError("degree %d exceeds the supported bound %d" % (d, MAX_DEGREE))
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
        classes.append(parts)
    return _connected_count(d, _nontrivial(classes), transposition_slots)


def hurwitz_count(instance: HurwitzInstance) -> Fraction:
    """Weighted count of branched covers: factorizations divided by d!."""
    count = factorization_count(
        instance.degree,
        tuple(p.parts for p in instance.profiles),
        instance.simple_branch_count,
    )
    return Fraction(count, math.factorial(instance.degree))


# -- the line glued at a point as a degeneration problem ----------------------


# the names the P1 problem and its table share: a generator for the line on
# each side, the ambient class of a branch insertion, the divisor's point class
LINE_1 = "line1"
LINE_2 = "line2"
BRANCH_CLASS = "brp"
POINT_CLASS = "pt"
_SIDE_LINES = {"X1": LINE_1, "X2": LINE_2}
_BRANCH_LEG = (1, 0, BRANCH_CLASS)


def _one_class_catalog(sector: str, class_id: str) -> SectorCatalog:
    """One untwisted sector holding one even class of norm 1."""
    return SectorCatalog(
        sectors=(Sector(sector, 1, sector),),
        basis=(BasisClass(class_id, sector, Parity.EVEN),),
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


# shared by all tables: the P1 problems of a grid each build a table, and
# their evaluations look up many of the same vertices
@lru_cache(maxsize=1 << 12)
def _line_vertex(degree: int, genus: int, pattern: tuple, legs: int) -> Fraction:
    """The value of a one-vertex key of the line: ``connected_relative_value``
    with one branch insertion per leg, for roots of the given contact orders
    in label order."""
    return connected_relative_value(degree, genus, pattern, legs)


class P1Table(InvariantTable):
    """Read-only table of every one-vertex relative key of the line up to a
    degree, genus and branch-insertion budget, on both sides of the
    degeneration; a value is worked out when it is looked up.

    A key is in the table when its legs all carry (e = 1, m = 0, branch
    class) and its roots (f = 1, point class), its weight is degree 1..d_max
    of its side's generator, its genus is 0..g_max, it has at most
    ``max_legs`` legs, and its roots' contact orders sum to the degree.
    ``vertex_value`` writes that rule once, on the vertex datum (side,
    genus, exponents, legs, roots), and is the table's one override of a
    lookup: the inherited ``get`` answers a key by its datum
    (``CorrelatorKey.vertex``) through it, so a key ``for_vertex`` built is
    never read back from its bytes.  ``items()`` lists the keys with their
    values, from ``_line_vertex`` as ``vertex_value``'s are, and ``len()``
    counts them, without reading any key.
    """

    def __init__(self, d_max: int, g_max: int, max_legs: int):
        super().__init__()
        self.d_max = d_max
        self.g_max = g_max
        self.max_legs = max_legs

    def set(self, key: CorrelatorKey, value) -> None:
        raise DegenkitError("the P1 table is read-only")

    def vertex_value(
        self, side: str, genus: int, exponents: tuple, legs: tuple, roots: tuple
    ) -> Fraction | None:
        if genus > self.g_max or len(legs) > self.max_legs:
            return None
        if any(leg != _BRANCH_LEG for leg in legs):
            return None
        if any(f != 1 or cid != POINT_CLASS for f, _, cid in roots):
            return None
        if len(exponents) != 1:
            return None
        ((gid, d),) = exponents
        pattern = tuple([c for _, c, _ in roots])
        if gid != _SIDE_LINES[side] or d > self.d_max or sum(pattern) != d:
            return None
        return _line_vertex(d, genus, pattern, len(legs))

    def __len__(self) -> int:
        return 2 * (2**self.d_max - 1) * (self.g_max + 1) * (self.max_legs + 1)

    def items(self):
        rows = []
        for side, line in _SIDE_LINES.items():
            for d in range(1, self.d_max + 1):
                for pattern in _compositions(d):
                    roots = tuple((1, c, POINT_CLASS) for c in pattern)
                    for g in range(0, self.g_max + 1):
                        for s in range(0, self.max_legs + 1):
                            key = CorrelatorKey.for_vertex(
                                side, g, ((line, d),), (_BRANCH_LEG,) * s, roots
                            )
                            rows.append((key, _line_vertex(d, g, pattern, s)))
        return sorted(rows, key=lambda kv: kv[0].sort_token())


def build_p1_table(d_max: int, g_max: int, max_legs: int | None = None) -> P1Table:
    """Every one-vertex relative key up to the given degree, genus, and
    branch-insertion budget, on both sides of the degeneration, as a
    read-only ``P1Table``.

    Values are computed when a key is looked up; the keys, ``items()`` and
    ``len()`` are those of a table holding every key.  Keys whose branch
    count is incompatible with their genus get the value 0 so the evaluator
    can see every key it asks for.  Bounds that leave the table empty
    (d_max < 1, g_max < 0, max_legs < 0) are rejected.
    """
    if d_max > MAX_DEGREE:
        raise ScaleError("d_max %d exceeds the supported bound %d" % (d_max, MAX_DEGREE))
    if max_legs is None:
        max_legs = 2 * g_max - 2 + 2 * d_max
    if d_max < 1 or g_max < 0 or max_legs < 0:
        raise DegenkitError(
            "empty P1 table: need d_max >= 1, g_max >= 0 and max_legs >= 0"
            " (got %d, %d, %d)" % (d_max, g_max, max_legs)
        )
    return P1Table(d_max, g_max, max_legs)


def p1_problem(
    degree: int, genus: int, second_side_legs: int = 0
) -> tuple[DegenerationProblem, list[Insertion]]:
    """Degeneration data for degree-d genus-g covers of the smoothing.

    Each simple branch insertion is pinned to one side of the degeneration
    (the limit in which that branch condition specializes there); by default
    all of them sit on the first side.  Any fixed split gives the same count,
    which the tests exercise as a deformation-invariance identity.
    """
    b = 2 * genus - 2 + 2 * degree
    if b < 0:
        raise InfeasibleInstanceError("no branch data at degree %d genus %d" % (degree, genus))
    if not 0 <= second_side_legs <= b:
        raise InfeasibleInstanceError(
            "second-side branch count must lie in 0..%d" % b
        )
    sides = ["X1"] * (b - second_side_legs) + ["X2"] * second_side_legs
    problem = DegenerationProblem(
        monoid=CurveClassMonoid(
            (Generator(LINE_1, "X1", Fraction(1)), Generator(LINE_2, "X2", Fraction(1)))
        ),
        genus=genus,
        legs=tuple(LegSpec(i + 1, 1, side) for i, side in enumerate(sides)),
        beta=CurveClass({LINE_1: degree, LINE_2: degree}),
        divisor=_one_class_catalog("untwisted", POINT_CLASS),
        c_max=degree,
        ambient=_one_class_catalog("main", BRANCH_CLASS),
    )
    insertions = [Insertion(0, BRANCH_CLASS) for _ in range(b)]
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
    problem, insertions = p1_problem(degree, genus)
    table = build_p1_table(degree, genus, max_legs=len(insertions))
    engine = evaluate_degeneration(
        problem, insertions, table, rule=rule, convention=convention
    ).value
    oracle = hurwitz_count(HurwitzInstance(degree, genus))
    return DegenerationCheckReport(degree, genus, engine, oracle)
