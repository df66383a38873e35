"""Twisting-choice calculus, root-stack lift arithmetic, and the ordered
ledger of degree factors behind the degeneration coefficient."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import DegenkitError


def minimal_twist(contacts: Iterable[int]) -> int:
    """Least common multiple of a nonempty multiset of contact orders."""
    cs = list(contacts)
    if not cs:
        raise DegenkitError("minimal twist of an empty multiset is undefined")
    if any(c < 1 for c in cs):
        raise DegenkitError("contact orders must be positive")
    return math.lcm(*cs)


@dataclass(frozen=True)
class TwistingChoice:
    """Rule assigning a common multiple to every multiset of contact orders.

    Three serializable kinds are supported: the lcm rule, a constant multiple
    of it, and an explicit finite table with lcm fallback.  Arbitrary code is
    not accepted.  Every table value is checked for the divisibility
    constraint at construction, and the minimal rule divides any valid rule
    by construction.
    """

    kind: str = "lcm"
    multiple: int = 1
    table: tuple[tuple[tuple[int, ...], int], ...] = ()

    def __post_init__(self):
        if self.kind not in ("lcm", "multiple", "table"):
            raise DegenkitError("unknown twisting rule kind %r" % self.kind)
        if self.multiple < 1:
            raise DegenkitError("twisting multiple must be positive")
        norm = []
        for key, value in self.table:
            key = tuple(sorted(int(c) for c in key))
            if any(c < 1 for c in key):
                raise DegenkitError("twisting table keys must be positive integers")
            if value < 1 or any(value % c for c in key):
                raise DegenkitError(
                    "twisting table value %d is not a common multiple of %s"
                    % (value, list(key))
                )
            norm.append((key, int(value)))
        object.__setattr__(self, "table", tuple(sorted(norm)))

    def value(self, contacts: Iterable[int]) -> int:
        cs = tuple(sorted(int(c) for c in contacts))
        if any(c < 1 for c in cs):
            raise DegenkitError("contact orders must be positive")
        base = math.lcm(*cs)
        if self.kind == "lcm":
            return base
        if self.kind == "multiple":
            return self.multiple * base
        for key, value in self.table:
            if key == cs:
                return value
        return base

    def describe(self) -> str:
        if self.kind == "lcm":
            return "lcm"
        if self.kind == "multiple":
            return "%d*lcm" % self.multiple
        return "table(%d entries, lcm fallback)" % len(self.table)


MINIMAL_TWIST = TwistingChoice("lcm")


def precedes(
    rule: TwistingChoice,
    other: TwistingChoice,
    domain: Iterable[Iterable[int]],
) -> bool:
    """Pointwise divisibility of the two rules over a finite domain."""
    for contacts in domain:
        cs = tuple(contacts)
        if other.value(cs) % rule.value(cs):
            return False
    return True


@dataclass(frozen=True)
class LiftReport:
    """Outcome of lifting a contact-order-c map through an index-r root
    construction with source index r_sigma."""

    lifts: bool
    representable: bool
    transversal: bool
    source_index: Optional[int] = None

    def as_dict(self) -> dict:
        out = {
            "lifts": self.lifts,
            "representable": self.representable,
            "transversal": self.transversal,
        }
        if self.source_index is not None:
            out["source_index"] = self.source_index
        return out


def lift_analysis(c: int, r: int, r_sigma: int) -> LiftReport:
    """Lift criteria for a contact point; the same arithmetic covers nodes.

    A lift exists iff r divides c*r_sigma; it is representable, equivalently
    transversal, iff r = c*r_sigma.  Requires c | r.  At a node the lift is
    no longer unique: the choices form a torsor under the ghost
    automorphisms, whose count ghost_automorphism_order reports.
    """
    if c < 1 or r < 1 or r_sigma < 1:
        raise DegenkitError("c, r, r_sigma must be positive")
    if r % c:
        raise DegenkitError("contact order %d must divide the target index %d" % (c, r))
    lifts = (c * r_sigma) % r == 0
    representable = r == c * r_sigma
    return LiftReport(
        lifts=lifts,
        representable=representable,
        transversal=representable,
        source_index=r_sigma if lifts else None,
    )


def required_source_index(c: int, r: int) -> int:
    """Source index r/c forced by a representable lift."""
    if c < 1 or r < 1:
        raise DegenkitError("c and r must be positive")
    if r % c:
        raise DegenkitError("contact order %d does not divide the index %d" % (c, r))
    return r // c


def evaluation_band_order(r: int, g_order: int, gt_order: int) -> int:
    """Band order of the evaluation gerbe from the two stabilizer orders.

    Solves |<g~>| * c = r * |<g>| for a positive integer c.
    """
    if r < 1 or g_order < 1 or gt_order < 1:
        raise DegenkitError("orders must be positive")
    num = g_order * r
    if num % gt_order:
        raise DegenkitError(
            "inconsistent inertia data: %d * %d is not divisible by %d"
            % (g_order, r, gt_order)
        )
    return num // gt_order


def ghost_automorphism_order(node_indices: Iterable[int]) -> int:
    """Order of the group of automorphisms invisible on the coarse curve.

    Takes the multiset of NODE indices only; marking indices do not
    contribute and must not be passed.
    """
    out = 1
    for r in node_indices:
        if r < 1:
            raise DegenkitError("node indices must be positive")
        out *= r
    return out


@dataclass(frozen=True)
class LedgerFactor:
    stage: str
    factor: Fraction
    note: str


@dataclass(frozen=True)
class MultiplicityLedger:
    factors: tuple[LedgerFactor, ...]

    @property
    def net(self) -> Fraction:
        out = Fraction(1)
        for f in self.factors:
            out *= f.factor
        return out


def degeneration_ledger(
    contacts: Sequence[int],
    rule: TwistingChoice = MINIMAL_TWIST,
) -> MultiplicityLedger:
    """Ordered degree factors for one splitting, multiplying to prod(c)/|M|!.

    The twisting index r enters twice with opposite exponents, so the net is
    independent of the rule; keeping both entries makes that cancellation
    checkable.
    """
    cs = tuple(int(c) for c in contacts)
    if any(c < 1 for c in cs):
        raise DegenkitError("contact orders must be positive")
    m = len(cs)
    r = rule.value(cs) if cs else rule.value(())
    prod_c = 1
    for c in cs:
        prod_c *= c
    factors = (
        LedgerFactor(
            "split-target",
            Fraction(r, math.factorial(m)),
            "choices of twisted splitting divisor, divided by root relabelings",
        ),
        LedgerFactor(
            "glue-target",
            Fraction(1, r),
            "gluing gerbe of the two halves of the twisted target",
        ),
        LedgerFactor(
            "diagonal-gysin",
            Fraction(prod_c),
            "evaluation gerbes over the divisor inertia, one band order per root",
        ),
    )
    return MultiplicityLedger(factors)
