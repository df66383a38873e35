"""Built-in property suites behind the `check` subcommand.

Each suite returns a list of (name, passed, detail) triples; the CLI turns
them into a pass/fail report.  The pytest suite runs the same assertions at
larger sizes.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .algebra import Parity, SectorCatalog, Sector, BasisClass, dual_basis, chen_ruan_dual, koszul_sign
from .errors import SingularPairingError
from .graphs import CurveClass, CurveClassMonoid, Generator
from .oracle import degeneration_check
from .splitting import DegenerationProblem, LegSpec, enumerate_splittings, orbits
from .twisting import (
    MINIMAL_TWIST,
    TwistingChoice,
    degeneration_ledger,
    lift_analysis,
    minimal_twist,
    precedes,
    required_source_index,
)

def reorder_sign_by_swaps(permutation, parities) -> int:
    """Oracle: apply the permutation by adjacent transpositions in a free
    graded-commutative monomial model, tracking the sign of each swap."""
    current = list(range(len(permutation)))
    sign = 1
    target = list(permutation)
    for k in range(len(target)):
        pos = current.index(target[k])
        while pos > k:
            a, b = current[pos - 1], current[pos]
            if parities[a].is_odd and parities[b].is_odd:
                sign = -sign
            current[pos - 1], current[pos] = b, a
            pos -= 1
    return sign


# Koszul signs are checked for every order and parity of up to this many factors
_KOSZUL_MAX_LEN = 5


def check_algebra() -> list[tuple[str, bool, str]]:
    out = []
    ok = True
    detail = ""
    for n in range(0, _KOSZUL_MAX_LEN + 1):
        for perm in itertools.permutations(range(n)):
            for bits in itertools.product((Parity.EVEN, Parity.ODD), repeat=n):
                if koszul_sign(perm, bits) != reorder_sign_by_swaps(perm, bits):
                    ok = False
                    detail = "mismatch at %s %s" % (perm, bits)
                    break
    out.append(("koszul-vs-monomial-model", ok, detail))
    rng = random.Random(7)
    ok = True
    detail = ""
    for trial in range(20):
        n = rng.randint(1, 4)
        while True:
            rows = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    rows[i][j] = rows[j][i] = Fraction(
                        rng.randint(-5, 5), rng.randint(1, 4)
                    )
            cat = _plain_catalog(rows)
            try:
                duals = dual_basis(cat)
            except SingularPairingError:
                continue
            break
        for i in range(n):
            for j in range(n):
                got = cat.standard_pairing(duals[i], _unit(n, j))
                if got != Fraction(1 if i == j else 0):
                    ok = False
                    detail = "dual identity fails at (%d,%d)" % (i, j)
    out.append(("dual-basis-identity", ok, detail))
    ok = True
    detail = ""
    cat = _banded_catalog()
    for i, b in enumerate(cat.basis):
        tilde = chen_ruan_dual(b.id, cat)
        for j, b2 in enumerate(cat.basis):
            r = cat.band_weights()
            pulled = cat.involution_pullback(tilde)
            scaled = tuple(pulled[a] / r[a] for a in range(len(r)))
            got = cat.standard_pairing(scaled, _unit(len(cat.basis), j))
            if got != Fraction(1 if i == j else 0):
                ok = False
                detail = "band-weighted duality fails at (%d,%d)" % (i, j)
    out.append(("band-weighted-duality", ok, detail))
    return out


def _unit(n: int, j: int):
    return tuple(Fraction(1 if a == j else 0) for a in range(n))


def _plain_catalog(rows) -> SectorCatalog:
    n = len(rows)
    return SectorCatalog(
        sectors=(Sector("s", 1, "s"),),
        basis=tuple(BasisClass("b%d" % i, "s", Parity.EVEN) for i in range(n)),
        pairing=tuple(tuple(row) for row in rows),
    )


def _banded_catalog() -> SectorCatalog:
    return SectorCatalog(
        sectors=(
            Sector("u", 1, "u"),
            Sector("t+", 2, "t-"),
            Sector("t-", 2, "t+"),
        ),
        basis=(
            BasisClass("one", "u", Parity.EVEN),
            BasisClass("a+", "t+", Parity.EVEN),
            BasisClass("a-", "t-", Parity.EVEN),
        ),
        pairing=(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1, 2)),
        ),
        basis_involution={"one": ("one", 1), "a+": ("a-", 1), "a-": ("a+", 1)},
    )


def check_lifts() -> list[tuple[str, bool, str]]:
    ok = True
    detail = ""
    for c in range(1, 13):
        for r_sigma in range(1, 13):
            for r in range(c, 25, c):
                rep = lift_analysis(c, r, r_sigma)
                want_lift = (c * r_sigma) % r == 0
                want_rep = r == c * r_sigma
                if rep.lifts != want_lift or rep.representable != want_rep:
                    ok = False
                    detail = "clause failure at c=%d r=%d r_sigma=%d" % (c, r, r_sigma)
                if rep.transversal != rep.representable:
                    ok = False
                    detail = "transversal/representable differ at c=%d r=%d" % (c, r)
                if rep.representable and not rep.lifts:
                    ok = False
                    detail = "representable without lift at c=%d r=%d" % (c, r)
                if want_rep and required_source_index(c, r) != r_sigma:
                    ok = False
                    detail = "source index round trip fails at c=%d r=%d" % (c, r)
    return [("lift-truth-table", ok, detail)]


def check_ledger() -> list[tuple[str, bool, str]]:
    out = []
    rng = random.Random(11)
    bigger = TwistingChoice("multiple", multiple=2)
    ok = True
    detail = ""
    for trial in range(50):
        contacts = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 4)))
        nets = set()
        for rule in (MINIMAL_TWIST, bigger):
            ledger = degeneration_ledger(contacts, rule)
            nets.add(ledger.net)
            prod = Fraction(1)
            for f in ledger.factors:
                prod *= f.factor
            if prod != ledger.net:
                ok = False
                detail = "net is not the factor product at %s" % (contacts,)
        if len(nets) != 1:
            ok = False
            detail = "net depends on the twisting rule at %s" % (contacts,)
        if contacts:
            mt = minimal_twist(contacts)
            if bigger.value(contacts) % mt or MINIMAL_TWIST.value(contacts) % mt:
                ok = False
                detail = "minimal rule does not divide at %s" % (contacts,)
    out.append(("ledger-net-twisting-free", ok, detail))
    domain = [(1,), (2,), (2, 3), (2, 2), (4, 6)]
    ok = (
        precedes(MINIMAL_TWIST, bigger, domain)
        and precedes(MINIMAL_TWIST, MINIMAL_TWIST, domain)
        and not precedes(bigger, MINIMAL_TWIST, domain)
    )
    out.append(("twisting-partial-order", ok, ""))
    return out


def _sample_problem() -> DegenerationProblem:
    monoid = CurveClassMonoid(
        (Generator("a", "X1", Fraction(1)), Generator("b", "X2", Fraction(1)))
    )
    divisor = SectorCatalog(
        sectors=(Sector("u", 1, "u"),),
        basis=(BasisClass("pt", "u", Parity.EVEN),),
        pairing=((Fraction(1),),),
    )
    ambient = SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=(BasisClass("ins", "m", Parity.EVEN),),
        pairing=((Fraction(1),),),
    )
    return DegenerationProblem(
        monoid=monoid,
        genus=1,
        legs=(LegSpec(1, 1), LegSpec(2, 1)),
        beta=CurveClass({"a": 2, "b": 2}),
        divisor=divisor,
        c_max=2,
        ambient=ambient,
    )


def check_orbits() -> list[tuple[str, bool, str]]:
    import math

    problem = _sample_problem()
    omega = enumerate_splittings(problem)
    ok = bool(omega)
    detail = "" if ok else "sample enumeration is empty"
    counted = 0
    for o in orbits(omega):
        m = len(o.representative.m_labels)
        counted += math.factorial(m) // o.stabilizer_order
        if o.size * o.stabilizer_order != math.factorial(m):
            ok = False
            detail = "orbit size times stabilizer != |M|! at |M|=%d" % m
    if len(omega) != counted:
        ok = False
        detail = "orbit-stabilizer count fails: %d vs %d" % (len(omega), counted)
    return [("orbit-stabilizer", ok, detail)]


def check_hurwitz() -> list[tuple[str, bool, str]]:
    out = []
    for d in (1, 2, 3, 4):
        for g in (0, 1, 2):
            report = degeneration_check(d, g)
            out.append(
                (
                    "hurwitz-d%d-g%d" % (d, g),
                    report.equal,
                    "engine=%s oracle=%s" % (report.engine_value, report.oracle_value),
                )
            )
    return out


SUITES = {
    "algebra": check_algebra,
    "lifts": check_lifts,
    "ledger": check_ledger,
    "orbits": check_orbits,
    "hurwitz": check_hurwitz,
}


def run_suite(name: str) -> list[tuple[str, bool, str]]:
    """The results of the suite ``name``, or of every suite in ``SUITES``
    order for "all"; raises KeyError for an unknown name."""
    if name == "all":
        return [result for suite in SUITES.values() for result in suite()]
    return SUITES[name]()
