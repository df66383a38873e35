"""The walk up to root relabeling against the labeled walk it replaces in
plain evaluation: orbit counts by brute force, and equal values."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenkit.algebra import BasisClass, Parity, Sector, SectorCatalog
from degenkit.correlator import (
    CONVENTIONS,
    CorrelatorKey,
    Insertion,
    InvariantTable,
    evaluate_degeneration,
    needed_keys,
)
from degenkit import splitting
from degenkit.graphs import CurveClass, CurveClassMonoid, Generator
from degenkit.oracle import build_p1_table, p1_problem
from degenkit.splitting import (
    DegenerationProblem,
    LegSpec,
    SplittingStructure,
    _Budget,
    _root_plan,
    iter_structure_orbits,
    iter_structures,
)
from degenkit.twisting import MINIMAL_TWIST, TwistingChoice
from helpers import (
    DIVISOR_SHAPES,
    brute_force_orbits,
    covariant_random_table,
    random_ambient_catalog,
    random_divisor_catalog,
    random_problem,
    reference_decorated_orbits,
    relabeling_orbit,
    structure_key,
)

P1_GRID = [(d, g) for g in range(3) for d in range(1, 6)]

# (orbits, labeled structures) of the P1 cells of degree 3 to 5
P1_ORBIT_COUNTS = {
    (3, 0): (6, 13), (3, 1): (19, 54), (3, 2): (42, 130),
    (4, 0): (16, 81), (4, 1): (60, 441), (4, 2): (156, 1322),
    (5, 0): (37, 689), (5, 1): (180, 4686), (5, 2): (545, 17005),
}


def _raw(structure):
    return (
        structure.m_labels, structure.root_data,
        structure.blocks1, structure.weights1, structure.genera1,
        structure.blocks2, structure.weights2, structure.genera2,
    )


def check_orbit_walk(problem) -> tuple[int, int]:
    """Check the orbit walk of a problem against the brute-force orbits of
    its labeled walk; returns (orbits, labeled structures)."""
    labeled = list(iter_structures(problem))
    walked = list(iter_structure_orbits(problem))
    assert len({structure_key(s) for s in labeled}) == len(labeled)
    raw = {_raw(s) for s in labeled}
    orbits = {orbit: len(orbit) for orbit in brute_force_orbits(labeled)}
    hit = set()
    for structure, size in walked:
        # each representative is a labeled structure, exactly as walked
        assert _raw(structure) in raw
        orbit = relabeling_orbit(structure)
        assert orbits[orbit] == size
        assert orbit not in hit
        hit.add(orbit)
    assert len(hit) == len(orbits)
    assert sum(size for _, size in walked) == len(labeled)
    return len(walked), len(labeled)


@pytest.mark.parametrize("d,g", P1_GRID)
def test_orbit_walk_on_the_p1_grid(d, g):
    problem, _ = p1_problem(d, g)
    counts = check_orbit_walk(problem)
    if (d, g) in P1_ORBIT_COUNTS:
        assert counts == P1_ORBIT_COUNTS[d, g]


def _sixths_divisor() -> SectorCatalog:
    """Bands 1, 2 and 3: an untwisted sector, a self-conjugate band-2 sector
    and a conjugate band-3 pair."""
    even = Parity.EVEN
    return SectorCatalog(
        sectors=(
            Sector("u", 1, "u"),
            Sector("t", 2, "t"),
            Sector("s+", 3, "s-"),
            Sector("s-", 3, "s+"),
        ),
        basis=(
            BasisClass("u0", "u", even),
            BasisClass("t0", "t", even),
            BasisClass("s0+", "s+", even),
            BasisClass("s0-", "s-", even),
        ),
        pairing=(
            (1, 0, 0, 0),
            (0, Fraction(1, 2), 0, 0),
            (0, 0, Fraction(1, 3), 0),
            (0, 0, 0, Fraction(1, 3)),
        ),
        basis_involution={
            "u0": ("u0", 1), "t0": ("t0", 1), "s0+": ("s0-", 1), "s0-": ("s0+", 1)
        },
    )


def _band_problem(seed: int, k: int, genus: int, shape: str = "pair"):
    """Side degree k/2 over half-degree generators, a band-2 divisor
    catalog and contact orders up to 2, so roots of index 2 enter; X1 has a
    second half-degree generator so that weight splits are not forced.

    The shape "sixths" takes ``_sixths_divisor`` and generators of degree
    1/3, 1/2 and 0 on X1 and 1/2 and 1/3 on X2, so that multiplicities c/f
    and generator degrees have the denominators 1, 2, 3 and 6 and the walk
    counts degrees in sixths.
    """
    rng = random.Random(seed)
    if shape == "sixths":
        third, half = Fraction(1, 3), Fraction(1, 2)
        monoid = CurveClassMonoid(
            (
                Generator("a", "X1", third),
                Generator("a2", "X1", half),
                Generator("z", "X1", Fraction(0)),
                Generator("b", "X2", half),
                Generator("b3", "X2", third),
            )
        )
        beta = {"a": 3, "a2": k - 2, "z": 1, "b": k - 2, "b3": 3}
        divisor = _sixths_divisor()
    else:
        monoid = CurveClassMonoid(
            (
                Generator("a", "X1", Fraction(1, 2)),
                Generator("a2", "X1", Fraction(1, 2)),
                Generator("b", "X2", Fraction(1, 2)),
            )
        )
        beta = {"a": k - 1, "a2": 1, "b": k}
        divisor = random_divisor_catalog(rng, shape)
    return DegenerationProblem(
        monoid=monoid,
        genus=genus,
        legs=(),
        beta=CurveClass(beta),
        divisor=divisor,
        c_max=2,
        ambient=random_ambient_catalog(rng),
    )


@pytest.mark.parametrize(
    "seed,k,genus,shape",
    [
        (1, 3, 1, "pair"), (2, 4, 0, "pair"), (3, 4, 1, "self"), (4, 3, 2, "odd-self"),
        (5, 3, 0, "sixths"), (6, 3, 1, "sixths"), (7, 3, 2, "sixths"),
    ],
)
def test_orbit_walk_with_band_two_roots(seed, k, genus, shape):
    problem = _band_problem(seed, k, genus, shape)
    assert 2 in problem.divisor.band_orders()
    orbits, labeled = check_orbit_walk(problem)
    assert orbits < labeled
    assert any(
        f == 2 for s, _ in iter_structure_orbits(problem) for f, _ in s.root_data
    )


def test_the_walk_counts_degrees_in_sixths():
    # bands 1, 2, 3 and generator degrees 1/3, 1/2, 0: the scale is 6, so
    # each multiplicity c/f is the int 6c/f and the side degree 3/2 is 9
    problem = _band_problem(5, 3, 0, "sixths")
    assert sorted(problem.divisor.band_orders()) == [1, 2, 3]
    _, deg, pairs, mults, m_max = _root_plan(problem)
    assert dict(zip(pairs, mults)) == {(f, c): 6 * c // f for f in (1, 2, 3) for c in (1, 2)}
    assert (deg, m_max) == (9, 4)
    assert {f for s, _ in iter_structure_orbits(problem) for f, _ in s.root_data} == {1, 2, 3}
    # with generators of degree 1 the scale comes from the bands alone
    whole = dataclasses.replace(
        problem,
        monoid=CurveClassMonoid((Generator("a", "X1", 1), Generator("b", "X2", 1))),
        beta=CurveClass({"a": 2, "b": 2}),
        genus=2,
    )
    _, deg, pairs, mults, m_max = _root_plan(whole)
    assert dict(zip(pairs, mults)) == {(f, c): 6 * c // f for f in (1, 2, 3) for c in (1, 2)}
    assert (deg, m_max) == (12, 6)
    assert check_orbit_walk(whole) == (81, 388)


class RecordingTable(InvariantTable):
    """A table that records every key looked up, by key or by the vertex
    data of its key."""

    def __init__(self, table: InvariantTable):
        super().__init__(dict(table.items()))
        self.looked_up: set = set()

    def get(self, key):
        self.looked_up.add(key)
        return super().get(key)

    def vertex_value(self, side, genus, exponents, legs, roots):
        self.looked_up.add(CorrelatorKey.for_vertex(side, genus, exponents, legs, roots))
        return super().vertex_value(side, genus, exponents, legs, roots)


def check_orbit_evaluation(problem, insertions, table, needed=None):
    """Plain evaluation equals the labeled term walk in both conventions,
    and looks up only keys that the labeled walk looks up, and that
    ``needed`` (the keys ``needed_keys`` lists) holds when given."""
    for convention in CONVENTIONS:
        plain_table, labeled_table = RecordingTable(table), RecordingTable(table)
        plain = evaluate_degeneration(problem, insertions, plain_table, convention=convention)
        labeled = evaluate_degeneration(
            problem, insertions, labeled_table, convention=convention, with_terms=True
        )
        assert plain.value == labeled.value
        assert plain_table.looked_up or not len(table)
        assert plain_table.looked_up <= labeled_table.looked_up
        if needed is not None:
            assert plain_table.looked_up <= needed


@pytest.mark.parametrize("d,g", P1_GRID)
def test_orbit_evaluation_on_the_p1_grid(d, g):
    problem, insertions = p1_problem(d, g)
    table = build_p1_table(d, g, max_legs=len(insertions))
    check_orbit_evaluation(problem, insertions, table, set(needed_keys(problem, insertions)))


@pytest.mark.parametrize("seed,count", [(77, 40), (91, 60)])
def test_orbit_evaluation_on_random_problems(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        problem, insertions = random_problem(rng)
        keys = needed_keys(problem, insertions)
        table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
        check_orbit_evaluation(problem, insertions, table, set(keys))


@st.composite
def orbit_cases(draw):
    """Problems with odd classes, conjugate band sectors, pinned legs and
    genus up to 2; X1 may carry a second generator of degree 1/2 or 0, so
    that weights split in more than one way."""
    rng = draw(st.randoms(use_true_random=False))
    divisor = random_divisor_catalog(rng, draw(st.sampled_from(DIVISOR_SHAPES)))
    ambient = random_ambient_catalog(rng)
    k = draw(st.sampled_from([2, 3]))
    extra = draw(st.sampled_from([None, Fraction(1, 2), Fraction(0)]))
    generators = [Generator("a", "X1", Fraction(1, 2)), Generator("b", "X2", Fraction(1, 2))]
    beta = {"a": k, "b": k}
    if extra is not None:
        generators.append(Generator("z", "X1", extra))
        beta["z"] = 1
        beta["a"] -= int(2 * extra)
    legs, insertions = [], []
    classes = [b.id for b in ambient.basis]
    for label in range(1, draw(st.integers(0, 3)) + 1):
        legs.append(LegSpec(label, 1, draw(st.sampled_from([None, "X1", "X2"]))))
        insertions.append(Insertion(draw(st.integers(0, 1)), draw(st.sampled_from(classes))))
    problem = DegenerationProblem(
        monoid=CurveClassMonoid(tuple(generators)),
        genus=draw(st.integers(0, 2)),
        legs=tuple(legs),
        beta=CurveClass(beta),
        divisor=divisor,
        c_max=2,
        ambient=ambient,
    )
    keys = needed_keys(problem, insertions)
    return problem, insertions, keys, covariant_random_table(keys, divisor, ambient, rng)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(orbit_cases())
def test_orbit_walk_property(case):
    problem, insertions, keys, table = case
    check_orbit_walk(problem)
    check_orbit_evaluation(problem, insertions, table, set(keys))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(orbit_cases())
def test_twisting_independence_property(case):
    # the minimal twist and its double give the same value, in either
    # convention, plain and with the term breakdown
    problem, insertions, _, table = case
    doubled = TwistingChoice("multiple", multiple=2)
    for convention in CONVENTIONS:
        for with_terms in (False, True):
            values = [
                evaluate_degeneration(
                    problem, insertions, table, rule=rule, convention=convention,
                    with_terms=with_terms,
                ).value
                for rule in (MINIMAL_TWIST, doubled)
            ]
            assert values[0] == values[1]


def check_decorations_match_the_reference(problem, monkeypatch, reached: set) -> None:
    """Walk the orbits of ``problem`` afresh, each root graph's decorations
    through ``_decorated_orbits`` and ``reference_decorated_orbits`` side by
    side on budgets of their own: at every yield, the same (structure,
    orbit size) and the same ticks, and the same ticks after the last.  The
    whole walk then gives the runs and ticks of a walk on the reference.
    ``reached`` gains "automorphism" for a root graph with a column
    automorphism other than the identity and "run" for one with equal rows."""
    decorated = splitting._decorated_orbits

    def lockstep(graph, autos, *rest):
        *args, budget = rest
        ours, theirs = _Budget(None), _Budget(None)
        pairs = itertools.zip_longest(
            decorated(graph, autos, *args, ours),
            reference_decorated_orbits(graph, autos, *args, theirs),
        )
        for item, expected in pairs:
            assert item is not None and expected is not None
            assert type(item[0]) is SplittingStructure
            assert (_raw(item[0]), item[1]) == (_raw(expected[0]), expected[1])
            assert ours.visited == theirs.visited
        assert ours.visited == theirs.visited
        if len(autos) > 1:
            reached.add("automorphism")
        if len(set(graph)) < len(graph):
            reached.add("run")
        return decorated(graph, autos, *args, budget)

    budgets = _Budget(None), _Budget(None)
    walks = []
    for walk, budget in zip((lockstep, reference_decorated_orbits), budgets):
        monkeypatch.setattr(splitting, "_decorated_orbits", walk)
        walks.append(list(splitting._walk_orbits(problem, budget)))
    monkeypatch.undo()
    assert walks[0] == walks[1]
    assert budgets[0].visited == budgets[1].visited


def test_decorations_match_the_reference_on_p1(monkeypatch):
    reached: set = set()
    for d in range(1, 7):
        for g in range(3):
            check_decorations_match_the_reference(p1_problem(d, g)[0], monkeypatch, reached)
    assert reached == {"automorphism", "run"}


def test_decorations_match_the_reference_with_band_two_roots(monkeypatch):
    # orbit_cases' root graphs have no automorphism but the identity; the
    # band problems of degree 4 have some
    reached: set = set()
    for args in [(2, 4, 0, "pair"), (3, 4, 1, "self"), (7, 3, 2, "sixths")]:
        check_decorations_match_the_reference(_band_problem(*args), monkeypatch, reached)

    @settings(max_examples=40, derandomize=True, deadline=None, database=None)
    @given(orbit_cases())
    def check(case):
        check_decorations_match_the_reference(case[0], monkeypatch, reached)

    check()
    assert reached == {"automorphism", "run"}
