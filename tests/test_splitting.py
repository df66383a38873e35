import dataclasses
import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenkit import correlator, jsonio, splitting
from degenkit.algebra import BasisClass, Parity, Sector, SectorCatalog
from degenkit.errors import DegenkitError, EnumerationBudgetError
from degenkit.graphs import (
    CurveClass,
    CurveClassMonoid,
    Generator,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    d_degree,
    total_genus,
    total_weight,
)
from degenkit.correlator import Insertion, evaluate_degeneration, needed_keys
from degenkit.oracle import build_p1_table, p1_problem
from degenkit.splitting import (
    DegenerationProblem,
    LegSpec,
    Splitting,
    _Budget,
    check_condition_B,
    enumerate_splittings,
    iter_structure_orbits,
    iter_structures,
    orbits,
)
from helpers import (
    covariant_random_table,
    fresh_splitting,
    graphs_as_dicts,
    random_problem,
    reference_orbits,
    reference_splittings,
    text_keyed_orbits,
    validate_splitting,
)


def _divisor(bands=(1,)):
    sectors = []
    basis = []
    for f in bands:
        if f == 1:
            sectors.append(Sector("u", 1, "u"))
            basis.append(BasisClass("u0", "u", Parity.EVEN))
        else:
            sectors.append(Sector("t%d" % f, f, "t%d" % f))
            basis.append(BasisClass("t%d0" % f, "t%d" % f, Parity.EVEN))
    n = len(basis)
    pairing = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n)
    )
    return SectorCatalog(tuple(sectors), tuple(basis), pairing)


def _ambient():
    return SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=(BasisClass("ins", "m", Parity.EVEN),),
        pairing=((Fraction(1),),),
    )


def _problem(genus=0, legs=(), beta=None, bands=(1,), c_max=2, gens=None):
    gens = gens or (
        Generator("a", "X1", Fraction(1)),
        Generator("b", "X2", Fraction(1)),
    )
    monoid = CurveClassMonoid(tuple(gens))
    return DegenerationProblem(
        monoid=monoid,
        genus=genus,
        legs=tuple(legs),
        beta=CurveClass(beta or {}),
        divisor=_divisor(bands),
        c_max=c_max,
        ambient=_ambient(),
    )


# -- condition B ---------------------------------------------------------------


def test_condition_b_holds():
    monoid = CurveClassMonoid((Generator("a", "X1", Fraction(1)),))
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": 2})),),
        roots=(Root(1, 1, 1, 0), Root(2, 1, 1, 0)),
    )
    assert check_condition_B(graph, monoid).ok


def test_condition_b_fails_with_report():
    monoid = CurveClassMonoid((Generator("a", "X1", Fraction(1)),))
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": 2})),),
        roots=(Root(1, 1, 1, 0),),
    )
    report = check_condition_B(graph, monoid)
    assert not report.ok
    assert report.failures == ((0, Fraction(2), Fraction(1)),)


def test_condition_b_rational_sum():
    monoid = CurveClassMonoid((Generator("a", "X1", Fraction(3, 2)),))
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": 1})),),
        roots=(Root(1, 2, 1, 0), Root(2, 1, 1, 0)),
    )
    assert check_condition_B(graph, monoid).ok


def test_condition_b_rejects_edges():
    monoid = CurveClassMonoid((Generator("a", "X1", Fraction(1)),))
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass()), Vertex(0, CurveClass())),
        edges=((0, 1),),
    )
    with pytest.raises(DegenkitError):
        check_condition_B(graph, monoid)


# -- an independent brute-force enumerator --------------------------------------


def brute_force_splittings(problem: DegenerationProblem) -> set:
    """Generate-and-filter reference: every candidate structure is built
    blindly and kept only if the defining conditions, checked through the
    public graph operations, all hold."""
    monoid = problem.monoid
    beta1, beta2 = monoid.split(problem.beta)
    n = len(problem.legs)
    found = {}

    def leg_choices(k1, k2):
        slots = []
        for spec in problem.legs:
            allowed = []
            if spec.side in (None, "X1"):
                allowed += [("X1", v) for v in range(k1)]
            if spec.side in (None, "X2"):
                allowed += [("X2", v) for v in range(k2)]
            slots.append(allowed)
        return itertools.product(*slots)

    def weight_splits(beta, k):
        gens = sorted(beta.support())
        if k == 0:
            return [()] if beta.is_zero() else []
        rows = []
        for gid in gens:
            rows.append(
                [
                    comp
                    for comp in itertools.product(range(beta[gid] + 1), repeat=k)
                    if sum(comp) == beta[gid]
                ]
            )
        out = []
        for combo in itertools.product(*rows):
            out.append(
                tuple(
                    CurveClass({gens[gi]: combo[gi][v] for gi in range(len(gens))})
                    for v in range(k)
                )
            )
        return out

    def consider(xi1, xi2, labels):
        try:
            s = Splitting(xi1, xi2, labels)
        except DegenkitError:
            return
        glued = s.glued()
        if not glued.is_connected():
            return
        if total_genus(glued) != problem.genus:
            return
        if total_weight(glued) != problem.beta:
            return
        if not check_condition_B(xi1, monoid) or not check_condition_B(xi2, monoid):
            return
        if total_weight(xi1) != beta1 or total_weight(xi2) != beta2:
            return
        found[s.canonical_pair()] = s

    # the rootless candidates: everything on one side
    for side in ("X1", "X2"):
        for assign in leg_choices(1 if side == "X1" else 0, 1 if side == "X2" else 0):
            legs = tuple(
                Leg(spec.label, spec.e, 0)
                for spec, (sd, v) in zip(problem.legs, assign)
            )
            vertex = (Vertex(problem.genus, beta1 if side == "X1" else beta2),)
            one = ModularGraph(vertices=vertex, legs=legs)
            empty = ModularGraph(vertices=())
            if side == "X1":
                consider(one, empty, ())
            else:
                consider(empty, one, ())

    def slot_assignments(m, k):
        """Surjections onto k slots with slots named in first-appearance
        order; slot order is immaterial, so this drops only duplicates."""
        out = []
        for to in itertools.product(range(k), repeat=m):
            if set(to) != set(range(k)):
                continue
            seen = []
            for x in to:
                if x not in seen:
                    seen.append(x)
            if seen == sorted(seen):
                out.append(to)
        return out

    def genus_tuples(total, k):
        return [
            t
            for t in itertools.product(range(total + 1), repeat=k)
            if sum(t) == total
        ]

    pairs = problem.root_data()
    deg1 = d_degree(beta1, monoid)
    max_f = max((f for f, _ in pairs), default=1)
    m_bound = int(deg1 * max_f)
    for m in range(1, m_bound + 1):
        labels = tuple(range(n + 1, n + m + 1))
        for fc in itertools.product(pairs, repeat=m):
            # summing the per-vertex condition over a side gives this total
            if sum(Fraction(c, f) for f, c in fc) != deg1:
                continue
            for k1 in range(1, m + 1):
                for to1 in slot_assignments(m, k1):
                    for k2 in range(1, m + 1):
                        # the glued genus formula pins the vertex-genus total
                        genus_sum = problem.genus - (m - k1 - k2 + 1)
                        if genus_sum < 0:
                            continue
                        for to2 in slot_assignments(m, k2):
                            for w1 in weight_splits(beta1, k1):
                                for w2 in weight_splits(beta2, k2):
                                    for g_all in genus_tuples(genus_sum, k1 + k2):
                                        for assign in leg_choices(k1, k2):
                                            legs1 = []
                                            legs2 = []
                                            for spec, (sd, v) in zip(
                                                problem.legs, assign
                                            ):
                                                if sd == "X1":
                                                    legs1.append(Leg(spec.label, spec.e, v))
                                                else:
                                                    legs2.append(Leg(spec.label, spec.e, v))
                                            xi1 = ModularGraph(
                                                vertices=tuple(
                                                    Vertex(g_all[v], w1[v])
                                                    for v in range(k1)
                                                ),
                                                legs=tuple(legs1),
                                                roots=tuple(
                                                    Root(lab, f, c, to1[i])
                                                    for i, (lab, (f, c)) in enumerate(
                                                        zip(labels, fc)
                                                    )
                                                ),
                                            )
                                            xi2 = ModularGraph(
                                                vertices=tuple(
                                                    Vertex(g_all[k1 + v], w2[v])
                                                    for v in range(k2)
                                                ),
                                                legs=tuple(legs2),
                                                roots=tuple(
                                                    Root(lab, f, c, to2[i])
                                                    for i, (lab, (f, c)) in enumerate(
                                                        zip(labels, fc)
                                                    )
                                                ),
                                            )
                                            consider(xi1, xi2, labels)
    return set(found)


def test_zero_degree_forces_single_vertex_side():
    problem = _problem(
        genus=1,
        beta={"a": 1},
        gens=(
            Generator("a", "X1", Fraction(0)),
            Generator("b", "X2", Fraction(0)),
        ),
    )
    omega = enumerate_splittings(problem)
    assert len(omega) == 1
    s = omega[0]
    assert s.m_labels == ()
    assert len(s.xi1.vertices) == 1
    assert len(s.xi2.vertices) == 0
    assert total_weight(s.xi1) == CurveClass({"a": 1})


def test_zero_class_appears_on_both_sides():
    problem = _problem(
        genus=0,
        beta={},
        gens=(
            Generator("a", "X1", Fraction(0)),
            Generator("b", "X2", Fraction(0)),
        ),
    )
    omega = enumerate_splittings(problem)
    assert len(omega) == 2


def test_leg_pinned_to_the_empty_side_kills_the_splitting():
    # all the weight sits on the first side, so a leg constrained to the
    # second side is unsatisfiable
    problem = _problem(
        genus=0,
        beta={"a": 1},
        legs=(LegSpec(1, 1, "X2"),),
        gens=(
            Generator("a", "X1", Fraction(0)),
            Generator("b", "X2", Fraction(0)),
        ),
    )
    assert enumerate_splittings(problem) == []
    free = _problem(
        genus=0,
        beta={"a": 1},
        legs=(LegSpec(1, 1),),
        gens=(
            Generator("a", "X1", Fraction(0)),
            Generator("b", "X2", Fraction(0)),
        ),
    )
    assert len(enumerate_splittings(free)) == 1


def test_unbalanced_side_degrees_give_empty_omega():
    problem = _problem(
        genus=0,
        beta={"a": 2, "b": 1},
    )
    assert enumerate_splittings(problem) == []


def test_unreachable_contact_data_gives_empty_omega():
    # every admissible multiplicity is an integer but the divisor degree is a
    # half, so no contact pattern can meet condition B: vacuously empty
    problem = _problem(
        genus=0,
        beta={"a": 1, "b": 1},
        gens=(
            Generator("a", "X1", Fraction(1, 2)),
            Generator("b", "X2", Fraction(1, 2)),
        ),
        bands=(1,),
        c_max=3,
    )
    assert enumerate_splittings(problem) == []


def test_empty_catalog_with_positive_degree_errors():
    monoid = CurveClassMonoid(
        (Generator("a", "X1", Fraction(1)), Generator("b", "X2", Fraction(1)))
    )
    divisor = SectorCatalog((), (), ())
    problem = DegenerationProblem(
        monoid=monoid,
        genus=0,
        legs=(),
        beta=CurveClass({"a": 1, "b": 1}),
        divisor=divisor,
        c_max=3,
        ambient=_ambient(),
    )
    with pytest.raises(DegenkitError):
        enumerate_splittings(problem)


def test_every_splitting_validates():
    problem = _problem(genus=1, beta={"a": 2, "b": 2}, legs=(LegSpec(1, 1),))
    omega = enumerate_splittings(problem)
    assert omega
    for s in omega:
        validate_splitting(s, problem)


def test_built_splittings_equal_fresh_validated_builds():
    # a structure builds its vertices and roots once, for all its splittings;
    # each splitting of enumerate_splittings and of a term breakdown equals
    # the one built from new objects, which validates, with the same
    # canonical pair
    rng = random.Random(6)
    terms = 0
    for _ in range(15):
        problem, insertions = random_problem(rng, max_legs=2)
        reference = reference_splittings(problem)
        omega = enumerate_splittings(problem)
        assert len(omega) == len(reference)
        for s in omega:
            assert s == reference[s.canonical_pair()]
        table = covariant_random_table(
            needed_keys(problem, insertions), problem.divisor, problem.ambient, rng
        )
        result = evaluate_degeneration(problem, insertions, table, with_terms=True)
        for term in result.terms:
            assert term.splitting == reference[term.splitting.canonical_pair()]
        terms += len(result.terms)
    assert terms > 500


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(genus=0, beta={"a": 1, "b": 1}),
        dict(genus=1, beta={"a": 1, "b": 1}),
        dict(genus=0, beta={"a": 2, "b": 2}, c_max=2),
        dict(genus=2, beta={"a": 1, "b": 1}),
        dict(genus=0, beta={"a": 2, "b": 2}, legs=(LegSpec(1, 1), LegSpec(2, 2, "X1"))),
        dict(
            genus=1,
            beta={"a": 3, "b": 3},
            legs=(LegSpec(1, 1, "X2"),),
            bands=(1, 2),
            gens=(
                Generator("a", "X1", Fraction(1, 2)),
                Generator("b", "X2", Fraction(1, 2)),
            ),
        ),
        dict(genus=0, beta={"a": 3, "b": 3}, c_max=3),
    ],
)
def test_enumeration_matches_brute_force(kwargs):
    problem = _problem(**kwargs)
    omega = enumerate_splittings(problem)
    got = {s.canonical_pair() for s in omega}
    want = brute_force_splittings(problem)
    assert got == want
    assert len(got) == len(omega)


def test_enumeration_with_two_generators_per_side():
    problem = _problem(
        genus=0,
        beta={"a": 1, "a2": 1, "b": 2},
        gens=(
            Generator("a", "X1", Fraction(1)),
            Generator("a2", "X1", Fraction(1)),
            Generator("b", "X2", Fraction(1)),
        ),
    )
    omega = enumerate_splittings(problem)
    got = {s.canonical_pair() for s in omega}
    assert got == brute_force_splittings(problem)


def test_enumeration_independent_of_generator_order():
    base = _problem(genus=0, beta={"a": 2, "b": 2})
    swapped = _problem(
        genus=0,
        beta={"a": 2, "b": 2},
        gens=(
            Generator("b", "X2", Fraction(1)),
            Generator("a", "X1", Fraction(1)),
        ),
    )
    keys1 = {s.canonical_pair() for s in enumerate_splittings(base)}
    keys2 = {s.canonical_pair() for s in enumerate_splittings(swapped)}
    assert keys1 == keys2


def test_enumeration_independent_of_leg_declaration_order():
    legs = (LegSpec(1, 1), LegSpec(2, 2, "X1"))
    base = _problem(genus=0, beta={"a": 2, "b": 2}, legs=legs)
    shuffled = _problem(genus=0, beta={"a": 2, "b": 2}, legs=legs[::-1])
    keys1 = {s.canonical_pair() for s in enumerate_splittings(base)}
    keys2 = {s.canonical_pair() for s in enumerate_splittings(shuffled)}
    assert keys1 == keys2


def _component_genus_sum(graph):
    return sum(
        total_genus(graph.subgraph(ids)) for ids in graph.component_partition()
    )


def test_glued_genus_component_count_identity():
    # with side genus read as the sum of per-component genera:
    # g(glued) = g(xi1) + g(xi2) + |M| - (#comp(xi1) + #comp(xi2)) + #comp(glued)
    problem = _problem(genus=2, beta={"a": 2, "b": 2}, c_max=2)
    omega = enumerate_splittings(problem)
    assert omega
    for s in omega:
        if not s.xi1.vertices or not s.xi2.vertices:
            continue
        glued = s.glued()
        comp1 = len(s.xi1.component_partition())
        comp2 = len(s.xi2.component_partition())
        comp_glued = len(glued.component_partition())
        lhs = total_genus(glued)
        rhs = (
            _component_genus_sum(s.xi1)
            + _component_genus_sum(s.xi2)
            + len(s.m_labels)
            - (comp1 + comp2)
            + comp_glued
        )
        assert lhs == rhs
        # independent Euler-characteristic computation
        betti = len(glued.edges) - len(glued.vertices) + comp_glued
        assert lhs == sum(v.genus for v in glued.vertices) + betti


def test_budget_exceeded_carries_partial():
    problem = _problem(genus=1, beta={"a": 2, "b": 2})
    full = enumerate_splittings(problem)
    limited = DegenerationProblem(
        monoid=problem.monoid,
        genus=problem.genus,
        legs=problem.legs,
        beta=problem.beta,
        divisor=problem.divisor,
        c_max=problem.c_max,
        ambient=problem.ambient,
        budget=5,
    )
    with pytest.raises(EnumerationBudgetError) as err:
        enumerate_splittings(limited)
    assert err.value.visited > 5
    assert len(err.value.partial) < len(full)


def test_budget_from_environment(monkeypatch):
    problem = _problem(genus=1, beta={"a": 2, "b": 2})
    monkeypatch.setenv("DEGENKIT_BUDGET", "3")
    with pytest.raises(EnumerationBudgetError):
        enumerate_splittings(problem)


def test_budget_advance_stops_where_ticking_stops():
    # a replayed listing ticks its nodes at once; it must raise, and leave
    # the count, exactly as ticking them one by one does
    def outcome(limit, start, nodes, at_once):
        budget = _Budget(limit)
        budget.visited = start
        try:
            if at_once:
                budget.advance(nodes)
            else:
                for _ in range(nodes):
                    budget.tick()
        except EnumerationBudgetError as err:
            return "raised", err.visited
        return "ok", budget.visited

    for limit in (None, -2, 0, 1, 4, 7):
        for start in range(max(limit or 0, 0) + 1):
            for nodes in range(8):
                assert outcome(limit, start, nodes, True) == outcome(limit, start, nodes, False)


# -- orbits ---------------------------------------------------------------------


def test_orbit_symmetric_roots_stabilizer_two():
    problem = _problem(genus=0, beta={"a": 2, "b": 2}, c_max=1)
    omega = enumerate_splittings(problem)
    by_m = {}
    for s in omega:
        by_m.setdefault(len(s.m_labels), []).append(s)
    two = orbits(by_m[2])
    # both roots carry (f,c)=(1,1); the splitting with both roots on single
    # vertices is fixed by the transposition
    symmetric = [o for o in two if o.stabilizer_order == 2]
    assert symmetric


def test_orbit_distinct_contacts_stabilizer_one():
    problem = _problem(genus=0, beta={"a": 3, "b": 3}, c_max=2)
    omega = [s for s in enumerate_splittings(problem) if len(s.m_labels) == 2]
    mixed = [s for s in omega if len(set(s.contacts())) == 2]
    for orbit in orbits(mixed):
        assert orbit.stabilizer_order == 1


def test_orbit_stabilizer_counts():
    import math

    problem = _problem(genus=1, beta={"a": 2, "b": 2}, legs=(LegSpec(1, 1),))
    omega = enumerate_splittings(problem)
    by_m = {}
    for s in omega:
        by_m.setdefault(len(s.m_labels), []).append(s)
    for m, group in by_m.items():
        orbit_list = orbits(group)
        assert len(group) == sum(
            math.factorial(m) // o.stabilizer_order for o in orbit_list
        )
        for o in orbit_list:
            assert o.size * o.stabilizer_order == math.factorial(m)
            assert math.factorial(m) % o.stabilizer_order == 0
            assert len(set(o.members)) == o.size
            # members are positions in canonical order, representative first
            keys = [group[i].canonical_pair() for i in o.members]
            assert keys == sorted(keys)
            assert keys[0] == o.representative.canonical_pair()
        # the orbits' members partition the group's positions
        members = [i for o in orbit_list for i in o.members]
        assert sorted(members) == list(range(len(group)))


def test_p1_degree_five_genus_two_structure_walk():
    problem, _ = p1_problem(5, 2)
    structures = list(iter_structures(problem))
    assert len(structures) == 17005
    assert len(set(structures)) == len(structures)


def test_orbits_over_mixed_m_match_the_per_m_calls():
    # relabeling preserves |M|, so one call over all of omega gives the
    # per-|M| orbits in |M| order, with members read as positions in omega
    problem = _problem(genus=0, beta={"a": 2, "b": 2})
    omega = enumerate_splittings(problem)
    assert len({len(s.m_labels) for s in omega}) > 1
    whole = orbits(omega)
    per_m = [
        o
        for m in sorted({len(s.m_labels) for s in omega})
        for o in orbits([s for s in omega if len(s.m_labels) == m])
    ]

    def summary(o):
        return o.stabilizer_order, o.size, o.representative.canonical_pair()

    assert [summary(o) for o in whole] == [summary(o) for o in per_m]
    for o in whole:
        assert omega[o.members[0]] == o.representative
        assert {len(omega[i].m_labels) for i in o.members} == {len(o.representative.m_labels)}
    assert sorted(i for o in whole for i in o.members) == list(range(len(omega)))


def test_orbits_reject_a_set_not_closed_under_relabeling():
    problem = _problem(genus=0, beta={"a": 3, "b": 3}, c_max=2)
    omega = [s for s in enumerate_splittings(problem) if len(s.m_labels) == 2]
    asymmetric = next(o for o in orbits(omega) if o.size > 1)
    dropped = set(asymmetric.members[1:])
    with pytest.raises(DegenkitError):
        orbits([s for i, s in enumerate(omega) if i not in dropped])


def test_orbits_do_not_depend_on_stored_canonical_pairs():
    # enumerate_splittings leaves each splitting's pair stored on it; fresh
    # instances of the same splittings compute theirs inside orbits
    problem = _problem(genus=0, beta={"a": 3, "b": 3}, c_max=2)
    omega = enumerate_splittings(problem)
    fresh = [Splitting(s.xi1, s.xi2, s.m_labels) for s in omega]
    assert all("_canonical_pair" in s.__dict__ for s in omega)
    assert not any("_canonical_pair" in s.__dict__ for s in fresh)
    assert fresh == omega and list(map(hash, fresh)) == list(map(hash, omega))

    def summary(orbit_list):
        return [(o.representative, o.stabilizer_order, o.members) for o in orbit_list]

    assert summary(orbits(fresh)) == summary(orbits(omega))
    assert [s.canonical_pair() for s in fresh] == [s.canonical_pair() for s in omega]


def test_orbits_match_the_relabeled_reference():
    # twins keyed from the representative's vertex keys give the orbits of
    # relabeled splittings keyed by the dict-and-json.dumps reference
    rng = random.Random(41)
    problems = [random_problem(rng, max_legs=2)[0] for _ in range(20)]
    problems += [
        p1_problem(d, g, second_side_legs=k)[0]
        for d in (1, 2, 3)
        for g in (0, 1)
        for k in sorted({0, d + g - 1})  # no legs or half the legs on X2
    ]

    def summary(orbit_list):
        return [(o.representative, o.stabilizer_order, o.members) for o in orbit_list]

    sizes = set()
    for problem in problems:
        omega = enumerate_splittings(problem)
        assert summary(orbits(omega)) == summary(reference_orbits(omega))
        sizes.update(len(s.m_labels) for s in omega)
    assert max(sizes) >= 3


def _same_orbits_as_the_text_keyed_reference(omega) -> list:
    """Assert that ``orbits(omega)`` has the members, stabilizers and
    representatives of ``text_keyed_orbits``, and that the rows
    ``splittings`` prints from it are the reference's bytes through
    ``json.dumps``; return the orbits."""
    got, want = orbits(omega), text_keyed_orbits(omega)

    def summary(orbit_list):
        return [(o.representative, o.stabilizer_order, o.members) for o in orbit_list]

    assert summary(got) == summary(want)
    reference = json.dumps(
        graphs_as_dicts(jsonio.splittings_to_obj(omega, want)), indent=2, sort_keys=True
    )
    assert jsonio.dumps(jsonio.splittings_to_obj(omega, got)) == reference + "\n"
    return got


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 2**32 - 1))
def test_row_keyed_orbits_match_the_text_keyed_reference(seed):
    # twins looked up by their sorted vertex rows give the orbits of twins
    # looked up by their canonical text
    problem, _ = random_problem(random.Random(seed), max_legs=3)
    _same_orbits_as_the_text_keyed_reference(enumerate_splittings(problem))


def _p1_with_sides(degree: int, genus: int, mode: str) -> DegenerationProblem:
    """The P1 problem with its legs free, all on X1, all on X2, or mixed
    (free, X1, X2 in turn)."""
    problem, _ = p1_problem(degree, genus)
    sides = {"free": (None,), "X1": ("X1",), "X2": ("X2",), "mixed": (None, "X1", "X2")}[mode]
    legs = tuple(
        dataclasses.replace(leg, side=sides[i % len(sides)]) for i, leg in enumerate(problem.legs)
    )
    return dataclasses.replace(problem, legs=legs)


@pytest.mark.parametrize("mode", ["free", "X1", "X2", "mixed"])
def test_row_keyed_orbits_match_the_text_keyed_reference_on_p1(mode):
    # P1 (2, 2) with free legs has 9,068 splittings, so it is left out
    cells = [(2, 0), (2, 1), (3, 0), (1, 2)] + ([(2, 2)] if mode != "free" else [])
    sizes, stabilizers, sides = set(), set(), set()
    for degree, genus in cells:
        omega = enumerate_splittings(_p1_with_sides(degree, genus, mode))
        found = _same_orbits_as_the_text_keyed_reference(omega)
        sizes.update(len(s.m_labels) for s in omega)
        stabilizers.update(o.stabilizer_order for o in found)
        sides.update(bool(s.xi1.legs) + 2 * bool(s.xi2.legs) for s in omega)
    assert max(sizes) == 3 and max(stabilizers) >= 2
    # legs land on X1 only, X2 only, or both, as the constraints allow (a
    # mixed problem's second leg is on X1)
    assert sides == {"free": {1, 2, 3}, "X1": {1}, "X2": {2}, "mixed": {1, 3}}[mode]


# -- building splittings from structures -----------------------------------------


def _structure_with_roots():
    problem = _problem(genus=1, beta={"a": 2, "b": 2}, legs=(LegSpec(1, 1), LegSpec(2, 2)))
    structure = next(s for s in iter_structures(problem) if len(s.m_labels) == 2)
    return problem, structure


def test_built_splittings_refuse_what_the_validated_constructors_refuse():
    # each placement's checks still run: a leg labeled as a root, a
    # position past either end, and an index e below 1 are refused, as a
    # fresh validated build refuses the first two
    problem, structure = _structure_with_roots()
    root = structure.m_labels[0]
    last = len(structure.vertex_sides()) - 1
    assert structure.build_splitting({1: last, 2: 0}, problem.legs)
    shared = (LegSpec(1, 1), LegSpec(root, 1))
    with pytest.raises(DegenkitError, match="leg/root labels must be unique"):
        structure.build_splitting({1: 0, root: 0}, shared)
    with pytest.raises(DegenkitError, match="leg/root labels must be unique"):
        fresh_splitting(structure, {1: ("X1", 0), root: ("X1", 0)}, shared)
    for position in (last + 1, -1):
        with pytest.raises(DegenkitError, match="marking attached to missing vertex"):
            structure.build_splitting({1: position, 2: 0}, problem.legs)
    with pytest.raises(DegenkitError, match="marking attached to missing vertex"):
        fresh_splitting(structure, {1: ("X1", len(structure.blocks1)), 2: ("X1", 0)}, problem.legs)
    bad_e = (problem.legs[0], SimpleNamespace(label=2, e=0))
    with pytest.raises(DegenkitError, match="leg index e must be positive"):
        structure.build_splitting({1: 0, 2: 0}, bad_e)


def test_structure_checks_run_once_per_structure():
    # the checks that read the structure alone run when its frame is built,
    # before any leg is placed: both sides must carry the same roots
    problem, structure = _structure_with_roots()
    lopsided = dataclasses.replace(structure, blocks2=structure.blocks2[:-1])
    with pytest.raises(DegenkitError):
        lopsided.frame()
    bare, labels = structure.frame()
    assert bare == Splitting(bare.xi1, bare.xi2, bare.m_labels)
    assert labels == set(structure.m_labels) and not bare.xi1.legs and not bare.xi2.legs
    assert structure.frame()[0] is bare


def test_built_splittings_equal_revalidated_copies():
    # every kernel-built splitting equals, hashes and keys as the splitting
    # built from its fields by the validated constructors
    rng = random.Random(12)
    count = 0
    for _ in range(10):
        problem, _ = random_problem(rng, max_legs=3)
        for s in enumerate_splittings(problem):
            again = Splitting(
                *(ModularGraph(g.vertices, g.edges, g.legs, g.roots) for g in (s.xi1, s.xi2)),
                s.m_labels,
            )
            assert again == s and hash(again) == hash(s)
            assert again.vertex_rows() == s.vertex_rows()
            assert again.canonical_pair() == s.canonical_pair()
            count += 1
    assert count > 300


def test_term_breakdowns_write_no_canonical_text():
    # evaluate --terms never sorts its splittings, so none of them works out
    # vertex rows or canonical text
    problem, insertions = p1_problem(3, 0, second_side_legs=2)
    table = build_p1_table(3, 0, max_legs=len(insertions))
    result = evaluate_degeneration(problem, insertions, table, with_terms=True)
    assert result.terms
    for term in result.terms:
        assert "_canonical_pair" not in term.splitting.__dict__
        assert "_rows" not in term.splitting.__dict__


def test_leg_labels_among_the_root_labels_are_refused():
    # roots take the labels n+1..n+m after n legs; legs labeled 3 and 4 at
    # P1 degree 2 meet them, legs labeled 5 and 6 do not, and the orbit walk
    # kept for legs 1 and 2 is replayed for both
    problem, insertions = p1_problem(2, 0)
    table = build_p1_table(2, 0, max_legs=2)
    evaluate_degeneration(problem, insertions, table)  # keeps the orbit walk

    def relabeled(*labels):
        legs = tuple(dataclasses.replace(l, label=lab) for l, lab in zip(problem.legs, labels))
        return dataclasses.replace(problem, legs=legs)

    for labels in ((3, 4), (1, 4)):
        clash = relabeled(*labels)
        for call in (
            lambda: evaluate_degeneration(clash, insertions, table),
            lambda: evaluate_degeneration(clash, insertions, table, with_terms=True),
            lambda: needed_keys(clash, insertions),
            lambda: enumerate_splittings(clash),
        ):
            with pytest.raises(DegenkitError, match="leg/root labels must be unique"):
                call()
    apart = relabeled(5, 6)
    assert evaluate_degeneration(apart, insertions, table).value == (
        evaluate_degeneration(problem, insertions, table).value
    )
    assert len(needed_keys(apart, insertions)) == len(needed_keys(problem, insertions))
    assert len(enumerate_splittings(apart)) == len(enumerate_splittings(problem))


# -- kept walks -----------------------------------------------------------------


@pytest.fixture()
def stores(monkeypatch):
    """Empty kept-walk stores for one test; the process's own come back
    after it."""
    for name in ("_ORBITS", "_ROOT_GRAPHS"):
        monkeypatch.setattr(splitting, name, {})
    return splitting


def _base(**changes):
    kwargs = dict(
        genus=1, legs=(LegSpec(1, 1), LegSpec(2, 1)), beta={"a": 2, "b": 2}, bands=(1, 2)
    )
    return _problem(**{**kwargs, **changes})


def test_equal_problems_share_one_orbit_walk(stores):
    # the walk reads only the monoid, beta, root data, genus and leg count:
    # problems built separately that agree on those share one walk
    walked = list(iter_structure_orbits(_base()))
    assert walked and len(stores._ORBITS) == 1
    shared = (
        _base(),
        _base(legs=(LegSpec(5, 1), LegSpec(9, 3))),
        _base(legs=(LegSpec(1, 1, "X1"), LegSpec(2, 1, "X2"))),
        _base(bands=(2, 1)),
        dataclasses.replace(_base(), budget=10**6),
    )
    for problem in shared:
        assert list(iter_structure_orbits(problem)) == walked
    for m in (0, 1):
        needed_keys(_base(), [Insertion(m, "ins")] * 2)
    assert len(stores._ORBITS) == 1


def test_each_walk_input_gets_its_own_orbit_walk(stores):
    list(iter_structure_orbits(_base()))
    degree_two = (Generator("a", "X1", Fraction(2)), Generator("b", "X2", Fraction(2)))
    changed = (
        _base(gens=degree_two),
        _base(beta={"a": 3, "b": 3}),
        _base(c_max=1),
        _base(bands=(1,)),
        _base(genus=0),
        _base(legs=(LegSpec(1, 1),)),
    )
    for count, problem in enumerate(changed, 2):
        list(iter_structure_orbits(problem))
        assert len(stores._ORBITS) == count


def test_replayed_walks_give_the_results_and_ticks_of_cold_ones(stores, monkeypatch):
    # keys, values and budget ticks from kept walks equal those of runs
    # with emptied stores, and a budget one node short of the cold count
    # stops a replay at that count
    budgets = []

    class Recorded(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    monkeypatch.setattr(correlator, "_Budget", Recorded)

    def runs(problem, insertions, table):
        out = [needed_keys(problem, insertions)]
        ticks = [budgets[-1].visited]
        for convention in correlator.CONVENTIONS:
            result = evaluate_degeneration(problem, insertions, table, convention=convention)
            out.append(result.value)
            ticks.append(budgets[-1].visited)
        return out, ticks

    rng = random.Random(19)
    for _ in range(10):
        problem, insertions = random_problem(rng, max_legs=2)
        keys = needed_keys(problem, insertions)
        table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
        stores._ORBITS.clear()
        stores._ROOT_GRAPHS.clear()
        cold = runs(problem, insertions, table)
        assert runs(dataclasses.replace(problem), insertions, table) == cold
    problem, insertions = p1_problem(3, 1)
    table = build_p1_table(3, 1, max_legs=len(insertions))
    stores._ORBITS.clear()
    stores._ROOT_GRAPHS.clear()
    _, ticks = runs(problem, insertions, table)
    replays = (
        (lambda p: needed_keys(p, insertions), ticks[0]),
        (lambda p: evaluate_degeneration(p, insertions, table), ticks[1]),
    )
    for run, count in replays:
        with pytest.raises(EnumerationBudgetError) as err:
            run(dataclasses.replace(problem, budget=count - 1))
        assert err.value.visited == count
