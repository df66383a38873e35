import itertools
from fractions import Fraction

import pytest

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
from degenkit.oracle import p1_problem
from degenkit.splitting import (
    DegenerationProblem,
    LegSpec,
    Splitting,
    check_condition_B,
    enumerate_splittings,
    iter_structures,
    orbits,
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
        s.validate(problem)


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
            assert len(o.member_keys) == o.size
        # the orbits' member keys partition the group
        members = [key for o in orbit_list for key in o.member_keys]
        assert sorted(members) == sorted(s.canonical_pair() for s in group)


def test_p1_degree_five_genus_two_structure_walk():
    problem, _ = p1_problem(5, 2)
    structures = list(iter_structures(problem))
    assert len(structures) == 17005
    assert len(set(structures)) == len(structures)


def test_orbits_require_equal_m():
    problem = _problem(genus=0, beta={"a": 2, "b": 2})
    omega = enumerate_splittings(problem)
    with pytest.raises(DegenkitError):
        orbits(omega)
