import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from degenkit.algebra import BasisClass, Sector, SectorCatalog
from degenkit.correlator import (
    CorrelatorKey,
    Insertion,
    InvariantTable,
    evaluate_degeneration,
    evaluate_disconnected,
    needed_keys,
    splitting_inner_sum,
)
from degenkit.errors import DegenkitError, MissingKeysError, ParityError
from degenkit.graphs import (
    CurveClass,
    CurveClassMonoid,
    Generator,
    Leg,
    ModularGraph,
    Root,
    Vertex,
)
from degenkit.oracle import build_p1_table, p1_problem
from degenkit.splitting import DegenerationProblem, LegSpec, enumerate_splittings
from helpers import (
    EVEN,
    ODD,
    covariant_random_table,
    monomial_reorder_sign,
    random_problem,
)


def _untwisted_divisor(dim=1, parities=None):
    parities = parities or [EVEN] * dim
    basis = tuple(BasisClass("d%d" % i, "u", parities[i]) for i in range(dim))
    if parities == [ODD, ODD]:
        pairing = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))
    else:
        pairing = tuple(
            tuple(Fraction(1 if i == j else 0) for j in range(dim)) for i in range(dim)
        )
    return SectorCatalog((Sector("u", 1, "u"),), basis, pairing)


def _ambient(parity=EVEN):
    # the ambient pairing is never used by the evaluator; zero keeps the
    # odd-class catalog free of symmetry warnings
    pairing = ((Fraction(1 if parity is EVEN else 0),),)
    return SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=(BasisClass("g", "m", parity),),
        pairing=pairing,
    )


def _problem(divisor, ambient=None, genus=0, legs=(), beta=None, c_max=1, halves=False):
    q = Fraction(1, 2) if halves else Fraction(1)
    monoid = CurveClassMonoid(
        (Generator("a", "X1", q), Generator("b", "X2", q))
    )
    return DegenerationProblem(
        monoid=monoid,
        genus=genus,
        legs=tuple(legs),
        beta=CurveClass(beta or {"a": 1, "b": 1}),
        divisor=divisor,
        c_max=c_max,
        ambient=ambient or _ambient(),
    )


def _single_vertex_key(side, genus, weight, roots, root_classes, legs=(), leg_ins=()):
    graph = ModularGraph(
        vertices=(Vertex(genus, CurveClass(weight)),),
        legs=tuple(Leg(lab, e, 0) for lab, e in legs),
        roots=tuple(Root(lab, f, c, 0) for lab, f, c in roots),
    )
    return CorrelatorKey.for_component(
        side,
        graph,
        {lab: ins for (lab, _), ins in zip(legs, leg_ins)},
        dict(root_classes),
    )


def test_spec_example_single_splitting_contact_three():
    # one even divisor class with self-pairing 1, one root of contact order 3
    divisor = _untwisted_divisor()
    problem = _problem(divisor, c_max=3, halves=False, beta={"a": 3, "b": 3})
    table = InvariantTable()
    # only the |M|=1 splitting with c=3 gets nonzero values
    key_l = _single_vertex_key("X1", 0, {"a": 3}, [(1, 1, 3)], {1: "d0"})
    key_r = _single_vertex_key("X2", 0, {"b": 3}, [(1, 1, 3)], {1: "d0"})
    for key in needed_keys(problem, []):
        table.set(key, Fraction(0))
    table.set(key_l, Fraction(2))
    table.set(key_r, Fraction(5))
    result = evaluate_degeneration(problem, [], table)
    assert result.value == 30  # coefficient 3, left 2, right 5


def test_empty_omega_evaluates_to_zero():
    divisor = _untwisted_divisor()
    problem = _problem(divisor, beta={"a": 2, "b": 1})  # unbalanced degrees
    result = evaluate_degeneration(problem, [], InvariantTable())
    assert result.value == 0


def test_needed_keys_empty_for_empty_omega():
    divisor = _untwisted_divisor()
    problem = _problem(divisor, beta={"a": 2, "b": 1})
    assert needed_keys(problem, []) == []


def test_conjugate_band_two_conventions_agree_by_hand():
    divisor = SectorCatalog(
        sectors=(Sector("u", 1, "u"), Sector("t+", 2, "t-"), Sector("t-", 2, "t+")),
        basis=(
            BasisClass("one", "u", EVEN),
            BasisClass("x+", "t+", EVEN),
            BasisClass("x-", "t-", EVEN),
        ),
        pairing=(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(1, 2), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1, 2)),
        ),
        basis_involution={"one": ("one", 1), "x+": ("x-", 1), "x-": ("x+", 1)},
    )
    problem = _problem(divisor, halves=True, c_max=1)
    keys = needed_keys(problem, [])
    table = InvariantTable()
    values = {"x+": (Fraction(3), Fraction(7)), "x-": (Fraction(11), Fraction(13))}
    for key in keys:
        cid = key.roots[0]
        side_values = values[cid]
        table.set(key, side_values[0] if key.side == "X1" else side_values[1])
    std = evaluate_degeneration(problem, [], table, convention="standard_dual")
    crn = evaluate_degeneration(problem, [], table, convention="chen_ruan")
    # duals double the coordinate (pairing 1/2), involution swaps the sectors
    expected = 2 * (
        values["x+"][0] * values["x-"][1] + values["x-"][0] * values["x+"][1]
    )
    assert std.value == expected
    assert crn.value == expected


def test_odd_divisor_classes_sign_by_hand():
    divisor = _untwisted_divisor(2, [ODD, ODD])
    problem = _problem(divisor, c_max=1)
    keys = needed_keys(problem, [])
    table = InvariantTable()
    lv = {"d0": Fraction(2), "d1": Fraction(3)}
    rv = {"d0": Fraction(5), "d1": Fraction(7)}
    for key in keys:
        cid = key.roots[0]
        table.set(key, lv[cid] if key.side == "X1" else rv[cid])
    result = evaluate_degeneration(problem, [], table)
    # duals: d0^dual = -d1, d1^dual = +d0 (antisymmetric pairing with +1 above
    # the diagonal); no reordering sign appears for |M| = 1
    expected = lv["d0"] * (-1) * rv["d1"] + lv["d1"] * rv["d0"]
    assert result.value == expected


def test_odd_leg_and_odd_roots_master_sign_by_hand():
    # word (gamma, delta, rho) regrouped to (delta | gamma, rho) with the leg
    # pinned to the right side: one odd-odd crossing, so every term flips
    divisor = _untwisted_divisor(2, [ODD, ODD])
    ambient = _ambient(ODD)
    problem = _problem(
        divisor, ambient=ambient, legs=(LegSpec(1, 1, "X2"),), c_max=1
    )
    keys = needed_keys(problem, [Insertion(0, "g")])
    table = InvariantTable()
    lv = {"d0": Fraction(2), "d1": Fraction(3)}
    rv = {"d0": Fraction(5), "d1": Fraction(7)}
    for key in keys:
        cid = key.roots[0]
        table.set(key, lv[cid] if key.side == "X1" else rv[cid])
    got = evaluate_degeneration(problem, [Insertion(0, "g")], table).value
    # duals: d0 -> -d1, d1 -> +d0 (antisymmetric pairing, +1 above diagonal);
    # the regrouping sign is -1 for both basis choices
    expected = -((-1) * lv["d0"] * rv["d1"] + lv["d1"] * rv["d0"])
    assert got == expected


def test_needed_keys_counts_for_two_classes():
    divisor = _untwisted_divisor(2)
    problem = _problem(divisor, c_max=1)
    keys = needed_keys(problem, [])
    left = [k for k in keys if k.side == "X1"]
    right = [k for k in keys if k.side == "X2"]
    assert len(left) == 2 and len(right) == 2


def test_needed_keys_two_roots_dedup():
    divisor = _untwisted_divisor(2)
    problem = _problem(divisor, beta={"a": 2, "b": 2}, c_max=1)
    keys = needed_keys(problem, [])
    # direct expansion: contact orders are forced to (1,1), so each side is
    # either one vertex carrying both roots (|F|^2 = 4 keys) or two vertices
    # with one root each (|F| = 2 keys after dedup), 6 per side in total
    per_side = {}
    for k in keys:
        per_side.setdefault(k.side, set()).add(k)
    assert sorted(per_side) == ["X1", "X2"]
    for side, got in per_side.items():
        assert len(got) == 6
    assert len(keys) == len(set(keys))


def test_budget_applies_to_evaluation(monkeypatch):
    divisor = _untwisted_divisor()
    problem = _problem(divisor, beta={"a": 2, "b": 2}, c_max=2)
    keys = needed_keys(problem, [])
    table = InvariantTable()
    for key in keys:
        table.set(key, Fraction(1))
    monkeypatch.setenv("DEGENKIT_BUDGET", "2")
    from degenkit.errors import EnumerationBudgetError

    with pytest.raises(EnumerationBudgetError):
        evaluate_degeneration(problem, [], table)


def test_missing_keys_listed():
    divisor = _untwisted_divisor()
    problem = _problem(divisor)
    with pytest.raises(MissingKeysError) as err:
        evaluate_degeneration(problem, [], InvariantTable())
    assert err.value.keys == needed_keys(problem, [])


@pytest.mark.parametrize("d,g,k", [(3, 0, 0), (3, 1, 1)])
def test_partial_table_lists_the_deleted_key_or_keeps_the_value(d, g, k):
    # deleting one needed key either names exactly that key or, when every
    # term it enters is zero anyway, leaves the value unchanged
    problem, insertions = p1_problem(d, g, second_side_legs=k)
    full = build_p1_table(d, g, max_legs=len(insertions))
    expected = evaluate_degeneration(problem, insertions, full).value
    raised = 0
    for key in needed_keys(problem, insertions):
        partial = InvariantTable({kk: v for kk, v in full.items() if kk != key})
        try:
            value = evaluate_degeneration(problem, insertions, partial).value
        except MissingKeysError as err:
            assert err.keys == [key]
            raised += 1
        else:
            assert value == expected
    assert raised


def test_auto_zero_band_mismatch_key_not_required():
    # root data derived from bands {1,2}: the band-2 delta can only sit at
    # f=2 roots; keys pairing it with f=1 roots must not be demanded
    divisor = SectorCatalog(
        sectors=(Sector("u", 1, "u"), Sector("t", 2, "t")),
        basis=(BasisClass("one", "u", EVEN), BasisClass("x", "t", EVEN)),
        pairing=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
    )
    problem = _problem(divisor, c_max=2, halves=True, beta={"a": 2, "b": 2})
    keys = needed_keys(problem, [])
    for key in keys:
        import json

        graph = json.loads(key.graph.decode())
        for (lab, f, c, v), cid in zip(graph["r"], key.roots):
            band = 1 if cid == "one" else 2
            assert band == f


def test_auto_zero_multiplicity_mismatch():
    divisor = _untwisted_divisor()
    problem = _problem(divisor)
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": 2})),),
        roots=(Root(1, 1, 1, 0),),
    )
    value = evaluate_disconnected(graph, {}, {1: "d0"}, InvariantTable(), problem)
    assert value == 0


def test_evaluate_disconnected_connected_passthrough():
    divisor = _untwisted_divisor()
    problem = _problem(divisor)
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": 1})),),
        roots=(Root(1, 1, 1, 0),),
    )
    key = CorrelatorKey.for_component("X1", graph, {}, {1: "d0"})
    table = InvariantTable({key: Fraction(7, 3)})
    assert evaluate_disconnected(graph, {}, {1: "d0"}, table, problem) == Fraction(7, 3)


def test_evaluate_disconnected_even_product():
    divisor = _untwisted_divisor()
    problem = _problem(divisor)
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": 1})), Vertex(1, CurveClass({"a": 2}))),
        roots=(Root(1, 1, 1, 0), Root(2, 1, 2, 1)),
    )
    k1 = CorrelatorKey.for_component(
        "X1", graph.subgraph([0]), {}, {1: "d0"}
    )
    k2 = CorrelatorKey.for_component(
        "X1", graph.subgraph([1]), {}, {2: "d0"}
    )
    table = InvariantTable({k1: Fraction(2), k2: Fraction(5)})
    assert evaluate_disconnected(graph, {}, {1: "d0", 2: "d0"}, table, problem) == 10


def test_evaluate_disconnected_odd_interleaving_sign():
    divisor = _untwisted_divisor(2, [ODD, ODD])
    ambient = _ambient(ODD)
    problem = _problem(divisor, ambient=ambient)
    # legs 1, 3 on the two components; roots 5, 6; labels interleave so the
    # regrouping permutation swaps odd symbols
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": 1})), Vertex(0, CurveClass({"a": 1}))),
        legs=(Leg(1, 1, 0), Leg(3, 1, 1)),
        roots=(Root(5, 1, 1, 1), Root(6, 1, 1, 0)),
    )
    leg_ins = {1: Insertion(0, "g"), 3: Insertion(0, "g")}
    root_classes = {5: "d0", 6: "d1"}
    comp0 = graph.subgraph([0])
    comp1 = graph.subgraph([1])
    k0 = CorrelatorKey.for_component("X1", comp0, {1: leg_ins[1]}, {6: "d1"})
    k1 = CorrelatorKey.for_component("X1", comp1, {3: leg_ins[3]}, {5: "d0"})
    table = InvariantTable({k0: Fraction(2), k1: Fraction(3)})
    got = evaluate_disconnected(graph, leg_ins, root_classes, table, problem)
    # independent sign: word (g1, g3, d5, d6) regrouped to (g1, d6 | g3, d5)
    parities = [ODD, ODD, ODD, ODD]
    perm = [0, 3, 1, 2]
    sign = monomial_reorder_sign(perm, parities)
    assert got == sign * 6


def test_evaluate_disconnected_rejects_bare_component():
    divisor = _untwisted_divisor()
    problem = _problem(divisor)
    graph = ModularGraph(
        vertices=(Vertex(0, CurveClass()), Vertex(0, CurveClass({"a": 1}))),
        roots=(Root(1, 1, 1, 1),),
    )
    with pytest.raises(DegenkitError):
        evaluate_disconnected(graph, {}, {1: "d0"}, InvariantTable(), problem)


def _repeated_odd_leg_case():
    # two legs carry the same odd class with another odd leg between them, so
    # leg sets {1, 2} and {2, 3} hold the same leg data in opposite orders
    ambient = SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=(
            BasisClass("g_even", "m", EVEN),
            BasisClass("g_odd1", "m", ODD),
            BasisClass("g_odd2", "m", ODD),
        ),
        pairing=(
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(1)),
            (Fraction(0), Fraction(-1), Fraction(0)),
        ),
    )
    problem = _problem(
        _untwisted_divisor(),
        ambient=ambient,
        legs=tuple(LegSpec(i, 1) for i in (1, 2, 3)),
        c_max=2,
    )
    insertions = [Insertion(0, "g_odd1"), Insertion(0, "g_odd2"), Insertion(0, "g_odd1")]
    return problem, insertions, random.Random(1)


def _interleaved_even_leg_case():
    # legs 1 and 3 carry the same even class and form one aggregated group;
    # genus 1 puts two X1 vertices of genera (1, 0) and (0, 1) in both
    # orders, so the genus-1 vertex takes legs {1, 2} in one order and
    # {2, 3}, the same data reversed, in the other
    ambient = SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=(BasisClass("g_even", "m", EVEN), BasisClass("g_odd", "m", ODD)),
        pairing=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0))),
    )
    problem = _problem(
        _untwisted_divisor(),
        ambient=ambient,
        genus=1,
        legs=tuple(LegSpec(i, 1) for i in (1, 2, 3)),
        beta={"a": 2, "b": 2},
        c_max=2,
    )
    insertions = [Insertion(0, "g_even"), Insertion(0, "g_odd"), Insertion(0, "g_even")]
    return problem, insertions, random.Random(2)


def _aggregated_cases():
    # lazy, so each random table is drawn right after its problem
    rng = random.Random(123)
    for _ in range(12):
        yield random_problem(rng, max_legs=2) + (rng,)
    yield _repeated_odd_leg_case()
    yield _interleaved_even_leg_case()


def _labeled_sum_keys(problem, omega, insertions):
    """Keys the explicit labeled sum looks up: against an empty table each
    splitting's inner sum lists them."""
    keys = set()
    for s in omega:
        try:
            splitting_inner_sum(problem, s, insertions, InvariantTable())
        except MissingKeysError as err:
            keys.update(err.keys)
    return keys


def test_aggregated_equals_explicit_sum():
    # the walk gives a vertex the lowest free labels of an aggregated group,
    # so the labeled sum can also look up reorderings of those legs that the
    # walk never reaches; evaluation reads only the needed keys, the labeled
    # sum the full table
    for problem, insertions, table_rng in _aggregated_cases():
        keys = needed_keys(problem, insertions)
        omega = enumerate_splittings(problem)
        full = covariant_random_table(
            sorted(
                set(keys) | _labeled_sum_keys(problem, omega, insertions),
                key=lambda k: k.sort_token(),
            ),
            problem.divisor,
            problem.ambient,
            table_rng,
        )
        needed = set(keys)
        table = InvariantTable({k: v for k, v in full.items() if k in needed})
        result = evaluate_degeneration(problem, insertions, table)
        with_terms = evaluate_degeneration(problem, insertions, table, with_terms=True)
        assert result.value == with_terms.value
        direct = Fraction(0)
        for s in omega:
            coeff = Fraction(1)
            for c in s.contacts():
                coeff *= c
            coeff /= math.factorial(len(s.m_labels))
            direct += coeff * splitting_inner_sum(
                problem, s, insertions, full, "standard_dual"
            )
        assert result.value == direct


def test_insertion_order_irrelevant_for_even_classes():
    divisor = _untwisted_divisor()
    rng = random.Random(5)
    legs = (LegSpec(1, 1), LegSpec(2, 1), LegSpec(3, 1))
    problem = _problem(divisor, legs=legs, beta={"a": 2, "b": 2}, c_max=2)
    insertions = [Insertion(0, "g"), Insertion(1, "g"), Insertion(0, "g")]
    orderings = ((0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0))
    all_keys = set()
    for perm in orderings:
        all_keys.update(needed_keys(problem, [insertions[p] for p in perm]))
    table = covariant_random_table(
        sorted(all_keys, key=lambda k: k.sort_token()),
        problem.divisor,
        problem.ambient,
        rng,
    )
    base = evaluate_degeneration(problem, insertions, table).value
    for perm in orderings[1:]:
        got = evaluate_degeneration(problem, [insertions[p] for p in perm], table).value
        assert got == base


def test_parity_mixing_duals_raise_at_evaluation():
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        divisor = SectorCatalog(
            sectors=(Sector("u", 1, "u"),),
            basis=(BasisClass("e", "u", EVEN), BasisClass("o", "u", ODD)),
            pairing=((Fraction(1), Fraction(1)), (Fraction(1), Fraction(0))),
        )
    problem = _problem(divisor)
    with pytest.raises(ParityError):
        evaluate_degeneration(problem, [], InvariantTable())


def test_cross_band_pairing_support_is_filtered_consistently():
    # the pairing couples the untwisted and the band-2 sector, so duals have
    # support off their own band; those components never evaluate, and the
    # two conventions still agree exactly
    divisor = SectorCatalog(
        sectors=(Sector("u", 1, "u"), Sector("t", 2, "t")),
        basis=(BasisClass("u0", "u", EVEN), BasisClass("t0", "t", EVEN)),
        pairing=((Fraction(1), Fraction(1)), (Fraction(1), Fraction(3))),
    )
    problem = _problem(divisor, halves=True, c_max=2, beta={"a": 2, "b": 2})
    rng = random.Random(8)
    keys = needed_keys(problem, [])
    assert keys
    table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
    std = evaluate_degeneration(problem, [], table, convention="standard_dual")
    crn = evaluate_degeneration(problem, [], table, convention="chen_ruan")
    assert std.value == crn.value
    # every demanded key keeps root classes on the sector of the root index
    for key in keys:
        graph = json.loads(key.graph.decode())
        for (lab, f, c, v), cid in zip(graph["r"], key.roots):
            assert problem.divisor.sector_of(cid).band_order == f


def test_basis_independence_under_change_of_basis():
    # transform catalog and table covariantly; the evaluation is unchanged
    rng = random.Random(31)
    base_pairing = ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    divisor = SectorCatalog(
        sectors=(Sector("s", 2, "s"),),
        basis=(BasisClass("d0", "s", EVEN), BasisClass("d1", "s", EVEN)),
        pairing=base_pairing,
    )
    problem = _problem(divisor, halves=True, c_max=2, beta={"a": 2, "b": 2})
    keys = needed_keys(problem, [])
    table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
    base_value = evaluate_degeneration(problem, [], table).value
    assert base_value == evaluate_degeneration(
        problem, [], table, convention="chen_ruan"
    ).value

    # invertible change of basis A: new_i = sum_a A[a][i] old_a
    A = ((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3)))
    n = 2
    new_pairing = tuple(
        tuple(
            sum(
                A[a][i] * base_pairing[a][b] * A[b][j]
                for a in range(n)
                for b in range(n)
            )
            for j in range(n)
        )
        for i in range(n)
    )
    divisor2 = SectorCatalog(
        sectors=divisor.sectors, basis=divisor.basis, pairing=new_pairing
    )
    problem2 = DegenerationProblem(
        monoid=problem.monoid,
        genus=problem.genus,
        legs=problem.legs,
        beta=problem.beta,
        divisor=divisor2,
        c_max=problem.c_max,
        ambient=problem.ambient,
    )
    ids = ["d0", "d1"]
    table2 = InvariantTable()
    for key in needed_keys(problem2, []):
        slots = [ids.index(cid) for cid in key.roots]
        total = Fraction(0)
        for olds in itertools.product(range(n), repeat=len(slots)):
            coeff = Fraction(1)
            for old, new in zip(olds, slots):
                coeff *= A[old][new]
            old_key = CorrelatorKey(
                side=key.side,
                graph=key.graph,
                legs=key.legs,
                roots=tuple(ids[o] for o in olds),
            )
            base = table.get(old_key)
            assert base is not None
            total += coeff * base
        table2.set(key, total)
    got = evaluate_degeneration(problem2, [], table2).value
    assert got == base_value
    assert got == evaluate_degeneration(
        problem2, [], table2, convention="chen_ruan"
    ).value


def test_terms_breakdown_consistency():
    divisor = _untwisted_divisor()
    problem = _problem(divisor, legs=(LegSpec(1, 1),), beta={"a": 2, "b": 2}, c_max=2)
    insertions = [Insertion(0, "g")]
    rng = random.Random(17)
    keys = needed_keys(problem, insertions)
    table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
    result = evaluate_degeneration(problem, insertions, table, with_terms=True)
    assert result.terms
    total = sum((t.value for t in result.terms), Fraction(0))
    assert total == result.value
    mult_total = sum(t.multiplicity for t in result.terms)
    # aggregation multiplicities recover the literal leg assignments of the
    # nonzero splitting terms; here every vertex value is nonzero
    assert mult_total >= len(result.terms)


def test_with_terms_multiplicities_match_explicit_enumeration():
    divisor = _untwisted_divisor()
    legs = tuple(LegSpec(i, 1) for i in (1, 2))
    problem = _problem(divisor, legs=legs, beta={"a": 2, "b": 2}, c_max=2)
    insertions = [Insertion(0, "g"), Insertion(0, "g")]
    keys = needed_keys(problem, insertions)
    table = InvariantTable()
    for key in keys:
        table.set(key, Fraction(1))
    result = evaluate_degeneration(problem, insertions, table, with_terms=True)
    total_weighted = sum(t.multiplicity for t in result.terms)
    omega = enumerate_splittings(problem)
    # with |F| = 1 every splitting contributes exactly one delta choice
    assert total_weighted == len(omega)
