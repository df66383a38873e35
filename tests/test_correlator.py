import dataclasses
import gc
import hashlib
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenkit import correlator, jsonio
from degenkit.algebra import BasisClass, Sector, SectorCatalog
from degenkit.correlator import (
    CONVENTIONS,
    CorrelatorKey,
    Insertion,
    InvariantTable,
    evaluate_degeneration,
    evaluate_disconnected,
    needed_keys,
    splitting_inner_sum,
)
from degenkit.errors import (
    DegenkitError,
    EnumerationBudgetError,
    MissingKeysError,
    ParityError,
)
from degenkit.graphs import (
    CurveClass,
    CurveClassMonoid,
    Generator,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    graph_from_canonical,
)
from degenkit.oracle import build_p1_table, p1_problem
from degenkit.splitting import (
    DegenerationProblem,
    LegSpec,
    Splitting,
    _Budget,
    _ORBITS,
    check_condition_B,
    enumerate_splittings,
    iter_structures,
)
from degenkit.twisting import MINIMAL_TWIST
from helpers import (
    EVEN,
    ODD,
    _OnesTable,
    covariant_random_table,
    memo_keys,
    monomial_reorder_sign,
    orbit_key,
    random_divisor_catalog,
    random_problem,
    reference_regroup_sign,
    symbols,
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


def test_budget_bounds_the_placement_walk():
    # a budget the structure walk alone fits in; the leg placements over
    # those structures must tick it too
    problem, insertions = p1_problem(3, 1)
    structures = _Budget(None)
    for _ in iter_structures(problem, structures):
        pass
    limited = dataclasses.replace(problem, budget=structures.visited)
    table = build_p1_table(3, 1, max_legs=len(insertions))
    with pytest.raises(EnumerationBudgetError):
        needed_keys(limited, insertions)
    for with_terms in (False, True):
        with pytest.raises(EnumerationBudgetError):
            evaluate_degeneration(limited, insertions, table, with_terms=with_terms)
    assert evaluate_degeneration(problem, insertions, table).value == 40


@pytest.mark.parametrize(
    "d,g,evaluate_ticks,keys_ticks",
    [(4, 2, 2255, 1527), (5, 1, 3544, 2834), (5, 2, 11092, 5856)],
)
def test_budget_ticks_are_pinned(d, g, evaluate_ticks, keys_ticks):
    # the node counts of plain evaluate and needed_keys on P1, recorded
    # before the take expansions were memoised: the memo walks the same
    # nodes, so a budget of exactly that many is enough and one fewer is not.
    # The needed_keys counts also tick each basis choice of each skeleton
    problem, insertions = p1_problem(d, g)
    table = build_p1_table(d, g, max_legs=len(insertions))
    runs = (
        (lambda p: evaluate_degeneration(p, insertions, table), evaluate_ticks),
        (lambda p: needed_keys(p, insertions), keys_ticks),
    )
    for run, ticks in runs:
        run(dataclasses.replace(problem, budget=ticks))
        with pytest.raises(EnumerationBudgetError) as err:
            run(dataclasses.replace(problem, budget=ticks - 1))
        assert err.value.visited == ticks


@pytest.mark.parametrize("d,g,ticks", [(4, 2, 20390), (5, 1, 98355)])
def test_terms_budget_ticks_are_pinned(d, g, ticks):
    # the node counts of evaluate with the term breakdown on P1, recorded
    # when each (structure, basis choice) walked its own placements: the
    # labeled walk over every structure, each basis choice per structure
    # and each placement node per (structure, basis choice) still tick once
    problem, insertions = p1_problem(d, g)
    table = build_p1_table(d, g, max_legs=len(insertions))
    evaluate_degeneration(
        dataclasses.replace(problem, budget=ticks), insertions, table, with_terms=True
    )
    with pytest.raises(EnumerationBudgetError) as err:
        evaluate_degeneration(
            dataclasses.replace(problem, budget=ticks - 1), insertions, table, with_terms=True
        )
    assert err.value.visited == ticks


def _keys_and_values(problem, insertions, table):
    return needed_keys(problem, insertions), [
        evaluate_degeneration(problem, insertions, table, convention=c).value
        for c in CONVENTIONS
    ]


def test_a_problem_replays_its_kept_orbit_walk(monkeypatch):
    # the first walk of a problem keeps its orbits in the store; the other
    # runs on that problem replay them, with the same keys, values and
    # budget ticks as runs on fresh instances
    rng = random.Random(29)
    for _ in range(12):
        problem, insertions = random_problem(rng, max_legs=2)
        keys = needed_keys(dataclasses.replace(problem), insertions)
        table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
        fresh = _keys_and_values(dataclasses.replace(problem), insertions, table)
        for _ in range(2):
            assert _keys_and_values(problem, insertions, table) == fresh
        assert orbit_key(problem) in _ORBITS
    # P1 degree 4, genus 2 and its pinned ticks (test_budget_ticks_are_pinned)
    problem, insertions = p1_problem(4, 2)
    table = build_p1_table(4, 2, max_legs=len(insertions))
    fresh = _keys_and_values(dataclasses.replace(problem), insertions, table)
    assert _keys_and_values(problem, insertions, table) == fresh
    runs = (
        (lambda p: evaluate_degeneration(p, insertions, table), 2255),
        (lambda p: needed_keys(p, insertions), 1527),
    )
    for run, ticks in runs:
        monkeypatch.setenv("DEGENKIT_BUDGET", str(ticks - 1))
        with pytest.raises(EnumerationBudgetError) as err:
            run(problem)
        assert err.value.visited == ticks
        monkeypatch.setenv("DEGENKIT_BUDGET", str(ticks))
        run(problem)
    # a walk the budget stops, inside the orbit walk or past it, keeps nothing
    for run, ticks in runs:
        for budget in (10, ticks - 1):
            cut = dataclasses.replace(problem)
            _ORBITS.pop(orbit_key(cut), None)
            monkeypatch.setenv("DEGENKIT_BUDGET", str(budget))
            with pytest.raises(EnumerationBudgetError):
                run(cut)
            assert orbit_key(cut) not in _ORBITS


def test_for_vertex_matches_for_component():
    # the one-vertex builder emits the reference builder's bytes
    rng = random.Random(5)
    generators = ["a", "b", 'a"β']  # the last one is escaped in JSON
    classes = ["d0", "d1", "g"]  # odd in the catalogs below
    assert all(
        c.parity is ODD
        for c in _untwisted_divisor(2, [ODD, ODD]).basis + _ambient(ODD).basis
    )
    seen = set()
    for _ in range(300):
        side = rng.choice(["X1", "X2"])
        genus = rng.randint(0, 2)
        weight = CurveClass(
            {gid: rng.randint(1, 3) for gid in rng.sample(generators, rng.randint(0, 3))}
        )
        legs = tuple(
            (rng.randint(1, 3), rng.randint(0, 2), rng.choice(classes))
            for _ in range(rng.randint(0, 3))
        )
        roots = tuple(
            (rng.randint(1, 3), rng.randint(1, 4), rng.choice(classes))
            for _ in range(rng.randint(0, 3))
        )
        n = len(legs)
        graph = ModularGraph(
            vertices=(Vertex(genus, weight),),
            legs=tuple(Leg(i + 1, e, 0) for i, (e, _, _) in enumerate(legs)),
            roots=tuple(Root(n + i + 1, f, c, 0) for i, (f, c, _) in enumerate(roots)),
        )
        reference = CorrelatorKey.for_component(
            side,
            graph,
            {i + 1: Insertion(m, cid) for i, (_, m, cid) in enumerate(legs)},
            {n + i + 1: cid for i, (_, _, cid) in enumerate(roots)},
        )
        assert CorrelatorKey.for_vertex(side, genus, weight, legs, roots) == reference
        seen.update(
            flag
            for flag, hit in (
                ("multi-generator", len(weight.support()) > 1),
                ("escaped id", generators[2] in weight.support()),
                ("e > 1", any(e > 1 for e, _, _ in legs)),
                ("f > 1", any(f > 1 for f, _, _ in roots)),
                ("no legs", not legs),
                ("no roots", not roots),
            )
            if hit
        )
    assert len(seen) == 6, seen


def test_missing_keys_listed():
    divisor = _untwisted_divisor()
    problem = _problem(divisor)
    with pytest.raises(MissingKeysError) as err:
        evaluate_degeneration(problem, [], InvariantTable())
    assert err.value.keys == needed_keys(problem, [])


@pytest.mark.parametrize(
    "with_terms,count,digest",
    [
        (False, 23, "9f1386be99e484c1a8d7d32f2803676ad42c884ddee2587044b973a5567423bc"),
        (True, 30, "c72c4422c785c17980d9aa3cb5867b1e1c4144414a985eb74b790a0405ff94fd"),
    ],
)
def test_missing_keys_pinned_on_a_short_p1_table(with_terms, count, digest):
    # P1 degree 4, genus 1 against a table one leg short: the lists of
    # absent keys, each built from the data of a missing component, are
    # pinned by count and by the SHA-256 of their JSON
    problem, insertions = p1_problem(4, 1)
    table = build_p1_table(4, 1, max_legs=len(insertions) - 1)
    with pytest.raises(MissingKeysError) as err:
        evaluate_degeneration(problem, insertions, table, with_terms=with_terms)
    keys = err.value.keys
    assert len(keys) == count
    assert all(len(key.legs) == len(insertions) for key in keys)
    blob = jsonio.dumps(jsonio.keys_to_obj(keys)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


@pytest.mark.parametrize(
    "with_terms,count,digest",
    [
        (False, 44, "0713d35f9004cd2cc3a98c35808652a9874391699de3cb520c3e512f6193fb79"),
        (True, 56, "dcb4a60d423550623f71223bc2d08ef513f0477fc2923b9fb2c600ab54ca5c7b"),
    ],
)
def test_missing_keys_pinned_on_a_short_odd_table(with_terms, count, digest):
    # a random problem with odd divisor classes and odd leg insertions
    # against a table without every third of its keys: the lists of absent
    # keys, recorded when each (structure, basis choice) walked its own
    # placements, are pinned by count and by the SHA-256 of their JSON
    rng = random.Random(29)
    problem, insertions = random_problem(rng)
    assert any(b.parity is ODD for b in problem.divisor.basis)
    assert any(problem.ambient.parity_of(i.class_id) is ODD for i in insertions)
    keys = needed_keys(problem, insertions)
    full = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
    table = InvariantTable({key: v for i, (key, v) in enumerate(full.items()) if i % 3})
    with pytest.raises(MissingKeysError) as err:
        evaluate_degeneration(problem, insertions, table, with_terms=with_terms)
    assert len(err.value.keys) == count
    blob = jsonio.dumps(jsonio.keys_to_obj(err.value.keys)).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


def test_kernel_memo_holds_no_vanishing_data():
    # the kernel applies no vanishing rule: its structures meet condition B
    # and its basis choices keep each root on its band, so no vertex it
    # looks up, plain or with terms, in either convention, vanishes by rule
    rng = random.Random(47)
    looked_up = 0
    for _ in range(30):
        problem, insertions = random_problem(rng, max_legs=2)
        keys = needed_keys(problem, insertions)
        table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
        for convention in CONVENTIONS:
            for terms in (None, []):
                ctx = correlator._Context(problem, insertions, convention, table)
                correlator._walk(ctx, MINIMAL_TWIST, terms)
                looked_up_keys = memo_keys(ctx)
                for _, _, exponents, _, roots in looked_up_keys:
                    assert not correlator._vanishes(problem, CurveClass(exponents), roots)
                looked_up += len(looked_up_keys)
    assert looked_up > 100


def test_term_breakdown_builds_each_key_once(monkeypatch):
    # the term breakdown reports each component in every term it enters and
    # builds its key once per run: one for_vertex per distinct reported key,
    # and at most one per memo entry
    built = []
    for_vertex = CorrelatorKey.for_vertex
    monkeypatch.setattr(
        CorrelatorKey, "for_vertex", staticmethod(lambda *a: built.append(a) or for_vertex(*a))
    )
    problem, insertions = p1_problem(4, 0, second_side_legs=2)
    table = build_p1_table(4, 0, max_legs=len(insertions))
    ctx = correlator._Context(problem, insertions, "standard_dual", table)
    terms: list = []
    correlator._walk(ctx, MINIMAL_TWIST, terms)
    reported = [key for term in terms for key, _ in term.left + term.right]
    assert len(set(reported)) < len(reported)
    assert len(built) == len(set(reported)) <= len(memo_keys(ctx))
    assert {for_vertex(*data) for data in built} == set(reported)


class _DataRecordingTable(InvariantTable):
    """Answers as ``table`` does and records every vertex data it is asked."""

    def __init__(self, table: InvariantTable):
        super().__init__()
        self.table = table
        self.asked: set = set()

    def vertex_value(self, *data):
        self.asked.add(data)
        return self.table.vertex_value(*data)


def _asked_data(problem, insertions, table) -> set:
    """Every vertex data plain evaluation asks the table, in both conventions."""
    recording = _DataRecordingTable(table)
    for convention in CONVENTIONS:
        evaluate_degeneration(problem, insertions, recording, convention=convention)
    return recording.asked


def _same_keys_rebuilt(rows):
    """The rows read by ``table_from_obj`` with text graphs and with object
    graphs, and keyed by ``for_component`` on each key's graph: tables whose
    keys do not keep the data ``for_vertex`` was given.  The text keys hold
    the data their rows gave; the others read their bytes."""
    obj = jsonio.table_to_obj(InvariantTable(dict(rows)))
    as_objects = []
    for row in obj:
        graph = jsonio.graph_to_dict(graph_from_canonical(row["key"]["graph"]))
        as_objects.append({**row, "key": {**row["key"], "graph": graph}})
    by_component = InvariantTable()
    for key, value in rows:
        graph = graph_from_canonical(key.graph)
        legs, roots = graph.leg_labels(), graph.root_labels()
        by_component.set(
            CorrelatorKey.for_component(
                key.side,
                graph,
                {lab: Insertion(m, cid) for lab, (m, cid) in zip(legs, key.legs)},
                dict(zip(roots, key.roots)),
            ),
            value,
        )
    return [jsonio.table_from_obj(obj), jsonio.table_from_obj(as_objects), by_component]


def _draws_and_cells():
    rng = random.Random(4242)
    for _ in range(30):
        problem, insertions = random_problem(rng, max_legs=2)
        keys = needed_keys(problem, insertions)
        yield problem, insertions, covariant_random_table(
            keys, problem.divisor, problem.ambient, rng
        )
    for d, g in itertools.product(range(1, 4), range(3)):
        problem, insertions = p1_problem(d, g, second_side_legs=int(d > 1))
        p1 = build_p1_table(d, g, max_legs=len(insertions))
        yield problem, insertions, InvariantTable(dict(p1.items()))


def test_vertex_value_answers_as_get_by_key():
    # a plain table answers the kernel's vertex data as its key lookup does,
    # whichever way its keys were built; with every other entry left out,
    # the data of a left-out key answers None both ways
    asked_total = 0
    for problem, insertions, table in _draws_and_cells():
        asked = _asked_data(problem, insertions, table)
        asked_total += len(asked)
        rows = table.items()
        assert all(key.vertex() is not None for key, _ in rows)
        for kept in (rows, rows[::2]):
            for variant in [InvariantTable(dict(kept))] + _same_keys_rebuilt(kept):
                assert variant.items() == kept
                assert len(variant) == len(kept)
                for key, _ in variant.items():
                    assert CorrelatorKey.for_vertex(*key.vertex()) == key
                for data in asked:
                    assert variant.vertex_value(*data) == variant.get(
                        CorrelatorKey.for_vertex(*data)
                    ), data
                    if kept is rows:
                        assert variant.vertex_value(*data) is not None
                # every key set a second time keeps one entry each
                for key, value in kept:
                    variant.set(key, value)
                assert len(variant) == len(kept) and variant.items() == kept
    assert asked_total > 1000


def _terms_cases():
    problem, insertions = p1_problem(3, 0, second_side_legs=2)
    yield problem, insertions, build_p1_table(3, 0, max_legs=len(insertions))
    rng = random.Random(2324)
    for _ in range(12):
        problem, insertions = random_problem(rng, max_legs=2)
        keys = needed_keys(problem, insertions)
        yield problem, insertions, covariant_random_table(
            keys, problem.divisor, problem.ambient, rng
        )


def test_term_breakdown_asks_the_table_by_vertex_data_only():
    # evaluate --terms against a table that answers only by vertex data and
    # holds no entries gives the bytes of the full table's breakdown
    reported = 0
    for problem, insertions, table in _terms_cases():
        recording = _DataRecordingTable(table)
        assert len(recording) == 0
        for convention in CONVENTIONS:
            full, by_data = (
                jsonio.dumps(
                    jsonio.result_to_obj(
                        evaluate_degeneration(
                            problem, insertions, t, convention=convention, with_terms=True
                        )
                    )
                )
                for t in (table, recording)
            )
            assert by_data == full
            reported += full.count('"term_value"')
    assert reported > 100


def test_vertex_value_skips_keys_without_vertex_data():
    full = CorrelatorKey.for_vertex(
        "X1", 1, CurveClass({"a": 2}), ((1, 0, "g"), (1, 1, "g")), ((1, 2, "d0"),)
    )
    data = full.vertex()
    assert data == ("X1", 1, CurveClass({"a": 2}), ((1, 0, "g"), (1, 1, "g")), ((1, 2, "d0"),))
    # a hand-built key listing one leg fewer than its graph has no vertex
    # data; the data with that leg dropped is another key's
    short = CorrelatorKey(full.side, full.graph, full.legs[:1], full.roots)
    dropped = data[:3] + (data[3][:1], data[4])
    assert short.vertex() is None and CorrelatorKey.for_vertex(*dropped) != short
    two_vertices = CorrelatorKey.for_component(
        "X1",
        ModularGraph(
            vertices=(Vertex(0, CurveClass({"a": 1})), Vertex(0, CurveClass({"a": 1}))),
            edges=((0, 1),),
            roots=(Root(1, 1, 1, 0), Root(2, 1, 1, 1)),
        ),
        {},
        {1: "d0", 2: "d0"},
    )
    assert two_vertices.vertex() is None
    table = InvariantTable({short: Fraction(5), two_vertices: Fraction(7)})
    assert (table.get(short), table.get(two_vertices), len(table)) == (5, 7, 2)
    for asked in (data, dropped):
        assert table.vertex_value(*asked) is None
        assert table.get(CorrelatorKey.for_vertex(*asked)) is None
    # a key set twice, the second time as an equal key read from its bytes,
    # answers the last value both ways, whether or not it was looked up by
    # data in between
    table.set(full, Fraction(1))
    assert table.vertex_value(*data) == table.get(full) == 1
    table.set(CorrelatorKey(full.side, full.graph, full.legs, full.roots), Fraction(3))
    table.set(full, Fraction(4))
    assert table.vertex_value(*data) == table.get(full) == 4
    assert len(table) == 3


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_convention_equivalence_property(rng):
    # acceptance criterion 2 as a property: on a random problem with a
    # covariant table, both dual conventions give one value
    problem, insertions = random_problem(rng)
    keys = needed_keys(problem, insertions)
    table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
    std, crn = (
        evaluate_degeneration(problem, insertions, table, convention=convention).value
        for convention in CONVENTIONS
    )
    assert std == crn


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_regroup_sign_from_odd_ranks_matches_the_symbol_reference(rng):
    # the sign read off the odd symbols' ranks (_Context.word, _component,
    # _regroup_sign) equals the sign from every symbol's parity and the
    # monomial model, on words with odd legs and odd divisor classes and
    # components grouped at random
    problem, insertions = random_problem(rng, max_legs=4)
    problem = dataclasses.replace(
        problem, divisor=random_divisor_catalog(rng, rng.choice(("odd", "odd-self")))
    )
    ctx = correlator._Context(problem, insertions, rng.choice(CONVENTIONS), InvariantTable())
    legs = sorted(ctx.leg_data)
    m_labels = tuple(range(len(legs) + 1, len(legs) + 1 + rng.randint(0, 4)))
    delta = [rng.choice(problem.divisor.basis).id for _ in m_labels]
    rho = [rng.choice(sorted(ctx.rho_parity)) for _ in m_labels]
    word = {("leg", lab): ctx.leg_parity[lab] for lab in legs}
    for j, d, r in zip(m_labels, delta, rho):
        word["X1", j] = problem.divisor.parity_of(d)
        word["X2", j] = ctx.rho_parity[r]
    # each side's components as (leg labels, root labels), in a random order
    grouped = {side: [([], []) for _ in range(rng.randint(1, 3))] for side in ("X1", "X2")}
    for lab in legs:
        rng.choice(grouped[rng.choice(("X1", "X2"))])[0].append(lab)
    for side in ("X1", "X2"):
        for j in m_labels:
            rng.choice(grouped[side])[1].append(j)
        for comp_legs, comp_roots in grouped[side]:
            rng.shuffle(comp_legs)
            rng.shuffle(comp_roots)
    ranks = ctx.word(m_labels, delta, rho)
    assert sorted(ranks.values()) == list(range(len(ranks)))
    assert set(ranks) == {sym for sym, parity in word.items() if parity.is_odd}
    got = correlator._regroup_sign(
        [[correlator._component(ranks, side, *comp) for comp in grouped[side]] for side in grouped]
    )
    sides = [[symbols(side, *comp) for comp in grouped[side]] for side in grouped]
    index = {sym: i for i, sym in enumerate(word)}
    target = [
        index[sym]
        for comps in sides
        for comp in sorted(comps, key=lambda c: min((lab for _, lab in c), default=0))
        for sym in comp
    ]
    assert got == reference_regroup_sign(word, sides) == monomial_reorder_sign(
        target, list(word.values())
    )


def test_runs_leave_no_reference_cycles():
    # every run frees what it made by reference counting: with the collector
    # off, evaluation (both conventions, with and without terms) and key
    # collection on a P1 cell and on 20 random draws leave nothing for it
    cases = []
    problem, insertions = p1_problem(3, 1)
    cases.append((problem, insertions, build_p1_table(3, 1, max_legs=len(insertions))))
    rng = random.Random(2024)
    for _ in range(20):
        problem, insertions = random_problem(rng)
        keys = needed_keys(problem, insertions)
        table = covariant_random_table(keys, problem.divisor, problem.ambient, rng)
        cases.append((problem, insertions, table))
    gc.collect()
    gc.disable()
    try:
        for problem, insertions, table in cases:
            needed_keys(problem, insertions)
            for convention in CONVENTIONS:
                for with_terms in (False, True):
                    evaluate_degeneration(
                        problem, insertions, table, convention=convention, with_terms=with_terms
                    )
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_splitting_inner_sum_is_zero_off_condition_B():
    # a splitting given from outside the kernel is checked against the
    # vanishing rules: one that fails condition B sums to 0, and no key of
    # it is demanded of the table
    problem = _problem(_untwisted_divisor(), beta={"a": 2, "b": 2}, c_max=2)

    def splitting(c):
        sides = [
            ModularGraph(vertices=(Vertex(0, CurveClass({gid: 2})),), roots=(Root(1, 1, c, 0),))
            for gid in ("a", "b")
        ]
        return Splitting(sides[0], sides[1], (1,))

    off = splitting(1)
    assert not check_condition_B(off.xi1, problem.monoid).ok
    assert splitting_inner_sum(problem, off, [], InvariantTable()) == 0
    assert splitting_inner_sum(problem, off, [], _OnesTable()) == 0
    # the same splitting with contact 2 meets condition B and is looked up
    assert splitting_inner_sum(problem, splitting(2), [], _OnesTable()) != 0


def test_splitting_inner_sum_stops_at_the_budget():
    # the star splitting with 16 roots over two even band-1 divisor classes
    # has 2^16 basis choices; each ticks the problem's budget as it is
    # listed, so a budget of 1,000 stops the sum long before it lists them
    n = 16
    problem = dataclasses.replace(
        _problem(_untwisted_divisor(2), beta={"a": n, "b": n}, c_max=1), budget=1000
    )
    hub = ModularGraph(
        vertices=(Vertex(0, CurveClass({"a": n})),),
        roots=tuple(Root(lab, 1, 1, 0) for lab in range(1, n + 1)),
    )
    spokes = ModularGraph(
        vertices=tuple(Vertex(0, CurveClass({"b": 1})) for _ in range(n)),
        roots=tuple(Root(lab, 1, 1, lab - 1) for lab in range(1, n + 1)),
    )
    star = Splitting(hub, spokes, tuple(range(1, n + 1)))
    start = time.process_time()
    with pytest.raises(EnumerationBudgetError) as err:
        splitting_inner_sum(problem, star, [], _OnesTable())
    assert time.process_time() - start < 1
    assert err.value.visited == 1001


def _structure_of(splitting: Splitting) -> tuple:
    """The labeled structure a splitting is built from: the splitting with
    its legs stripped."""
    return splitting.m_labels, tuple(
        (side.vertices, side.roots) for side in (splitting.xi1, splitting.xi2)
    )


def test_kernel_and_enumerator_place_legs_alike():
    # the kernel places legs by the take rule and enumerate_splittings by a
    # product over slots, both from splitting.leg_slots.  Against a table
    # answering 1 no placement is pruned, so for each labeled structure the
    # multiplicities of one basis choice's terms add up to the number of
    # splittings enumerate_splittings builds on that structure
    rng = random.Random(25)
    pinned = structures = 0
    for _ in range(20):
        problem, insertions = random_problem(rng)
        pinned += sum(spec.side is not None for spec in problem.legs)
        expected: dict = {}
        for s in enumerate_splittings(problem):
            expected[_structure_of(s)] = expected.get(_structure_of(s), 0) + 1
        per_choice: dict = {}
        result = evaluate_degeneration(problem, insertions, _OnesTable(), with_terms=True)
        for term in result.terms:
            key = (_structure_of(term.splitting), term.delta_choice, term.dual_choice)
            per_choice[key] = per_choice.get(key, 0) + term.multiplicity
        got: dict = {}
        for (structure, _, _), count in per_choice.items():
            # every basis choice of a structure places the legs alike
            assert got.setdefault(structure, count) == count
        assert got == expected
        structures += len(got)
    assert pinned >= 10 and structures > 400


def _p1_case(d, g, k):
    problem, insertions = p1_problem(d, g, second_side_legs=k)
    return problem, insertions, build_p1_table(d, g, max_legs=len(insertions))


def _random_case(seed, divisor_class):
    """A random_problem draw whose divisor has ``divisor_class``, with a
    covariant random table on its needed keys."""
    rng = random.Random(seed)
    problem, insertions = random_problem(rng)
    assert divisor_class in {b.id for b in problem.divisor.basis}
    keys = needed_keys(problem, insertions)
    return problem, insertions, covariant_random_table(
        keys, problem.divisor, problem.ambient, rng
    )


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(lambda: _p1_case(3, 0, 0), id="3-0-0"),
        pytest.param(lambda: _p1_case(3, 1, 1), id="3-1-1"),
        # odd divisor classes and an odd leg: every basis choice is signed
        pytest.param(lambda: _random_case(58, "o1"), id="random-odd-classes"),
        # a conjugate band-2 pair and an even leg: every choice is all even
        pytest.param(lambda: _random_case(78, "t0+"), id="random-band-2-pair"),
    ],
)
def test_partial_table_lists_the_deleted_key_or_keeps_the_value(case):
    # deleting one needed key either names exactly that key or, when every
    # term it enters is zero anyway, leaves the value unchanged
    problem, insertions, full = case()
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


def _explicit_sum(problem, omega, insertions, table, convention="standard_dual"):
    """The formula summed splitting by splitting: prod(c) / |M|! (and
    1 / prod(f) for chen_ruan) times each splitting's inner sum."""
    total = Fraction(0)
    for s in omega:
        coeff = Fraction(math.prod(s.contacts()), math.factorial(len(s.m_labels)))
        if convention == "chen_ruan":
            coeff /= math.prod(s.indices())
        total += coeff * splitting_inner_sum(problem, s, insertions, table, convention)
    return total


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
        assert result.value == _explicit_sum(problem, omega, insertions, full)


_PRIMES_FROM_7 = [p for p in range(7, 500) if all(p % q for q in range(2, math.isqrt(p) + 1))]


def _coprime_values():
    """A value drawer for ``covariant_random_table``: each new vertex value
    is a numerator up to 10**6 of either sign over the next prime from 7
    on, so the values of different vertices have coprime denominators."""
    primes = itertools.cycle(_PRIMES_FROM_7)
    return lambda rng: Fraction(rng.randint(1, 10**6) * rng.choice([1, -1]), next(primes))


def _coprime_case(rng):
    problem, insertions = random_problem(rng, max_legs=2)
    keys = needed_keys(problem, insertions)
    table = covariant_random_table(
        keys, problem.divisor, problem.ambient, rng, _coprime_values()
    )
    return problem, insertions, keys, table


def test_exact_sums_under_coprime_denominators():
    # placement products carry unreduced numerators and denominators and are
    # summed over the lcm of their denominators; against values whose
    # denominators are distinct primes, the plain sum must still equal the
    # term breakdown and the explicit labeled sum, exactly
    rng = random.Random(404)
    digits = []
    for _ in range(30):
        problem, insertions, _, table = _coprime_case(rng)
        omega = enumerate_splittings(problem)
        for convention in CONVENTIONS:
            value = evaluate_degeneration(problem, insertions, table, convention=convention).value
            with_terms = evaluate_degeneration(
                problem, insertions, table, convention=convention, with_terms=True
            )
            assert value == with_terms.value == sum(t.value for t in with_terms.terms)
            assert value == _explicit_sum(problem, omega, insertions, table, convention)
        digits.append(len(str(value.denominator)))
    assert max(digits) > 100 and digits.count(1) < 15, digits


def test_partial_coprime_table_lists_the_recorded_keys():
    # the sixth draw above, with every third needed key deleted: in both
    # conventions plain evaluate lists the positions (in needed_keys order)
    # recorded when each placement node still multiplied Fractions, and the
    # term breakdown lists every deleted key
    rng = random.Random(404)
    for _ in range(6):
        problem, insertions, keys, table = _coprime_case(rng)
    assert len(keys) == 58
    partial = InvariantTable({k: v for j, (k, v) in enumerate(table.items()) if j % 3})
    listed = [0, 6, 9, 12, 15, 18, 21, 27, 30, 36, 39, 42, 45, 48, 51, 57]
    for convention in CONVENTIONS:
        for with_terms, positions in ((False, listed), (True, range(0, 58, 3))):
            with pytest.raises(MissingKeysError) as err:
                evaluate_degeneration(
                    problem, insertions, partial, convention=convention, with_terms=with_terms
                )
            assert err.value.keys == [keys[j] for j in positions]


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
