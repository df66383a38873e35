import itertools
import random
from fractions import Fraction
from math import factorial, prod

import pytest

from degenkit import oracle
from degenkit.algebra import BasisClass, Parity, Sector, SectorCatalog
from degenkit.errors import DegenkitError, InfeasibleInstanceError, ScaleError
from degenkit.oracle import (
    BRANCH_CLASS,
    HurwitzInstance,
    LINE_1,
    LINE_2,
    POINT_CLASS,
    RamificationProfile,
    build_p1_table,
    connected_relative_value,
    degeneration_check,
    factorization_count,
    hurwitz_count,
    labeled_profile_normalization,
    p1_problem,
    _compositions,
)
from degenkit.correlator import (
    CONVENTIONS,
    CorrelatorKey,
    Insertion,
    InvariantTable,
    evaluate_degeneration,
    needed_keys,
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
    vertex_data,
)
from degenkit.splitting import DegenerationProblem, LegSpec

from helpers import covariant_random_table, random_problem


def _naive_count(d, profiles, b):
    """Transparent reference: literally enumerate permutation tuples."""
    perms = list(itertools.permutations(range(d)))

    def cycle_type(p):
        seen = [False] * d
        out = []
        for s in range(d):
            if seen[s]:
                continue
            n, x = 0, s
            while not seen[x]:
                seen[x] = True
                x = p[x]
                n += 1
            out.append(n)
        return tuple(sorted(out, reverse=True))

    def transitive(group_elems):
        reach = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in group_elems:
                y = g[x]
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        return len(reach) == d

    def compose(p, q):
        return tuple(p[q[i]] for i in range(d))

    slots = [
        [p for p in perms if cycle_type(p) == tuple(sorted(mu, reverse=True))]
        for mu in profiles
    ]
    slots += [[p for p in perms if cycle_type(p) == tuple([2] + [1] * (d - 2))]] * b
    count = 0
    for tup in itertools.product(*slots):
        prod = tuple(range(d))
        for p in tup:
            prod = compose(prod, p)
        if prod != tuple(range(d)):
            continue
        if transitive(tup) or d == 1:
            count += 1
    return count


@pytest.mark.parametrize(
    "d,profiles,b",
    [
        (1, (), 0),
        (2, (), 2),
        (2, ((2,),), 1),
        (3, ((3,), (3,)), 0),
        (3, (), 4),
        (3, ((2, 1),), 1),
        (4, ((4,), (4,)), 0),
        (4, ((2, 2), (3, 1)), 1),
        (5, ((5,), (3, 1, 1)), 2),
        (3, ((1, 1, 1),), 4),
        (4, ((1, 1, 1, 1), (2, 2)), 2),
        (3, ((2, 1), (1, 1, 1), (3,)), 2),
    ],
)
def test_factorization_count_matches_naive(d, profiles, b):
    assert factorization_count(d, profiles, b) == _naive_count(d, profiles, b)


@pytest.mark.parametrize(
    "d,profiles,slots",
    [
        (3, ((2, 1),), (7, 5, 3, 1, 0, 2, 4, 6)),
        (4, ((2, 2),), (4, 2, 0, 1, 3)),
    ],
)
def test_count_read_in_any_slot_order(d, profiles, slots):
    # cold caches, so each count is computed in an order where the recursion
    # meets some sub-counts first and reuses others
    for cached in (
        factorization_count,
        oracle._connected_count,
        oracle._disconnected_count,
        oracle._central_characters,
        oracle._dimensions,
    ):
        cached.cache_clear()
    for s in slots:
        assert factorization_count(d, profiles, s) == _naive_count(d, profiles, s), s
    for s in sorted(slots):
        assert factorization_count(d, profiles, s) == _naive_count(d, profiles, s), s


@pytest.mark.parametrize(
    "d,profiles,slots",
    [
        (3, ((3,), (3,)), -2),
        (3, ((2, 2),), 0),
        (3, ((2,),), 1),
        (3, ((3, 0),), 0),
        (0, (), 0),
    ],
)
def test_factorization_count_rejects_bad_input(d, profiles, slots):
    with pytest.raises(InfeasibleInstanceError):
        factorization_count(d, profiles, slots)


def test_hurwitz_degree_one_is_one():
    assert hurwitz_count(HurwitzInstance(1, 0)) == 1


def test_hurwitz_degree_two_genus_zero():
    inst = HurwitzInstance(2, 0)
    assert inst.simple_branch_count == 2
    assert hurwitz_count(inst) == Fraction(1, 2)


def test_hurwitz_cyclic_three():
    inst = HurwitzInstance(3, 0, (RamificationProfile([3]), RamificationProfile([3])))
    assert inst.simple_branch_count == 0
    assert hurwitz_count(inst) == Fraction(1, 3)


def test_hurwitz_profile_order_irrelevant():
    a = HurwitzInstance(4, 0, (RamificationProfile([2, 2]), RamificationProfile([4])))
    b = HurwitzInstance(4, 0, (RamificationProfile([4]), RamificationProfile([2, 2])))
    assert hurwitz_count(a) == hurwitz_count(b)


def test_hurwitz_degree_five_supported():
    inst = HurwitzInstance(5, 0, (RamificationProfile([5]), RamificationProfile([5])))
    assert hurwitz_count(inst) == Fraction(1, 5)


def test_hurwitz_scale_error_beyond_five():
    with pytest.raises(ScaleError):
        hurwitz_count(HurwitzInstance(6, 0))


def test_profile_must_sum_to_degree():
    with pytest.raises(InfeasibleInstanceError):
        HurwitzInstance(3, 0, (RamificationProfile([2, 2]),))


def test_negative_branch_count_rejected():
    # two maximal profiles at genus 0 already exhaust the branching budget
    with pytest.raises(InfeasibleInstanceError):
        HurwitzInstance(
            3,
            0,
            (
                RamificationProfile([3]),
                RamificationProfile([3]),
                RamificationProfile([3]),
            ),
        )


def test_parity_mismatched_slot_count_gives_zero():
    # one transposition slot more than feasibility allows: odd product parity
    assert factorization_count(3, ((3,), (3,)), 1) == 0


def test_labeled_profile_normalization():
    assert labeled_profile_normalization([1, 1]) == 2
    assert labeled_profile_normalization([2]) == 1
    assert labeled_profile_normalization([1, 1, 2, 2, 2]) == 2 * 6


def test_connected_relative_value_examples():
    # degree 1: a single key per genus-0 shape, value 1
    assert connected_relative_value(1, 0, (1,), 0) == 1
    # full contact over the point with one extra simple branch point
    assert connected_relative_value(2, 0, (2,), 1) == Fraction(1, 2)
    # the labeled double-transposition cover
    assert connected_relative_value(2, 0, (1, 1), 2) == 1
    # genus mismatch forces zero
    assert connected_relative_value(2, 1, (2,), 1) == 0
    assert connected_relative_value(1, 0, (1,), 2) == 0


def test_table_labeled_patterns_symmetric():
    table = build_p1_table(3, 0, max_legs=4)
    problem, insertions = p1_problem(3, 0)
    keys = needed_keys(problem, insertions)
    by_shape = {}
    for key in keys:
        value = table.get(key)
        assert value is not None
    # (1,2) vs (2,1) labeled patterns carry equal values
    assert connected_relative_value(3, 0, (1, 2), 2) == connected_relative_value(
        3, 0, (2, 1), 2
    )


def _p1_table_through_graphs(d_max, g_max):
    """The P1 table with every key built by ``for_component`` on its graph."""
    table = InvariantTable()
    for side, gen in (("X1", LINE_1), ("X2", LINE_2)):
        for d in range(1, d_max + 1):
            for pattern in _compositions(d):
                for g in range(g_max + 1):
                    for s in range(2 * g_max - 2 + 2 * d_max + 1):
                        graph = ModularGraph(
                            vertices=(Vertex(g, CurveClass({gen: d})),),
                            legs=tuple(Leg(i + 1, 1, 0) for i in range(s)),
                            roots=tuple(
                                Root(s + j + 1, 1, c, 0) for j, c in enumerate(pattern)
                            ),
                        )
                        key = CorrelatorKey.for_component(
                            side,
                            graph,
                            {i + 1: Insertion(0, BRANCH_CLASS) for i in range(s)},
                            {s + j + 1: POINT_CLASS for j in range(len(pattern))},
                        )
                        table.set(key, connected_relative_value(d, g, pattern, s))
    return table


@pytest.mark.parametrize("d,g", [(2, 1), (3, 0), (3, 2)])
def test_p1_table_keys_match_graph_built_keys(d, g):
    assert build_p1_table(d, g).items() == _p1_table_through_graphs(d, g).items()


def _near_misses(d_max, g_max, max_legs):
    """Keys one step outside a P1 table with these bounds, by name."""
    brp, pt = (1, 0, BRANCH_CLASS), (1, 1, POINT_CLASS)
    line1 = {LINE_1: 1}

    def key(side="X1", genus=0, weight=line1, legs=(), roots=(pt,)):
        return CorrelatorKey.for_vertex(side, genus, CurveClass(weight).exponents, legs, roots)

    inside = key(legs=(brp,) * min(1, max_legs))
    two_vertices = ModularGraph(
        vertices=(Vertex(0, CurveClass(line1)), Vertex(0, CurveClass(line1))),
        edges=((0, 1),),
        roots=(Root(1, 1, 1, 0), Root(2, 1, 1, 1)),
    )
    return inside, {
        "degree": key(
            weight={LINE_1: d_max + 1}, roots=((1, d_max + 1, POINT_CLASS),)
        ),
        "genus": key(genus=g_max + 1),
        "legs": key(legs=(brp,) * (max_legs + 1)),
        "leg class": key(legs=((1, 0, POINT_CLASS),)),
        "leg m": key(legs=((1, 1, BRANCH_CLASS),)),
        "leg e": key(legs=((2, 0, BRANCH_CLASS),)),
        "root class": key(roots=((1, 1, BRANCH_CLASS),)),
        "root f": key(roots=((2, 1, POINT_CLASS),)),
        "contacts": key(roots=(pt, pt)),
        "side": key(side="X2"),
        "leg count": CorrelatorKey(
            inside.side, inside.graph, inside.legs + ((0, BRANCH_CLASS),), inside.roots
        ),
        "root count": CorrelatorKey(
            inside.side, inside.graph, inside.legs, inside.roots + (POINT_CLASS,)
        ),
        "space": CorrelatorKey(
            inside.side, inside.graph.replace(b",", b", ", 1), inside.legs, inside.roots
        ),
        "two vertices": CorrelatorKey.for_component(
            "X1", two_vertices, {}, {1: POINT_CLASS, 2: POINT_CLASS}
        ),
    }


@pytest.mark.parametrize(
    "d_max,g_max,max_legs", [(1, 0, 0), (2, 1, 3), (3, 0, None), (4, 2, 2), (5, 2, 12)]
)
def test_lazy_p1_table(d_max, g_max, max_legs):
    # the values worked out on lookup are those listed by items(), and keys
    # just outside the bounds or the shape are absent
    table = build_p1_table(d_max, g_max, max_legs=max_legs)
    legs = 2 * g_max - 2 + 2 * d_max if max_legs is None else max_legs
    rows = table.items()
    assert len(table) == len(rows) == 2 * (2**d_max - 1) * (g_max + 1) * (legs + 1)
    for key, value in rows:
        assert table.get(key) == value
        assert key in table
    inside, misses = _near_misses(d_max, g_max, legs)
    assert table.get(inside) == connected_relative_value(1, 0, (1,), min(1, legs))
    for name, key in misses.items():
        assert table.get(key) is None, name
        assert key not in table, name
    with pytest.raises(DegenkitError):
        table.set(inside, Fraction(1))


def _vertex_data(key):
    """(side, genus, exponents, legs, roots) of a one-vertex key whose bytes
    ``CorrelatorKey.for_vertex`` writes for that data; None for any other
    key, which has no vertex data to look up."""
    graph = graph_from_canonical(key.graph)
    if len(graph.vertices) != 1 or (len(graph.legs), len(graph.roots)) != (
        len(key.legs),
        len(key.roots),
    ):
        return None
    legs = tuple(
        (leg.e, m, cid)
        for leg, (m, cid) in zip(sorted(graph.legs, key=lambda l: l.label), key.legs)
    )
    roots = tuple(
        (r.f, r.c, cid)
        for r, cid in zip(sorted(graph.roots, key=lambda r: r.label), key.roots)
    )
    data = (key.side, graph.vertices[0].genus, graph.vertices[0].weight.exponents, legs, roots)
    return data if CorrelatorKey.for_vertex(*data) == key else None


@pytest.mark.parametrize(
    "d_max,g_max,max_legs", [(1, 0, 0), (2, 1, 3), (3, 0, None), (4, 2, 2), (5, 2, 12)]
)
def test_p1_vertex_value_matches_get(d_max, g_max, max_legs):
    # the lookup by vertex data and the lookup by key bytes apply one rule:
    # equal on every listed row, None on both for each near miss that has
    # vertex data (the others have only key bytes, and get gives None)
    table = build_p1_table(d_max, g_max, max_legs=max_legs)
    legs = 2 * g_max - 2 + 2 * d_max if max_legs is None else max_legs
    for key, value in table.items():
        assert table.vertex_value(*_vertex_data(key)) == table.get(key) == value
    inside, misses = _near_misses(d_max, g_max, legs)
    assert table.vertex_value(*_vertex_data(inside)) == table.get(inside) is not None
    without_data = set()
    for name, key in misses.items():
        data = _vertex_data(key)
        if data is None:
            without_data.add(name)
        else:
            assert table.vertex_value(*data) is None, name
        assert table.get(key) is None, name
    assert without_data == {"leg count", "root count", "space", "two vertices"}


def _read_back(key):
    """``_vertex_data`` through ``graphs.vertex_data``: the vertex data read
    from the key bytes, with the key's insertions when they match in count."""
    data = vertex_data(key.graph)
    if data is None or (len(data[2]), len(data[3])) != (len(key.legs), len(key.roots)):
        return None
    genus, weight, leg_e, root_fc = data
    legs = tuple((e, m, cid) for e, (m, cid) in zip(leg_e, key.legs))
    roots = tuple((f, c, cid) for (f, c), cid in zip(root_fc, key.roots))
    return key.side, genus, weight.exponents, legs, roots


def test_vertex_data_agrees_with_the_reference_on_p1_keys():
    for d_max in range(1, 6):
        for g_max in range(3):
            table = build_p1_table(d_max, g_max)
            inside, misses = _near_misses(d_max, g_max, table.max_legs)
            for key in [key for key, _ in table.items()] + [inside, *misses.values()]:
                assert _read_back(key) == _vertex_data(key), key


def test_key_vertex_is_the_p1_table_decode():
    # CorrelatorKey.vertex is None exactly where P1Table.get's own decode
    # (``_read_back``) gave None, and otherwise gives its data, for keys
    # that keep the data of for_vertex and for the same keys read from
    # their bytes
    rng = random.Random(2032)
    keys = []
    for d_max, g_max in itertools.product(range(1, 4), range(3)):
        table = build_p1_table(d_max, g_max)
        inside, misses = _near_misses(d_max, g_max, table.max_legs)
        keys += [key for key, _ in table.items()] + [inside, *misses.values()]
    for _ in range(20):
        keys += needed_keys(*random_problem(rng))
    without = 0
    for key in keys:
        rebuilt = CorrelatorKey(key.side, key.graph, key.legs, key.roots)
        assert key.vertex() == rebuilt.vertex() == _read_back(key), key
        without += key.vertex() is None
    assert without == 4 * 9


def test_vertex_data_agrees_with_the_reference_on_needed_keys():
    rng = random.Random(2031)
    for _ in range(60):
        problem, insertions = random_problem(rng)
        for key in needed_keys(problem, insertions):
            data = _read_back(key)
            assert data is not None and data == _vertex_data(key), key


def test_degeneration_check_grid():
    for d in (1, 2, 3):
        for g in (0, 1):
            report = degeneration_check(d, g)
            assert report.equal, (d, g, report)


def test_degeneration_check_chen_ruan_convention():
    report = degeneration_check(3, 0, convention="chen_ruan")
    assert report.equal


def test_degeneration_check_scale_limits():
    with pytest.raises(ScaleError):
        degeneration_check(5, 0)
    with pytest.raises(ScaleError):
        degeneration_check(2, 3)


def test_known_simple_hurwitz_numbers():
    # classical values for small simple Hurwitz counts
    assert hurwitz_count(HurwitzInstance(3, 0)) == 4
    assert hurwitz_count(HurwitzInstance(3, 1)) == 40
    assert hurwitz_count(HurwitzInstance(4, 0)) == 120


@pytest.mark.parametrize("d,g", [(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 2)])
def test_branch_split_invariance(d, g):
    # pinning any fixed number of branch insertions to the second side gives
    # the same count; the mixed splits route through nontrivial contact
    # profiles (full ramification among them), unlike the one-sided check
    b = 2 * g - 2 + 2 * d
    table = build_p1_table(d, g, max_legs=b)
    expected = hurwitz_count(HurwitzInstance(d, g))
    for k in range(0, b + 1):
        problem, insertions = p1_problem(d, g, second_side_legs=k)
        got = evaluate_degeneration(problem, insertions, table).value
        assert got == expected, (d, g, k)


def _genus_zero_hurwitz(d):
    return Fraction(factorial(2 * d - 2), factorial(d)) * Fraction(d) ** (d - 3)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_genus_zero_count_matches_hurwitz_formula(d):
    assert hurwitz_count(HurwitzInstance(d, 0)) == _genus_zero_hurwitz(d)


# -- the counting core beyond the public degree bound -------------------------


@pytest.mark.parametrize("d", range(1, 8))
def test_character_table_orthogonality(d):
    partitions = oracle._partitions(d)
    dims = oracle._dimensions(d)
    assert sum(dim * dim for dim in dims) == factorial(d)
    assert sum(oracle._class_size(mu) for mu in partitions) == factorial(d)
    rows = [
        [oracle._character(oracle._beta_set(lam), mu) for mu in partitions]
        for lam in partitions
    ]
    for i, j in itertools.product(range(len(partitions)), repeat=2):
        inner = sum(
            oracle._class_size(mu) * a * b
            for mu, a, b in zip(partitions, rows[i], rows[j])
        )
        assert inner == (factorial(d) if i == j else 0), (partitions[i], partitions[j])


@pytest.mark.parametrize("d", [6, 7])
def test_genus_zero_count_beyond_degree_bound(d):
    count = oracle._connected_count(d, (), 2 * d - 2)
    assert Fraction(count, factorial(d)) == _genus_zero_hurwitz(d)


@pytest.mark.parametrize("d", range(1, 8))
def test_one_profile_genus_zero_matches_hurwitz_formula(d):
    # Hurwitz's formula for genus-0 covers with one arbitrary profile mu and
    # d + len(mu) - 2 simple branch points; it splits mu in the recursion
    for mu in oracle._partitions(d):
        r = d + len(mu) - 2
        expected = Fraction(factorial(r), labeled_profile_normalization(mu))
        expected *= Fraction(d) ** (len(mu) - 3)
        for m in mu:
            expected *= Fraction(m**m, factorial(m))
        count = oracle._connected_count(d, oracle._nontrivial([mu]), r)
        assert Fraction(count, factorial(d)) == expected, mu


@pytest.mark.parametrize("d", range(1, 10))
def test_one_profile_genus_one_matches_vakil_formula(d):
    # Vakil's formula (math/9812105) for genus-1 covers with one arbitrary
    # profile mu of length n and d + n simple branch points:
    # r!/(24 |Aut mu|) prod mu_i^mu_i/mu_i!
    #   * (d^n - d^(n-1) - sum_{k>=2} (k-2)! d^(n-k) e_k(mu))
    for mu in oracle._partitions(d):
        n = len(mu)
        r = d + n
        bracket = Fraction(d**n - d ** (n - 1))
        for k in range(2, n + 1):
            e_k = sum(prod(parts) for parts in itertools.combinations(mu, k))
            bracket -= factorial(k - 2) * d ** (n - k) * e_k
        expected = Fraction(factorial(r), 24 * labeled_profile_normalization(mu)) * bracket
        for m in mu:
            expected *= Fraction(m**m, factorial(m))
        count = oracle._connected_count(d, oracle._nontrivial([mu]), r)
        assert Fraction(count, factorial(d)) == expected, mu


def test_degree_six_genus_two_weighted_count():
    # the value plain evaluation of the P1 degeneration gives at degree 6,
    # genus 2, with the oracle's degree bound raised to 6
    assert Fraction(oracle._connected_count(6, (), 14), factorial(6)) == 100_557_737_280


def _p1_case(d, g, k):
    problem, insertions = p1_problem(d, g, second_side_legs=k)
    return problem, insertions, build_p1_table(d, g, max_legs=len(insertions))


def _conjugate_pair_case(genus, x1_exponents):
    """Random-family problem: a conjugate band-2 pair on the divisor, two
    identical even legs, beta = x1_exponents + 3b over half-degree
    generators, and a covariant random table on the needed keys.  Two
    untwisted classes of different norms give basis choices of different
    expansion weights."""
    divisor = SectorCatalog(
        sectors=(Sector("u", 1, "u"), Sector("t+", 2, "t-"), Sector("t-", 2, "t+")),
        basis=(
            BasisClass("u0", "u", Parity.EVEN),
            BasisClass("u1", "u", Parity.EVEN),
            BasisClass("t0+", "t+", Parity.EVEN),
            BasisClass("t0-", "t-", Parity.EVEN),
        ),
        pairing=tuple(
            tuple(Fraction(q) if i == j else Fraction(0) for j in range(4))
            for i, q in enumerate((2, 3, Fraction(3, 2), Fraction(3, 2)))
        ),
        basis_involution={
            "u0": ("u0", 1),
            "u1": ("u1", 1),
            "t0+": ("t0-", 1),
            "t0-": ("t0+", 1),
        },
    )
    ambient = SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=(BasisClass("g_even", "m", Parity.EVEN),),
        pairing=((Fraction(1),),),
    )
    monoid = CurveClassMonoid(
        tuple(Generator(gid, "X1", Fraction(1, 2)) for gid in sorted(x1_exponents))
        + (Generator("b", "X2", Fraction(1, 2)),)
    )
    problem = DegenerationProblem(
        monoid=monoid,
        genus=genus,
        legs=(LegSpec(1, 1), LegSpec(2, 1)),
        beta=CurveClass({**x1_exponents, "b": 3}),
        divisor=divisor,
        c_max=2,
        ambient=ambient,
    )
    insertions = [Insertion(0, "g_even"), Insertion(0, "g_even")]
    table = covariant_random_table(
        needed_keys(problem, insertions), divisor, ambient, random.Random(5)
    )
    return problem, insertions, table


@pytest.mark.parametrize(
    "make_case",
    [
        pytest.param(lambda: _p1_case(3, 1, 1), id="3-1-1"),
        pytest.param(lambda: _p1_case(4, 0, 2), id="4-0-2"),
        pytest.param(lambda: _p1_case(4, 2, 3), id="4-2-3"),
        # genus 2: each skeleton carries up to ten structures
        pytest.param(lambda: _conjugate_pair_case(2, {"a": 3}), id="pair-genus-2"),
        # two X1 generators: up to three weight splits per skeleton and genera
        pytest.param(
            lambda: _conjugate_pair_case(0, {"a": 2, "a2": 1}), id="pair-weight-splits"
        ),
    ],
)
def test_plain_evaluate_equals_terms_walk(make_case):
    # the --terms walk visits every placement, so it is the reference for
    # the counted terms and placement sums of plain evaluation
    problem, insertions, table = make_case()
    for convention in CONVENTIONS:
        plain = evaluate_degeneration(problem, insertions, table, convention=convention)
        walked = evaluate_degeneration(
            problem, insertions, table, convention=convention, with_terms=True
        )
        assert plain.value == walked.value, convention
