import itertools
from fractions import Fraction
from math import factorial

import pytest

from degenkit.errors import InfeasibleInstanceError, ScaleError
from degenkit.oracle import (
    HurwitzInstance,
    P1Conventions,
    RamificationProfile,
    build_p1_table,
    connected_relative_value,
    degeneration_check,
    factorization_count,
    hurwitz_count,
    labeled_profile_normalization,
    p1_problem,
)
from degenkit.correlator import evaluate_degeneration, needed_keys


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
    ],
)
def test_factorization_count_matches_naive(d, profiles, b):
    assert factorization_count(d, profiles, b) == _naive_count(d, profiles, b)


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
    conv = P1Conventions()
    table = build_p1_table(3, 0, conv, max_legs=4)
    problem, insertions = p1_problem(3, 0, conv)
    keys = needed_keys(problem, insertions)
    by_shape = {}
    for key in keys:
        value = table.get(key)
        assert value is not None
    # (1,2) vs (2,1) labeled patterns carry equal values
    assert connected_relative_value(3, 0, (1, 2), 2) == connected_relative_value(
        3, 0, (2, 1), 2
    )


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
    conv = P1Conventions()
    b = 2 * g - 2 + 2 * d
    table = build_p1_table(d, g, conv, max_legs=b)
    expected = hurwitz_count(HurwitzInstance(d, g))
    for k in range(0, b + 1):
        problem, insertions = p1_problem(d, g, conv, second_side_legs=k)
        got = evaluate_degeneration(problem, insertions, table).value
        assert got == expected, (d, g, k)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_genus_zero_count_matches_hurwitz_formula(d):
    expected = Fraction(factorial(2 * d - 2), factorial(d)) * Fraction(d) ** (d - 3)
    assert hurwitz_count(HurwitzInstance(d, 0)) == expected


@pytest.mark.parametrize("d,g,k", [(3, 1, 1), (4, 0, 2), (4, 2, 3)])
def test_plain_evaluate_equals_terms_walk(d, g, k):
    # the --terms walk visits every placement, so it is the reference for
    # the placement sums plain evaluation reuses
    problem, insertions = p1_problem(d, g, second_side_legs=k)
    table = build_p1_table(d, g, max_legs=len(insertions))
    plain = evaluate_degeneration(problem, insertions, table)
    walked = evaluate_degeneration(problem, insertions, table, with_terms=True)
    assert plain.value == walked.value
