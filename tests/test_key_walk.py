"""Key collection against the walks it replaces: ``needed_keys``, which
walks one structure per root-relabeling orbit, lists exactly the keys that
walking every leg placement of every labeled structure and basis choice
reaches (``placement_keys``), and that keying every labeled structure's
vertices without placing legs gives (``labeled_keys``)."""

import dataclasses
import itertools
import json
import random
import time
from pathlib import Path

import pytest

from degenkit import jsonio
from degenkit.correlator import _orders, needed_keys
from degenkit.errors import EnumerationBudgetError
from degenkit.oracle import p1_problem
from helpers import covariant_random_table, labeled_keys, placement_keys, random_problem

DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_key_walk_on_the_criterion_2_draws():
    # the draws of criterion 2 and the benchmark's random suite: Random(2024),
    # a table filled after each draw with keys, until 100 such draws
    rng = random.Random(2024)
    draws = nonempty = 0
    while nonempty < 100:
        problem, insertions = random_problem(rng, max_legs=2)
        draws += 1
        keys = placement_keys(problem, insertions)
        assert needed_keys(problem, insertions) == keys
        if keys:
            nonempty += 1
            covariant_random_table(keys, problem.divisor, problem.ambient, rng)
    assert draws == 124


def test_key_walk_on_random_problems():
    rng = random.Random(61)
    for _ in range(60):
        problem, insertions = random_problem(rng)
        assert needed_keys(problem, insertions) == placement_keys(problem, insertions)


@pytest.mark.parametrize(
    "d,g,k",
    [
        (d, g, k)
        for g in range(3)
        for d in range(1, 5)
        for k in sorted({0, (2 * g - 2 + 2 * d) // 2, 2 * g - 2 + 2 * d})
    ],
)
def test_key_walk_on_the_p1_grid(d, g, k):
    problem, insertions = p1_problem(d, g, second_side_legs=k)
    assert needed_keys(problem, insertions) == placement_keys(problem, insertions)


@pytest.mark.parametrize("g", range(3))
@pytest.mark.parametrize("k", ["none", "half", "all"])
def test_key_walk_on_p1_degree_5(g, k):
    # 0, half or all of the branch points on X2; the labeled reference, as
    # the placement walk is far too slow here
    legs = 2 * g + 8
    on_x2 = {"none": 0, "half": legs // 2, "all": legs}[k]
    problem, insertions = p1_problem(5, g, second_side_legs=on_x2)
    assert needed_keys(problem, insertions) == labeled_keys(problem, insertions)


@pytest.mark.parametrize("seed", [7, 99])
def test_key_walk_against_the_labeled_walk(seed):
    rng = random.Random(seed)
    for _ in range(60):
        problem, insertions = random_problem(rng, max_legs=3)
        assert needed_keys(problem, insertions) == labeled_keys(problem, insertions)


def test_root_orders_are_distinct_and_lazy():
    for items in [(), (1,), (2, 1, 2), (3, 1, 2, 1), ((1, 2, "a"), (1, 2, "b"), (1, 2, "a"))]:
        orders = list(_orders(items))
        assert sorted(orders) == sorted(set(itertools.permutations(items)))
    # 14! orders: only listed as they are asked for
    assert next(_orders(tuple(range(14)))) == tuple(range(14))


def test_budget_bounds_the_key_walk_at_degree_7():
    # a small budget stops the key walk early, also where a vertex has many
    # roots, each of whose orders ticks as it is listed
    problem, insertions = p1_problem(7, 0)
    start = time.process_time()
    with pytest.raises(EnumerationBudgetError) as err:
        needed_keys(dataclasses.replace(problem, budget=1000), insertions)
    assert err.value.visited == 1001
    assert time.process_time() - start < 1.0


def test_key_walk_on_the_sample_files():
    problem = jsonio.problem_from_dict(
        json.loads((DOCS / "sample_problem.json").read_text(encoding="utf-8"))
    )
    insertions = jsonio.insertions_from_list(
        problem, json.loads((DOCS / "sample_insertions.json").read_text(encoding="utf-8"))
    )
    keys = needed_keys(problem, insertions)
    assert keys and keys == placement_keys(problem, insertions)
