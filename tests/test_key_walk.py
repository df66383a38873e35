"""Key collection against the placement walk it replaces: ``needed_keys``
lists exactly the keys that walking every leg placement of every labeled
structure and basis choice reaches."""

import json
import random
from pathlib import Path

import pytest

from degenkit import jsonio
from degenkit.correlator import needed_keys
from degenkit.oracle import p1_problem
from helpers import covariant_random_table, placement_keys, random_problem

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
        for k in sorted({0, (2 * g - 2 + 2 * d) // 2})
    ],
)
def test_key_walk_on_the_p1_grid(d, g, k):
    problem, insertions = p1_problem(d, g, second_side_legs=k)
    assert needed_keys(problem, insertions) == placement_keys(problem, insertions)


def test_key_walk_on_the_sample_files():
    problem = jsonio.problem_from_dict(
        json.loads((DOCS / "sample_problem.json").read_text(encoding="utf-8"))
    )
    insertions = jsonio.insertions_from_list(
        problem, json.loads((DOCS / "sample_insertions.json").read_text(encoding="utf-8"))
    )
    keys = needed_keys(problem, insertions)
    assert keys and keys == placement_keys(problem, insertions)
