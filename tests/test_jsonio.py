import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenkit import jsonio
from degenkit.graphs import (
    CurveClass,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_json,
    rank_relabeled,
)


# keys and strings that need escaping: empty, quotes, backslashes, control
# and non-ASCII characters (outside the BMP too)
_TEXT = st.text(
    alphabet=st.one_of(st.sampled_from('"\\\n\t\x00/é 😀'), st.characters()),
    max_size=6,
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from([-0.0, 0.0, 1e300, -1.5, float("nan"), float("inf")]),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)
_TREES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_TREES)
def test_dumps_bytes_equal_the_stdlib_encoder(obj):
    assert jsonio.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_dumps_nested_empty_containers():
    obj = {"": {}, "a": [[], {}, ()], "b": {"c": {"d": []}}, "é": [None, True, False]}
    assert jsonio.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("obj", [{1: "x"}, {"a": [{(1, 2): 0}]}, {"v": Fraction(1, 2)}, [Fraction(1)]])
def test_dumps_refuses_non_str_keys_and_unknown_values(obj):
    with pytest.raises(TypeError):
        jsonio.dumps(obj)


def _shuffled_one_vertex_graph(rng: random.Random) -> ModularGraph:
    """A one-vertex graph with labels not 1..n and legs and roots listed
    out of label order."""
    labels = rng.sample(range(2, 60), rng.randint(0, 6))
    cut = rng.randint(0, len(labels))
    legs = [Leg(lab, rng.randint(1, 3), 0) for lab in labels[:cut]]
    roots = [Root(lab, rng.randint(1, 3), rng.randint(1, 4), 0) for lab in labels[cut:]]
    rng.shuffle(legs)
    rng.shuffle(roots)
    weight = CurveClass({gid: rng.randint(0, 2) for gid in rng.sample(["a", "b", 'q"', "é"], 2)})
    return ModularGraph((Vertex(rng.randint(0, 2), weight),), (), tuple(legs), tuple(roots))


def _unsorted_canonical_text(graph: ModularGraph) -> str:
    # the canonical layout, but with the legs and roots in the graph's order
    return json.dumps({
        "e": [],
        "l": [[l.label, l.e, 0] for l in graph.legs],
        "r": [[r.label, r.f, r.c, 0] for r in graph.roots],
        "v": [[graph.vertices[0].genus, [list(x) for x in graph.vertices[0].weight.exponents]]],
    })


def test_one_vertex_key_bytes_equal_the_canonical_form_path():
    rng = random.Random(13)
    for _ in range(150):
        graph = _shuffled_one_vertex_graph(rng)
        expected = canonical_json(rank_relabeled(graph)).encode()
        for form in (jsonio.graph_to_dict(graph), _unsorted_canonical_text(graph)):
            key = jsonio.key_from_dict({"side": "X1", "graph": form})
            assert key.graph == expected


def test_multi_vertex_key_bytes_keep_the_canonical_form_path():
    graph = ModularGraph(
        (Vertex(0, CurveClass()), Vertex(1, CurveClass({"a": 1}))),
        ((0, 1),),
        (Leg(9, 2, 1), Leg(4, 1, 0)),
        (Root(7, 1, 2, 0),),
    )
    key = jsonio.key_from_dict({"side": "X2", "graph": jsonio.graph_to_dict(graph)})
    assert key.graph == canonical_json(rank_relabeled(graph)).encode()
    # one vertex with a loop is not a vertex_form graph either
    loop = ModularGraph((Vertex(0, CurveClass()),), ((0, 0),), (Leg(3, 1, 0),))
    key = jsonio.key_from_dict({"side": "X1", "graph": jsonio.graph_to_dict(loop)})
    assert key.graph == canonical_json(rank_relabeled(loop)).encode()
