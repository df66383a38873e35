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
    rank_relabeled,
)
from helpers import canonical_json


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


_GENERATOR_IDS = ("a", "b", 'q"', "back\\slash", "é", "ü😀", "")


def _random_graph(rng: random.Random) -> ModularGraph:
    """A graph with 0-4 vertices, parallel edges and loops, weights over
    0-3 generators (ids that need escaping among them) and unique leg and
    root labels, all listed in no particular order."""
    nv = rng.randint(0, 4)
    vertices = tuple(
        Vertex(
            rng.randint(0, 12),
            CurveClass({gid: rng.randint(0, 11) for gid in rng.sample(_GENERATOR_IDS, rng.randint(0, 3))}),
        )
        for _ in range(nv)
    )
    if not nv:
        return ModularGraph(vertices)
    edges = tuple((rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, 4)))
    labels = rng.sample(range(1, 40), rng.randint(0, 7))
    cut = rng.randint(0, len(labels))
    legs = tuple(Leg(lab, rng.randint(1, 12), rng.randrange(nv)) for lab in labels[:cut])
    roots = tuple(
        Root(lab, rng.randint(1, 4), rng.randint(1, 12), rng.randrange(nv)) for lab in labels[cut:]
    )
    return ModularGraph(vertices, edges, legs, roots)


def test_graph_writer_matches_the_dict_path():
    # a graph written straight from its fields, alone and nested at several
    # indents, gives the bytes of json.dumps of its graph_to_dict form
    rng = random.Random(22)
    seen = set()
    for _ in range(400):
        graph = _random_graph(rng)
        gids = {gid for v in graph.vertices for gid in v.weight.support()}
        seen |= {
            "edge" if graph.edges else None,
            "loop" if any(a == b for a, b in graph.edges) else None,
            "several generators" if len(gids) > 1 else None,
            "empty weight" if any(v.weight.is_zero() for v in graph.vertices) else None,
            "escaped id" if gids & {'q"', "back\\slash", "é", "ü😀"} else None,
        }
        as_dict = jsonio.graph_to_dict(graph)
        for wrap in (lambda g: g, lambda g: [g], lambda g: {"row": {"xi1": g, "m": [1, g]}}):
            assert jsonio.dumps(wrap(graph)) == json.dumps(wrap(as_dict), indent=2, sort_keys=True) + "\n"
    assert len(seen - {None}) == 5
