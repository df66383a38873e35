import copy
import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenkit import correlator, jsonio, oracle
from degenkit.errors import DegenkitError
from degenkit.graphs import (
    CurveClass,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,
    graph_from_canonical,
    rank_relabeled,
)
from helpers import (
    canonical_json,
    covariant_random_table,
    random_problem,
    reference_table_from_obj,
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


@pytest.mark.parametrize(
    "text,message",
    [
        pytest.param('{"v": [', "not a canonical graph: '{\"v\": ['", id="not-json"),
        pytest.param("[1, 2]", "key graph must be an object, got [1, 2]", id="not-an-object"),
        pytest.param(
            '{"e":[],"l":[],"r":[]}', "key graph is missing the field 'v'", id="no-v"
        ),
        pytest.param(
            '{"e":[],"l":[[true,1,0]],"r":[],"v":[[0,[]]]}',
            "leg label must be an integer, got True",
            id="bool-leg-label",
        ),
        pytest.param(
            '{"e":[],"l":[],"r":[],"v":[[0,[["a",1.0]]]]}',
            "vertex weight exponent must be an integer, got 1.0",
            id="float-exponent",
        ),
        pytest.param(
            '{"e":[],"l":[],"r":[],"v":[[0,[["a",1],["a",2]]]]}',
            "vertex weight repeats a generator: [['a', 1], ['a', 2]]",
            id="repeated-generator",
        ),
        pytest.param(
            '{"e":[],"l":[[1,1]],"r":[],"v":[[0,[]]]}',
            "key graph l must be a list of 3-entry lists, got [[1, 1]]",
            id="two-entry-leg-row",
        ),
    ],
)
def test_malformed_graph_text_has_one_error(text, message):
    # graph text has one reader: a table key's graph is read by it too
    for read in (graph_from_canonical, lambda t: jsonio.key_from_dict({"side": "X1", "graph": t})):
        with pytest.raises(DegenkitError) as err:
            read(text)
        assert str(err.value) == message


def test_p1_key_graph_text_reads_back_to_its_bytes():
    for key, _ in oracle.build_p1_table(3, 1).items():
        assert canonical_form(rank_relabeled(graph_from_canonical(key.graph))) == key.graph


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


# -- the table loader against the row-by-row reference ----------------------------

# P1 cells (degree, genus, legs on X2) and random_problem seeds whose keys
# have legs as well as roots
_TABLE_SOURCES = [("p1", cell) for cell in ((2, 0, 1), (2, 1, 0), (3, 0, 2), (2, 2, 1))] + [
    ("covariant", seed) for seed in (6, 7, 13, 18)
]


@functools.lru_cache(maxsize=None)
def _source_rows(kind: str, arg) -> list:
    if kind == "p1":
        problem, insertions = oracle.p1_problem(arg[0], arg[1], second_side_legs=arg[2])
        return jsonio.table_to_obj(oracle.build_p1_table(arg[0], arg[1], max_legs=len(insertions)))
    rng = random.Random(arg)
    problem, insertions = random_problem(rng)
    keys = correlator.needed_keys(problem, insertions)
    return jsonio.table_to_obj(covariant_random_table(keys, problem.divisor, problem.ambient, rng))


def _row(rows, rng, need=lambda key: True) -> dict:
    """A random row whose key meets ``need``, or any row if none does."""
    return rng.choice([row for row in rows if need(row["key"])] or rows)


def _insertion(rows, rng, name: str) -> dict:
    """A random leg or root insertion, or a throwaway dict if no key has one."""
    entries = _row(rows, rng, lambda key: key[name])["key"][name]
    return rng.choice(entries) if entries else {}


def _text_key(rows, rng) -> dict:
    return _row(rows, rng, lambda key: isinstance(key["graph"], str))["key"]


def _set_m(value_of):
    def mutate(rows, rng):
        leg = _insertion(rows, rng, "legs")
        leg["m"] = value_of(leg.get("m", 0))

    return mutate


def _edit_graph(edit):
    def mutate(rows, rng):
        key = _text_key(rows, rng)
        if isinstance(key["graph"], str):
            key["graph"] = edit(key["graph"])

    return mutate


def _raw_non_ascii_id(text: str) -> str:
    data = json.loads(text)
    pairs = data["v"][0][1]
    if pairs:
        pairs[0][0] = "é" + pairs[0][0]
    else:
        pairs.append(["é", 1])
    return json.dumps(data, separators=(",", ":"), ensure_ascii=False)


def _set_value(value):
    return lambda rows, rng: _row(rows, rng).update({"value": value})


def _duplicate(value_of):
    def mutate(rows, rng):
        row = _row(rows, rng)
        rows.append({"key": copy.deepcopy(row["key"]), "value": value_of(row["value"])})

    return mutate


def _memo_trap(rows, rng):
    # 1 and true hash alike; the repeat must still be refused as a value
    row = _row(rows, rng)
    row["value"] = 1
    rows.append({"key": copy.deepcopy(row["key"]), "value": True})


def _bad_shape_and_key(rows, rng):
    # the shape of every row is checked before any key is read
    _row(rows, rng)["key"]["side"] = "X3"
    del rows[-1]["value"]


_ROW_MUTATIONS = {
    "none": lambda rows, rng: None,
    "m-bool": _set_m(lambda m: True),
    "m-float": _set_m(float),
    "m-str": _set_m(str),
    "leg-class-missing": lambda rows, rng: _insertion(rows, rng, "legs").pop("class", None),
    "leg-class-an-int": lambda rows, rng: _insertion(rows, rng, "legs").update({"class": 1}),
    "root-class-missing": lambda rows, rng: _insertion(rows, rng, "roots").pop("class", None),
    "root-class-a-list": lambda rows, rng: _insertion(rows, rng, "roots").update({"class": ["pt"]}),
    "side-X3": lambda rows, rng: _row(rows, rng)["key"].update({"side": "X3"}),
    "graph-space": _edit_graph(lambda text: text.replace(",", ", ", 1)),
    "graph-leading-zero": _edit_graph(lambda text: text.replace('"v":[[', '"v":[[0', 1)),
    "graph-raw-non-ascii-id": _edit_graph(_raw_non_ascii_id),
    "leg-dropped": lambda rows, rng: _row(rows, rng, lambda key: key["legs"])["key"]["legs"].pop(),
    "leg-added": lambda rows, rng: _row(rows, rng)["key"]["legs"].append({"m": 0, "class": "pt"}),
    "legs-omitted": lambda rows, rng: _row(rows, rng)["key"].pop("legs"),
    "root-dropped": lambda rows, rng: _row(rows, rng, lambda key: key["roots"])["key"]["roots"].pop(),
    "root-added": lambda rows, rng: _row(rows, rng)["key"]["roots"].append({"class": "pt"}),
    "duplicate-same": _duplicate(lambda value: value),
    "duplicate-conflicting": _duplicate(lambda value: str(jsonio.fraction_from_str(value) + 1)),
    "memo-trap": _memo_trap,
    "bad-shape-and-key": _bad_shape_and_key,
    **{
        "value-%r" % (value,): _set_value(value)
        for value in ("abc", True, 1.5, "1/0", [1], None, " 2/4 ", 3)
    },
}


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(_TABLE_SOURCES),
    st.booleans(),
    st.sampled_from(sorted(_ROW_MUTATIONS)),
    st.integers(0, 2**16),
)
def test_table_loader_matches_the_row_by_row_reference(source, objects, mutation, seed):
    # P1 cell and covariant random tables, some key graphs written as
    # objects, and one seeded row mutation: the loader gives the same table
    # as the reference, or raises the reference's error text
    rng = random.Random(seed)
    rows = copy.deepcopy(_source_rows(*source))
    if objects:
        for row in rows:
            if rng.random() < 0.5:
                row["key"]["graph"] = jsonio.graph_to_dict(graph_from_canonical(row["key"]["graph"]))
    _ROW_MUTATIONS[mutation](rows, rng)
    try:
        expected = reference_table_from_obj(rows)
    except DegenkitError as err:
        with pytest.raises(DegenkitError) as got:
            jsonio.table_from_obj(rows)
        assert (type(got.value), str(got.value)) == (type(err), str(err))
        return
    table = jsonio.table_from_obj(rows)
    assert jsonio.dumps(jsonio.table_to_obj(table)) == jsonio.dumps(jsonio.table_to_obj(expected))
    for key, value in expected.items():
        data = key.vertex()
        if data is not None:
            assert table.vertex_value(*data) == expected.vertex_value(*data) == value
        assert table.get(key) == value
