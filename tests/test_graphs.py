import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenkit.errors import DegenkitError, GluingError, ScaleError
from helpers import _dump, reference_canonical_form
from degenkit.graphs import (
    CurveClass,
    CurveClassMonoid,
    Generator,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,
    components,
    d_degree,
    glue,
    graph_from_canonical,
    intersection_multiplicity,
    keyed_form,
    rank_relabeled,
    total_genus,
    total_weight,
    vertex_data,
    vertex_form,
    vertex_keys,
)


MONOID = CurveClassMonoid(
    (
        Generator("a", "X1", Fraction(1, 2)),
        Generator("b", "X1", Fraction(1)),
        Generator("c", "X2", Fraction(0)),
    )
)


def test_curve_class_addition_and_split():
    x = CurveClass({"a": 2}) + CurveClass({"a": 1, "c": 3})
    assert x.as_dict() == {"a": 3, "c": 3}
    p1, p2 = MONOID.split(x)
    assert p1.as_dict() == {"a": 3}
    assert p2.as_dict() == {"c": 3}


def test_curve_class_rejects_negative_exponents():
    with pytest.raises(DegenkitError):
        CurveClass({"a": -1})


def test_d_degree_zero_class():
    assert d_degree(CurveClass(), MONOID) == 0


def test_d_degree_linear():
    assert d_degree(CurveClass({"b": 3}), MONOID) == 3


def test_d_degree_mixed_rational():
    # 2 copies of a half-degree generator plus one unit generator
    assert d_degree(CurveClass({"a": 2, "b": 1}), MONOID) == 2


def test_d_degree_unknown_generator():
    with pytest.raises(DegenkitError):
        d_degree(CurveClass({"zz": 1}), MONOID)


def test_intersection_multiplicity():
    assert intersection_multiplicity(2, 1) == Fraction(1, 2)
    with pytest.raises(DegenkitError):
        intersection_multiplicity(0, 1)


def _vertex(g=0, w=()):
    return Vertex(g, CurveClass(dict(w)))


def test_total_genus_single_vertex():
    graph = ModularGraph(vertices=(_vertex(2),))
    assert total_genus(graph) == 2


def test_total_genus_tree():
    graph = ModularGraph(vertices=(_vertex(0), _vertex(0)), edges=((0, 1),))
    assert total_genus(graph) == 0


def test_total_genus_two_vertices_two_edges():
    graph = ModularGraph(vertices=(_vertex(1), _vertex(1)), edges=((0, 1), (0, 1)))
    # independent Euler-characteristic cross-check: b1 = E - V + components
    b1 = 2 - 2 + 1
    assert total_genus(graph) == 1 + 1 + b1
    assert total_genus(graph) == 3


def test_total_genus_empty_graph_errors():
    with pytest.raises(DegenkitError):
        total_genus(ModularGraph(vertices=()))


def test_total_weight_empty_and_sum():
    assert total_weight(ModularGraph(vertices=())).is_zero()
    graph = ModularGraph(vertices=(_vertex(0, {"a": 1}), _vertex(0, {"a": 2, "b": 1})))
    assert total_weight(graph).as_dict() == {"a": 3, "b": 1}


def test_labels_unique_across_graph():
    with pytest.raises(DegenkitError):
        ModularGraph(
            vertices=(_vertex(),),
            legs=(Leg(1, 1, 0),),
            roots=(Root(1, 1, 1, 0),),
        )


def test_glue_single_root():
    xi1 = ModularGraph(vertices=(_vertex(0, {"a": 1}),), roots=(Root(5, 1, 2, 0),))
    xi2 = ModularGraph(vertices=(_vertex(1, {"c": 1}),), roots=(Root(5, 1, 2, 0),))
    glued = glue(xi1, xi2)
    assert len(glued.vertices) == 2
    assert glued.edges == ((0, 1),)
    assert glued.roots == ()
    assert total_genus(glued) == 1


def test_glue_two_roots_gains_genus():
    xi1 = ModularGraph(
        vertices=(_vertex(0),), roots=(Root(5, 1, 1, 0), Root(6, 2, 3, 0))
    )
    xi2 = ModularGraph(
        vertices=(_vertex(0),), roots=(Root(5, 1, 1, 0), Root(6, 2, 3, 0))
    )
    glued = glue(xi1, xi2)
    assert total_genus(glued) == 1


def test_glue_contact_mismatch():
    xi1 = ModularGraph(vertices=(_vertex(),), roots=(Root(5, 1, 1, 0),))
    xi2 = ModularGraph(vertices=(_vertex(),), roots=(Root(5, 1, 2, 0),))
    with pytest.raises(GluingError):
        glue(xi1, xi2)


def test_glue_label_mismatch():
    xi1 = ModularGraph(vertices=(_vertex(),), roots=(Root(5, 1, 1, 0),))
    xi2 = ModularGraph(vertices=(_vertex(),), roots=(Root(6, 1, 1, 0),))
    with pytest.raises(GluingError):
        glue(xi1, xi2)


def _permuted(graph: ModularGraph, perm) -> ModularGraph:
    inv = {old: new for new, old in enumerate(perm)}
    return ModularGraph(
        vertices=tuple(graph.vertices[v] for v in perm),
        edges=tuple((inv[a], inv[b]) for a, b in graph.edges),
        legs=tuple(Leg(l.label, l.e, inv[l.vertex]) for l in graph.legs),
        roots=tuple(Root(r.label, r.f, r.c, inv[r.vertex]) for r in graph.roots),
    )


def test_canonical_form_relabeling_invariance():
    graph = ModularGraph(
        vertices=(_vertex(0, {"a": 1}), _vertex(1), _vertex(2)),
        edges=((0, 1), (1, 2)),
        legs=(Leg(1, 1, 0),),
        roots=(Root(7, 2, 3, 2),),
    )
    base = canonical_form(graph)
    for perm in itertools.permutations(range(3)):
        assert canonical_form(_permuted(graph, perm)) == base


def test_canonical_form_distinguishes_genus():
    g1 = ModularGraph(vertices=(_vertex(0), _vertex(1)), edges=((0, 1),))
    g2 = ModularGraph(vertices=(_vertex(0), _vertex(2)), edges=((0, 1),))
    assert canonical_form(g1) != canonical_form(g2)


def test_canonical_form_cap_raises_scale_error():
    # nine indistinguishable vertices allow 9! > 40,320 orderings
    graph = ModularGraph(vertices=tuple(_vertex(0) for _ in range(9)))
    with pytest.raises(ScaleError, match="indistinguishable"):
        canonical_form(graph)


def _random_graph(rng: random.Random, nv: int) -> ModularGraph:
    vertices = tuple(
        _vertex(rng.randint(0, 2), {"a": rng.randint(0, 2)}) for _ in range(nv)
    )
    edges = tuple(
        (rng.randrange(nv), rng.randrange(nv)) for _ in range(rng.randint(0, nv))
    )
    legs = []
    roots = []
    label = 1
    for _ in range(rng.randint(0, 2)):
        legs.append(Leg(label, rng.randint(1, 2), rng.randrange(nv)))
        label += 1
    for _ in range(rng.randint(0, 2)):
        roots.append(Root(label, rng.randint(1, 2), rng.randint(1, 3), rng.randrange(nv)))
        label += 1
    return ModularGraph(vertices, edges, tuple(legs), tuple(roots))


def test_canonical_form_is_complete_invariant_brute_force():
    rng = random.Random(42)
    for _ in range(40):
        nv = rng.randint(2, 5)
        graph = _random_graph(rng, nv)
        base = canonical_form(graph)
        forms = {
            canonical_form(_permuted(graph, perm))
            for perm in itertools.permutations(range(nv))
        }
        assert forms == {base}


def test_canonical_form_separates_nonisomorphic_random_pairs():
    rng = random.Random(11)
    graphs = [_random_graph(rng, rng.randint(2, 4)) for _ in range(30)]
    for g1 in graphs:
        for g2 in graphs:
            nv1, nv2 = len(g1.vertices), len(g2.vertices)
            iso = False
            if nv1 == nv2:
                # both builders list legs and roots in label order, so plain
                # field equality after a vertex permutation is isomorphism
                iso = any(
                    _permuted(g1, perm) == g2
                    for perm in itertools.permutations(range(nv1))
                )
            same_form = canonical_form(g1) == canonical_form(g2)
            assert same_form == iso


def _tied_graph(rng: random.Random, nv: int) -> ModularGraph:
    """A graph whose vertices mostly share (genus, weight), with edges,
    loops, and legs and roots on a few of them."""
    vertices = tuple(
        _vertex(rng.choice((0, 0, 1)), {"a": rng.choice((0, 0, 1))}) for _ in range(nv)
    )
    edges = []
    for _ in range(rng.randint(0, nv + 1)):
        a = rng.randrange(nv)
        edges.append((a, a if rng.random() < 0.25 else rng.randrange(nv)))
    labels = rng.sample(range(1, 40), rng.randint(0, 4))
    cut = rng.randint(0, len(labels))
    legs = tuple(Leg(lab, rng.randint(1, 2), rng.randrange(nv)) for lab in labels[:cut])
    roots = tuple(
        Root(lab, rng.randint(1, 2), rng.randint(1, 3), rng.randrange(nv))
        for lab in labels[cut:]
    )
    return ModularGraph(vertices, tuple(edges), legs, roots)


def _side_graph(rng: random.Random, nv: int) -> ModularGraph:
    """An edge-free graph shaped like a splitting side: every vertex has a
    root, legs on some vertices, and weights over escaped generator ids."""
    ids = ("a", "line1", 'a"b', "é")
    vertices = tuple(
        _vertex(rng.choice((0, 0, 1)), {gid: rng.randint(1, 3) for gid in rng.sample(ids, 2)})
        for _ in range(nv)
    )
    labels = rng.sample(range(1, 40), 2 * nv + 3)
    owners = list(range(nv)) + [rng.randrange(nv) for _ in range(rng.randint(0, nv))]
    rng.shuffle(owners)
    roots = tuple(
        Root(lab, rng.randint(1, 2), rng.randint(1, 3), v) for lab, v in zip(labels, owners)
    )
    legs = tuple(
        Leg(lab, rng.randint(1, 2), rng.randrange(nv))
        for lab in labels[len(owners):][: rng.randint(0, 3)]
    )
    return ModularGraph(vertices, (), legs, roots)


def test_canonical_form_matches_the_reference_bytes():
    rng = random.Random(5)
    for _ in range(200):
        graph = _tied_graph(rng, rng.randint(2, 6))
        assert canonical_form(graph) == reference_canonical_form(graph)
    # edge-free graphs of the shape of splitting sides
    for _ in range(200):
        graph = _side_graph(rng, rng.randint(1, 6))
        assert canonical_form(graph) == reference_canonical_form(graph)
    # exactly 8! = 40,320 orderings of tied vertices are still tried
    graph = ModularGraph(vertices=tuple(_vertex(0) for _ in range(8)), edges=((0, 0),))
    assert canonical_form(graph) == reference_canonical_form(graph)


@st.composite
def edge_free_graphs(draw):
    """An edge-free graph of one to six vertices, each of genus 0 or 1 and
    weight 0 or a, so that most tie, with legs and roots of distinct labels
    on some of them."""
    nv = draw(st.integers(1, 6))
    vertices = tuple(
        _vertex(draw(st.integers(0, 1)), {"a": draw(st.integers(0, 1))}) for _ in range(nv)
    )
    labels = draw(st.lists(st.integers(1, 30), max_size=6, unique=True))
    cut = draw(st.integers(0, len(labels)))
    vertex = st.integers(0, nv - 1)
    legs = tuple(Leg(lab, draw(st.integers(1, 2)), draw(vertex)) for lab in labels[:cut])
    roots = tuple(
        Root(lab, draw(st.integers(1, 2)), draw(st.integers(1, 3)), draw(vertex))
        for lab in labels[cut:]
    )
    return ModularGraph(vertices, (), legs, roots)


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(edge_free_graphs())
def test_canonical_form_of_an_edge_free_graph_is_its_sorted_rows(graph):
    # without edges, no order of tied vertices changes the text, so the
    # text of the sorted vertex rows, which Splitting.canonical_pair writes,
    # is the canonical form
    assert canonical_form(graph) == keyed_form(sorted(vertex_keys(graph)))


@pytest.mark.parametrize("sizes", [(9,), (7, 2, 2, 2, 2), (6, 4, 3)])
def test_canonical_form_scale_error_threshold_matches_the_reference(sizes):
    # each group of tied vertices has its own genus; every product of the
    # groups' factorials here exceeds 40,320
    vertices = tuple(_vertex(g) for g, n in enumerate(sizes) for _ in range(n))
    graph = ModularGraph(vertices=vertices)
    for form in (canonical_form, reference_canonical_form):
        with pytest.raises(ScaleError, match="indistinguishable"):
            form(graph)


def test_canonical_round_trip():
    graph = ModularGraph(
        vertices=(_vertex(1, {"a": 2}), _vertex(0)),
        edges=((0, 1), (1, 1)),
        legs=(Leg(3, 2, 0),),
        roots=(Root(9, 4, 2, 1),),
    )
    blob = canonical_form(graph)
    again = graph_from_canonical(blob)
    assert canonical_form(again) == blob


def test_rank_relabeled_preserves_order():
    graph = ModularGraph(
        vertices=(_vertex(),),
        legs=(Leg(4, 1, 0), Leg(9, 2, 0)),
        roots=(Root(12, 1, 1, 0), Root(20, 2, 2, 0)),
    )
    ranked = rank_relabeled(graph)
    assert ranked.leg_labels() == (1, 2)
    assert ranked.root_labels() == (3, 4)
    assert ranked.root_by_label(3).c == 1
    assert ranked.root_by_label(4).c == 2


def test_weight_and_degree_additive_under_glue():
    xi1 = ModularGraph(vertices=(_vertex(0, {"a": 2}),), roots=(Root(5, 2, 1, 0),))
    xi2 = ModularGraph(vertices=(_vertex(0, {"c": 1}),), roots=(Root(5, 2, 1, 0),))
    glued = glue(xi1, xi2)
    assert total_weight(glued) == total_weight(xi1) + total_weight(xi2)
    assert d_degree(total_weight(glued), MONOID) == d_degree(
        total_weight(xi1), MONOID
    ) + d_degree(total_weight(xi2), MONOID)


@st.composite
def one_vertex_data(draw):
    """Genus, weight over up to three generator ids (some escaped in JSON),
    leg indices and root (f, c) pairs of a one-vertex graph."""
    ids = draw(st.lists(st.sampled_from(["a", "line1", 'a"b', "é", "b\\c"]),
                        max_size=3, unique=True))
    weight = {gid: draw(st.integers(1, 5)) for gid in ids}
    leg_e = draw(st.lists(st.integers(1, 4), max_size=6))
    root_fc = draw(st.lists(st.tuples(st.integers(1, 4), st.integers(1, 6)), max_size=4))
    return draw(st.integers(0, 3)), weight, leg_e, root_fc


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(one_vertex_data())
def test_vertex_form_bytes(data):
    # the direct writer gives the reference canonical form's bytes, which
    # are the bytes of the serialized payload of that graph
    genus, weight, leg_e, root_fc = data
    n = len(leg_e)
    graph = ModularGraph(
        vertices=(Vertex(genus, CurveClass(weight)),),
        legs=tuple(Leg(i, e, 0) for i, e in enumerate(leg_e, 1)),
        roots=tuple(Root(n + i, f, c, 0) for i, (f, c) in enumerate(root_fc, 1)),
    )
    payload = {
        "v": [[genus, list(map(list, CurveClass(weight).exponents))]],
        "e": [],
        "l": [[i, e, 0] for i, e in enumerate(leg_e, 1)],
        "r": [[n + i, f, c, 0] for i, (f, c) in enumerate(root_fc, 1)],
    }
    blob = vertex_form(genus, weight, leg_e, root_fc)
    assert blob == canonical_form(rank_relabeled(graph))
    assert blob == _dump(payload)
    assert vertex_form(genus, CurveClass(weight), leg_e, root_fc) == blob


@pytest.mark.parametrize(
    "args",
    [(-1, {}, [], []), (0, {}, [0], []), (0, {}, [], [(0, 1)]), (0, {}, [], [(1, 0)])],
)
def test_vertex_form_rejects_bad_data(args):
    with pytest.raises(DegenkitError):
        vertex_form(*args)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(one_vertex_data())
def test_vertex_data_inverts_vertex_form(data):
    genus, weight, leg_e, root_fc = data
    blob = vertex_form(genus, weight, leg_e, root_fc)
    assert vertex_data(blob) == (genus, CurveClass(weight), leg_e, root_fc)


def _text(v='[[0,[["a",1]]]]', l="[[1,1,0]]", r="[[2,1,2,0]]", e="[]"):
    """Key bytes in the layout of ``vertex_form``, with these fields."""
    return ('{"e":%s,"l":%s,"r":%s,"v":%s}' % (e, l, r, v)).encode()


def test_vertex_data_reads_the_text_helper():
    # the helper writes vertex_form's bytes, so each refused text below
    # differs from them in one place
    assert _text() == vertex_form(0, {"a": 1}, [1], [(1, 2)])
    assert vertex_data(_text()) == (0, CurveClass({"a": 1}), [1], [(1, 2)])
    escaped = _text(v=r'[[0,[["\u00e9",1]]]]')
    assert vertex_data(escaped) == (0, CurveClass({"é": 1}), [1], [(1, 2)])


@pytest.mark.parametrize(
    "blob",
    [
        pytest.param(_text(v='[[true,[["a",1]]]]'), id="genus-bool"),
        pytest.param(_text(v='[[0,[["a",true]]]]'), id="exponent-bool"),
        pytest.param(_text(l="[[1,true,0]]"), id="leg-e-bool"),
        pytest.param(_text(r="[[2,1,true,0]]"), id="contact-bool"),
        pytest.param(_text(v='[[0.0,[["a",1]]]]'), id="genus-float"),
        pytest.param(_text(v='[[0,[["a",1.0]]]]'), id="exponent-float"),
        pytest.param(_text(r="[[2,1.0,2,0]]"), id="root-f-float"),
        pytest.param(_text(v='[[NaN,[["a",1]]]]'), id="genus-nan"),
        pytest.param(_text(v='[[0,[["a",Infinity]]]]'), id="exponent-infinity"),
        pytest.param(_text(v="[[0,[[1,1]]]]"), id="generator-int"),
        pytest.param(_text(v="[[0,[[true,1]]]]"), id="generator-bool"),
        pytest.param(_text(v="[[0,[[null,1]]]]"), id="generator-null"),
        pytest.param(_text(v="[[0,[[1.5,1]]]]"), id="generator-float"),
        pytest.param(_text(v='[[0,[["a",1],["a",1]]]]'), id="generator-repeated"),
        pytest.param(_text(v='[[0,[["a",1],["a",2]]]]'), id="generator-two-exponents"),
        pytest.param(_text(v='[[0,[["a",0]]]]'), id="exponent-zero"),
        pytest.param(_text(v='[[0,[["a",-1]]]]'), id="exponent-negative"),
        pytest.param(_text(v='[[-1,[["a",1]]]]'), id="genus-negative"),
        pytest.param(_text(l="[[1,0,0]]"), id="leg-e-zero"),
        pytest.param(_text(r="[[2,1,0,0]]"), id="contact-zero"),
        pytest.param(_text(v='[[0,[["é",1]]]]'), id="generator-raw-non-ascii"),
        pytest.param(_text(v=r'[[0,[["\u00E9",1]]]]'), id="generator-escape-upper-case"),
        pytest.param(_text(l="[[2,1,0]]", r="[[1,1,2,0]]"), id="labels-out-of-order"),
        pytest.param(_text(l="[[1,1,1]]"), id="leg-on-vertex-1"),
        pytest.param(_text(e="[[0,0]]"), id="loop"),
        pytest.param(_text(v='[[0,[["a",1]]],[0,[]]]'), id="two-vertices"),
        pytest.param(_text().replace(b",", b", ", 1), id="space"),
        pytest.param(_text() + b"\n", id="trailing-newline"),
        pytest.param(_text().replace(b"{", b'{"x":[],', 1), id="extra-field"),
        pytest.param(_text().replace(b'"e":[],', b""), id="missing-field"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested-100000-deep"),
        pytest.param(b'{"v":' * 100_000 + b"1" + b"}" * 100_000, id="objects-100000-deep"),
        pytest.param(b"\xff" + _text(), id="not-utf-8"),
        pytest.param(b"", id="empty"),
        pytest.param(b"[]", id="list"),
        pytest.param(b'"v"', id="string"),
        pytest.param(b"null", id="null"),
        pytest.param(b'{"v":1,"l":[],"r":[]}', id="v-an-int"),
        pytest.param(b'{"v":["ab"],"l":[],"r":[]}', id="v-a-string"),
        pytest.param(_text(v='[[0,"ab"]]'), id="weight-a-string"),
        pytest.param(_text(v='[[0,{"a":1}]]'), id="weight-an-object"),
        pytest.param(_text(v='[[0,[[["a"],1]]]]'), id="generator-a-list"),
        pytest.param(_text(l='{"abc":1}'), id="legs-an-object"),
        pytest.param(_text(l='[[1,"1",0]]'), id="leg-e-a-string"),
        pytest.param(_text(v='[[' + "9" * 5000 + ',[]]]'), id="genus-5000-digits"),
    ],
)
def test_vertex_data_refuses_other_bytes(blob):
    assert vertex_data(blob) is None


def _bfs_components(count, pairs):
    adjacent = {v: set() for v in range(count)}
    for a, b in pairs:
        adjacent[a].add(b)
        adjacent[b].add(a)
    seen, out = set(), []
    for v in range(count):
        if v in seen:
            continue
        seen.add(v)
        comp, queue = [], [v]
        while queue:
            x = queue.pop(0)
            comp.append(x)
            for y in adjacent[x] - seen:
                seen.add(y)
                queue.append(y)
        out.append(sorted(comp))
    return out


def test_components_against_breadth_first_search():
    rng = random.Random(14)
    for _ in range(600):
        count = rng.randint(0, 8)
        pairs = []
        if count:
            pairs = [
                (rng.randrange(count), rng.randrange(count))
                for _ in range(rng.randint(0, 10))
            ]
            pairs += [(v, v) for v in rng.sample(range(count), rng.randint(0, count))]
            pairs += rng.sample(pairs, rng.randint(0, len(pairs)))  # repeated pairs
            rng.shuffle(pairs)
        assert components(count, pairs) == _bfs_components(count, pairs)
