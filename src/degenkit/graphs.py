"""Curve-class monoid and decorated graphs: vertices carry (genus, weight),
legs carry an index e, roots carry an index f and a contact order c."""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenkitError, GluingError, ScaleError


@dataclass(frozen=True)
class Generator:
    id: str
    component: str  # "X1" or "X2"
    d_degree: Fraction

    def __post_init__(self):
        if self.component not in ("X1", "X2"):
            raise DegenkitError("generator component must be 'X1' or 'X2'")
        object.__setattr__(self, "d_degree", Fraction(self.d_degree))
        if self.d_degree < 0:
            raise DegenkitError("generator d_degree must be nonnegative")


@dataclass(frozen=True)
class CurveClassMonoid:
    """Free commutative monoid on tagged generators.

    Each generator is tagged with the component it lives on and its
    intersection number with the divisor there; classes supported on
    X1-tagged (resp. X2-tagged) generators form the two submonoids.
    """

    generators: tuple[Generator, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        ids = [g.id for g in self.generators]
        if len(set(ids)) != len(ids):
            raise DegenkitError("duplicate generator ids")

    def generator(self, gid: str) -> Generator:
        for g in self.generators:
            if g.id == gid:
                return g
        raise DegenkitError("unknown generator %r" % gid)

    def check_supported(self, cls: "CurveClass"):
        known = {g.id for g in self.generators}
        for gid in cls.support():
            if gid not in known:
                raise DegenkitError("curve class uses unknown generator %r" % gid)

    def split(self, cls: "CurveClass") -> tuple["CurveClass", "CurveClass"]:
        """X1-part and X2-part of a class (the coproduct decomposition)."""
        self.check_supported(cls)
        tags = {g.id: g.component for g in self.generators}
        part1 = {g: e for g, e in cls.items() if tags[g] == "X1"}
        part2 = {g: e for g, e in cls.items() if tags[g] == "X2"}
        return CurveClass(part1), CurveClass(part2)


@dataclass(frozen=True)
class CurveClass:
    """Finitely supported exponent vector over generator ids."""

    exponents: tuple[tuple[str, int], ...]

    def __init__(self, exponents=()):
        if isinstance(exponents, CurveClass):
            exponents = exponents.exponents
        items = dict(exponents)
        for gid, e in items.items():
            if int(e) != e or e < 0:
                raise DegenkitError("exponent of %r must be a nonnegative integer" % gid)
        norm = tuple(sorted((g, int(e)) for g, e in items.items() if e))
        object.__setattr__(self, "exponents", norm)

    def items(self):
        return self.exponents

    def support(self):
        return tuple(g for g, _ in self.exponents)

    def __getitem__(self, gid: str) -> int:
        return dict(self.exponents).get(gid, 0)

    def __add__(self, other: "CurveClass") -> "CurveClass":
        out = dict(self.exponents)
        for g, e in other.exponents:
            out[g] = out.get(g, 0) + e
        return CurveClass(out)

    def is_zero(self) -> bool:
        return not self.exponents

    def as_dict(self) -> dict[str, int]:
        return dict(self.exponents)


ZERO_CLASS = CurveClass()


def d_degree(beta: CurveClass, monoid: CurveClassMonoid) -> Fraction:
    """Pairing of a class with the divisor: sum of exponent * generator degree."""
    monoid.check_supported(beta)
    total = Fraction(0)
    for gid, e in beta.items():
        total += e * monoid.generator(gid).d_degree
    return total


def intersection_multiplicity(f: int, c: int) -> Fraction:
    """d = c/f, the coarse intersection number at an index-f point."""
    if f < 1 or c < 1:
        raise DegenkitError("index and contact order must be positive")
    return Fraction(c, f)


@dataclass(frozen=True)
class Vertex:
    genus: int
    weight: CurveClass

    def __post_init__(self):
        if self.genus < 0:
            raise DegenkitError("vertex genus must be nonnegative")
        object.__setattr__(self, "weight", CurveClass(self.weight))


@dataclass(frozen=True)
class Leg:
    label: int
    e: int
    vertex: int

    def __post_init__(self):
        if self.e < 1:
            raise DegenkitError("leg index e must be positive")


@dataclass(frozen=True)
class Root:
    label: int
    f: int
    c: int
    vertex: int

    def __post_init__(self):
        if self.f < 1 or self.c < 1:
            raise DegenkitError("root index f and contact order c must be positive")

    @property
    def multiplicity(self) -> Fraction:
        return intersection_multiplicity(self.f, self.c)


def components(count: int, pairs) -> list[list[int]]:
    """The connected components of the nodes 0..count-1 joined by ``pairs``,
    each sorted, in order of their least node."""
    parent = list(range(count))
    for a, b in pairs:
        # find both roots, halving the paths on the way, and join them
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        parent[a] = b
    comps: dict[int, list[int]] = {}
    for v in range(count):
        root = v
        while parent[root] != root:
            root = parent[root]
        comps.setdefault(root, []).append(v)
    return list(comps.values())


@dataclass(frozen=True)
class ModularGraph:
    """May be disconnected or empty; loops and parallel edges are allowed."""

    vertices: tuple[Vertex, ...]
    edges: tuple[tuple[int, int], ...] = ()
    legs: tuple[Leg, ...] = ()
    roots: tuple[Root, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        norm_edges = tuple(
            sorted((min(a, b), max(a, b)) for a, b in self.edges)
        )
        object.__setattr__(self, "edges", norm_edges)
        object.__setattr__(self, "legs", tuple(self.legs))
        object.__setattr__(self, "roots", tuple(self.roots))
        nv = len(self.vertices)
        for a, b in self.edges:
            if not (0 <= a < nv and 0 <= b < nv):
                raise DegenkitError("edge endpoint out of range")
        for x in self.legs + self.roots:
            if not 0 <= x.vertex < nv:
                raise DegenkitError("marking attached to missing vertex")
        labels = [l.label for l in self.legs] + [r.label for r in self.roots]
        if len(set(labels)) != len(labels):
            raise DegenkitError("leg/root labels must be unique across the graph")

    # -- basic invariants ---------------------------------------------------

    def leg_labels(self) -> tuple[int, ...]:
        return tuple(sorted(l.label for l in self.legs))

    def root_labels(self) -> tuple[int, ...]:
        return tuple(sorted(r.label for r in self.roots))

    def root_by_label(self, label: int) -> Root:
        for r in self.roots:
            if r.label == label:
                return r
        raise DegenkitError("no root labeled %r" % label)

    def legs_of_vertex(self, v: int) -> tuple[Leg, ...]:
        return tuple(sorted((l for l in self.legs if l.vertex == v), key=lambda l: l.label))

    def roots_of_vertex(self, v: int) -> tuple[Root, ...]:
        return tuple(sorted((r for r in self.roots if r.vertex == v), key=lambda r: r.label))

    def component_partition(self) -> list[list[int]]:
        return components(len(self.vertices), self.edges)

    def is_connected(self) -> bool:
        return len(self.component_partition()) == 1

    def subgraph(self, vertex_ids: list[int]) -> "ModularGraph":
        order = {v: i for i, v in enumerate(sorted(vertex_ids))}
        return ModularGraph(
            vertices=tuple(self.vertices[v] for v in sorted(vertex_ids)),
            edges=tuple(
                (order[a], order[b]) for a, b in self.edges if a in order and b in order
            ),
            legs=tuple(
                Leg(l.label, l.e, order[l.vertex]) for l in self.legs if l.vertex in order
            ),
            roots=tuple(
                Root(r.label, r.f, r.c, order[r.vertex])
                for r in self.roots
                if r.vertex in order
            ),
        )


def total_genus(graph: ModularGraph) -> int:
    """Genus solving 2g - 2 = sum(2 g(v) - 2) + 2 #E.

    For disconnected graphs this evaluates to sum g(v) + #E - #V + 1, which
    can be negative.
    """
    if not graph.vertices:
        raise DegenkitError("total genus of the empty graph is undefined")
    return sum(v.genus for v in graph.vertices) + len(graph.edges) - len(graph.vertices) + 1


def total_weight(graph: ModularGraph) -> CurveClass:
    out = ZERO_CLASS
    for v in graph.vertices:
        out = out + v.weight
    return out


def glue(xi1: ModularGraph, xi2: ModularGraph) -> ModularGraph:
    """Join the two sides along equally-labeled roots, one edge per label."""
    labels1, labels2 = xi1.root_labels(), xi2.root_labels()
    if labels1 != labels2:
        raise GluingError(
            "root label sets differ: %s vs %s" % (labels1, labels2)
        )
    for lab in labels1:
        r1, r2 = xi1.root_by_label(lab), xi2.root_by_label(lab)
        if (r1.f, r1.c) != (r2.f, r2.c):
            raise GluingError(
                "root %r carries (f,c)=(%d,%d) on one side and (%d,%d) on the other"
                % (lab, r1.f, r1.c, r2.f, r2.c)
            )
    shift = len(xi1.vertices)
    vertices = xi1.vertices + xi2.vertices
    edges = list(xi1.edges)
    edges += [(a + shift, b + shift) for a, b in xi2.edges]
    for lab in labels1:
        edges.append((xi1.root_by_label(lab).vertex, xi2.root_by_label(lab).vertex + shift))
    legs = list(xi1.legs) + [Leg(l.label, l.e, l.vertex + shift) for l in xi2.legs]
    return ModularGraph(vertices=vertices, edges=tuple(edges), legs=tuple(legs), roots=())


# -- canonical forms ---------------------------------------------------------


def _serialize(graph: ModularGraph, order: list[int]) -> bytes:
    pos = {v: i for i, v in enumerate(order)}
    payload = {
        "v": [
            [graph.vertices[v].genus, list(map(list, graph.vertices[v].weight.exponents))]
            for v in order
        ],
        "e": sorted(
            sorted((pos[a], pos[b])) for a, b in graph.edges
        ),
        "l": sorted([l.label, l.e, pos[l.vertex]] for l in graph.legs),
        "r": sorted([r.label, r.f, r.c, pos[r.vertex]] for r in graph.roots),
    }
    return _dump(payload)


def _dump(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def vertex_form(genus: int, weight, leg_e, root_fc) -> bytes:
    """``canonical_form(rank_relabeled(graph))`` of a one-vertex graph,
    without building the graph.

    The vertex has the given genus and weight; its legs have the indices
    ``leg_e`` and are labeled 1..n in that order, its roots have the
    (f, c) pairs ``root_fc`` and are labeled n+1..n+k.  A single vertex
    leaves no tie to break, so the bytes are written straight from the ints
    in the layout of ``_dump``; only the generator ids go through
    ``json.dumps``, which escapes them as ``_dump`` does.
    """
    if genus < 0:
        raise DegenkitError("vertex genus must be nonnegative")
    if any(e < 1 for e in leg_e):
        raise DegenkitError("leg index e must be positive")
    if any(f < 1 or c < 1 for f, c in root_fc):
        raise DegenkitError("root index f and contact order c must be positive")
    legs = ",".join(["[%d,%d,0]" % leg for leg in enumerate(leg_e, 1)])
    roots = ",".join(
        ["[%d,%d,%d,0]" % (i, f, c) for i, (f, c) in enumerate(root_fc, len(leg_e) + 1)]
    )
    if not isinstance(weight, CurveClass):
        weight = CurveClass(weight)
    exponents = ",".join(["[%s,%d]" % (json.dumps(gid), e) for gid, e in weight.exponents])
    text = '{"e":[],"l":[%s],"r":[%s],"v":[[%d,[%s]]]}' % (legs, roots, genus, exponents)
    return text.encode()


def vertex_data(blob: bytes):
    """The inverse of ``vertex_form``: the (genus, weight, leg indices, root
    (f, c) pairs) for which it writes exactly ``blob``, with string generator
    ids, or None when there are none.  It never raises, whatever the text."""
    try:
        data = json.loads(blob)
        ((genus, pairs),) = data["v"]
        leg_e = [e for _, e, _ in data["l"]]
        found = genus, CurveClass(pairs), leg_e, [(f, c) for _, f, c, _ in data["r"]]
        if vertex_form(*found) == blob and all(isinstance(gid, str) for gid, _ in pairs):
            return found
    except (ValueError, TypeError, KeyError, ArithmeticError, RecursionError, DegenkitError):
        pass
    return None


def canonical_form(graph: ModularGraph) -> bytes:
    """Byte string equal for two graphs iff they are isomorphic respecting
    every label, index, contact order, genus and weight.

    Vertices are ordered by (incident labels, genus, weight), a key built
    once per vertex in one pass over the legs and roots; marked vertices
    are pinned by their unique labels, and any remaining ties are broken by
    taking the lexicographically least serialization over permutations
    within tied groups; above 40,320 such orderings it raises ScaleError.
    """
    legs: list[list] = [[] for _ in graph.vertices]
    roots: list[list] = [[] for _ in graph.vertices]
    for l in graph.legs:
        legs[l.vertex].append((l.label, l.e))
    for r in graph.roots:
        roots[r.vertex].append((r.label, r.f, r.c))
    # labels are unique, so sorting the tuples sorts by label
    keys = [
        (tuple(sorted(legs[v])), tuple(sorted(roots[v])), vx.genus, vx.weight.exponents)
        for v, vx in enumerate(graph.vertices)
    ]
    keyed = sorted(range(len(keys)), key=keys.__getitem__)
    groups: list[list[int]] = []
    for v in keyed:
        if groups and keys[groups[-1][0]] == keys[v]:
            groups[-1].append(v)
        else:
            groups.append([v])
    ambiguous = [g for g in groups if len(g) > 1]
    if not ambiguous:
        return _serialize(graph, keyed)
    count = 1
    for g in ambiguous:
        count *= math.factorial(len(g))
        if count > 40320:
            raise ScaleError("too many indistinguishable vertices to canonicalize")
    best = None
    for perm_choice in itertools.product(
        *[itertools.permutations(g) for g in groups]
    ):
        order = [v for block in perm_choice for v in block]
        blob = _serialize(graph, order)
        if best is None or blob < best:
            best = blob
    return best


def canonical_json(graph: ModularGraph) -> str:
    return canonical_form(graph).decode()


def graph_from_canonical(blob: str | bytes) -> ModularGraph:
    data = json.loads(blob if isinstance(blob, str) else blob.decode())
    return ModularGraph(
        vertices=tuple(Vertex(g, CurveClass(dict((k, v) for k, v in w))) for g, w in data["v"]),
        edges=tuple((a, b) for a, b in data["e"]),
        legs=tuple(Leg(lab, e, v) for lab, e, v in data["l"]),
        roots=tuple(Root(lab, f, c, v) for lab, f, c, v in data["r"]),
    )


def rank_relabeled(graph: ModularGraph) -> ModularGraph:
    """Relabel legs to 1..n and roots to n+1..n+k preserving label order.

    Order-preserving, so no sign is introduced; used to canonicalize
    correlator keys independently of the ambient label values.
    """
    leg_rank = {lab: i + 1 for i, lab in enumerate(graph.leg_labels())}
    n = len(leg_rank)
    root_rank = {lab: n + i + 1 for i, lab in enumerate(graph.root_labels())}
    return ModularGraph(
        vertices=graph.vertices,
        edges=graph.edges,
        legs=tuple(Leg(leg_rank[l.label], l.e, l.vertex) for l in graph.legs),
        roots=tuple(Root(root_rank[r.label], r.f, r.c, r.vertex) for r in graph.roots),
    )
