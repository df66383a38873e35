"""Enumeration of the splittings indexing the degeneration sum.

A splitting is an ordered pair of edge-free graphs sharing root labels.  The
enumerator walks structures (contact data, root partitions, weights, genera)
first and attaches legs afterwards, each at a vertex position that
``leg_slots`` allows it, so the evaluator can reuse the structure walk and
the one placement rule while aggregating interchangeable legs.
``iter_structures`` walks every labeled structure;
``iter_structure_orbits`` walks one per orbit of the root relabelings, with
the orbit size, for sums that only need each orbit once; ``orbit_runs``
hands the same walk over one skeleton (root data and root blocks) at a
time.

Enumeration branches are independent of each other; the implementation runs
them sequentially and the output order is fixed by a canonical sort, so
results do not depend on traversal order.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .algebra import SectorCatalog
from .errors import DegenkitError, EnumerationBudgetError, ScaleError
from .graphs import (
    CurveClass,
    CurveClassMonoid,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,  # noqa: F401  not called here; bench/tracing.py wraps this name
    components,
    d_degree,
    glue,
    keyed_form,
    vertex_keys,
)


@dataclass(frozen=True)
class LegSpec:
    label: int
    e: int
    side: Optional[str] = None  # force the leg onto "X1" or "X2"

    def __post_init__(self):
        if self.e < 1:
            raise DegenkitError("leg index e must be positive")
        if self.side not in (None, "X1", "X2"):
            raise DegenkitError("leg side constraint must be 'X1', 'X2' or None")


def leg_slots(side: Optional[str], sides: Sequence[str]) -> tuple[int, ...]:
    """The leg-placement rule: the vertex positions a leg constrained to
    ``side`` (None for either side) may sit at, in ascending order.

    ``sides`` gives each vertex's side in the kernel's vertex order, the X1
    blocks and then the X2 blocks of a structure
    (``SplittingStructure.vertex_sides``), so a position indexes that
    order.  Both ``enumerate_splittings`` and the evaluation kernel
    (``correlator._takes``) place legs by this rule alone."""
    return tuple([i for i, s in enumerate(sides) if side in (None, s)])


@dataclass(frozen=True)
class DegenerationProblem:
    """Discrete data of a degeneration: total class, genus, legs, and the
    admissible root data derived from the divisor catalog and a contact bound."""

    monoid: CurveClassMonoid
    genus: int
    legs: tuple[LegSpec, ...]
    beta: CurveClass
    divisor: SectorCatalog
    c_max: int
    ambient: SectorCatalog | None = None
    budget: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "legs", tuple(self.legs))
        object.__setattr__(self, "beta", CurveClass(self.beta))
        if self.genus < 0:
            raise DegenkitError("genus must be nonnegative")
        if self.c_max < 1:
            raise DegenkitError("c_max must be >= 1")
        if self.budget is not None and self.budget < 0:
            raise DegenkitError("budget must be nonnegative, got %d" % self.budget)
        labels = [l.label for l in self.legs]
        if len(set(labels)) != len(labels):
            raise DegenkitError("duplicate leg labels")
        self.monoid.check_supported(self.beta)

    def root_data(self) -> tuple[tuple[int, int], ...]:
        """Admissible (index f, contact order c) pairs."""
        return tuple(
            (f, c)
            for f in self.divisor.band_orders()
            for c in range(1, self.c_max + 1)
        )

    def leg_labels(self) -> tuple[int, ...]:
        return tuple(sorted(l.label for l in self.legs))


@dataclass(frozen=True)
class Splitting:
    """Ordered pair of rooted graphs; gluing along m_labels rebuilds the
    degeneration data.  Sides are never swapped."""

    xi1: ModularGraph
    xi2: ModularGraph
    m_labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "m_labels", tuple(self.m_labels))
        if self.xi1.edges or self.xi2.edges:
            raise DegenkitError("splitting sides must have no edges")
        if self.xi1.root_labels() != self.m_labels or self.xi2.root_labels() != self.m_labels:
            raise DegenkitError("both sides must carry exactly the shared root labels")
        fc1 = {r.label: (r.f, r.c) for r in self.xi1.roots}
        if any(fc1[r.label] != (r.f, r.c) for r in self.xi2.roots):
            raise DegenkitError("matched roots must agree in (f, c)")
        if self.m_labels:
            for side in (self.xi1, self.xi2):
                # root vertices are in range, so this holds iff each has a root
                if len({r.vertex for r in side.roots}) != len(side.vertices):
                    raise DegenkitError(
                        "every vertex must touch a root when M is nonempty"
                    )

    def contacts(self) -> tuple[int, ...]:
        return tuple(self.xi1.root_by_label(lab).c for lab in self.m_labels)

    def indices(self) -> tuple[int, ...]:
        return tuple(self.xi1.root_by_label(lab).f for lab in self.m_labels)

    def glued(self) -> ModularGraph:
        return glue(self.xi1, self.xi2)

    def vertex_rows(self) -> tuple[tuple, tuple]:
        """Each side's vertex rows (``graphs.vertex_keys``: legs, roots,
        genus, weight exponents) in ascending order, worked out on the first
        call and kept on the instance.  The sides have no edges, so the
        sorted rows are a complete isomorphism invariant of the pair, even
        where vertices tie: two splittings are the same up to vertex order
        exactly when their rows are equal.  The attribute is not a field, so
        equality and hashing ignore it.

        Each row is the vertex's legs joined to the rest of its row
        (``_leg_free_rows``).  A splitting built from a structure takes that
        rest from the structure's leg-free splitting
        (``SplittingStructure.frame``), so it is worked out once per
        structure and shared by all its splittings."""
        rows = self.__dict__.get("_rows")
        if rows is None:
            bare = self.__dict__.get("_bare", self)
            rows = tuple(
                _sorted_rows(graph, rest)
                for graph, rest in zip((self.xi1, self.xi2), bare._leg_free_rows())
            )
            object.__setattr__(self, "_rows", rows)
        return rows

    def _leg_free_rows(self) -> tuple[list, list]:
        """Each side's vertex rows without their legs, in vertex order: each
        vertex's roots as sorted (label, f, c), genus and weight exponents.
        Kept on the instance, as ``vertex_rows`` is."""
        rest = self.__dict__.get("_rest")
        if rest is None:
            rest = tuple([key[1:] for key in vertex_keys(g)] for g in (self.xi1, self.xi2))
            object.__setattr__(self, "_rest", rest)
        return rest

    def canonical_pair(self) -> tuple[bytes, bytes]:
        """The canonical forms of the two sides, written from the vertex
        rows (``vertex_rows``) by ``graphs.keyed_form`` on the first call
        and kept on the instance; the attribute is not a field, so equality
        and hashing ignore it.  With no edges, no tie between vertices has
        an order to break, so this is ``graphs.canonical_form`` of each
        side.  Nothing writes it unasked: ``enumerate_splittings`` sorts by
        it, and a term breakdown never does."""
        pair = self.__dict__.get("_canonical_pair")
        if pair is None:
            rows1, rows2 = self.vertex_rows()
            pair = keyed_form(rows1), keyed_form(rows2)
            object.__setattr__(self, "_canonical_pair", pair)
        return pair


def _sorted_rows(graph: ModularGraph, rest: list) -> tuple:
    """The sorted ``graphs.vertex_keys`` of ``graph``, each vertex's legs
    joined to ``rest``, the rest of its row (``Splitting._leg_free_rows``)."""
    legs: list[list] = [[] for _ in rest]
    for leg in graph.legs:
        legs[leg.vertex].append((leg.label, leg.e))
    return tuple(sorted([(tuple(sorted(own)),) + tail for own, tail in zip(legs, rest)]))


def _assembled(cls, **attributes):
    """An instance of the frozen dataclass ``cls`` holding ``attributes``
    (its fields, and any attribute kept beside them) as given, without
    running its ``__post_init__``: only for values whose checks have all
    run (``SplittingStructure.build_splitting``), or for a class with none
    (``SplittingStructure`` in ``_decorated_orbits``)."""
    obj = object.__new__(cls)
    obj.__dict__.update(attributes)
    return obj


@dataclass(frozen=True)
class ConditionBReport:
    ok: bool
    failures: tuple[tuple[int, Fraction, Fraction], ...]  # (vertex, expected, actual)

    def __bool__(self) -> bool:
        return self.ok


def meets_condition_B(weight: CurveClass, roots: Sequence[tuple], monoid: CurveClassMonoid) -> bool:
    """Condition B at one vertex: its roots' multiplicities c/f, from tuples
    starting (f, c), sum exactly to the weight's divisor degree."""
    return sum((Fraction(c, f) for f, c, *_ in roots), Fraction(0)) == d_degree(weight, monoid)


def check_condition_B(graph: ModularGraph, monoid: CurveClassMonoid) -> ConditionBReport:
    """``meets_condition_B`` at every vertex, each failure with both sums."""
    if graph.edges:
        raise DegenkitError("condition B applies to edge-free graphs")
    failures = []
    for v, vertex in enumerate(graph.vertices):
        roots = graph.roots_of_vertex(v)
        if not meets_condition_B(vertex.weight, [(r.f, r.c) for r in roots], monoid):
            actual = sum((r.multiplicity for r in roots), Fraction(0))
            failures.append((v, d_degree(vertex.weight, monoid), actual))
    return ConditionBReport(not failures, tuple(failures))


# -- structural enumeration ---------------------------------------------------


@dataclass(frozen=True)
class SplittingStructure:
    """A splitting with legs not yet attached.

    Blocks are the root labels of each prospective vertex, each block in
    ascending order and the blocks of a side in the order ``set_partitions``
    gives them (by greatest label); the one-vertex empty-M sides use a
    single empty block.  That order fixes the vertex order of the labeled
    walk, and so the byte order of term breakdowns.  It is a convention of
    the walk, not data: structures are compared up to relabeling by each
    side's set of (block, weight, genus).
    """

    m_labels: tuple[int, ...]
    root_data: tuple[tuple[int, int], ...]  # (f, c) aligned with m_labels
    blocks1: tuple[tuple[int, ...], ...]
    weights1: tuple[CurveClass, ...]
    genera1: tuple[int, ...]
    blocks2: tuple[tuple[int, ...], ...]
    weights2: tuple[CurveClass, ...]
    genera2: tuple[int, ...]

    def frame(self) -> tuple[Splitting, frozenset]:
        """The structure as a splitting with no legs, and the set of its
        root labels, built on the first call and kept on the instance, as
        ``Splitting.canonical_pair`` is: every splitting built from the
        structure shares its vertices and roots.  The attribute is not a
        field, so equality and hashing ignore it.

        The checks that read the structure alone run here, once: the sides
        are built by ``ModularGraph`` and paired by ``Splitting``, whose
        constructors check that there are no edges, that every root sits on
        a vertex, that root labels are unique, that both sides carry the
        same root labels with the same (f, c), and that every vertex has a
        root when M is nonempty.  A leg changes none of these."""
        frame = self.__dict__.get("_frame")
        if frame is None:
            fc_of = dict(zip(self.m_labels, self.root_data))

            def side(blocks, weights, genera) -> ModularGraph:
                roots = [Root(lab, *fc_of[lab], vi) for vi, block in enumerate(blocks) for lab in block]
                return ModularGraph(
                    tuple(map(Vertex, genera, weights)),
                    roots=tuple(sorted(roots, key=lambda r: r.label)),
                )

            bare = Splitting(
                side(self.blocks1, self.weights1, self.genera1),
                side(self.blocks2, self.weights2, self.genera2),
                self.m_labels,
            )
            frame = bare, frozenset(bare.m_labels)
            object.__setattr__(self, "_frame", frame)
        return frame

    def vertex_sides(self) -> tuple[str, ...]:
        """Each vertex's side in the vertex order of leg positions
        (``leg_slots``): the X1 blocks, then the X2 blocks."""
        return ("X1",) * len(self.blocks1) + ("X2",) * len(self.blocks2)

    def build_splitting(self, positions: dict[int, int], legs: Sequence[LegSpec]) -> Splitting:
        """Materialize with legs placed via {label: vertex position}.

        Positions follow ``vertex_sides``: the X1 blocks, then the X2
        blocks.  The vertices and roots are the structure's own, built and
        checked once (``frame``); only the legs are built per call, and
        only their checks run per call: each position is in range, each
        index e is positive (``Leg``) and no leg label is a root label.
        With those, every check of ``ModularGraph`` and ``Splitting`` holds,
        so the graphs and the splitting are put together without running
        their constructors' checks again.  The splitting keeps the leg-free
        one of ``frame``, whose rows its own are made from
        (``Splitting.vertex_rows``); no vertex rows or canonical text are
        worked out here, only when asked for (``Splitting.canonical_pair``)."""
        bare, m_set = self.frame()
        xi1, xi2 = bare.xi1, bare.xi2
        e_of = {l.label: l.e for l in legs}
        start2 = len(xi1.vertices)
        end = start2 + len(xi2.vertices)
        legs1: list[Leg] = []
        legs2: list[Leg] = []
        for lab, p in sorted(positions.items()):
            if not 0 <= p < end:
                raise DegenkitError("marking attached to missing vertex")
            if lab in m_set:
                raise DegenkitError(_SHARED_LABELS)
            if p < start2:
                legs1.append(Leg(lab, e_of[lab], p))
            else:
                legs2.append(Leg(lab, e_of[lab], p - start2))
        return _assembled(
            Splitting,
            xi1=_assembled(
                ModularGraph, vertices=xi1.vertices, edges=(), legs=tuple(legs1), roots=xi1.roots
            ),
            xi2=_assembled(
                ModularGraph, vertices=xi2.vertices, edges=(), legs=tuple(legs2), roots=xi2.roots
            ),
            m_labels=bare.m_labels,
            _bare=bare,
        )


def set_partitions(items: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions into nonempty blocks.

    Each block is sorted, and the blocks are ordered by their greatest
    element: ``set_partitions((5, 6, 7))`` yields ``((6,), (5, 7))``.
    """
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        # first joins an existing block, or opens its own
        for i in range(len(sub)):
            yield tuple(
                tuple(sorted(sub[j] + ((first,) if j == i else ())))
                for j in range(len(sub))
            )
        yield ((first,),) + sub


def weak_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts <= 1:
        # one part holds the whole total, and no parts hold only 0
        if parts or not total:
            yield (total,) * parts
        return
    for head in range(total + 1):
        for tail in weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def _contact_tuples(
    pairs: Sequence[tuple[int, int]],
    mults: Sequence[int],
    m: int,
    target: int,
    multisets: bool = False,
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Ordered (f, c) tuples of length m whose multiplicities sum to target;
    ``mults`` holds each pair's multiplicity c/f in the units of the walk's
    scale (``_root_plan``), so all of it is int.  With ``multisets``, only
    the tuples in the order of ``pairs``, one per multiset."""
    d_min, d_max = min(mults), max(mults)

    def rec(start: int, k: int, remaining: int, acc):
        if k == m:
            if remaining == 0:
                yield tuple(acc)
            return
        left = m - k
        if remaining < left * d_min or remaining > left * d_max:
            return
        for i in range(start, len(pairs)):
            if mults[i] <= remaining:
                acc.append(pairs[i])
                yield from rec(i if multisets else 0, k + 1, remaining - mults[i], acc)
                acc.pop()

    try:
        yield from rec(0, 0, target, [])
    finally:
        # rec refers to itself through its closure; breaking that cycle frees
        # the walk by reference counting, with no garbage collection
        rec = None


def _weight_splits(
    beta: CurveClass,
    degrees: Mapping[str, int],
    targets: Sequence[int],
) -> Iterator[tuple[tuple[tuple[str, int], ...], ...]]:
    """Decompositions of beta into len(targets) classes with the given
    intersection degrees (condition B per prospective vertex), each class
    as its exponent tuple.  ``degrees`` and ``targets`` are in the units of
    the walk's scale (``_root_plan``), so all of it is int."""
    gens = sorted(beta.support())
    k = len(targets)
    if k == 0:
        if beta.is_zero():
            yield ()
        return

    def rec(gi: int, residual_degrees, acc_rows):
        if gi == len(gens):
            if not any(residual_degrees):
                yield tuple(
                    tuple((gens[j], row[i]) for j, row in enumerate(acc_rows) if row[i])
                    for i in range(k)
                )
            return
        exp = beta[gens[gi]]
        deg = degrees[gens[gi]]
        compositions = weak_compositions(exp, k)
        if gi == len(gens) - 1 and deg:
            # the last generator must use up every residual degree
            forced = [divmod(r, deg) for r in residual_degrees]
            if any(rest for _, rest in forced) or sum(q for q, _ in forced) != exp:
                return
            compositions = [tuple(q for q, _ in forced)]
        for comp in compositions:
            new_res = [r - e * deg for r, e in zip(residual_degrees, comp)]
            if min(new_res) < 0:
                continue
            acc_rows.append(comp)
            yield from rec(gi + 1, new_res, acc_rows)
            acc_rows.pop()

    try:
        yield from rec(0, list(targets), [])
    finally:
        rec = None  # as in _contact_tuples


def _blocks_connected(blocks1, blocks2) -> bool:
    """Bipartite connectivity of the prospective glued graph, whose nodes
    are the X1 blocks, then the X2 blocks, joined by shared labels."""
    blocks = blocks1 + blocks2
    first: dict = {}
    pairs = [
        (first.setdefault(lab, node), node) for node, b in enumerate(blocks) for lab in b
    ]
    return len(components(len(blocks), pairs)) == 1


class _Budget:
    def __init__(self, limit: Optional[int]):
        self.limit = limit
        self.visited = 0

    def tick(self):
        self.visited += 1
        if self.limit is not None and self.visited > self.limit:
            raise EnumerationBudgetError(
                "enumeration budget of %d nodes exceeded" % self.limit, visited=self.visited
            )

    def advance(self, nodes: int):
        """``nodes`` ticks at once, for a replay (``_kept``): it stops with
        the count ticking them one by one would stop with."""
        if nodes and self.limit is not None and self.visited + nodes > self.limit:
            self.visited = max(self.visited, self.limit)
            self.tick()
        self.visited += nodes


def _effective_budget(problem: DegenerationProblem) -> Optional[int]:
    if problem.budget is not None:
        return problem.budget
    env = os.environ.get("DEGENKIT_BUDGET", "").strip()
    if not env:
        return None
    try:
        budget = int(env)
    except ValueError:
        raise DegenkitError("DEGENKIT_BUDGET must be an integer, got %r" % env) from None
    if budget < 0:
        raise DegenkitError("DEGENKIT_BUDGET must be nonnegative, got %r" % env)
    return budget


def _kept(store: dict, key, walk: Iterator, budget: _Budget):
    """The items of ``walk``, a walk that ticks ``budget``, done once per
    ``key`` of ``store``.

    A completed walk is kept in ``store`` under ``key``: its items, each
    with the nodes ticked since the one before (not counting the consumer's
    ticks in between), and the nodes ticked after the last.  A later call
    with that key leaves ``walk`` unstarted and replays the items, ticking
    the same counts in the same order (``_Budget.advance``), so the budget
    counts the same nodes and stops at the same one.  A walk cut short, by
    the budget or by its consumer, keeps nothing.
    """
    kept = store.get(key)
    if kept is None:
        items, start = [], budget.visited
        for item in walk:
            items.append((budget.visited - start, item))
            yield item
            start = budget.visited
        store[key] = items, budget.visited - start
        return
    items, trailing = kept
    for nodes, item in items:
        budget.advance(nodes)
        yield item
    budget.advance(trailing)


def _listing(store: dict, key, expand, *args):
    """The list kept in ``store`` under ``key``, or else the items of
    ``expand(*args)``, listed as the consumer takes them and kept there
    once the list is complete.  It serves listings whose consumer ticks the
    budget per item, so that the ticks bound the listing.  ``expand`` is
    called only when no list is kept: building the iterator of a kept list
    would cost more than the lookup."""
    kept = store.get(key)
    return _listed(store, key, expand(*args)) if kept is None else kept


def _listed(store: dict, key, items: Iterator):
    listed = []
    for item in items:
        listed.append(item)
        yield item
    store[key] = listed


class _Decorations:
    """A walk's side classes and scaled generator degrees (``_root_plan``),
    with the weight splits by (side, per-block degrees) and the genus
    compositions by (genus, vertex count) listed once per walk: both recur
    across contact tuples and root blocks.  The consumer ticks per genus
    composition, so those are listed lazily (``_listing``)."""

    def __init__(self, betas: tuple[CurveClass, CurveClass], degrees: dict[str, int]):
        self.betas = betas
        self.degrees = degrees
        self.splits: dict = {}
        self.compositions: dict = {}

    def weights(self, side: int, targets: tuple[int, ...]) -> list:
        """Every split of side ``side``'s class (0 for X1, 1 for X2) into
        blocks of the given scaled degrees, as (classes, exponent tuples)."""
        key = (side, targets)
        out = self.splits.get(key)
        if out is None:
            out = self.splits[key] = [
                (tuple(map(CurveClass, exponents)), exponents)
                for exponents in _weight_splits(self.betas[side], self.degrees, targets)
            ]
        return out

    def genera(self, genus: int, parts: int):
        """The weak compositions of ``genus`` into ``parts``."""
        return _listing(self.compositions, (genus, parts), weak_compositions, genus, parts)


# the error of a label that is both a leg's and a root's, in ModularGraph's words
_SHARED_LABELS = "leg/root labels must be unique across the graph"


def _refuse_shared_labels(leg_labels, m_labels: Sequence[int]) -> None:
    """Raise DegenkitError when a root label is also a leg label.

    The walks give roots the labels n+1..n+m after n legs and read no leg
    label, and the orbit walk is kept by what it reads (``_kept``), so its
    consumers check each structure they take, replayed or not: leg labels
    among n+1..n+m would make a splitting whose graphs carry one label
    twice."""
    if not leg_labels.isdisjoint(m_labels):
        raise DegenkitError(_SHARED_LABELS)


MAX_ROOTS = 256  # largest |M| a walk takes; its deepest recursion is about |M| frames


def _root_plan(problem: DegenerationProblem):
    """(decorations, side degree, admissible (f, c) pairs, their
    multiplicities, largest |M|), or None when the side degrees differ.
    Raises ScaleError when the largest |M| exceeds ``MAX_ROOTS``.

    Degrees are ints in units of 1/L, where the scale L is the lcm of the
    admissible indices f and of the generator degrees' denominators: a
    multiplicity c/f is c*L/f and a generator degree d is d*L.
    """
    betas = problem.monoid.split(problem.beta)
    pairs = problem.root_data()
    generators = problem.monoid.generators
    scale = math.lcm(*(f for f, _ in pairs), *(g.d_degree.denominator for g in generators))
    degrees = {g.id: int(g.d_degree * scale) for g in generators}
    deg1, deg2 = (sum(e * degrees[gid] for gid, e in beta.items()) for beta in betas)
    if deg1 != deg2:
        return None
    if deg1 and not pairs:
        raise DegenkitError(
            "no admissible contact data: divisor catalog is empty while beta meets the divisor"
        )
    mults = [c * scale // f for f, c in pairs]
    m_max = deg1 // min(mults) if deg1 else 0
    if m_max > MAX_ROOTS:
        raise ScaleError(
            "the contact data allow up to %d roots; the walks support at most %d"
            % (m_max, MAX_ROOTS)
        )
    return _Decorations(betas, degrees), deg1, pairs, mults, m_max


def iter_structures(
    problem: DegenerationProblem, budget: Optional[_Budget] = None
) -> Iterator[SplittingStructure]:
    """Walk all leg-free splitting structures in a deterministic order.

    Every contact tuple, first-side root partition, pair of partitions
    examined and structure ticks ``budget``."""
    plan = _root_plan(problem)
    if plan is None:
        return
    options, deg, pairs, mults, m_max = plan
    beta1, beta2 = options.betas
    mult = dict(zip(pairs, mults))
    budget = budget or _Budget(_effective_budget(problem))
    g = problem.genus
    n = len(problem.legs)
    if deg == 0:
        # No roots can exist, so one side is a single vertex and the other
        # side is empty; which sides are possible depends on where beta sits.
        if beta2.is_zero():
            budget.tick()
            yield SplittingStructure((), (), ((),), (beta1,), (g,), (), (), ())
        if beta1.is_zero():
            budget.tick()
            yield SplittingStructure((), (), (), (), (), ((),), (beta2,), (g,))
        return
    listed: dict = {}  # each label tuple's partitions, once a listing completes
    for m in range(1, m_max + 1):
        labels = tuple(range(n + 1, n + m + 1))
        connected: dict = {}  # _blocks_connected per pair of partition indices
        for fc in _contact_tuples(pairs, mults, m, deg):
            budget.tick()
            dd = {lab: mult[p] for lab, p in zip(labels, fc)}
            targets: dict = {}  # per-block degrees by partition index

            def target(i: int, blocks) -> tuple:
                t = targets.get(i)
                if t is None:
                    t = targets[i] = tuple(sum(dd[lab] for lab in b) for b in blocks)
                return t

            # each partition and each pair of them ticks as it is examined,
            # so the budget bounds the Bell(m) + Bell(m)^2 of them per tuple
            for i1, blocks1 in enumerate(_listing(listed, labels, set_partitions, labels)):
                budget.tick()
                w1_options = options.weights(0, target(i1, blocks1))
                if not w1_options:
                    continue
                for i2, blocks2 in enumerate(_listing(listed, labels, set_partitions, labels)):
                    budget.tick()
                    k1, k2 = len(blocks1), len(blocks2)
                    cycles = m - k1 - k2 + 1
                    if cycles < 0 or g - cycles < 0:
                        continue
                    ok = connected.get((i1, i2))
                    if ok is None:
                        ok = connected[i1, i2] = _blocks_connected(blocks1, blocks2)
                    if not ok:
                        continue
                    w2_options = options.weights(1, target(i2, blocks2))
                    if not w2_options:
                        continue
                    for w1, _ in w1_options:
                        for w2, _ in w2_options:
                            for genera in options.genera(g - cycles, k1 + k2):
                                budget.tick()
                                yield SplittingStructure(
                                    labels,
                                    fc,
                                    blocks1,
                                    w1,
                                    genera[:k1],
                                    blocks2,
                                    w2,
                                    genera[k1:],
                                )


# -- the walk up to root relabeling -------------------------------------------


_ROOT_GRAPHS: dict = {}  # completed root-graph listings by shape (_kept)
_ORBITS: dict = {}  # completed orbit walks by what they read (_kept)


def _root_graphs(counts: tuple[int, ...], rows: int, cols: int, budget: _Budget):
    """The root graphs of one contact multiset, one per isomorphism class.

    The roots of a structure are the edges of a bipartite multigraph between
    its row vertices and its column vertices, each edge colored by its
    (f, c); ``counts[t]`` edges have color t.  A graph is a tuple of rows,
    row i holding the number of edges of each color to each column at index
    ``j * len(counts) + t``.  Yields every connected graph without an
    isolated vertex once, in canonical form: rows in descending order, and
    no column order whose re-sorted rows are larger.

    Each graph comes with its automorphisms as (p, groups): after the column
    permutation ``p`` (new column j is old column ``p[j]``), the rows listed
    in ``groups[r]`` equal the rows of the r-th run of equal rows, so that
    re-sorting gives the graph back.  The identity comes first; its groups
    are the runs.  Each row choice ticks ``budget``.
    """
    nc = len(counts)
    width = cols * nc
    layouts = [
        (p, [p[j] * nc + t for j in range(cols) for t in range(nc)])
        for p in itertools.permutations(range(cols))
    ]
    options: dict = {}

    def row_options(rem: tuple[int, ...]) -> list:
        # every nonzero row the remaining edges allow, in descending order,
        # with the edges it leaves
        out = options.get(rem)
        if out is None:
            out = options[rem] = []
            left, acc = list(rem), []

            def rec(p: int):
                if p == width:
                    if any(acc):
                        out.append((tuple(acc), tuple(left)))
                    return
                t = p % nc
                for v in range(left[t], -1, -1):
                    left[t] -= v
                    acc.append(v)
                    rec(p + 1)
                    acc.pop()
                    left[t] += v

            rec(0)
            rec = None  # as in _contact_tuples
        return out

    def automorphisms(graph: tuple) -> Optional[list]:
        """The (p, groups) of every automorphism; None unless canonical."""
        run_start = {row: graph.index(row) for row in graph}
        out = []
        for p, layout in layouts:
            images = [tuple(row[x] for x in layout) for row in graph]
            image = tuple(sorted(images, reverse=True))
            if image > graph:
                return None
            if image == graph:
                groups: dict = {}
                for i, row in enumerate(images):
                    groups.setdefault(run_start[row], []).append(i)
                out.append((p, [groups[start] for start in sorted(groups)]))
        return out

    acc: list = []

    def rec(rem: tuple[int, ...]):
        budget.tick()
        if len(acc) == rows:
            graph = tuple(acc)
            edges = [
                (i, rows + p // nc) for i, row in enumerate(graph) for p, k in enumerate(row) if k
            ]
            if len(components(rows + cols, edges)) == 1:
                autos = automorphisms(graph)
                if autos is not None:
                    yield graph, autos
            return
        rows_after = rows - len(acc) - 1
        for row, after in row_options(rem):
            if acc and row > acc[-1]:
                continue
            # the last row takes every edge left; the others leave one per row
            if any(after) if not rows_after else sum(after) < rows_after:
                continue
            acc.append(row)
            yield from rec(after)
            acc.pop()

    try:
        yield from rec(counts)
    finally:
        rec = None  # as in _contact_tuples


def iter_structure_orbits(
    problem: DegenerationProblem, budget: Optional[_Budget] = None
) -> Iterator[tuple[SplittingStructure, int]]:
    """One structure per orbit of the root relabelings, with the orbit size.

    A permutation of the root labels maps a structure to another whose root
    data it carries along, and whose sides hold the images of the original
    sides' sets of (block, weight, genus).  The orbits partition the
    structures ``iter_structures`` walks; each is yielded once, as one of
    its members exactly as ``iter_structures`` gives it (blocks in the order
    of ``set_partitions``), with its size |M|!/|stabilizer|.

    The walk goes contact multiset first, then root graph (the bipartite
    multigraph of vertices and roots, ``_root_graphs``) up to isomorphism,
    then decorations (weights and genera) up to the graph's automorphisms.
    The stabilizer is the decoration-preserving vertex automorphisms times
    mult! for each run of mult parallel roots with equal (f, c).  Every
    contact multiset, root-graph node and decoration ticks ``budget``.

    The walk reads only the monoid, beta, root data, genus and leg count,
    so it is done once per process for each of those (``_kept``), and each
    root-graph listing once per shape.  It is ``orbit_runs`` taken one
    structure at a time.
    """
    for run in orbit_runs(problem, budget):
        yield from run


def orbit_runs(
    problem: DegenerationProblem, budget: Optional[_Budget] = None
) -> Iterator[list[tuple[SplittingStructure, int]]]:
    """The walk of ``iter_structure_orbits`` handed over a skeleton at a
    time: each item lists the (structure, orbit size) pairs of one root
    graph's decorations, which share root data and root blocks and differ
    only in weights and genera.  A consumer that works per skeleton gets
    each whole run without asking for the next, so a budget that stops
    its work on the last run stops the walk before it is kept."""
    budget = budget or _Budget(_effective_budget(problem))
    key = (problem.monoid, problem.beta, problem.root_data(), problem.genus, len(problem.legs))
    yield from _kept(_ORBITS, key, _walk_orbits(problem, budget), budget)


def _walk_orbits(problem: DegenerationProblem, budget: _Budget):
    """The walk of ``orbit_runs``, done afresh."""
    plan = _root_plan(problem)
    if plan is None:
        return
    options, deg, pairs, mults, m_max = plan
    if deg == 0:
        # no roots: each structure is its own orbit and its own skeleton
        for structure in iter_structures(problem, budget):
            yield [(structure, 1)]
        return
    mult = dict(zip(pairs, mults))
    graphs: dict = {}  # the shapes this walk has listed (and ticked)
    for m in range(1, m_max + 1):
        for multiset in _contact_tuples(pairs, mults, m, deg, multisets=True):
            budget.tick()
            colors = tuple(dict.fromkeys(multiset))
            counts = tuple(multiset.count(fc) for fc in colors)
            color_mults = [mult[fc] for fc in colors]
            for k1 in range(1, m + 1):
                for k2 in range(1, m + 2 - k1):
                    cycles = m - k1 - k2 + 1
                    if cycles > problem.genus:
                        continue
                    # rows are the larger side, so column orders stay few
                    rows_x1 = k1 >= k2
                    shape = (counts, max(k1, k2), min(k1, k2))
                    if shape not in graphs:
                        graphs[shape] = list(
                            _kept(_ROOT_GRAPHS, shape, _root_graphs(*shape, budget), budget)
                        )
                    for graph, autos in graphs[shape]:
                        run = list(_decorated_orbits(
                            graph, autos, colors, color_mults, len(problem.legs) + 1,
                            rows_x1, problem.genus - cycles, options, budget,
                        ))
                        if run:
                            yield run


def _decorated_orbits(
    graph, autos, colors, mults, first_label, rows_x1, genus, options, budget
):
    """The orbits over one root graph: its decorations up to automorphism,
    all with the same root data and root blocks.

    Labels from ``first_label`` on go to the edges row by row, column by
    column, color by color; ``mults`` holds each color's scaled
    multiplicity.  The rows are the X1 side when ``rows_x1``.  A decoration
    gives each vertex a (weight exponents, genus).  It is kept when no
    automorphism maps it to a smaller one: for the identity, when each run
    of equal rows carries non-decreasing decorations; for the others in
    ``autos``, by building and comparing the image.  Its stabilizer is the
    automorphisms fixing it, times k! per k parallel roots and per k equal
    decorations in a run.
    """
    nc = len(colors)
    rows, cols = len(graph), len(graph[0]) // nc
    root_data: list = []
    row_blocks: list = [[] for _ in range(rows)]
    col_blocks: list = [[] for _ in range(cols)]
    row_targets = [0] * rows
    col_targets = [0] * cols
    parallel = 1
    for i, row in enumerate(graph):
        for p, k in enumerate(row):
            if not k:
                continue
            parallel *= math.factorial(k)
            j, t = divmod(p, nc)
            row_targets[i] += k * mults[t]
            col_targets[j] += k * mults[t]
            for _ in range(k):
                label = first_label + len(root_data)
                root_data.append(colors[t])
                row_blocks[i].append(label)
                col_blocks[j].append(label)
    row_side = 0 if rows_x1 else 1
    row_weights = options.weights(row_side, tuple(row_targets))
    col_weights = options.weights(1 - row_side, tuple(col_targets)) if row_weights else []
    if not col_weights:
        return
    # each side's blocks in the order set_partitions gives, by greatest
    # label; the rows, holding consecutive labels, already are
    col_order = sorted(range(cols), key=lambda j: col_blocks[j][-1])
    col_weights = [(tuple([wc[j] for j in col_order]), ec) for wc, ec in col_weights]
    row_blocks = tuple(map(tuple, row_blocks))
    col_blocks = tuple(tuple(col_blocks[j]) for j in col_order)
    labels = tuple(range(first_label, first_label + len(root_data)))
    root_data = tuple(root_data)
    m_factorial = math.factorial(len(labels))
    # the adjacent rows of each run of equal rows (the identity's groups)
    runs = [list(zip(run, run[1:])) for run in autos[0][1] if len(run) > 1]
    others = autos[1:]

    def stabilizer(er, ec, genera) -> int:
        # 0 when the decoration is not the smallest of its orbit
        order = parallel
        for run in runs:
            streak = 1
            for i, j in run:
                low, high = (er[i], genera[i]), (er[j], genera[j])
                if low > high:
                    return 0
                streak = streak + 1 if low == high else 1
                order *= streak
        if not others:
            return order
        dec = (tuple(zip(er, genera)), tuple(zip(ec, genera[rows:])))
        fixed = 1
        for p, groups in others:
            image = (
                tuple(d for group in groups for d in sorted(dec[0][i] for i in group)),
                tuple(dec[1][j] for j in p),
            )
            if image < dec:
                return 0
            fixed += image == dec
        return order * fixed

    for wr, er in row_weights:
        for wc, ec in col_weights:
            for genera in options.genera(genus, rows + cols):
                budget.tick()
                order = stabilizer(er, ec, genera)
                if not order:
                    continue
                side_r = row_blocks, wr, genera[:rows]
                side_c = col_blocks, wc, tuple([genera[rows + j] for j in col_order])
                (b1, w1, g1), (b2, w2, g2) = (side_r, side_c) if rows_x1 else (side_c, side_r)
                structure = _assembled(
                    SplittingStructure, m_labels=labels, root_data=root_data,
                    blocks1=b1, weights1=w1, genera1=g1, blocks2=b2, weights2=w2, genera2=g2,
                )
                yield structure, m_factorial // order


def enumerate_splittings(problem: DegenerationProblem) -> list[Splitting]:
    """The full list of splittings, canonical and duplicate-free.

    Each labeled structure gets every assignment of its legs to the vertex
    positions ``leg_slots`` allows them; a leg with no slot leaves the
    structure with none.  Each complete assignment ticks the node budget
    and is built by ``SplittingStructure.build_splitting``: the checks that
    read the structure alone run once per structure, the leg checks once
    per assignment.  A structure whose root labels meet a leg label raises
    DegenkitError, placements or not.  The list is sorted by (|M|,
    canonical pair), so each splitting's canonical text is written here,
    from its vertex rows (``Splitting.canonical_pair``), and kept on it.
    Raises EnumerationBudgetError (carrying the partial list) when the node
    budget runs out.
    """
    budget = _Budget(_effective_budget(problem))
    labels = [spec.label for spec in problem.legs]
    leg_labels = set(labels)
    out: list[Splitting] = []
    try:
        for structure in iter_structures(problem, budget):
            _refuse_shared_labels(leg_labels, structure.m_labels)
            sides = structure.vertex_sides()
            slots = [leg_slots(spec.side, sides) for spec in problem.legs]
            for choice in itertools.product(*slots):
                budget.tick()
                out.append(structure.build_splitting(dict(zip(labels, choice)), problem.legs))
    except EnumerationBudgetError as err:
        raise EnumerationBudgetError(str(err), partial=out, visited=err.visited)
    keyed = sorted(
        ((len(s.m_labels), s.canonical_pair()), i) for i, s in enumerate(out)
    )
    for (prev, _), (key, _) in zip(keyed, keyed[1:]):
        if prev == key:
            raise AssertionError("enumeration produced a duplicate splitting")
    return [out[i] for _, i in keyed]


@dataclass(frozen=True)
class SplittingOrbit:
    """One root-relabeling orbit of the input to ``orbits``.  ``members``
    are input positions sorted by canonical pair, so the representative (the
    member with the least canonical pair) comes first."""

    representative: Splitting
    stabilizer_order: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def orbits(splittings: Sequence[Splitting]) -> list[SplittingOrbit]:
    """Group a closed set of distinct splittings, which may mix values of |M|,
    under root relabelings.  Orbits come in (|M|, representative's canonical
    pair) order; for each, size * stabilizer_order = |M|!.  A splitting
    keeps its canonical pair once written, so the pairs
    ``enumerate_splittings`` sorted by are not written again here; they
    serve only that order.

    Splittings are keyed by their sorted vertex rows
    (``Splitting.vertex_rows``), a complete invariant of an edge-free
    pair.  Each twin (the image of a representative under a root
    permutation) is keyed without building it or writing any text: for each
    permutation the root labels in the representative's rows are mapped,
    each vertex's roots and then each side's rows re-sorted, and the result
    looked up among the input's rows.
    """
    rows = [s.vertex_rows() for s in splittings]
    keys = [s.canonical_pair() for s in splittings]
    position = {row: i for i, row in enumerate(rows)}
    order = sorted(position.values(), key=lambda i: (len(splittings[i].m_labels), keys[i]))
    seen: set[int] = set()
    out = []
    for i in order:
        if i in seen:
            continue
        eta = splittings[i]
        found, stab = set(), 0
        for perm in itertools.permutations(eta.m_labels):
            if perm == eta.m_labels:
                twin = rows[i]
            else:
                sigma = dict(zip(eta.m_labels, perm))
                twin = tuple(
                    tuple(
                        sorted(
                            [
                                (legs, tuple(sorted([(sigma[lab], f, c) for lab, f, c in roots])), g, w)
                                for legs, roots, g, w in side
                            ]
                        )
                    )
                    for side in rows[i]
                )
            j = position.get(twin)
            if j is None:
                raise DegenkitError("orbits: input is not closed under root relabeling")
            stab += j == i
            found.add(j)
        seen |= found
        out.append(SplittingOrbit(eta, stab, tuple(sorted(found, key=keys.__getitem__))))
        assert stab * len(found) == math.factorial(len(eta.m_labels))
    return out
