"""Enumeration of the splittings indexing the degeneration sum.

A splitting is an ordered pair of edge-free graphs sharing root labels.  The
enumerator walks structures (contact data, root partitions, weights, genera)
first and attaches legs afterwards, so the evaluator can reuse the structure
walk while aggregating interchangeable legs.  ``iter_structures`` walks
every labeled structure; ``iter_structure_orbits`` walks one per orbit of
the root relabelings, with the orbit size, for sums that only need each
orbit once.

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
from .errors import DegenkitError, EnumerationBudgetError
from .graphs import (
    CurveClass,
    CurveClassMonoid,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,
    components,
    d_degree,
    glue,
    total_genus,
    total_weight,
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
        for lab in self.m_labels:
            r1, r2 = self.xi1.root_by_label(lab), self.xi2.root_by_label(lab)
            if (r1.f, r1.c) != (r2.f, r2.c):
                raise DegenkitError("matched roots must agree in (f, c)")
        if self.m_labels:
            for side in (self.xi1, self.xi2):
                for v in range(len(side.vertices)):
                    if not side.roots_of_vertex(v):
                        raise DegenkitError(
                            "every vertex must touch a root when M is nonempty"
                        )

    def contacts(self) -> tuple[int, ...]:
        return tuple(self.xi1.root_by_label(lab).c for lab in self.m_labels)

    def indices(self) -> tuple[int, ...]:
        return tuple(self.xi1.root_by_label(lab).f for lab in self.m_labels)

    def glued(self) -> ModularGraph:
        return glue(self.xi1, self.xi2)

    def canonical_pair(self) -> tuple[bytes, bytes]:
        """The canonical forms of the two sides, computed on the first call
        and kept on the instance; the attribute is not a field, so equality
        and hashing ignore it."""
        pair = self.__dict__.get("_canonical_pair")
        if pair is None:
            pair = canonical_form(self.xi1), canonical_form(self.xi2)
            object.__setattr__(self, "_canonical_pair", pair)
        return pair

    def validate(self, problem: DegenerationProblem) -> None:
        """Check conditions A and B against the originating problem."""
        glued = self.glued()
        if not glued.is_connected():
            raise DegenkitError("condition A fails: glued graph is disconnected")
        if total_genus(glued) != problem.genus:
            raise DegenkitError("condition A fails: glued genus mismatch")
        if total_weight(glued) != problem.beta:
            raise DegenkitError("condition A fails: glued weight mismatch")
        if glued.leg_labels() != problem.leg_labels():
            raise DegenkitError("condition A fails: leg labels mismatch")
        b1, b2 = problem.monoid.split(problem.beta)
        if total_weight(self.xi1) != b1 or total_weight(self.xi2) != b2:
            raise DegenkitError("side weights do not lie in the proper submonoids")
        for side in (self.xi1, self.xi2):
            report = check_condition_B(side, problem.monoid)
            if not report.ok:
                raise DegenkitError("condition B fails: %s" % (report.failures,))

    def relabeled(self, sigma: dict[int, int]) -> "Splitting":
        """Apply a root-relabeling permutation to both sides."""

        def remap(g: ModularGraph) -> ModularGraph:
            return ModularGraph(
                vertices=g.vertices,
                edges=g.edges,
                legs=g.legs,
                roots=tuple(Root(sigma[r.label], r.f, r.c, r.vertex) for r in g.roots),
            )

        return Splitting(remap(self.xi1), remap(self.xi2), tuple(sorted(sigma.values())))


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

    def side(self, which: str):
        if which == "X1":
            return self.blocks1, self.weights1, self.genera1
        return self.blocks2, self.weights2, self.genera2

    def fc_of(self, label: int) -> tuple[int, int]:
        return self.root_data[self.m_labels.index(label)]

    def build_splitting(self, leg_assignment: dict[int, tuple[str, int]], legs: Sequence[LegSpec]) -> Splitting:
        """Materialize with legs placed via {label: (side, vertex index)}."""
        spec_by_label = {l.label: l for l in legs}

        def build(which: str) -> ModularGraph:
            blocks, weights, genera = self.side(which)
            roots = []
            for vi, block in enumerate(blocks):
                for lab in block:
                    f, c = self.fc_of(lab)
                    roots.append(Root(lab, f, c, vi))
            gl = []
            for lab, (side, vi) in leg_assignment.items():
                if side == which:
                    gl.append(Leg(lab, spec_by_label[lab].e, vi))
            return ModularGraph(
                vertices=tuple(Vertex(g, w) for g, w in zip(genera, weights)),
                edges=(),
                legs=tuple(sorted(gl, key=lambda l: l.label)),
                roots=tuple(sorted(roots, key=lambda r: r.label)),
            )

        return Splitting(build("X1"), build("X2"), self.m_labels)


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

    yield from rec(0, 0, target, [])


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

    yield from rec(0, list(targets), [])


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

    def tick(self, partial=()):
        self.visited += 1
        if self.limit is not None and self.visited > self.limit:
            raise EnumerationBudgetError(
                "enumeration budget of %d nodes exceeded" % self.limit,
                partial=partial,
                visited=self.visited,
            )

    def advance(self, nodes: int):
        """``nodes`` ticks at once, for a replay of a kept listing: it stops
        with the count ticking them one by one would stop with."""
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
        return int(env)
    except ValueError:
        raise DegenkitError("DEGENKIT_BUDGET must be an integer, got %r" % env) from None


class _Decorations:
    """A walk's side classes and scaled generator degrees (``_root_plan``),
    with the weight splits by (side, per-block degrees) and the genus
    compositions by (genus, vertex count) listed once per walk: both recur
    across contact tuples and root blocks."""

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
        """The weak compositions of ``genus`` into ``parts``.  The first
        iteration lists them as the consumer takes them, so its ticks bound
        the listing, and keeps the list once it is complete."""
        key = (genus, parts)
        listed = self.compositions.get(key)
        return listed if listed is not None else self._listing(key)

    def _listing(self, key):
        listed = []
        for composition in weak_compositions(*key):
            listed.append(composition)
            yield composition
        self.compositions[key] = listed


def _root_plan(problem: DegenerationProblem):
    """(decorations, side degree, admissible (f, c) pairs, their
    multiplicities, largest |M|), or None when the side degrees differ.

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
    return _Decorations(betas, degrees), deg1, pairs, mults, m_max


def iter_structures(
    problem: DegenerationProblem, budget: Optional[_Budget] = None
) -> Iterator[SplittingStructure]:
    """Walk all leg-free splitting structures in a deterministic order."""
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
    for m in range(1, m_max + 1):
        labels = tuple(range(n + 1, n + m + 1))
        partitions = list(set_partitions(labels))
        connected: dict = {}  # _blocks_connected per pair of partition indices
        for fc in _contact_tuples(pairs, mults, m, deg):
            budget.tick()
            dd = {lab: mult[p] for lab, p in zip(labels, fc)}
            targets = [tuple(sum(dd[lab] for lab in b) for b in blocks) for blocks in partitions]
            for i1, (blocks1, t1) in enumerate(zip(partitions, targets)):
                w1_options = options.weights(0, t1)
                if not w1_options:
                    continue
                for i2, (blocks2, t2) in enumerate(zip(partitions, targets)):
                    k1, k2 = len(blocks1), len(blocks2)
                    cycles = m - k1 - k2 + 1
                    if cycles < 0 or g - cycles < 0:
                        continue
                    ok = connected.get((i1, i2))
                    if ok is None:
                        ok = connected[i1, i2] = _blocks_connected(blocks1, blocks2)
                    if not ok:
                        continue
                    w2_options = options.weights(1, t2)
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


_ROOT_GRAPHS: dict = {}  # completed listings by shape: see _root_graphs


def _root_graphs(counts: tuple[int, ...], rows: int, cols: int, budget: _Budget) -> list:
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

    The list depends only on the shape (counts, rows, cols), so a completed
    listing is kept in a module-level dict with the number of nodes it
    ticked.  A later call returns the kept list and replays those ticks at
    once, so the budget counts the same nodes and stops at the same one; a
    listing the budget cuts short keeps nothing.
    """
    shape = (counts, rows, cols)
    kept = _ROOT_GRAPHS.get(shape)
    if kept is not None:
        budget.advance(kept[1])
        return kept[0]
    start = budget.visited
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

    graphs = list(rec(counts))
    _ROOT_GRAPHS[shape] = graphs, budget.visited - start
    return graphs


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

    A completed walk is kept on the problem instance, as a non-field
    attribute (so equality and hashing ignore it): its (structure, size)
    list, with the nodes ticked before each yield and after the last.  A
    later walk of the same instance replays the list and ticks the same
    counts in the same order, so the budget stops it where it would stop
    the walk; a walk cut short keeps nothing.  The root graphs are kept per
    shape across problems (``_root_graphs``).
    """
    budget = budget or _Budget(_effective_budget(problem))
    kept = problem.__dict__.get("_orbits")
    if kept is not None:
        walked, trailing = kept
        for nodes, structure, size in walked:
            budget.advance(nodes)
            yield structure, size
        budget.advance(trailing)
        return
    walked = []
    start = budget.visited
    for structure, size in _walk_orbits(problem, budget):
        walked.append((budget.visited - start, structure, size))
        yield structure, size
        start = budget.visited
    object.__setattr__(problem, "_orbits", (walked, budget.visited - start))


def _walk_orbits(problem: DegenerationProblem, budget: _Budget):
    """The walk of ``iter_structure_orbits``, done afresh."""
    plan = _root_plan(problem)
    if plan is None:
        return
    options, deg, pairs, mults, m_max = plan
    if deg == 0:
        # no roots: each structure is its own orbit
        for structure in iter_structures(problem, budget):
            yield structure, 1
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
                        graphs[shape] = _root_graphs(*shape, budget)
                    for graph, autos in graphs[shape]:
                        yield from _decorated_orbits(
                            graph, autos, colors, color_mults, len(problem.legs) + 1,
                            rows_x1, problem.genus - cycles, options, budget,
                        )


def _decorated_orbits(
    graph, autos, colors, mults, first_label, rows_x1, genus, options, budget
):
    """The orbits over one root graph: its decorations up to automorphism.

    Labels from ``first_label`` on go to the edges row by row, column by
    column, color by color; ``mults`` holds each color's scaled
    multiplicity.  The rows are the X1 side when ``rows_x1``.  A decoration
    gives each vertex a (weight exponents, genus); it is kept when no
    automorphism maps it to a smaller one: equal rows carry ascending
    decorations, and no column permutation in ``autos`` gives a smaller one.
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
    runs = autos[0][1]
    # each side's blocks in the order set_partitions gives, by greatest
    # label; the rows, holding consecutive labels, already are
    col_order = sorted(range(cols), key=lambda j: col_blocks[j][-1])
    row_blocks = tuple(map(tuple, row_blocks))
    col_blocks = tuple(tuple(col_blocks[j]) for j in col_order)
    labels = tuple(range(first_label, first_label + len(root_data)))
    root_data = tuple(root_data)
    m_factorial = math.factorial(len(labels))
    for wr, er in row_weights:
        for wc, ec in col_weights:
            for genera in options.genera(genus, rows + cols):
                budget.tick()
                dec = (tuple(zip(er, genera[:rows])), tuple(zip(ec, genera[rows:])))
                fixed = 0
                for p, groups in autos:
                    image = (
                        tuple(d for group in groups for d in sorted(dec[0][i] for i in group)),
                        tuple(dec[1][j] for j in p),
                    )
                    if image < dec:
                        break
                    if image == dec:
                        fixed += 1
                else:
                    stabilizer = fixed * parallel
                    for run in runs:
                        for _, same in itertools.groupby(dec[0][i] for i in run):
                            stabilizer *= math.factorial(len(list(same)))
                    side_r = (row_blocks, wr, genera[:rows])
                    side_c = (
                        col_blocks,
                        tuple(wc[j] for j in col_order),
                        tuple(genera[rows + j] for j in col_order),
                    )
                    side1, side2 = (side_r, side_c) if rows_x1 else (side_c, side_r)
                    yield (
                        SplittingStructure(labels, root_data, *side1, *side2),
                        m_factorial // stabilizer,
                    )


def _leg_slots(problem: DegenerationProblem, structure: SplittingStructure):
    """For each leg, the (side, vertex) slots its constraint allows."""
    slots = []
    for spec in problem.legs:
        allowed = []
        if spec.side in (None, "X1"):
            allowed += [("X1", i) for i in range(len(structure.blocks1))]
        if spec.side in (None, "X2"):
            allowed += [("X2", i) for i in range(len(structure.blocks2))]
        slots.append((spec, allowed))
    return slots


def enumerate_splittings(problem: DegenerationProblem) -> list[Splitting]:
    """The full list of splittings, canonical and duplicate-free.

    Raises EnumerationBudgetError (carrying the partial list) when the node
    budget runs out.
    """
    budget = _Budget(_effective_budget(problem))
    out: list[Splitting] = []
    try:
        for structure in iter_structures(problem, budget):
            slots = _leg_slots(problem, structure)
            if any(not allowed for _, allowed in slots):
                continue
            for choice in itertools.product(*[allowed for _, allowed in slots]):
                budget.tick(partial=out)
                assignment = {
                    spec.label: slot for (spec, _), slot in zip(slots, choice)
                }
                out.append(structure.build_splitting(assignment, problem.legs))
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
    keeps its canonical pair once computed, so the pairs
    ``enumerate_splittings`` sorted by are not computed again here.
    """
    keys = [s.canonical_pair() for s in splittings]
    position = {key: i for i, key in enumerate(keys)}
    order = sorted(position.values(), key=lambda i: (len(splittings[i].m_labels), keys[i]))
    seen: set[int] = set()
    out = []
    for i in order:
        if i in seen:
            continue
        eta = splittings[i]
        found, stab = set(), 0
        for perm in itertools.permutations(eta.m_labels):
            twin = eta if perm == eta.m_labels else eta.relabeled(dict(zip(eta.m_labels, perm)))
            ikey = twin.canonical_pair()
            if ikey not in position:
                raise DegenkitError("orbits: input is not closed under root relabeling")
            stab += ikey == keys[i]
            found.add(position[ikey])
        seen |= found
        out.append(SplittingOrbit(eta, stab, tuple(sorted(found, key=keys.__getitem__))))
        assert stab * len(found) == math.factorial(len(eta.m_labels))
    return out
