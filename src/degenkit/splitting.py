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
from typing import Iterator, Optional, Sequence

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

    def side_degrees(self) -> tuple[Fraction, Fraction]:
        b1, b2 = self.monoid.split(self.beta)
        return d_degree(b1, self.monoid), d_degree(b2, self.monoid)


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
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for tail in weak_compositions(total - head, parts - 1):
            yield (head,) + tail


def _contact_tuples(
    pairs: Sequence[tuple[int, int]], m: int, target: Fraction, multisets: bool = False
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Ordered (f, c) tuples of length m whose multiplicities sum to target;
    with ``multisets``, only those in the order of ``pairs``, one per
    multiset."""
    ds = [Fraction(c, f) for f, c in pairs]
    d_min, d_max = min(ds), max(ds)

    def rec(start: int, k: int, remaining: Fraction, acc):
        if k == m:
            if remaining == 0:
                yield tuple(acc)
            return
        left = m - k
        if remaining < left * d_min or remaining > left * d_max:
            return
        for i in range(start, len(pairs)):
            if ds[i] <= remaining:
                acc.append(pairs[i])
                yield from rec(i if multisets else 0, k + 1, remaining - ds[i], acc)
                acc.pop()

    yield from rec(0, 0, target, [])


def _weight_splits(
    beta: CurveClass,
    monoid: CurveClassMonoid,
    targets: Sequence[Fraction],
) -> Iterator[tuple[CurveClass, ...]]:
    """Decompositions of beta into len(targets) classes with the given
    intersection degrees (condition B per prospective vertex)."""
    gens = sorted(beta.support())
    k = len(targets)
    if k == 0:
        if beta.is_zero():
            yield ()
        return

    def rec(gi: int, residual_degrees, acc_rows):
        if gi == len(gens):
            if all(r == 0 for r in residual_degrees):
                yield tuple(
                    CurveClass({gens[j]: acc_rows[j][i] for j in range(len(gens))})
                    for i in range(k)
                )
            return
        gid = gens[gi]
        exp = beta[gid]
        deg = monoid.generator(gid).d_degree
        compositions = weak_compositions(exp, k)
        if gi == len(gens) - 1 and deg:
            # the last generator must use up every residual degree
            forced = [r / deg for r in residual_degrees]
            if any(q.denominator != 1 for q in forced) or sum(forced) != exp:
                return
            compositions = [tuple(int(q) for q in forced)]
        for comp in compositions:
            new_res = []
            ok = True
            for i in range(k):
                r = residual_degrees[i] - comp[i] * deg
                if r < 0:
                    ok = False
                    break
                new_res.append(r)
            if not ok:
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
    """Weight splits by (side class, per-block degrees) and genus
    compositions by (genus, vertex count), listed once per walk: both recur
    across contact tuples and root blocks."""

    def __init__(self, monoid: CurveClassMonoid):
        self.monoid = monoid
        self.splits: dict = {}
        self.compositions: dict = {}

    def weights(self, beta: CurveClass, targets: tuple) -> list:
        key = (beta, targets)
        if key not in self.splits:
            self.splits[key] = list(_weight_splits(beta, self.monoid, targets))
        return self.splits[key]

    def genera(self, genus: int, parts: int) -> list:
        key = (genus, parts)
        if key not in self.compositions:
            self.compositions[key] = list(weak_compositions(genus, parts))
        return self.compositions[key]


def _root_plan(problem: DegenerationProblem):
    """(beta1, beta2, side degree, admissible (f, c) pairs, largest |M|),
    or None when the side degrees differ."""
    beta1, beta2 = problem.monoid.split(problem.beta)
    deg1, deg2 = problem.side_degrees()
    if deg1 != deg2:
        return None
    pairs = problem.root_data()
    if deg1 and not pairs:
        raise DegenkitError(
            "no admissible contact data: divisor catalog is empty while beta meets the divisor"
        )
    m_max = int(deg1 / min(Fraction(c, f) for f, c in pairs)) if deg1 else 0
    return beta1, beta2, deg1, pairs, m_max


def iter_structures(
    problem: DegenerationProblem, budget: Optional[_Budget] = None
) -> Iterator[SplittingStructure]:
    """Walk all leg-free splitting structures in a deterministic order."""
    plan = _root_plan(problem)
    if plan is None:
        return
    beta1, beta2, deg, pairs, m_max = plan
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
    options = _Decorations(problem.monoid)
    for m in range(1, m_max + 1):
        labels = tuple(range(n + 1, n + m + 1))
        partitions = list(set_partitions(labels))
        connected: dict = {}  # _blocks_connected per pair of partition indices
        for fc in _contact_tuples(pairs, m, deg):
            budget.tick()
            dd = {lab: Fraction(c, f) for lab, (f, c) in zip(labels, fc)}
            targets = [
                tuple(sum((dd[lab] for lab in b), Fraction(0)) for b in blocks)
                for blocks in partitions
            ]
            for i1, (blocks1, t1) in enumerate(zip(partitions, targets)):
                w1_options = options.weights(beta1, t1)
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
                    w2_options = options.weights(beta2, t2)
                    if not w2_options:
                        continue
                    compositions = options.genera(g - cycles, k1 + k2)
                    for w1 in w1_options:
                        for w2 in w2_options:
                            for genera in compositions:
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

    yield from rec(counts)


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
    """
    plan = _root_plan(problem)
    if plan is None:
        return
    beta1, beta2, deg, pairs, m_max = plan
    budget = budget or _Budget(_effective_budget(problem))
    if deg == 0:
        # no roots: each structure is its own orbit
        for structure in iter_structures(problem, budget):
            yield structure, 1
        return
    options = _Decorations(problem.monoid)
    graphs: dict = {}
    for m in range(1, m_max + 1):
        for multiset in _contact_tuples(pairs, m, deg, multisets=True):
            budget.tick()
            colors = tuple(dict.fromkeys(multiset))
            counts = tuple(multiset.count(fc) for fc in colors)
            for k1 in range(1, m + 1):
                for k2 in range(1, m + 2 - k1):
                    cycles = m - k1 - k2 + 1
                    if cycles > problem.genus:
                        continue
                    # rows are the larger side, so column orders stay few
                    rows_x1 = k1 >= k2
                    shape = (counts, max(k1, k2), min(k1, k2))
                    if shape not in graphs:
                        graphs[shape] = list(_root_graphs(*shape, budget))
                    for graph, autos in graphs[shape]:
                        yield from _decorated_orbits(
                            graph, autos, colors, len(problem.legs) + 1, rows_x1,
                            (beta1, beta2) if rows_x1 else (beta2, beta1),
                            problem.genus - cycles, options, budget,
                        )


def _decorated_orbits(
    graph, autos, colors, first_label, rows_x1, betas, genus, options, budget
):
    """The orbits over one root graph: its decorations up to automorphism.

    Labels from ``first_label`` on go to the edges row by row, column by
    column, color by color.  The rows are the X1 side when ``rows_x1``, and
    ``betas`` holds the classes of the row side and the column side.  A
    decoration gives each vertex a (weight exponents, genus); it is kept
    when no automorphism maps it to a smaller one: equal rows carry
    ascending decorations, and no column permutation in ``autos`` gives a
    smaller one.
    """
    nc = len(colors)
    rows, cols = len(graph), len(graph[0]) // nc
    root_data: list = []
    row_blocks: list = [[] for _ in range(rows)]
    col_blocks: list = [[] for _ in range(cols)]
    parallel = 1
    for i, row in enumerate(graph):
        for p, k in enumerate(row):
            parallel *= math.factorial(k)
            for _ in range(k):
                label = first_label + len(root_data)
                root_data.append(colors[p % nc])
                row_blocks[i].append(label)
                col_blocks[p // nc].append(label)
    labels = tuple(range(first_label, first_label + len(root_data)))
    mult = {lab: Fraction(c, f) for lab, (f, c) in zip(labels, root_data)}

    def targets(blocks):
        return tuple(sum((mult[lab] for lab in b), Fraction(0)) for b in blocks)

    row_weights = options.weights(betas[0], targets(row_blocks))
    col_weights = options.weights(betas[1], targets(col_blocks)) if row_weights else []
    if not col_weights:
        return
    runs = autos[0][1]
    # each side's blocks in the order set_partitions gives, by greatest
    # label; the rows, holding consecutive labels, already are
    col_order = sorted(range(cols), key=lambda j: col_blocks[j][-1])
    row_blocks = tuple(map(tuple, row_blocks))
    col_blocks = tuple(tuple(col_blocks[j]) for j in col_order)
    root_data = tuple(root_data)
    m_factorial = math.factorial(len(labels))
    for wr in row_weights:
        for wc in col_weights:
            for genera in options.genera(genus, rows + cols):
                budget.tick()
                dec = (
                    tuple(zip((w.exponents for w in wr), genera[:rows])),
                    tuple(zip((w.exponents for w in wc), genera[rows:])),
                )
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
