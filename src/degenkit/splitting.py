"""Enumeration of the splittings indexing the degeneration sum.

A splitting is an ordered pair of edge-free graphs sharing root labels.  The
enumerator walks structures (contact data, root partitions, weights, genera)
first and attaches legs afterwards, so the evaluator can reuse the structure
walk while aggregating interchangeable legs.

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

    @property
    def n1_labels(self) -> tuple[int, ...]:
        return self.xi1.leg_labels()

    @property
    def n2_labels(self) -> tuple[int, ...]:
        return self.xi2.leg_labels()

    def contacts(self) -> tuple[int, ...]:
        return tuple(self.xi1.root_by_label(lab).c for lab in self.m_labels)

    def indices(self) -> tuple[int, ...]:
        return tuple(self.xi1.root_by_label(lab).f for lab in self.m_labels)

    def glued(self) -> ModularGraph:
        return glue(self.xi1, self.xi2)

    def canonical_pair(self) -> tuple[bytes, bytes]:
        return canonical_form(self.xi1), canonical_form(self.xi2)

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


def check_condition_B(graph: ModularGraph, monoid: CurveClassMonoid) -> ConditionBReport:
    """Per-vertex check: the root multiplicities must sum to the weight's
    intersection degree, exactly."""
    if graph.edges:
        raise DegenkitError("condition B applies to edge-free graphs")
    failures = []
    for v in range(len(graph.vertices)):
        expected = d_degree(graph.vertices[v].weight, monoid)
        actual = sum(
            (r.multiplicity for r in graph.roots_of_vertex(v)), Fraction(0)
        )
        if expected != actual:
            failures.append((v, expected, actual))
    return ConditionBReport(not failures, tuple(failures))


# -- structural enumeration ---------------------------------------------------


@dataclass(frozen=True)
class SplittingStructure:
    """A splitting with legs not yet attached.

    Blocks are the root labels of each prospective vertex, listed
    per side in order of least label; the one-vertex empty-M sides use a
    single empty block.
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

    def vertex_count(self) -> int:
        return len(self.blocks1) + len(self.blocks2)

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
    """All partitions into nonempty blocks, blocks ordered by least element."""
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
    pairs: Sequence[tuple[int, int]], m: int, target: Fraction
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Ordered (f, c) tuples of length m whose multiplicities sum to target."""
    ds = [Fraction(c, f) for f, c in pairs]
    d_min, d_max = min(ds), max(ds)

    def rec(k: int, remaining: Fraction, acc):
        if k == m:
            if remaining == 0:
                yield tuple(acc)
            return
        left = m - k
        if remaining < left * d_min or remaining > left * d_max:
            return
        for (f, c), d in zip(pairs, ds):
            if d <= remaining:
                acc.append((f, c))
                yield from rec(k + 1, remaining - d, acc)
                acc.pop()

    yield from rec(0, target, [])


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
        for comp in weak_compositions(exp, k):
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
    """Bipartite connectivity of the prospective glued graph."""
    node_of = {}
    for i, b in enumerate(blocks1):
        for lab in b:
            node_of.setdefault(lab, []).append(("L", i))
    for i, b in enumerate(blocks2):
        for lab in b:
            node_of.setdefault(lab, []).append(("R", i))
    nodes = [("L", i) for i in range(len(blocks1))] + [("R", i) for i in range(len(blocks2))]
    if not nodes:
        return False
    parent = {nd: nd for nd in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ends in node_of.values():
        a = find(ends[0])
        for other in ends[1:]:
            b = find(other)
            if a != b:
                parent[b] = a
    roots = {find(nd) for nd in nodes}
    return len(roots) == 1


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
    return int(env) if env else None


def iter_structures(
    problem: DegenerationProblem, budget: Optional[_Budget] = None
) -> Iterator[SplittingStructure]:
    """Walk all leg-free splitting structures in a deterministic order."""
    beta1, beta2 = problem.monoid.split(problem.beta)
    deg1, deg2 = problem.side_degrees()
    if deg1 != deg2:
        return
    budget = budget or _Budget(_effective_budget(problem))
    g = problem.genus
    n = len(problem.legs)
    if deg1 == 0:
        # No roots can exist, so one side is a single vertex and the other
        # side is empty; which sides are possible depends on where beta sits.
        if beta2.is_zero():
            budget.tick()
            yield SplittingStructure((), (), ((),), (beta1,), (g,), (), (), ())
        if beta1.is_zero():
            budget.tick()
            yield SplittingStructure((), (), (), (), (), ((),), (beta2,), (g,))
        return
    pairs = problem.root_data()
    if not pairs:
        raise DegenkitError(
            "no admissible contact data: divisor catalog is empty while beta meets the divisor"
        )
    d_min = min(Fraction(c, f) for f, c in pairs)
    m_max = int(deg1 / d_min)
    # weight splits by (side class, per-block degrees) and genus compositions
    # by (genus, vertex count) recur across contact tuples and partitions
    splits: dict = {}
    compositions: dict = {}

    def weight_options(beta, targets):
        key = (beta, targets)
        if key not in splits:
            splits[key] = list(_weight_splits(beta, problem.monoid, targets))
        return splits[key]

    for m in range(1, m_max + 1):
        labels = tuple(range(n + 1, n + m + 1))
        partitions = list(set_partitions(labels))
        for fc in _contact_tuples(pairs, m, deg1):
            budget.tick()
            dd = {lab: Fraction(c, f) for lab, (f, c) in zip(labels, fc)}
            targets = [
                tuple(sum((dd[lab] for lab in b), Fraction(0)) for b in blocks)
                for blocks in partitions
            ]
            for blocks1, t1 in zip(partitions, targets):
                w1_options = weight_options(beta1, t1)
                if not w1_options:
                    continue
                for blocks2, t2 in zip(partitions, targets):
                    k1, k2 = len(blocks1), len(blocks2)
                    cycles = m - k1 - k2 + 1
                    if cycles < 0 or g - cycles < 0:
                        continue
                    if not _blocks_connected(blocks1, blocks2):
                        continue
                    w2_options = weight_options(beta2, t2)
                    if not w2_options:
                        continue
                    genus_key = (g - cycles, k1 + k2)
                    if genus_key not in compositions:
                        compositions[genus_key] = list(weak_compositions(*genus_key))
                    for w1 in w1_options:
                        for w2 in w2_options:
                            for genera in compositions[genus_key]:
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
    representative: Splitting
    stabilizer_order: int
    size: int
    member_keys: tuple[tuple[bytes, bytes], ...]  # canonical pairs, sorted


def orbits(splittings: Sequence[Splitting]) -> list[SplittingOrbit]:
    """Group a closed set of splittings under root relabelings.

    For each orbit, size * stabilizer_order = |M|!; ``member_keys`` lists
    the canonical pairs of its members.
    """
    if not splittings:
        return []
    sizes = {len(s.m_labels) for s in splittings}
    if len(sizes) != 1:
        raise DegenkitError("orbits: all splittings must share |M|")
    m_labels = splittings[0].m_labels
    by_key = {s.canonical_pair(): s for s in splittings}
    unseen = dict(by_key)
    out = []
    for key in sorted(by_key):
        if key not in unseen:
            continue
        eta = by_key[key]
        orbit_keys = set()
        stab = 0
        for perm in itertools.permutations(m_labels):
            sigma = dict(zip(m_labels, perm))
            image = eta.relabeled(sigma)
            ikey = image.canonical_pair()
            if ikey == key:
                stab += 1
            if ikey not in by_key:
                raise DegenkitError(
                    "orbits: input is not closed under root relabeling"
                )
            orbit_keys.add(ikey)
        for ikey in orbit_keys:
            unseen.pop(ikey, None)
        members = tuple(sorted(orbit_keys))
        out.append(SplittingOrbit(by_key[members[0]], stab, len(members), members))
        assert stab * len(orbit_keys) == math.factorial(len(m_labels))
    return out
