"""Symbolic correlators, invariant tables, and the degeneration evaluator.

Correlator values live in a user-supplied table keyed by connected graphs
plus insertion data.  The degeneration formula is one sum: over splitting
structures, a contact coefficient times, for every term of the delta/rho
dual expansion, a Koszul-signed product of connected relative invariants.
One kernel evaluates it from three shared pieces:

- a basis-choice generator for the delta/rho expansion, in either dual
  convention: contact-order coefficients with plain involuted duals, or
  intersection-multiplicity coefficients with band-weighted duals;
- one sign builder, the Koszul sign of regrouping the insertion word per
  component;
- one component memo per run, keyed by the data that fixes a correlator key:
  side, genus, weight, each leg's (e, m, class) and each root's (f, c, class)
  in label order.

Key collection (``needed_keys``), evaluation and its term breakdown all run
the kernel, so each component is keyed and looked up once per run;
``splitting_inner_sum`` and ``evaluate_disconnected`` reuse its pieces for
one explicit splitting or one disconnected graph.  Interchangeable
even-parity legs are aggregated with multinomial weights, so instances whose
literal splitting set is huge still evaluate exactly.

Term accumulation is exact rational addition, hence associative and order
independent; the table is read-only during evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .algebra import Parity, dual_basis, koszul_sign
from .errors import DegenkitError, MissingKeysError, ParityError
from .graphs import (
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,
    d_degree,
    rank_relabeled,
    total_weight,
)
from .splitting import (
    DegenerationProblem,
    Splitting,
    SplittingStructure,
    iter_structures,
)
from .twisting import MINIMAL_TWIST, TwistingChoice, degeneration_ledger

CONVENTIONS = ("standard_dual", "chen_ruan")


@dataclass(frozen=True)
class Insertion:
    """Descendant exponent plus a basis class reference."""

    m: int
    class_id: str

    def __post_init__(self):
        if self.m < 0:
            raise DegenkitError("descendant exponent must be nonnegative")


@dataclass(frozen=True)
class CorrelatorKey:
    """Canonical lookup key: one connected graph with its insertions.

    Labels are rank-relabeled (legs to 1..n, roots after them, order
    preserved), so equal keys mean equal correlators regardless of the
    ambient label values.  ``legs`` holds (m, class id) pairs and ``roots``
    holds class ids, both in label order; indices e, f and contact orders c
    live in the graph bytes.
    """

    side: str
    graph: bytes
    legs: tuple[tuple[int, str], ...]
    roots: tuple[str, ...]

    def __post_init__(self):
        if self.side not in ("X1", "X2"):
            raise DegenkitError("key side must be 'X1' or 'X2'")

    @staticmethod
    def for_component(
        side: str,
        graph: ModularGraph,
        leg_insertions: Mapping[int, Insertion],
        root_classes: Mapping[int, str],
    ) -> "CorrelatorKey":
        if not graph.is_connected():
            raise DegenkitError("correlator keys are for connected graphs")
        if set(leg_insertions) != set(graph.leg_labels()):
            raise DegenkitError("leg insertions must match the graph legs")
        if set(root_classes) != set(graph.root_labels()):
            raise DegenkitError("root classes must match the graph roots")
        legs = tuple(
            (leg_insertions[lab].m, leg_insertions[lab].class_id)
            for lab in graph.leg_labels()
        )
        roots = tuple(root_classes[lab] for lab in graph.root_labels())
        return CorrelatorKey(side, canonical_form(rank_relabeled(graph)), legs, roots)

    def sort_token(self):
        return (self.side, self.graph, self.legs, self.roots)


class InvariantTable:
    """Exact-rational correlator values; absent keys stay detectable."""

    def __init__(self, entries: Mapping[CorrelatorKey, Fraction] | None = None):
        self._entries: dict[CorrelatorKey, Fraction] = {}
        for k, v in (entries or {}).items():
            self.set(k, v)

    def set(self, key: CorrelatorKey, value) -> None:
        self._entries[key] = Fraction(value)

    def get(self, key: CorrelatorKey) -> Optional[Fraction]:
        return self._entries.get(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CorrelatorKey) -> bool:
        return key in self._entries

    def items(self):
        return sorted(self._entries.items(), key=lambda kv: kv[0].sort_token())


@dataclass(frozen=True)
class EvalTerm:
    splitting: Splitting
    multiplicity: int
    delta_choice: tuple[tuple[int, str], ...]
    dual_choice: tuple[tuple[int, str], ...]
    sign: int
    coefficient: Fraction
    expansion_coefficient: Fraction
    left: tuple[tuple[CorrelatorKey, Fraction], ...]
    right: tuple[tuple[CorrelatorKey, Fraction], ...]

    @property
    def value(self) -> Fraction:
        out = self.coefficient * self.expansion_coefficient * self.sign * self.multiplicity
        for _, v in self.left + self.right:
            out *= v
        return out


@dataclass(frozen=True)
class EvaluationResult:
    value: Fraction
    convention: str
    twisting: str
    terms: tuple[EvalTerm, ...] | None = None


# -- shared machinery ---------------------------------------------------------


class _Context:
    """Resolved catalogs, duals, expansions, and the run's component memo."""

    def __init__(
        self,
        problem: DegenerationProblem,
        insertions: Sequence[Insertion],
        convention: str,
        table: InvariantTable | None,
    ):
        if convention not in CONVENTIONS:
            raise DegenkitError("unknown convention %r" % convention)
        if problem.ambient is None:
            raise DegenkitError("problem must carry an ambient catalog to evaluate")
        if len(insertions) != len(problem.legs):
            raise DegenkitError(
                "expected %d insertions, got %d" % (len(problem.legs), len(insertions))
            )
        self.problem = problem
        self.convention = convention
        self.divisor = problem.divisor
        self.ambient = problem.ambient
        self.table = table
        for ins in insertions:
            self.ambient.basis_index(ins.class_id)  # raises on unknown classes
        # (e, m, class id) per leg label: a leg's part of the memo key
        self.leg_data = {
            spec.label: (spec.e, ins.m, ins.class_id)
            for spec, ins in zip(problem.legs, insertions)
        }
        self.leg_parity = {
            lab: self.ambient.parity_of(cid)
            for lab, (_, _, cid) in self.leg_data.items()
        }
        self.leg_word = {
            ("leg", lab): self.leg_parity[lab] for lab in sorted(self.leg_parity)
        }
        duals = dual_basis(self.divisor)
        bands = self.divisor.band_weights()
        self.admissible: dict[int, list[str]] = {}
        for f in self.divisor.band_orders():
            self.admissible[f] = [
                b.id
                for b in self.divisor.basis
                if self.divisor.sector_of(b.id).band_order == f
            ]
        # expansion of the right-hand class attached to a chosen left class,
        # kept to the band of that class (other terms vanish by sector)
        self.expansion: dict[str, list[tuple[str, Fraction]]] = {}
        self.rho_parity: dict[str, Parity] = {}
        for i, b in enumerate(self.divisor.basis):
            vec = self.divisor.involution_pullback(duals[i])
            if self.convention == "chen_ruan":
                vec = tuple(bands[a] * vec[a] for a in range(len(vec)))
            support = [
                (self.divisor.basis[a].id, vec[a])
                for a in range(len(vec))
                if vec[a] != 0
            ]
            band = self.divisor.sector_of(b.id).band_order
            self.expansion[b.id] = [
                (cid, w)
                for cid, w in support
                if self.divisor.sector_of(cid).band_order == band
            ]
            parities = {self.divisor.parity_of(cid) for cid, _ in support}
            if len(parities) > 1:
                raise ParityError(
                    "dual of %r mixes parities; sign bookkeeping is inconsistent" % b.id
                )
            self.rho_parity[b.id] = parities.pop() if parities else Parity.EVEN
        self.memo: dict = {}

    def coefficient(self, contacts: Sequence[int], indices: Sequence[int], rule: TwistingChoice) -> Fraction:
        ledger = degeneration_ledger(contacts, rule)
        coeff = ledger.net
        if self.convention == "chen_ruan":
            for f in indices:
                coeff /= f
        return coeff

    def component(self, side: str, genus: int, weight, legs: tuple, roots: tuple):
        """(key, value, missing) of a one-vertex component, memoised.

        ``legs`` holds each leg's (e, m, class id) and ``roots`` each root's
        (f, c, class id), both in label order.  Together with side, genus
        and weight that is exactly the data fixing a rank-relabeled
        CorrelatorKey, so one memo entry stands for one key.
        """
        memo_key = (side, genus, weight, legs, roots)
        entry = self.memo.get(memo_key)
        if entry is None:
            n = len(legs)
            graph = ModularGraph(
                vertices=(Vertex(genus, weight),),
                legs=tuple(Leg(i + 1, e, 0) for i, (e, _, _) in enumerate(legs)),
                roots=tuple(
                    Root(n + i + 1, f, c, 0) for i, (f, c, _) in enumerate(roots)
                ),
            )
            entry = self.memo[memo_key] = _component_value(
                self.problem,
                side,
                graph,
                {i + 1: Insertion(m, cid) for i, (_, m, cid) in enumerate(legs)},
                {n + i + 1: cid for i, (_, _, cid) in enumerate(roots)},
                self.table,
            )
        return entry

    def word(self, m_labels: Sequence[int], delta: Sequence[str], rho: Sequence[str]):
        """Source word of one basis choice as {symbol: parity}, in order:
        legs by label, then delta_j rho_j by root label.  None when nothing
        is odd, since every sign is then +1."""
        word = dict(self.leg_word)
        for j, d, r in zip(m_labels, delta, rho):
            word["X1", j] = self.divisor.parity_of(d)
            word["X2", j] = self.rho_parity[r]
        return word if any(p.is_odd for p in word.values()) else None

    def raise_if_missing(self):
        missing = {key for key, _, was_missing in self.memo.values() if was_missing}
        if missing:
            raise MissingKeysError(missing)


def _component_value(
    problem: DegenerationProblem,
    side: str,
    graph: ModularGraph,
    leg_insertions: Mapping[int, Insertion],
    root_classes: Mapping[int, str],
    table: InvariantTable | None,
) -> tuple[Optional[CorrelatorKey], Fraction, bool]:
    """(key, value, missing) of one connected correlator.

    The two vanishing rules (root class off its index sector; multiplicity
    sum vs. divisor degree) apply before any key is built, so those keys are
    never demanded of the table and come back as None.  Without a table
    (key collection) every other component counts 1.
    """
    divisor = problem.divisor
    for root in graph.roots:
        if divisor.sector_of(root_classes[root.label]).band_order != root.f:
            return None, Fraction(0), False
    mult_sum = sum((r.multiplicity for r in graph.roots), Fraction(0))
    if mult_sum != d_degree(total_weight(graph), problem.monoid):
        return None, Fraction(0), False
    key = CorrelatorKey.for_component(side, graph, leg_insertions, root_classes)
    if table is None:
        return key, Fraction(1), False
    value = table.get(key)
    if value is None:
        return key, Fraction(0), True
    return key, value, False


def _symbols(side: str, leg_labels: Sequence[int], root_labels: Sequence[int]) -> tuple:
    """One component's part of the target word: legs, then roots."""
    return tuple(("leg", lab) for lab in leg_labels) + tuple(
        (side, lab) for lab in root_labels
    )


def _regroup_sign(word: Mapping[tuple, Parity], sides) -> int:
    """Koszul sign of regrouping the insertion word per component.

    ``word`` maps the symbols of the source word, in word order, to their
    parities.  The target takes ``sides`` in order; within a side its
    components go by least label, each given by ``_symbols``.
    """
    index = {sym: i for i, sym in enumerate(word)}
    target = [
        index[sym]
        for comps in sides
        for comp in sorted(comps, key=lambda c: min((lab for _, lab in c), default=0))
        for sym in comp
    ]
    return koszul_sign(target, list(word.values()))


def _basis_choices(ctx: _Context, indices: Sequence[int]):
    """Every term of the delta/rho expansion for roots of the given indices:
    (delta classes, rho classes, expansion weight), aligned with the roots."""
    for delta in itertools.product(*(ctx.admissible.get(f, []) for f in indices)):
        for rho in itertools.product(*(ctx.expansion[d] for d in delta)):
            weight = Fraction(1)
            for _, w in rho:
                weight *= w
            yield delta, tuple(cid for cid, _ in rho), weight


# -- the kernel: structures, basis choices, leg placements ---------------------


@dataclass
class _StructureVertex:
    side: str
    position: int
    block: tuple[int, ...]
    weight: object
    genus: int
    fc: tuple[tuple[int, int], ...]  # (f, c) per root label in block order


def _structure_vertices(structure: SplittingStructure) -> list[_StructureVertex]:
    out = []
    for side in ("X1", "X2"):
        blocks, weights, genera = structure.side(side)
        for i, block in enumerate(blocks):
            fc = tuple(structure.fc_of(lab) for lab in block)
            out.append(_StructureVertex(side, i, block, weights[i], genera[i], fc))
    return out


def _leg_groups(ctx: _Context) -> list[dict]:
    """Aggregate identical even legs; odd legs stay singletons."""
    groups: dict = {}
    for spec in ctx.problem.legs:
        if ctx.leg_parity[spec.label].is_odd:
            key = ("odd", spec.label)
        else:
            key = ("even", ctx.leg_data[spec.label], spec.side)
        groups.setdefault(key, {"labels": [], "side": spec.side})["labels"].append(
            spec.label
        )
    out = sorted(groups.values(), key=lambda g: g["labels"][0])
    for g in out:
        g["labels"].sort()
        g["count"] = len(g["labels"])
    return out


def _placements(ctx: _Context, vertices, groups, roots):
    """Distribute the leg groups over the vertices, pruning zero components.

    Yields (placed, multiplicity, product of component values) per complete
    placement; ``placed`` lists (vertex index, leg labels, key, value).
    ``roots`` gives each vertex's (f, c, class id) per root.
    """
    # last position at which each group can still place legs
    last = [
        max(i for i, vx in enumerate(vertices) if g["side"] in (None, vx.side))
        for g in groups
    ]
    placed: list = []

    def rec(vi: int, remaining: list[int], mult: int, product: Fraction):
        if vi == len(vertices):
            yield tuple(placed), mult, product
            return
        vx = vertices[vi]
        options = []
        for gi, g in enumerate(groups):
            if g["side"] not in (None, vx.side):
                options.append((0,))
            elif vi == last[gi]:
                options.append((remaining[gi],))
            else:
                options.append(range(remaining[gi] + 1))
        for counts in itertools.product(*options):
            labels: list[int] = []
            new_mult = mult
            new_remaining = list(remaining)
            for gi, take in enumerate(counts):
                if take:
                    g = groups[gi]
                    start = g["count"] - remaining[gi]
                    labels += g["labels"][start : start + take]
                    new_mult *= math.comb(remaining[gi], take)
                    new_remaining[gi] -= take
            labels.sort()
            key, value, missing = ctx.component(
                vx.side,
                vx.genus,
                vx.weight,
                tuple(ctx.leg_data[lab] for lab in labels),
                roots[vi],
            )
            if value == 0 and not missing:
                # a genuine zero kills the whole branch; missing keys keep the
                # walk alive so the error can list every absent key
                continue
            placed.append((vi, tuple(labels), key, value))
            yield from rec(vi + 1, new_remaining, new_mult, product * value)
            placed.pop()

    return rec(0, [g["count"] for g in groups], 1, Fraction(1))


def _walk(ctx: _Context, rule: TwistingChoice, terms: Optional[list] = None) -> Fraction:
    """The evaluation kernel: sum the formula over structures, basis choices
    and leg placements.

    Without a table (key collection) every keyed component counts 1 and the
    walk only fills the memo.  No branch is pruned then: structures satisfy
    condition B and basis choices keep each root on its band, so the
    vanishing rules never fire here.  With ``terms``, each nonzero term is
    appended as an EvalTerm.
    """
    problem = ctx.problem
    groups = _leg_groups(ctx)
    total = Fraction(0)
    for structure in iter_structures(problem):
        m_labels = structure.m_labels
        indices = [f for f, _ in structure.root_data]
        coeff = ctx.coefficient([c for _, c in structure.root_data], indices, rule)
        vertices = _structure_vertices(structure)
        sides = {vx.side for vx in vertices}
        # a constrained leg with no vertex on its side kills the structure
        if not vertices or any(g["side"] not in (None, *sides) for g in groups):
            continue
        for delta, rho, weight in _basis_choices(ctx, indices):
            classes = {"X1": dict(zip(m_labels, delta)), "X2": dict(zip(m_labels, rho))}
            roots = [
                tuple(fc + (classes[vx.side][lab],) for lab, fc in zip(vx.block, vx.fc))
                for vx in vertices
            ]
            word = ctx.word(m_labels, delta, rho)
            for placed, mult, product in _placements(ctx, vertices, groups, roots):
                if ctx.table is None:
                    continue
                sign = 1
                if word is not None:
                    comps: tuple[list, list] = ([], [])
                    for vi, labels, _, _ in placed:
                        vx = vertices[vi]
                        comps[vx.side == "X2"].append(_symbols(vx.side, labels, vx.block))
                    sign = _regroup_sign(word, comps)
                total += sign * coeff * weight * mult * product
                if terms is None:
                    continue
                assignment = {
                    lab: (vertices[vi].side, vertices[vi].position)
                    for vi, labels, _, _ in placed
                    for lab in labels
                }
                terms.append(
                    EvalTerm(
                        splitting=structure.build_splitting(assignment, problem.legs),
                        multiplicity=mult,
                        delta_choice=tuple(zip(m_labels, delta)),
                        dual_choice=tuple(zip(m_labels, rho)),
                        sign=sign,
                        coefficient=coeff,
                        expansion_coefficient=weight,
                        left=tuple(
                            (key, value)
                            for vi, _, key, value in placed
                            if vertices[vi].side == "X1"
                        ),
                        right=tuple(
                            (key, value)
                            for vi, _, key, value in placed
                            if vertices[vi].side == "X2"
                        ),
                    )
                )
    return total


# -- public operations --------------------------------------------------------


def needed_keys(
    problem: DegenerationProblem,
    insertions: Sequence[Insertion],
) -> list[CorrelatorKey]:
    """Every key the evaluator will look up, deduplicated and sorted."""
    ctx = _Context(problem, insertions, "standard_dual", None)
    _walk(ctx, MINIMAL_TWIST)
    keys = {key for key, _, _ in ctx.memo.values() if key is not None}
    return sorted(keys, key=lambda k: k.sort_token())


def evaluate_degeneration(
    problem: DegenerationProblem,
    insertions: Sequence[Insertion],
    table: InvariantTable,
    rule: TwistingChoice = MINIMAL_TWIST,
    convention: str = "standard_dual",
    with_terms: bool = False,
) -> EvaluationResult:
    """Evaluate the splitting sum against the table, exactly.

    Identical even-parity legs are aggregated, so the reported terms carry a
    representative splitting and its multiplicity.  Missing table keys abort
    the run with the full list of absent keys.
    """
    ctx = _Context(problem, insertions, convention, table)
    terms: Optional[list] = [] if with_terms else None
    value = _walk(ctx, rule, terms)
    ctx.raise_if_missing()
    return EvaluationResult(
        value=value,
        convention=convention,
        twisting=rule.describe(),
        terms=tuple(terms) if terms is not None else None,
    )


def splitting_inner_sum(
    problem: DegenerationProblem,
    splitting: Splitting,
    insertions: Sequence[Insertion],
    table: InvariantTable,
    convention: str = "standard_dual",
) -> Fraction:
    """The basis sum of one explicit splitting, without its coefficient.

    Multiplying by prod(c)/|M|! and summing over all splittings reproduces
    evaluate_degeneration; multiplying by prod(c)/|Eq| and summing over orbit
    representatives is the other normalization of the same sum.
    """
    ctx = _Context(problem, insertions, convention, table)
    m_labels = splitting.m_labels
    vertices = [
        (side, graph.vertices[v], graph.legs_of_vertex(v), graph.roots_of_vertex(v))
        for side, graph in (("X1", splitting.xi1), ("X2", splitting.xi2))
        for v in range(len(graph.vertices))
    ]
    total = Fraction(0)
    for delta, rho, weight in _basis_choices(ctx, splitting.indices()):
        classes = {"X1": dict(zip(m_labels, delta)), "X2": dict(zip(m_labels, rho))}
        product = weight
        for side, vertex, legs, roots in vertices:
            _, value, _ = ctx.component(
                side,
                vertex.genus,
                vertex.weight,
                tuple((leg.e,) + ctx.leg_data[leg.label][1:] for leg in legs),
                tuple((r.f, r.c, classes[side][r.label]) for r in roots),
            )
            product *= value
        word = ctx.word(m_labels, delta, rho)
        if product != 0 and word is not None:
            comps: tuple[list, list] = ([], [])
            for side, _, legs, roots in vertices:
                comps[side == "X2"].append(
                    _symbols(side, [l.label for l in legs], [r.label for r in roots])
                )
            product *= _regroup_sign(word, comps)
        total += product
    ctx.raise_if_missing()
    return total


def evaluate_disconnected(
    graph: ModularGraph,
    leg_insertions: Mapping[int, Insertion],
    root_classes: Mapping[int, str],
    table: InvariantTable,
    problem: DegenerationProblem,
    side: str = "X1",
) -> Fraction:
    """Signed product of connected correlators over the components.

    Components are ordered by least label; each must carry at least one leg
    or root.
    """
    if set(leg_insertions) != set(graph.leg_labels()):
        raise DegenkitError("leg insertions must cover the graph legs")
    if set(root_classes) != set(graph.root_labels()):
        raise DegenkitError("root classes must cover the graph roots")
    if problem.ambient is None:
        raise DegenkitError("problem must carry an ambient catalog")
    comps = []
    for comp_ids in graph.component_partition():
        comp = graph.subgraph(comp_ids)
        if not comp.legs and not comp.roots:
            raise DegenkitError(
                "unsupported input: a component carries no legs and no roots"
            )
        comps.append(comp)
    word = {
        ("leg", lab): problem.ambient.parity_of(leg_insertions[lab].class_id)
        for lab in sorted(leg_insertions)
    }
    for lab in sorted(root_classes):
        word[side, lab] = problem.divisor.parity_of(root_classes[lab])
    product = Fraction(
        _regroup_sign(
            word, [[_symbols(side, c.leg_labels(), c.root_labels()) for c in comps]]
        )
    )
    missing = set()
    for comp in comps:
        key, value, was_missing = _component_value(
            problem,
            side,
            comp,
            {lab: leg_insertions[lab] for lab in comp.leg_labels()},
            {lab: root_classes[lab] for lab in comp.root_labels()},
            table,
        )
        product *= value
        if was_missing:
            missing.add(key)
    if missing:
        raise MissingKeysError(missing)
    return product
