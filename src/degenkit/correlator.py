"""Symbolic correlators, invariant tables, and the degeneration evaluator.

Correlator values live in a user-supplied table keyed by connected graphs
plus insertion data.  The degeneration formula is one sum: over splitting
structures, a contact coefficient times, for every term of the delta/rho
dual expansion, a Koszul-signed product of connected relative invariants.
One kernel evaluates it from three shared pieces:

- the delta/rho expansion, in either dual convention: contact-order
  coefficients with plain involuted duals, or intersection-multiplicity
  coefficients with band-weighted duals.  Its basis choices are listed once
  per run for each tuple of root indices, each flagged with whether any
  sign can differ from +1, so the insertion word is built only when
  something is odd;
- one sign builder, the Koszul sign of regrouping the insertion word per
  component;
- one component memo per run, keyed by the data that fixes a correlator key:
  side, genus, the weight's exponents, each leg's (e, m, class) and each
  root's (f, c, class) in label order.

Every component of a splitting has one vertex, and the memo asks the table
for its value by that data (``InvariantTable.vertex_value``).  A plain table
builds the key with ``CorrelatorKey.for_vertex`` and looks it up; a table
that can value the data directly (the P1 table of ``oracle``) builds no key.
The kernel builds a key only when the run reports it: for a missing key
(``MissingKeysError``) and for the term breakdown.  ``for_vertex`` writes the
bytes ``canonical_form(rank_relabeled(graph))`` gives for the one-vertex
graph, which has no tie to break, so no graph is built.
``CorrelatorKey.for_component`` stays the reference for connected graphs of
any size and serves ``evaluate_disconnected``.  The two vanishing rules (a
root class off the band of its index; condition B) are applied in
``_vanishes``.  The kernel never applies them: its structures meet
condition B and its basis choices keep each root on its band, so no vertex
it meets vanishes by rule.  Only ``splitting_inner_sum`` and
``evaluate_disconnected``, whose splitting or graph comes from outside,
check them.

Evaluation and its term breakdown run the kernel, so each component is
looked up once per run; ``splitting_inner_sum`` and
``evaluate_disconnected`` reuse its pieces for one explicit splitting or one
disconnected graph.  Key collection (``needed_keys``) walks the same
structures and basis choices but places no legs and looks up no value: it
gathers each vertex's data with every leg set a placement can give it and
every root tuple a basis choice gives it, and builds the key of each
distinct one once, with ``CorrelatorKey.for_vertex``.  Interchangeable
even-parity legs are aggregated with multinomial weights, so instances
whose literal splitting set is huge still evaluate exactly.  The problem's
node budget (``problem.budget`` or ``DEGENKIT_BUDGET``) bounds the whole
kernel walk (structures, basis choices and leg placements) and the key walk
(structures, its forward pass over the legs and the root orders it keys).

Plain evaluation sums over structures up to root relabeling: it walks one
structure per orbit (``iter_structure_orbits``) and weights it by the orbit
size, |M|!/|stabilizer|, where the labeled walk (``iter_structures``) counts
each member once.  A relabeling changes no term's value, so the sums agree;
acceptance criterion 4 checks the two normalizations against each other.
Key collection walks the orbits too, keying each vertex in every order its
orbit's members give it; the term breakdown keeps the labeled walk, as its
output is listed per labeled structure.  Otherwise the budget counts the
orbit walk's nodes (contact multisets, root-graph rows and decorations).

Both walks work out once per skeleton (``_skeletons``: a run of structures
sharing root data and root blocks, differing only in weights and genera)
what depends only on the skeleton: contacts, indices, basis choices and
each choice's roots per vertex.

Tables are taken to be covariant (permuting identical legs changes a value
by the Koszul sign), which is what lets identical even legs be aggregated.
For each structure and basis choice the walk sums the leg placements, each
signed when the choice has an odd class in its insertion word, and adds that
sum times the orbit size, contact coefficient and expansion weight to the
total.  The placement walk works in ints: what a vertex can take from the
legs left is expanded once per run (``_takes``), and a placement's product
is an unreduced numerator and denominator, so a (structure, basis choice)
builds one Fraction, not one per placement node.

A missing table key aborts evaluation with ``MissingKeysError``, which lists
the absent keys the walk reaches.  The walk does not go past a genuine zero,
so an absent key is left out only when every term it enters is zero anyway,
or (in plain evaluation) when another member of its orbit stands for the
structure that reaches it; a run that does not raise returns the value a
full table gives.  Every key listed is genuinely absent, but plain
evaluation may list fewer of them than the term breakdown; ``needed_keys``
lists them all.

Term accumulation is exact rational addition, hence associative and order
independent; the table is read-only during evaluation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .algebra import Parity, chen_ruan_dual, dual_basis, koszul_sign
from .errors import DegenkitError, MissingKeysError, ParityError
from .graphs import (
    CurveClass,
    ModularGraph,
    canonical_form,
    rank_relabeled,
    total_weight,
    vertex_form,
)
from .splitting import (
    DegenerationProblem,
    Splitting,
    SplittingStructure,
    _Budget,
    _effective_budget,
    iter_structure_orbits,
    iter_structures,
    meets_condition_B,
)
from .twisting import MINIMAL_TWIST, TwistingChoice, degeneration_ledger

CONVENTIONS = ("standard_dual", "chen_ruan")
_ZERO = Fraction(0)


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

    ``for_component`` builds the key of a connected graph of any size as
    ``canonical_form(rank_relabeled(graph))`` and is the reference.  Every
    component of a splitting has one vertex, and ``for_vertex`` builds such
    a key straight from the vertex data, with the same bytes.
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

    @staticmethod
    def for_vertex(
        side: str, genus: int, weight, legs: Sequence[tuple], roots: Sequence[tuple]
    ) -> "CorrelatorKey":
        """Key of a one-vertex graph of the given genus and weight.

        ``legs`` holds each leg's (e, m, class id) and ``roots`` each root's
        (f, c, class id), both in label order.  Equal to ``for_component``
        on that graph with legs labeled 1..n and roots n+1..n+k.
        """
        return CorrelatorKey(
            side,
            vertex_form(genus, weight, [e for e, _, _ in legs], [(f, c) for f, c, _ in roots]),
            tuple([(m, cid) for _, m, cid in legs]),
            tuple([cid for _, _, cid in roots]),
        )

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

    def vertex_value(
        self, side: str, genus: int, weight, legs: tuple, roots: tuple
    ) -> Optional[Fraction]:
        """The value of the one-vertex key with this data, as ``get`` gives
        it for ``CorrelatorKey.for_vertex(side, genus, weight, legs, roots)``.

        A table that can value the data without the key bytes overrides it.
        """
        return self.get(CorrelatorKey.for_vertex(side, genus, weight, legs, roots))

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CorrelatorKey) -> bool:
        return self.get(key) is not None

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
    """Resolved catalogs, duals, expansions, and the run's memos.

    Besides the component memo (``component``), a run keeps its basis
    choices per index tuple, contact coefficients, leg groups
    (``_leg_groups``) and the take expansions of the placement walk
    (``_takes``), keyed by (vertex sides, vertex position, legs left per
    group).  All of them live as long as the run's context.
    """

    def __init__(
        self,
        problem: DegenerationProblem,
        insertions: Sequence[Insertion],
        convention: str,
        table: InvariantTable,
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
        self.odd_leg = any(p.is_odd for p in self.leg_parity.values())
        duals = dual_basis(self.divisor)
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
            if self.convention == "chen_ruan":
                vec = chen_ruan_dual(b.id, self.divisor)
            else:
                vec = self.divisor.involution_pullback(duals[i])
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
        self.term_keys: Optional[dict] = None  # set by a term breakdown: see component
        self.choices: dict = {}
        self.coefficients: dict = {}
        self.groups = _leg_groups(self)
        self.takes: dict = {}  # by (vertex sides, position, legs left): see _takes

    def coefficient(
        self, contacts: tuple, indices: tuple, rule: TwistingChoice
    ) -> Fraction:
        memo_key = (contacts, indices, rule)
        coeff = self.coefficients.get(memo_key)
        if coeff is None:
            coeff = degeneration_ledger(contacts, rule).net
            if self.convention == "chen_ruan":
                for f in indices:
                    coeff /= f
            self.coefficients[memo_key] = coeff
        return coeff

    def component(self, side: str, genus: int, weight, legs: tuple, roots: tuple):
        """(value, missing) of a one-vertex component, memoised.

        ``legs`` holds each leg's (e, m, class id) and ``roots`` each root's
        (f, c, class id), both in label order.  Together with side, genus
        and weight that is exactly the data fixing a rank-relabeled
        CorrelatorKey, so one memo entry stands for one key.  The memo is
        keyed by (side, genus, weight exponents, legs, roots), all tuples of
        strings and ints, and the table is asked by the data
        (``InvariantTable.vertex_value``); the key itself is built only
        when the run reports it (``key``).  The term breakdown reports
        every component, so its run sets ``term_keys`` to a dict: each key is
        then built once, kept there by memo key, and the table is asked by
        it.  A missing value counts as 0.  No vanishing rule is applied:
        the kernel's vertices never meet one.
        """
        memo_key = (side, genus, weight.exponents, legs, roots)
        entry = self.memo.get(memo_key)
        if entry is None:
            if self.term_keys is None:
                value = self.table.vertex_value(side, genus, weight, legs, roots)
            else:
                key = self.term_keys[memo_key] = CorrelatorKey.for_vertex(
                    side, genus, weight, legs, roots
                )
                value = self.table.get(key)
            entry = self.memo[memo_key] = (_ZERO, True) if value is None else (value, False)
        return entry

    @staticmethod
    def key(memo_key: tuple) -> CorrelatorKey:
        """The CorrelatorKey of a component memo key."""
        side, genus, exponents, legs, roots = memo_key
        return CorrelatorKey.for_vertex(side, genus, CurveClass(exponents), legs, roots)

    def basis_choices(self, indices: tuple[int, ...]) -> list[tuple]:
        """Every term of the delta/rho expansion for roots of the given
        indices, listed once per index tuple: (delta classes, rho classes,
        expansion weight, odd), aligned with the roots.  ``odd`` is False
        when no leg and no chosen class is odd, so every sign is +1."""
        choices = self.choices.get(indices)
        if choices is None:
            choices = self.choices[indices] = []
            for delta in itertools.product(*(self.admissible.get(f, []) for f in indices)):
                for rho in itertools.product(*(self.expansion[d] for d in delta)):
                    weight = Fraction(1)
                    for _, w in rho:
                        weight *= w
                    rho_ids = tuple(cid for cid, _ in rho)
                    odd = self.odd_leg or any(
                        self.divisor.parity_of(d).is_odd or self.rho_parity[r].is_odd
                        for d, r in zip(delta, rho_ids)
                    )
                    choices.append((delta, rho_ids, weight, odd))
        return choices

    def word(self, m_labels: Sequence[int], delta: Sequence[str], rho: Sequence[str]):
        """Source word of one basis choice as {symbol: parity}, in order:
        legs by label, then delta_j rho_j by root label."""
        word = dict(self.leg_word)
        for j, d, r in zip(m_labels, delta, rho):
            word["X1", j] = self.divisor.parity_of(d)
            word["X2", j] = self.rho_parity[r]
        return word

    def raise_if_missing(self):
        missing = [self.key(k) for k, (_, was_missing) in self.memo.items() if was_missing]
        if missing:
            raise MissingKeysError(missing)


def _vanishes(problem: DegenerationProblem, weight, roots: Sequence[tuple]) -> bool:
    """The two vanishing rules of a connected correlator, from its weight
    and each root's (f, c, class id): a root class off the band of the
    root's index, or a failed ``meets_condition_B``.  Such keys are never
    demanded of the table.  Only splittings and graphs given from outside
    the kernel are checked."""
    divisor = problem.divisor
    if any(divisor.sector_of(cid).band_order != f for f, _, cid in roots):
        return True
    return not meets_condition_B(weight, roots, problem.monoid)


def _component_value(
    problem: DegenerationProblem,
    side: str,
    graph: ModularGraph,
    leg_insertions: Mapping[int, Insertion],
    root_classes: Mapping[int, str],
    table: InvariantTable,
) -> tuple[Optional[CorrelatorKey], Fraction, bool]:
    """(key, value, missing) of one connected correlator of any size; the
    key is None when a vanishing rule fires."""
    roots = [(r.f, r.c, root_classes[r.label]) for r in graph.roots]
    if _vanishes(problem, total_weight(graph), roots):
        return None, _ZERO, False
    key = CorrelatorKey.for_component(side, graph, leg_insertions, root_classes)
    value = table.get(key)
    if value is None:
        return key, _ZERO, True
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


# -- the kernel: structures, basis choices, leg placements ---------------------


class _Skeleton:
    """What the structures of one (root_data, blocks1, blocks2) share.

    A structure source yields them consecutively (``_skeletons``), differing
    only in weights and genera.  The vertices are ``blocks``, the X1 blocks
    then the X2 blocks as in ``genera1 + genera2``, with their ``sides`` and
    their ``positions`` within their side; ``roots[i]`` gives, for basis
    choice i, each vertex's (f, c, class id) per root.  ``dead`` marks a
    side-constrained leg group with no vertex on its side, which kills every
    structure of the skeleton.
    """

    def __init__(self, ctx: _Context, structure: SplittingStructure):
        m_labels, blocks1, blocks2 = structure.m_labels, structure.blocks1, structure.blocks2
        self.key = (structure.root_data, blocks1, blocks2)
        self.blocks = blocks1 + blocks2
        self.sides = ("X1",) * len(blocks1) + ("X2",) * len(blocks2)
        self.positions = tuple(range(len(blocks1))) + tuple(range(len(blocks2)))
        self.dead = not self.sides or any(
            g["side"] not in (None, *self.sides) for g in ctx.groups
        )
        self.contacts = tuple(c for _, c in structure.root_data)
        self.indices = tuple(f for f, _ in structure.root_data)
        self.choices = ctx.basis_choices(self.indices)
        fc_of = dict(zip(m_labels, structure.root_data))
        self.roots = []
        for delta, rho, _, _ in self.choices:
            cls1, cls2 = dict(zip(m_labels, delta)), dict(zip(m_labels, rho))
            self.roots.append(
                tuple(tuple(fc_of[lab] + (cls1[lab],) for lab in b) for b in blocks1)
                + tuple(tuple(fc_of[lab] + (cls2[lab],) for lab in b) for b in blocks2)
            )


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


def _takes(ctx: _Context, sides: tuple, vi: int, remaining: tuple) -> list:
    """Every share of the legs the vertex at ``vi`` can take, memoised.

    The take rule, written once: a group not allowed on the vertex's side
    gives it none; at the last position that allows a group, the vertex
    takes all that is left of it; elsewhere any count up to what is left.
    A take of ``k`` of a group's ``left`` legs gets the lowest free labels,
    and there are comb(left, k) ways to choose them.  Which labels a take
    gets depends on the legs left, so vertex order matters.

    Each entry is (labels taken in label order, their (e, m, class id) in
    that order, the product of binomials, legs left after).  All of it
    depends only on the vertex sides, the position and the legs left per
    group of ``ctx.groups``, so one run expands each such state once.
    """
    memo_key = (sides, vi, remaining)
    takes = ctx.takes.get(memo_key)
    if takes is not None:
        return takes
    side, later = sides[vi], sides[vi + 1 :]
    options = [
        (0,) if g["side"] not in (None, side)
        else range(left + 1) if any(g["side"] in (None, s) for s in later)
        else (left,)
        for g, left in zip(ctx.groups, remaining)
    ]
    takes = ctx.takes[memo_key] = []
    for counts in itertools.product(*options):
        labels: list[int] = []
        factor = 1
        for g, left, take in zip(ctx.groups, remaining, counts):
            if take:
                start = g["count"] - left
                labels += g["labels"][start : start + take]
                factor *= math.comb(left, take)
        labels.sort()
        takes.append(
            (
                tuple(labels),
                tuple([ctx.leg_data[lab] for lab in labels]),
                factor,
                tuple([left - take for left, take in zip(remaining, counts)]),
            )
        )
    return takes


def _placements(ctx: _Context, sides, genera, weights, roots, budget: _Budget):
    """Distribute the leg groups over the vertices, pruning zero components.

    Vertex i has the side ``sides[i]``, genus ``genera[i]``, weight
    ``weights[i]`` and, per root, the (f, c, class id) in ``roots[i]``.
    Yields (placed, multiplicity, numerator, denominator) per complete
    placement; ``placed`` lists (vertex index, leg labels, leg data, value), and
    the product of the values is numerator / denominator, carried as ints
    from each value's ``numerator`` and ``denominator`` and never reduced.
    Each node of the walk, one vertex's share of the legs from ``_takes``,
    ticks ``budget``.
    """
    placed: list = []

    def rec(vi: int, remaining: tuple, mult: int, num: int, den: int):
        if vi == len(sides):
            yield tuple(placed), mult, num, den
            return
        side, genus, weight, vertex_roots = sides[vi], genera[vi], weights[vi], roots[vi]
        for labels, legs, factor, after in _takes(ctx, sides, vi, remaining):
            budget.tick()
            value, missing = ctx.component(side, genus, weight, legs, vertex_roots)
            value_num = value.numerator
            if not value_num and not missing:
                # a genuine zero kills the whole branch; missing keys keep the
                # walk alive so the error can list every absent key
                continue
            placed.append((vi, labels, legs, value))
            yield from rec(
                vi + 1, after, mult * factor, num * value_num, den * value.denominator
            )
            placed.pop()

    try:
        yield from rec(0, tuple(g["count"] for g in ctx.groups), 1, 1, 1)
    finally:
        # rec refers to itself through its closure; breaking that cycle frees
        # the run's context by reference counting when the run ends
        rec = None


def _leg_options(ctx: _Context, sides: tuple, budget: _Budget) -> dict:
    """Each side's leg data tuples over every placement of the groups, at
    any of its vertex positions.

    A forward pass over (vertex position, legs left per group), in vertex
    order: each reachable state adds the leg data of every take
    ``_takes`` lists for it, which is what ``_placements`` would give the
    vertex from that state.  Each (vertex, state, take) ticks ``budget``.
    """
    options: dict = {"X1": {}, "X2": {}}
    states = {tuple(g["count"] for g in ctx.groups)}
    for vi, side in enumerate(sides):
        after: set = set()
        for remaining in states:
            for _, data, _, left in _takes(ctx, sides, vi, remaining):
                budget.tick()
                options[side][data] = None
                after.add(left)
        states = after
    return options


def _orders(items: tuple):
    """Every distinct order of ``items``, listed lazily: each distinct first
    item, then every order of the rest."""
    if not items:
        yield ()
    for first in dict.fromkeys(items):
        i = items.index(first)
        for rest in _orders(items[:i] + items[i + 1 :]):
            yield (first,) + rest


def _skeletons(ctx: _Context, source):
    """(structure, size, skeleton) for each (structure, size) of ``source``
    whose skeleton is not dead.  A source yields a skeleton's structures
    consecutively, so a ``_Skeleton`` is built only when the root data or
    the root blocks change."""
    skeleton = None
    for structure, size in source:
        if skeleton is None or (
            structure.root_data, structure.blocks1, structure.blocks2
        ) != skeleton.key:
            skeleton = _Skeleton(ctx, structure)
        if not skeleton.dead:
            yield structure, size, skeleton


def _walk(ctx: _Context, rule: TwistingChoice, terms: Optional[list] = None) -> Fraction:
    """The evaluation kernel: sum the formula over structures, basis choices
    and leg placements.

    The structure source depends on the run.  Plain evaluation walks one
    structure per root-relabeling orbit and weights its terms by the orbit
    size where the labeled walk weights them by 1.  ``terms`` walks every
    labeled structure, each of size 1.

    What the structures of one skeleton share (contacts, indices, basis
    choices, the vertex layout, each choice's roots per vertex, the
    dead-leg check) is worked out once per skeleton (``_skeletons``), and so
    is the contact coefficient.

    Each (structure, basis choice) walks its placements and sums
    sign * multiplicity * product, the sign being 1 when the choice is all
    even; the total gains size * coefficient * expansion weight * that sum.
    The sum is taken in ints: each placement's product comes as an
    unreduced numerator and denominator, the signed numerators are summed
    per denominator, and the sums are brought over the lcm of those
    denominators, so no gcd is taken per placement.  One Fraction is built
    per (structure, basis choice) whose sum is nonzero.  With ``terms``
    each nonzero placement is also appended as an EvalTerm, with the keys
    its components were looked up by (``_Context.component`` builds each
    once).

    One node budget bounds the walk: each node of the structure source
    (for plain evaluation, of the orbit walk), basis choice and placement
    node ticks it.
    """
    problem = ctx.problem
    budget = _Budget(_effective_budget(problem))
    if terms is None:
        source = iter_structure_orbits(problem, budget)
    else:
        ctx.term_keys = {}
        source = ((structure, 1) for structure in iter_structures(problem, budget))
    total = _ZERO
    skeleton = None
    for structure, size, current in _skeletons(ctx, source):
        if current is not skeleton:
            skeleton = current
            coeff = ctx.coefficient(skeleton.contacts, skeleton.indices, rule)
        m_labels, sides, blocks = structure.m_labels, skeleton.sides, skeleton.blocks
        genera = structure.genera1 + structure.genera2
        weights = structure.weights1 + structure.weights2
        for ci, (delta, rho, weight, odd) in enumerate(skeleton.choices):
            budget.tick()
            roots = skeleton.roots[ci]
            word = ctx.word(m_labels, delta, rho) if odd else None
            sums: dict = {}  # sign * multiplicity * numerator, by denominator
            for placed, mult, num, den in _placements(
                ctx, sides, genera, weights, roots, budget
            ):
                sign = 1
                if word is not None:
                    comps: tuple[list, list] = ([], [])
                    for vi, labels, _, _ in placed:
                        comps[sides[vi] == "X2"].append(_symbols(sides[vi], labels, blocks[vi]))
                    sign = _regroup_sign(word, comps)
                if num:  # 0 only past a missing key
                    sums[den] = sums.get(den, 0) + sign * mult * num
                if terms is None:
                    continue
                assignment = {
                    lab: (sides[vi], skeleton.positions[vi])
                    for vi, labels, _, _ in placed
                    for lab in labels
                }
                keyed: tuple[list, list] = ([], [])
                for vi, _, legs, value in placed:
                    memo_key = (sides[vi], genera[vi], weights[vi].exponents, legs, roots[vi])
                    keyed[sides[vi] == "X2"].append((ctx.term_keys[memo_key], value))
                terms.append(
                    EvalTerm(
                        splitting=structure.build_splitting(assignment, problem.legs),
                        multiplicity=mult,
                        delta_choice=tuple(zip(m_labels, delta)),
                        dual_choice=tuple(zip(m_labels, rho)),
                        sign=sign,
                        coefficient=coeff,
                        expansion_coefficient=weight,
                        left=tuple(keyed[0]),
                        right=tuple(keyed[1]),
                    )
                )
            if sums:
                common = math.lcm(*sums)
                placement_sum = sum(v * (common // den) for den, v in sums.items())
                if placement_sum:
                    total += size * coeff * weight * Fraction(placement_sum, common)
    return total


# -- public operations --------------------------------------------------------


def needed_keys(
    problem: DegenerationProblem,
    insertions: Sequence[Insertion],
) -> list[CorrelatorKey]:
    """Every key the evaluator will look up, deduplicated and sorted.

    The keys are those the placement walk of every labeled structure and
    basis choice reaches, found from one structure per orbit
    (``iter_structure_orbits``) without placing legs.  A key depends only on
    the vertex (side, genus, weight), the legs it takes and its roots'
    (f, c, class id) in label order, and nothing prunes the walk (structures
    meet condition B, basis choices keep roots on their band), so a vertex
    meets every leg set it can take at its position (``_leg_options``, one
    forward pass per tuple of vertex sides) with every root tuple a basis
    choice gives it.  The members of an orbit reorder each side's blocks
    and the roots inside each block in every way, so each vertex of the
    representative is keyed with the leg sets of every position of its side
    and every order (``_orders``) of its root tuples.

    The node budget counts the orbit walk's nodes, each (vertex, legs left,
    take) of the forward passes and each root order keyed: P1 degree 3,
    genus 1 ticks 207 nodes and degree 5, genus 2 ticks 5,762, where walking
    every placement ticked 1,388 and 7,760,651.
    """
    ctx = _Context(problem, insertions, "standard_dual", InvariantTable())
    budget = _Budget(_effective_budget(problem))
    leg_options: dict = {}  # by vertex sides
    found: set = set()
    for structure, _, skeleton in _skeletons(ctx, iter_structure_orbits(problem, budget)):
        sides = skeleton.sides
        if sides not in leg_options:
            leg_options[sides] = _leg_options(ctx, sides, budget)
        genera = structure.genera1 + structure.genera2
        weights = structure.weights1 + structure.weights2
        for vi, (side, genus, weight) in enumerate(zip(sides, genera, weights)):
            for roots in dict.fromkeys(tuple(sorted(r[vi])) for r in skeleton.roots):
                for order in _orders(roots):
                    budget.tick()
                    for legs in leg_options[sides][side]:
                        found.add((side, genus, weight.exponents, legs, order))
    return sorted(map(ctx.key, found), key=lambda k: k.sort_token())


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
    representative splitting and its multiplicity.  Without ``with_terms``,
    the sum runs over one structure per root-relabeling orbit, weighted by
    the orbit size.  With ``with_terms`` every labeled structure is walked
    and reported.

    Missing table keys abort the run with ``MissingKeysError`` listing the
    absent keys the walk reaches.  The walk skips the placements a genuine
    zero kills, and without ``with_terms`` it walks one member per orbit,
    so a missing key is listed
    unless every term it enters is zero or another member of its orbit
    stands in; the list may be shorter than ``with_terms`` or
    ``needed_keys`` gives, but each key on it is absent.  A run that does
    not raise returns the value a full table gives.  The node budget counts
    the orbit walk's nodes without ``with_terms``, labeled structures with
    it.
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
    total = _ZERO
    for delta, rho, weight, odd in ctx.basis_choices(splitting.indices()):
        classes = {"X1": dict(zip(m_labels, delta)), "X2": dict(zip(m_labels, rho))}
        product = weight
        for side, vertex, legs, roots in vertices:
            vertex_roots = tuple((r.f, r.c, classes[side][r.label]) for r in roots)
            if _vanishes(problem, vertex.weight, vertex_roots):
                product = _ZERO
                continue
            value, _ = ctx.component(
                side,
                vertex.genus,
                vertex.weight,
                tuple((leg.e,) + ctx.leg_data[leg.label][1:] for leg in legs),
                vertex_roots,
            )
            product *= value
        if product != 0 and odd:
            comps: tuple[list, list] = ([], [])
            for side, _, legs, roots in vertices:
                comps[side == "X2"].append(
                    _symbols(side, [l.label for l in legs], [r.label for r in roots])
                )
            product *= _regroup_sign(ctx.word(m_labels, delta, rho), comps)
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
