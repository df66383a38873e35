"""Symbolic correlators, invariant tables, and the degeneration evaluator.

Correlator values live in a user-supplied table keyed by connected graphs
plus insertion data.  The degeneration formula is one sum: over splitting
structures, a contact coefficient times, for every term of the delta/rho
dual expansion, a Koszul-signed product of connected relative invariants.
One kernel evaluates it from three shared pieces:

- the delta/rho expansion, in either dual convention: contact-order
  coefficients with plain involuted duals, or intersection-multiplicity
  coefficients with band-weighted duals.  Its basis choices are listed once
  per run for each tuple of root indices, as the walk ticks them, each
  flagged with whether any sign can differ from +1, so the insertion word
  is built only when something is odd;
- one sign builder, the Koszul sign of regrouping the insertion word per
  component, read off the ranks of the word's odd symbols;
- one component memo per run, keyed by the data that fixes a correlator key:
  per vertex by side, genus, the weight's exponents and each root's
  (f, c, class) in label order, and within a vertex by each leg's
  (e, m, class) in label order.

Every component of a splitting has one vertex, and the memo asks the table
for its value by that data (``InvariantTable.vertex_value``), in every run.
A plain table holds one dict, in which each one-vertex key's entry sits
under the key's vertex data (``CorrelatorKey.vertex``, kept on the key); a
table that values the data by a rule (the P1 table of ``oracle``) reads
its keys through the same ``vertex``.  Neither builds key bytes.  The
kernel builds a key, from its vertex memo, only when the run reports it:
for a missing key (``MissingKeysError``) and for the term breakdown.
``for_vertex`` writes the bytes ``canonical_form(rank_relabeled(graph))``
gives for the one-vertex graph, which has no tie to break, so no graph is
built; a problem's keys repeat few graphs, so the bytes of each are kept
(``_vertex_text``).
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
every root tuple a basis choice gives it, and builds each distinct key once,
from the weight walked (``CorrelatorKey.for_vertex``).  Interchangeable
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

Both walks take the structures a skeleton at a time (``_skeletons``: the
structures sharing root data and root blocks, differing only in weights
and genera, which either structure source hands over together) and work
out once per skeleton what depends only on it: contacts, indices, basis
choices and each choice's roots per vertex.

Tables are taken to be covariant (permuting identical legs changes a value
by the Koszul sign), which is what lets identical even legs be aggregated.
Every (structure, basis choice) of a skeleton has the same vertex sides,
hence the same leg placements, so the walk places the legs once per
skeleton and carries all of its (structure, basis choice) pairs along; a
pair drops out of a branch where one of its components is a genuine zero.
Each pair sums its placements, each signed when the choice has an odd
class in its insertion word (the sign is read once per choice and
placement), and adds that sum times the orbit size, contact coefficient
and expansion weight to the total.  The vertices a leg may sit at are its
slots, from the one leg-placement rule ``splitting.leg_slots`` that
``enumerate_splittings`` also reads.  The whole sum works in ints: what a
vertex can take from the legs left is expanded once per run (``_takes``),
a placement's product is an unreduced numerator and denominator, and the
total is kept as numerators by denominator, so a run builds one Fraction,
not one per placement or per (structure, basis choice).

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .algebra import Parity, chen_ruan_dual, koszul_sign, standard_dual
from .errors import DegenkitError, MissingKeysError
from .graphs import (
    CurveClass,
    ModularGraph,
    canonical_form,
    rank_relabeled,
    total_weight,
    vertex_data,
    vertex_form,
)
from .splitting import (
    DegenerationProblem,
    Splitting,
    SplittingStructure,
    _Budget,
    _effective_budget,
    _listing,
    _refuse_shared_labels,
    iter_structures,
    leg_slots,
    meets_condition_B,
    orbit_runs,
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


# the keys of a problem differ mostly in their legs' (m, class) and roots'
# classes, so their graphs repeat a few hundred one-vertex texts
@lru_cache(maxsize=1 << 12)
def _vertex_text(genus: int, exponents: tuple, leg_e: tuple, root_fc: tuple) -> bytes:
    """``vertex_form`` of the vertex, for the weight given by its
    exponents."""
    return vertex_form(genus, CurveClass(exponents), leg_e, root_fc)


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

    A one-vertex key also answers with the vertex data it stands for
    (``vertex``), kept on the key in its one non-field attribute, so
    equality and hashing ignore it.  ``for_vertex`` keeps the data it was
    given, and a table file's key in ``vertex_form`` bytes is built holding
    the data its row gave (``_holding``, from ``jsonio.table_from_obj``);
    any other key reads its bytes once, on first use.
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

        ``legs`` holds each leg's (e, m, class id) tuple and ``roots`` each
        root's (f, c, class id) tuple, both in label order.  Equal to
        ``for_component`` on that graph with legs labeled 1..n and roots
        n+1..n+k.  The key keeps this data, so its ``vertex`` reads no
        bytes.
        """
        if not isinstance(weight, CurveClass):
            weight = CurveClass(weight)
        legs, roots = tuple(legs), tuple(roots)
        text = _vertex_text(
            genus,
            weight.exponents,
            tuple([e for e, _, _ in legs]),
            tuple([(f, c) for f, c, _ in roots]),
        )
        return CorrelatorKey._holding(text, (side, genus, weight.exponents, legs, roots))

    @staticmethod
    def _holding(graph: bytes, data: tuple) -> "CorrelatorKey":
        """The key whose vertex data (``_data``) is ``data``, the slot
        (side, genus, exponents, legs, roots), and whose graph bytes are
        ``graph``, the ``vertex_form`` text of that vertex, which the caller
        has written or read."""
        side, _, _, legs, roots = data
        key = CorrelatorKey(
            side, graph, tuple([(m, cid) for _, m, cid in legs]), tuple([cid for _, _, cid in roots])
        )
        object.__setattr__(key, "_vertex", data)
        return key

    def vertex(self) -> Optional[tuple]:
        """(side, genus, weight, legs, roots), the data ``for_vertex`` builds
        this key from, or None for a key that no vertex data gives: a graph
        of several vertices, bytes other than ``vertex_form`` writes, or leg
        or root lists whose lengths differ from the graph's."""
        data = self._data()
        if data is None:
            return None
        side, genus, exponents, legs, roots = data
        return side, genus, CurveClass(exponents), legs, roots

    def _data(self) -> Optional[tuple]:
        """``vertex`` with the weight given by its exponents, the form of
        the component memo key and of a table's slot.  A key that was not
        given it reads its bytes (``graphs.vertex_data``) on the first
        call.  The data is kept as tuples of strings and ints, which the
        garbage collector stops tracking, so the keys of a large table cost
        its collections nothing more."""
        if not hasattr(self, "_vertex"):
            data, found = None, vertex_data(self.graph)
            if found is not None:
                genus, weight, leg_e, root_fc = found
                if (len(leg_e), len(root_fc)) == (len(self.legs), len(self.roots)):
                    legs = tuple([(e, m, cid) for e, (m, cid) in zip(leg_e, self.legs)])
                    roots = tuple([(f, c, cid) for (f, c), cid in zip(root_fc, self.roots)])
                    data = (self.side, genus, weight.exponents, legs, roots)
            object.__setattr__(self, "_vertex", data)
        return self._vertex

    def sort_token(self):
        return (self.side, self.graph, self.legs, self.roots)


class InvariantTable:
    """Exact-rational correlator values; absent keys stay detectable.

    One dict holds each entry as (key, value), in the key's slot: its vertex
    data (``CorrelatorKey._data``) for a one-vertex key, the key itself for
    any other.  ``set``, ``get``, ``vertex_value``, ``items()``, ``len()``
    and ``in`` all read that dict, so a key set twice answers its last
    value every way.
    """

    def __init__(self, entries: Mapping[CorrelatorKey, Fraction] | None = None):
        self._entries: dict = {}
        for k, v in (entries or {}).items():
            self.set(k, v)

    @staticmethod
    def _slot(key: CorrelatorKey):
        data = key._data()
        return key if data is None else data

    def set(self, key: CorrelatorKey, value) -> None:
        self._entries[self._slot(key)] = key, Fraction(value)

    def _setdefault(self, key: CorrelatorKey, value: Fraction) -> Fraction:
        """The value the table holds for ``key``: the one it had, or else
        ``value``, a Fraction, which is set as it is.  A table file's reader
        (``jsonio.table_from_obj``) checks a repeated key with it, in the
        one lookup of the key's slot."""
        return self._entries.setdefault(self._slot(key), (key, value))[1]

    def get(self, key: CorrelatorKey) -> Optional[Fraction]:
        entry = self._entries.get(self._slot(key))
        return None if entry is None else entry[1]

    def vertex_value(
        self, side: str, genus: int, weight, legs: tuple, roots: tuple
    ) -> Optional[Fraction]:
        """The value of the one-vertex key with this data, as ``get`` gives
        it for ``CorrelatorKey.for_vertex(side, genus, weight, legs, roots)``,
        read from the data's slot, so no key is built.  ``weight`` is a
        CurveClass, and ``legs`` and ``roots`` are tuples of tuples, as
        ``for_vertex`` keeps them.

        A table that overrides ``get`` overrides this too; one that values
        the data by a rule (the P1 table of ``oracle``) holds no entries.
        """
        entry = self._entries.get((side, genus, weight.exponents, legs, roots))
        return None if entry is None else entry[1]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: CorrelatorKey) -> bool:
        return self.get(key) is not None

    def items(self):
        return sorted(self._entries.values(), key=lambda kv: kv[0].sort_token())


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


class _VertexMemo(dict):
    """One vertex's part of the component memo (``_Context.vertex``): for
    one (side, genus, weight, roots), each leg data tuple's (numerator,
    denominator, missing), asked of the table on its first lookup.  A
    missing value is (0, 1, True)."""

    __slots__ = ("table", "side", "genus", "weight", "roots")

    def __init__(self, table: "InvariantTable", side: str, genus: int, weight, roots: tuple):
        # the empty dict is made by dict.__new__, so dict.__init__ is not called
        self.table, self.side, self.genus, self.weight, self.roots = (
            table, side, genus, weight, roots
        )

    def __missing__(self, legs: tuple) -> tuple:
        value = self.table.vertex_value(self.side, self.genus, self.weight, legs, self.roots)
        entry = self[legs] = (
            (0, 1, True) if value is None else (value.numerator, value.denominator, False)
        )
        return entry

    def key(self, legs: tuple) -> tuple:
        """The component memo key of this vertex taking ``legs``."""
        return self.side, self.genus, self.weight.exponents, legs, self.roots


class _Context:
    """Resolved catalogs, duals, expansions, and the run's memos.

    Besides the component memo (``vertex``), a run keeps its basis
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
        # the odd legs' ranks, which lead every basis choice's word (``word``)
        odd_legs = sorted(lab for lab, p in self.leg_parity.items() if p.is_odd)
        self.leg_ranks = {("leg", lab): rank for rank, lab in enumerate(odd_legs)}
        self.odd_leg = bool(odd_legs)
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
        dual = chen_ruan_dual if self.convention == "chen_ruan" else standard_dual
        for b in self.divisor.basis:
            vec = dual(b.id, self.divisor)
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
            self.rho_parity[b.id] = self.divisor.homogeneous_parity(vec)
        self.memo: dict = {}  # by vertex: see vertex
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

    def vertex(self, side: str, genus: int, weight, roots: tuple) -> "_VertexMemo":
        """One vertex's part of the component memo.

        ``roots`` holds each root's (f, c, class id) in label order, and the
        part answers each leg data tuple (each leg's (e, m, class id), in
        label order).  Together with side, genus and weight that is exactly
        the data fixing a rank-relabeled CorrelatorKey, so one entry stands
        for one key.  The memo is keyed by (side, genus, weight exponents,
        roots), all tuples of strings and ints, and every run asks the table
        by the data (``InvariantTable.vertex_value``, a dict lookup on a
        plain table, a rule on the P1 table).  The key itself is built only
        where the run reports it, from the memo key (``key``): for a missing
        key and for the term breakdown.  No vanishing rule is applied: the
        kernel's vertices never meet one.
        """
        memo_key = (side, genus, weight.exponents, roots)
        memo = self.memo.get(memo_key)
        if memo is None:
            memo = self.memo[memo_key] = _VertexMemo(self.table, side, genus, weight, roots)
        return memo

    def basis_choices(self, indices: tuple[int, ...]):
        """Every term of the delta/rho expansion for roots of the given
        indices: (delta classes, rho classes, expansion weight, odd),
        aligned with the roots.  ``odd`` is False when no leg and no chosen
        class is odd, so every sign is +1.  There are up to 2^n terms for n
        roots with two classes each, and their consumers tick per term, so
        they are listed lazily (``_listing``) and kept once per index tuple
        when complete."""
        return _listing(self.choices, indices, self._expand, indices)

    def _expand(self, indices: tuple[int, ...]):
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
                yield delta, rho_ids, weight, odd

    def word(self, m_labels: Sequence[int], delta: Sequence[str], rho: Sequence[str]) -> dict:
        """Source word of one basis choice, legs by label and then
        delta_j rho_j by root label, as {symbol: rank} over its odd symbols:
        each one's rank among the odd symbols in word order.  Even symbols
        commute with everything, so they are left out.  The symbols are
        ("leg", label), ("X1", j) for delta_j and ("X2", j) for rho_j."""
        ranks = dict(self.leg_ranks)
        for j, d, r in zip(m_labels, delta, rho):
            if self.divisor.parity_of(d).is_odd:
                ranks["X1", j] = len(ranks)
            if self.rho_parity[r].is_odd:
                ranks["X2", j] = len(ranks)
        return ranks

    def raise_if_missing(self):
        missing = [
            CorrelatorKey.for_vertex(memo.side, memo.genus, memo.weight, legs, memo.roots)
            for memo in self.memo.values()
            for legs, (_, _, was_missing) in memo.items()
            if was_missing
        ]
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


def _component(ranks: Mapping[tuple, int], side: str, leg_labels, root_labels) -> tuple:
    """One component's part of the target word, as ``_regroup_sign`` takes
    it: its least label, then the ranks (``_Context.word``) of its odd legs
    and then of its odd roots, in the order given."""
    symbols = [("leg", lab) for lab in leg_labels] + [(side, lab) for lab in root_labels]
    return (
        min((*leg_labels, *root_labels), default=0),
        [ranks[sym] for sym in symbols if sym in ranks],
    )


def _regroup_sign(sides) -> int:
    """Koszul sign of regrouping the insertion word per component.

    Only odd symbols move the sign, so the word is given by their ranks
    (``_Context.word``).  The target takes ``sides`` in order; within a
    side its components go by least label, each given by ``_component`` as
    (least label, odd ranks of its legs then its roots).  The sign counts
    the inversions of the ranks the target lists, every parity odd.
    """
    by_least = operator.itemgetter(0)
    target = [
        rank for comps in sides for _, ranks in sorted(comps, key=by_least) for rank in ranks
    ]
    return koszul_sign(target, [Parity.ODD] * len(target))


# -- the kernel: structures, basis choices, leg placements ---------------------


class _Skeleton:
    """What the structures of one (root_data, blocks1, blocks2) share.

    A structure source hands them over as one run (``_skeletons``),
    differing only in weights and genera.  The vertices are ``blocks``, the
    X1 blocks then the X2 blocks as in ``genera1 + genera2``, with their
    ``sides``; a vertex's index in that order is its position
    (``splitting.leg_slots``).  ``choices()`` gives each basis choice with
    each vertex's (f, c, class id) per root.  ``dead`` marks a leg group
    with no slot, which kills every structure of the skeleton.
    """

    def __init__(self, ctx: _Context, structure: SplittingStructure):
        m_labels, blocks1, blocks2 = structure.m_labels, structure.blocks1, structure.blocks2
        self.blocks = blocks1 + blocks2
        self.sides = structure.vertex_sides()
        self.dead = any(not leg_slots(g["side"], self.sides) for g in ctx.groups)
        self.contacts = tuple(c for _, c in structure.root_data)
        self.indices = tuple(f for f, _ in structure.root_data)
        self.ctx = ctx
        self.m_labels = m_labels
        self.fc_of = dict(zip(m_labels, structure.root_data))

    def choices(self):
        """(delta, rho, weight, odd, roots) for each basis choice of
        ``_Context.basis_choices``, where ``roots`` gives each vertex's
        (f, c, class id) per root, listed lazily as the basis choices are."""
        return map(self._with_roots, self.ctx.basis_choices(self.indices))

    def _with_roots(self, choice: tuple) -> tuple:
        delta, rho, _, _ = choice
        classes = {"X1": dict(zip(self.m_labels, delta)), "X2": dict(zip(self.m_labels, rho))}
        roots = tuple(
            tuple(self.fc_of[lab] + (classes[side][lab],) for lab in block)
            for side, block in zip(self.sides, self.blocks)
        )
        return choice + (roots,)


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


def _takes(ctx: _Context, sides: tuple, vi: int, remaining: tuple):
    """Every share of the legs the vertex at ``vi`` can take, memoised.

    The take rule reads each group's slots (``splitting.leg_slots``): a
    group gives a vertex that is not one of its slots none; at the group's
    last slot the vertex takes all that is left of it; at any other slot,
    any count up to what is left.  A take of ``k`` of a group's ``left``
    legs gets the lowest free labels, and there are comb(left, k) ways to
    choose them.  Which labels a take gets depends on the legs left, so
    vertex order matters.

    Each entry is (labels taken in label order, their (e, m, class id) in
    that order, the product of binomials, legs left after).  All of it
    depends only on the vertex sides, the position and the legs left per
    group of ``ctx.groups``, so one run expands each such state once.  A
    state with n odd legs left has up to 2^n takes, and its consumers tick
    per take, so the expansion is listed lazily (``_listing``).
    """
    return _listing(ctx.takes, (sides, vi, remaining), _expand_takes, ctx, sides, vi, remaining)


def _expand_takes(ctx: _Context, sides: tuple, vi: int, remaining: tuple):
    options = [
        (0,) if vi not in slots else (left,) if vi == slots[-1] else range(left + 1)
        for g, left in zip(ctx.groups, remaining)
        for slots in [leg_slots(g["side"], sides)]
    ]

    def take(counts: tuple) -> tuple:
        labels: list[int] = []
        factor = 1
        for g, left, k in zip(ctx.groups, remaining, counts):
            if k:
                start = g["count"] - left
                labels += g["labels"][start : start + k]
                factor *= math.comb(left, k)
        labels.sort()
        return (
            tuple(labels),
            tuple([ctx.leg_data[lab] for lab in labels]),
            factor,
            tuple([left - k for left, k in zip(remaining, counts)]),
        )

    return map(take, itertools.product(*options))


class _Element:
    """One (structure, basis choice) of a skeleton, as the placement walk
    carries it: each vertex's part of the component memo
    (``_Context.vertex``), the indices of its structure in the skeleton's
    run (``_skeletons``) and of its choice in the skeleton's list, its
    signed numerators by denominator (``sums``) and, with ``terms``, its
    EvalTerms (``rows``)."""

    __slots__ = ("memos", "structure", "choice", "sums", "rows")

    def __init__(
        self, ctx: _Context, sides, genera, weights, roots, structure=0, choice=0, rows=None
    ):
        self.memos = tuple(map(ctx.vertex, sides, genera, weights, roots))
        self.structure = structure
        self.choice = choice
        self.sums: dict = {}
        self.rows = rows


def _placements(ctx: _Context, sides, elements: list, budget: _Budget, leaf):
    """Distribute the leg groups over the vertices once for every element,
    pruning each element's zero components.

    The elements (``_Element``) share the vertex ``sides``, so the same
    takes (``_takes``).  The walk goes down that take tree once and carries
    the elements still active, each with the unreduced numerator and
    denominator of its product so far: at each take every active element
    ticks ``budget`` and looks its component up, and an element whose value
    is a genuine zero drops out of the branch.  A take no element survives
    ends the branch.  Calls ``leaf(placed, multiplicity, active)`` once per
    complete placement some element survives; ``placed`` lists (vertex
    index, leg labels, leg data), shared by every element, and ``active``
    lists (element, numerator, denominator).  Both are valid only during
    the call.
    """
    placed: list = []
    last = len(sides)

    def rec(vi: int, remaining: tuple, mult: int, active: list):
        for labels, legs, factor, after in _takes(ctx, sides, vi, remaining):
            budget.advance(len(active))
            survivors = []
            for element, num, den in active:
                value_num, value_den, missing = element.memos[vi][legs]
                # a genuine zero kills the element's branch; missing keys
                # keep it alive so the error can list every absent key
                if value_num or missing:
                    survivors.append((element, num * value_num, den * value_den))
            if not survivors:
                continue
            placed.append((vi, labels, legs))
            if vi + 1 == last:
                leaf(placed, mult * factor, survivors)
            else:
                rec(vi + 1, after, mult * factor, survivors)
            placed.pop()

    try:
        rec(0, tuple(g["count"] for g in ctx.groups), 1, [(e, 1, 1) for e in elements])
    finally:
        # rec refers to itself through its closure; breaking that cycle frees
        # the walk's frames by reference counting when it ends
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


def _skeletons(ctx: _Context, runs):
    """(skeleton, run) for each run of ``runs`` whose skeleton is not dead.
    A run lists the (structure, size) pairs of one skeleton, as
    ``splitting.orbit_runs`` and ``_labeled_runs`` hand them over, so a
    ``_Skeleton`` is built once per run.  Every run's root labels are
    checked against the leg labels first, a replayed orbit walk's too
    (``splitting._refuse_shared_labels``)."""
    for run in runs:
        _refuse_shared_labels(ctx.leg_data.keys(), run[0][0].m_labels)
        skeleton = _Skeleton(ctx, run[0][0])
        if not skeleton.dead:
            yield skeleton, run


def _labeled_runs(problem: DegenerationProblem, budget: _Budget):
    """The structures of ``iter_structures`` as runs of one skeleton each,
    every structure of size 1.  It yields a skeleton's structures
    consecutively; telling where a run ends reads the next structure, which
    is harmless here, as the labeled walk keeps nothing (``_kept``)."""
    skeleton = operator.attrgetter("root_data", "blocks1", "blocks2")
    for _, run in itertools.groupby(iter_structures(problem, budget), key=skeleton):
        yield [(structure, 1) for structure in run]


def _walk(ctx: _Context, rule: TwistingChoice, terms: Optional[list] = None) -> Fraction:
    """The evaluation kernel: sum the formula over structures, basis choices
    and leg placements.

    The structure source depends on the call.  Plain evaluation walks one
    structure per root-relabeling orbit and weights its terms by the orbit
    size where the labeled walk weights them by 1.  ``terms`` walks every
    labeled structure, each of size 1.  Either source hands over a
    skeleton's structures as one run (``_skeletons``).

    What the structures of one skeleton share (contacts, indices, basis
    choices, the vertex layout, each choice's roots per vertex, the
    dead-leg check) is worked out once per skeleton, and so are the contact
    coefficient and each choice's word ranks (``_Context.word``).  Each
    basis choice ticks the budget once per structure of the skeleton.

    Every (structure, basis choice) of the skeleton is one element
    (``_Element``), and one placement walk (``_placements``) serves them
    all.  Each complete placement adds, for each element it reaches,
    sign * multiplicity * product, the sign being 1 when the choice is all
    even and otherwise read off its odd symbols' ranks, once per (choice,
    placement) for all the structures of that choice.  The whole sum is
    taken in ints.  A placement's product comes as an unreduced numerator
    and denominator, and the signed numerators are summed per element and
    denominator.  An element whose sums are not all zero then forms
    coefficient * expansion weight and adds size times its numerator times
    each sum to the call's sums, under that denominator times its
    denominator.  One Fraction is built per call, over the lcm of those
    denominators, so no gcd is taken per placement or per element.  With
    ``terms`` each element also buffers an EvalTerm per placement it
    reaches, with the keys of its components, each built once per call from
    its vertex memo; the buffers are flushed after the
    skeleton's walk in (structure, basis choice) order, so the terms come
    in the order of one walk per (structure, basis choice).

    One node budget bounds the walk: each node of the structure source
    (for plain evaluation, of the orbit walk), each basis choice per
    structure and each placement node per element ticks it.
    """
    problem = ctx.problem
    budget = _Budget(_effective_budget(problem))
    if terms is None:
        runs = orbit_runs(problem, budget)
    else:
        runs = _labeled_runs(problem, budget)
        keys: dict = {}  # the reported keys with their values, by memo key
    total: dict = {}  # the call's numerators, by denominator

    def leaf(placed: list, mult: int, active: list):
        # reads the current skeleton, its run, choices, ranks and coefficient
        signs: dict = {}  # by choice
        splittings: dict = {}  # by structure, with terms
        for element, num, den in active:
            c = element.choice
            sign = 1 if ranks[c] is None else signs.get(c)
            if sign is None:
                comps: tuple[list, list] = ([], [])
                for vi, labels, _ in placed:
                    comp = _component(ranks[c], sides[vi], labels, blocks[vi])
                    if comp[1]:
                        comps[vi >= first_x2].append(comp)
                sign = signs[c] = _regroup_sign(comps)
            if num:  # 0 only past a missing key
                element.sums[den] = element.sums.get(den, 0) + sign * mult * num
            if element.rows is None:
                continue
            s = element.structure
            if s not in splittings:
                positions = {lab: vi for vi, labels, _ in placed for lab in labels}
                splittings[s] = run[s][0].build_splitting(positions, problem.legs)
            keyed: tuple[list, list] = ([], [])
            for vi, _, legs in placed:
                memo = element.memos[vi]
                memo_key = memo.key(legs)
                entry = keys.get(memo_key)
                if entry is None:
                    value_num, value_den, _ = memo[legs]
                    key = CorrelatorKey.for_vertex(
                        memo.side, memo.genus, memo.weight, legs, memo.roots
                    )
                    entry = keys[memo_key] = (key, Fraction(value_num, value_den))
                keyed[vi >= first_x2].append(entry)
            delta, rho, weight, _, _ = choices[c]
            element.rows.append(
                EvalTerm(
                    splitting=splittings[s],
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

    for skeleton, run in _skeletons(ctx, runs):
        coeff = ctx.coefficient(skeleton.contacts, skeleton.indices, rule)
        sides, blocks, m_labels = skeleton.sides, skeleton.blocks, skeleton.m_labels
        first_x2 = sides.count("X1")
        choices = []
        for choice in skeleton.choices():
            budget.advance(len(run))  # once per structure, as the choices are listed
            choices.append(choice)
        ranks = [
            ctx.word(m_labels, delta, rho) if odd else None for delta, rho, _, odd, _ in choices
        ]
        elements = []
        for s, (structure, _) in enumerate(run):
            genera = structure.genera1 + structure.genera2
            weights = structure.weights1 + structure.weights2
            for c, choice in enumerate(choices):
                rows = None if terms is None else []
                elements.append(_Element(ctx, sides, genera, weights, choice[4], s, c, rows))
        if not elements:
            continue
        _placements(ctx, sides, elements, budget, leaf)
        scaled: dict = {}  # coefficient * expansion weight, by choice
        for element in elements:
            if any(element.sums.values()):
                c = element.choice
                if c not in scaled:
                    scaled[c] = coeff * choices[c][2]
                factor = run[element.structure][1] * scaled[c].numerator
                for den, v in element.sums.items():
                    if v:
                        den *= scaled[c].denominator
                        total[den] = total.get(den, 0) + factor * v
            if terms is not None:
                terms.extend(element.rows)
    if not total:
        return _ZERO
    common = math.lcm(*total)
    return Fraction(sum(v * (common // den) for den, v in total.items()), common)


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
    and every order (``_orders``) of its root tuples.  Each root tuple's
    orders are listed once per call, as they are ticked (``_listing``), and
    each distinct key is built once, from the weight its vertex holds.

    The node budget counts the orbit walk's nodes, each basis choice of a
    skeleton (listed lazily, so 2^n choices of n roots are bounded too),
    each (vertex, legs left, take) of the forward passes and each root
    order keyed: P1 degree 3, genus 1 ticks 216 nodes and degree 5, genus 2
    ticks 5,856, where walking every placement ticked 1,388 and 7,760,651.
    """
    ctx = _Context(problem, insertions, "standard_dual", InvariantTable())
    budget = _Budget(_effective_budget(problem))
    leg_options: dict = {}  # by vertex sides
    orders: dict = {}  # by root tuple, listed as they are ticked
    found: dict = {}  # each key's data, with its vertex's weight
    for skeleton, run in _skeletons(ctx, orbit_runs(problem, budget)):
        sides = skeleton.sides
        vertex_roots: list[dict] = [{} for _ in sides]  # sorted root tuples
        for *_, roots in skeleton.choices():
            budget.tick()
            for vi, vertex in enumerate(roots):
                vertex_roots[vi][tuple(sorted(vertex))] = None
        if sides not in leg_options:
            leg_options[sides] = _leg_options(ctx, sides, budget)
        for structure, _ in run:
            genera = structure.genera1 + structure.genera2
            weights = structure.weights1 + structure.weights2
            for vi, (side, genus, weight) in enumerate(zip(sides, genera, weights)):
                for roots in vertex_roots[vi]:
                    for order in _listing(orders, roots, _orders, roots):
                        budget.tick()
                        for legs in leg_options[sides][side]:
                            found[side, genus, weight.exponents, legs, order] = weight
    keys = [CorrelatorKey.for_vertex(s, g, w, legs, r) for (s, g, _, legs, r), w in found.items()]
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

    Each basis choice ticks the problem's node budget, as in ``_walk``; the
    choices are listed as they are ticked, so the budget bounds the 2^n
    choices of n roots over two classes.
    """
    ctx = _Context(problem, insertions, convention, table)
    budget = _Budget(_effective_budget(problem))
    m_labels = splitting.m_labels
    vertices = [
        (side, graph.vertices[v], graph.legs_of_vertex(v), graph.roots_of_vertex(v))
        for side, graph in (("X1", splitting.xi1), ("X2", splitting.xi2))
        for v in range(len(graph.vertices))
    ]
    total = _ZERO
    for delta, rho, weight, odd in ctx.basis_choices(splitting.indices()):
        budget.tick()
        classes = {"X1": dict(zip(m_labels, delta)), "X2": dict(zip(m_labels, rho))}
        product = weight
        for side, vertex, legs, roots in vertices:
            vertex_roots = tuple((r.f, r.c, classes[side][r.label]) for r in roots)
            if _vanishes(problem, vertex.weight, vertex_roots):
                product = _ZERO
                continue
            memo = ctx.vertex(side, vertex.genus, vertex.weight, vertex_roots)
            value_num, value_den, _ = memo[tuple((l.e,) + ctx.leg_data[l.label][1:] for l in legs)]
            product *= Fraction(value_num, value_den)
        if product != 0 and odd:
            ranks = ctx.word(m_labels, delta, rho)
            comps: tuple[list, list] = ([], [])
            for side, _, legs, roots in vertices:
                comps[side == "X2"].append(
                    _component(ranks, side, [l.label for l in legs], [r.label for r in roots])
                )
            product *= _regroup_sign(comps)
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
    # the word is the legs by label, then the roots by label
    odd = [
        ("leg", lab) for lab in sorted(leg_insertions)
        if problem.ambient.parity_of(leg_insertions[lab].class_id).is_odd
    ] + [
        (side, lab) for lab in sorted(root_classes)
        if problem.divisor.parity_of(root_classes[lab]).is_odd
    ]
    ranks = {sym: rank for rank, sym in enumerate(odd)}
    product = Fraction(
        _regroup_sign([[_component(ranks, side, c.leg_labels(), c.root_labels()) for c in comps]])
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
