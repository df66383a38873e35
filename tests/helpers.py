"""Shared fixtures: independent oracles and random-instance builders.

The monomial sign oracle lives in degenkit.checks (the `check algebra`
suite runs it too) and is re-exported here as monomial_reorder_sign.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from typing import Sequence

from degenkit import correlator, jsonio
from degenkit.algebra import BasisClass, Parity, Sector, SectorCatalog, koszul_sign
from degenkit.checks import reorder_sign_by_swaps as monomial_reorder_sign
from degenkit.correlator import Insertion, InvariantTable
from degenkit.errors import DegenkitError, ScaleError
from degenkit.graphs import (
    CurveClass,
    CurveClassMonoid,
    Generator,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,
    graph_from_canonical,
    keyed_form,
    total_genus,
    total_weight,
    vertex_keys,
)
from degenkit.splitting import (
    DegenerationProblem,
    LegSpec,
    Splitting,
    SplittingOrbit,
    SplittingStructure,
    _Budget,
    check_condition_B,
    iter_structures,
)
from degenkit.twisting import TwistingChoice

EVEN, ODD = Parity.EVEN, Parity.ODD


# -- catalog vectors ----------------------------------------------------------


def basis_vector(catalog: SectorCatalog, basis_id: str) -> tuple:
    """The coordinate vector of one basis class."""
    n = len(catalog.basis)
    i = catalog.basis_index(basis_id)
    return tuple(Fraction(1 if a == i else 0) for a in range(n))


def chen_ruan_pairing(catalog: SectorCatalog, u, v) -> Fraction:
    """Pairing with the 1/r weight on the left and iota* on the right."""
    r = catalog.band_weights()
    u_scaled = tuple(Fraction(u[a]) / r[a] for a in range(len(r)))
    return catalog.standard_pairing(u_scaled, catalog.involution_pullback(v))


# -- random catalogs ----------------------------------------------------------


DIVISOR_SHAPES = ("plain", "pair", "self", "odd", "odd-self")


def random_divisor_catalog(rng: random.Random, shape: str | None = None) -> SectorCatalog:
    """A catalog with at most four basis classes: an untwisted sector, plus
    either a conjugate band-2 pair, a self-conjugate band-2 sector, or an odd
    pair (possibly with the self-conjugate sector), as ``shape`` names or
    ``rng`` picks.  The pairing is involution-invariant."""
    sectors = [Sector("u", 1, "u")]
    basis = [BasisClass("u0", "u", EVEN)]
    inv = {"u0": ("u0", 1)}
    shape = shape or rng.choice(list(DIVISOR_SHAPES))
    if shape == "pair":
        sectors += [Sector("t+", 2, "t-"), Sector("t-", 2, "t+")]
        basis += [BasisClass("t0+", "t+", EVEN), BasisClass("t0-", "t-", EVEN)]
        inv["t0+"] = ("t0-", 1)
        inv["t0-"] = ("t0+", 1)
    if shape in ("self", "odd-self"):
        sectors += [Sector("t", 2, "t")]
        basis += [BasisClass("t0", "t", EVEN)]
        inv["t0"] = ("t0", rng.choice([1, -1]))
    if shape in ("odd", "odd-self"):
        basis += [BasisClass("o1", "u", ODD), BasisClass("o2", "u", ODD)]
        inv["o1"] = ("o1", 1)
        inv["o2"] = ("o2", 1)
    index = {b.id: i for i, b in enumerate(basis)}
    n = len(basis)
    pairing = [[Fraction(0)] * n for _ in range(n)]
    pairing[index["u0"]][index["u0"]] = Fraction(rng.randint(1, 4))
    if "t0+" in index:
        q = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        pairing[index["t0+"]][index["t0+"]] = q
        pairing[index["t0-"]][index["t0-"]] = q
    if "t0" in index:
        pairing[index["t0"]][index["t0"]] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    if "o1" in index and "o2" in index:
        s = Fraction(rng.randint(1, 3))
        pairing[index["o1"]][index["o2"]] = s
        pairing[index["o2"]][index["o1"]] = -s
    inv = {b.id: inv[b.id] for b in basis}
    return SectorCatalog(
        sectors=tuple(sectors),
        basis=tuple(basis),
        pairing=tuple(tuple(row) for row in pairing),
        basis_involution=inv,
    )


def random_ambient_catalog(rng: random.Random) -> SectorCatalog:
    basis = [BasisClass("g_even", "m", EVEN)]
    with_odd = rng.random() < 0.6
    if with_odd:
        basis += [BasisClass("g_odd1", "m", ODD), BasisClass("g_odd2", "m", ODD)]
    n = len(basis)
    pairing = [[Fraction(0)] * n for _ in range(n)]
    pairing[0][0] = Fraction(1)
    if with_odd:
        pairing[1][2] = Fraction(1)
        pairing[2][1] = Fraction(-1)
    return SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=tuple(basis),
        pairing=tuple(tuple(row) for row in pairing),
    )


def random_problem(rng: random.Random, max_legs: int = 3) -> tuple[DegenerationProblem, list[Insertion]]:
    """Instances with |M| <= 3: side degrees in {1, 3/2} over half-degree
    generators, contact orders bounded by 2."""
    divisor = random_divisor_catalog(rng)
    ambient = random_ambient_catalog(rng)
    k = rng.choice([2, 3])
    monoid = CurveClassMonoid(
        (
            Generator("a", "X1", Fraction(1, 2)),
            Generator("b", "X2", Fraction(1, 2)),
        )
    )
    beta = CurveClass({"a": k, "b": k})
    n_legs = rng.randint(0, max_legs)
    legs = []
    insertions = []
    for i in range(n_legs):
        legs.append(LegSpec(i + 1, 1, rng.choice([None, None, "X1", "X2"])))
        cid = rng.choice([b.id for b in ambient.basis])
        insertions.append(Insertion(rng.randint(0, 1), cid))
    problem = DegenerationProblem(
        monoid=monoid,
        genus=rng.randint(0, 2),
        legs=tuple(legs),
        beta=beta,
        divisor=divisor,
        c_max=2,
        ambient=ambient,
    )
    return problem, insertions


class _OnesTable(InvariantTable):
    """A table answering 1 to every key and every vertex's data, so no
    placement is pruned."""

    def get(self, key):
        return Fraction(1)

    def vertex_value(self, side, genus, weight, legs, roots):
        return Fraction(1)


def memo_keys(ctx) -> list:
    """The memo key of every component a run's kernel looked up: (side,
    genus, weight exponents, legs, roots)."""
    return [memo.key(legs) for memo in ctx.memo.values() for legs in memo]


def key_of(memo_key: tuple) -> correlator.CorrelatorKey:
    """The CorrelatorKey of a component memo key."""
    side, genus, exponents, legs, roots = memo_key
    return correlator.CorrelatorKey.for_vertex(side, genus, CurveClass(exponents), legs, roots)


def placement_keys(problem: DegenerationProblem, insertions) -> list:
    """The keys the placement walk reaches, sorted: every labeled structure,
    basis choice and leg placement, through the evaluator's memo against a
    table answering 1, each keyed from its memo data.  The reference for
    ``needed_keys``, which finds them without placing legs."""
    ctx = correlator._Context(problem, insertions, "standard_dual", _OnesTable())
    budget = _Budget(None)
    for structure in iter_structures(problem):
        skeleton = correlator._Skeleton(ctx, structure)
        if skeleton.dead:
            continue
        genera = structure.genera1 + structure.genera2
        weights = structure.weights1 + structure.weights2
        elements = [
            correlator._Element(ctx, skeleton.sides, genera, weights, roots)
            for *_, roots in skeleton.choices()
        ]
        correlator._placements(ctx, skeleton.sides, elements, budget, lambda *leaf: None)
    return sorted(map(key_of, memo_keys(ctx)), key=lambda k: k.sort_token())


def labeled_keys(problem: DegenerationProblem, insertions) -> list:
    """The keys of every labeled structure, sorted: each vertex with every
    leg set a placement can give it at its position and every root tuple a
    basis choice gives it, without placing legs.  The reference for
    ``needed_keys``, which walks one structure per orbit, where
    ``placement_keys`` is too slow."""
    ctx = correlator._Context(problem, insertions, "standard_dual", InvariantTable())
    leg_options_by_sides: dict = {}
    seen: set = set()
    found: set = set()
    skeleton_key = None
    for structure in iter_structures(problem):
        if (structure.root_data, structure.blocks1, structure.blocks2) != skeleton_key:
            skeleton_key = (structure.root_data, structure.blocks1, structure.blocks2)
            skeleton = correlator._Skeleton(ctx, structure)
            choices = list(skeleton.choices())
            if not skeleton.dead and choices:
                leg_options = leg_options_by_sides.get(skeleton.sides)
                if leg_options is None:
                    leg_options = _leg_options_per_position(ctx, skeleton.sides)
                    leg_options_by_sides[skeleton.sides] = leg_options
                root_options = [
                    dict.fromkeys(roots[vi] for *_, roots in choices)
                    for vi in range(len(skeleton.sides))
                ]
        if skeleton.dead or not choices:
            continue
        genera = structure.genera1 + structure.genera2
        weights = structure.weights1 + structure.weights2
        for vi, (side, genus, weight) in enumerate(zip(skeleton.sides, genera, weights)):
            for roots in root_options[vi]:
                vertex = (skeleton.sides, vi, genus, weight, roots)
                if vertex in seen:
                    continue
                seen.add(vertex)
                for legs in leg_options[vi]:
                    found.add((side, genus, weight, legs, roots))
    keys = {correlator.CorrelatorKey.for_vertex(*vertex) for vertex in found}
    return sorted(keys, key=lambda k: k.sort_token())


def _leg_options_per_position(ctx, sides: tuple) -> list:
    """Each vertex position's leg data tuples over every placement of the
    groups: a forward pass over (position, legs left per group)."""
    options: list = []
    states = {tuple(g["count"] for g in ctx.groups)}
    for vi in range(len(sides)):
        legs: dict = {}
        after: set = set()
        for remaining in states:
            for _, data, _, left in correlator._takes(ctx, sides, vi, remaining):
                legs[data] = None
                after.add(left)
        options.append(legs)
        states = after
    return options


# -- the symbol-dict sign ------------------------------------------------------


def symbols(side: str, leg_labels, root_labels) -> tuple:
    """One component's part of the target word: legs, then roots."""
    return tuple(("leg", lab) for lab in leg_labels) + tuple(
        (side, lab) for lab in root_labels
    )


def reference_regroup_sign(word: dict, sides) -> int:
    """Koszul sign of regrouping the insertion word per component, from
    every symbol's parity.  The reference for ``correlator._regroup_sign``,
    which reads odd symbols' ranks.

    ``word`` maps the symbols of the source word, in word order, to their
    parities.  The target takes ``sides`` in order; within a side its
    components go by least label, each given by ``symbols``.
    """
    index = {sym: i for i, sym in enumerate(word)}
    target = [
        index[sym]
        for comps in sides
        for comp in sorted(comps, key=lambda c: min((lab for _, lab in c), default=0))
        for sym in comp
    ]
    return koszul_sign(target, list(word.values()))


# -- covariant random tables ---------------------------------------------------


def _sorted_with_parity_sign(entries, parities):
    """Stable sort plus the Koszul sign of the sorting permutation."""
    order = sorted(range(len(entries)), key=lambda i: entries[i])
    sign = monomial_reorder_sign(order, parities)
    return tuple(entries[i] for i in order), sign


def _small_value(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice([1, -1])


def covariant_random_table(
    keys,
    divisor: SectorCatalog,
    ambient: SectorCatalog,
    rng: random.Random,
    draw=_small_value,
) -> InvariantTable:
    """Fill every key with a random value respecting relabeling covariance:
    permuting identical slots changes the value by the Koszul sign, and a
    repeated odd insertion forces zero.  ``draw(rng)`` gives the value of
    each new sorted vertex, before its sign."""
    table = InvariantTable()
    cache: dict = {}
    for key in keys:
        graph = graph_from_canonical(key.graph)
        leg_entries = []
        leg_parities = []
        for leg, (m, cid) in zip(
            sorted(graph.legs, key=lambda l: l.label), key.legs
        ):
            leg_entries.append((leg.e, m, cid))
            leg_parities.append(ambient.parity_of(cid))
        root_entries = []
        root_parities = []
        for root, cid in zip(
            sorted(graph.roots, key=lambda r: r.label), key.roots
        ):
            root_entries.append((root.f, root.c, cid))
            root_parities.append(divisor.parity_of(cid))
        zero = False
        for entries, parities in ((leg_entries, leg_parities), (root_entries, root_parities)):
            odd_items = [e for e, p in zip(entries, parities) if p.is_odd]
            if len(odd_items) != len(set(odd_items)):
                zero = True
        if zero:
            table.set(key, Fraction(0))
            continue
        legs_sorted, sign1 = _sorted_with_parity_sign(leg_entries, leg_parities)
        roots_sorted, sign2 = _sorted_with_parity_sign(root_entries, root_parities)
        vertex = graph.vertices[0]
        token = (
            key.side,
            len(graph.vertices),
            vertex.genus,
            vertex.weight.exponents,
            legs_sorted,
            roots_sorted,
        )
        if token not in cache:
            cache[token] = draw(rng)
        table.set(key, sign1 * sign2 * cache[token])
    return table


# -- the row-by-row table loader ----------------------------------------------


def reference_table_from_obj(data: list) -> InvariantTable:
    """A table file read row by row: each key through
    ``jsonio.key_from_dict``, each value through ``fraction_from_str``, and
    a repeated key checked with ``get`` before ``set``.  The reference for
    ``jsonio.table_from_obj``, which reads the common rows in one pass."""
    table = InvariantTable()
    for key, value in jsonio._rows(data, "table", "key", "value"):
        key, value = jsonio.key_from_dict(key), jsonio.fraction_from_str(value)
        known = table.get(key)
        if known is not None and known != value:
            raise DegenkitError(
                "table lists the key %s with two values, %s and %s"
                % (json.dumps(jsonio.key_to_dict(key), sort_keys=True), known, value)
            )
        table.set(key, value)
    return table


# -- relabeling orbits of structures --------------------------------------------


def structure_key(structure, sigma=None):
    """A structure after relabeling its roots by ``sigma`` (identity when
    None): root data in label order, then each side's set of (sorted block,
    weight exponents, genus), as a sorted tuple."""
    labels = structure.m_labels
    sigma = sigma or {lab: lab for lab in labels}
    fc = {sigma[lab]: data for lab, data in zip(labels, structure.root_data)}

    def side(blocks, weights, genera):
        return tuple(
            sorted(
                (tuple(sorted(sigma[lab] for lab in block)), w.exponents, g)
                for block, w, g in zip(blocks, weights, genera)
            )
        )

    return (
        tuple(fc[lab] for lab in labels),
        side(structure.blocks1, structure.weights1, structure.genera1),
        side(structure.blocks2, structure.weights2, structure.genera2),
    )


def relabeling_orbit(structure) -> frozenset:
    """Keys of the images of a structure under all |M|! root relabelings."""
    labels = structure.m_labels
    return frozenset(
        structure_key(structure, dict(zip(labels, perm)))
        for perm in itertools.permutations(labels)
    )


def brute_force_orbits(structures) -> list[frozenset]:
    """The relabeling orbits of a closed set of labeled structures, each as
    the set of its members' keys, in order of first member."""
    seen: set = set()
    out = []
    for structure in structures:
        key = structure_key(structure)
        if key not in seen:
            orbit = relabeling_orbit(structure)
            seen |= orbit
            out.append(orbit)
    return out


def orbit_key(problem: DegenerationProblem) -> tuple:
    """The key of a problem's orbit walk in ``splitting._ORBITS``: all the
    walk reads of the problem."""
    return (problem.monoid, problem.beta, problem.root_data(), problem.genus, len(problem.legs))


def reference_decorated_orbits(
    graph, autos, colors, mults, first_label, rows_x1, genus, options, budget
):
    """The orbits over one root graph: its decorations up to automorphism,
    all with the same root data and root blocks.

    Labels from ``first_label`` on go to the edges row by row, column by
    column, color by color; ``mults`` holds each color's scaled
    multiplicity.  The rows are the X1 side when ``rows_x1``.  A decoration
    gives each vertex a (weight exponents, genus); it is kept when no
    automorphism maps it to a smaller one: equal rows carry ascending
    decorations, and no column permutation in ``autos`` gives a smaller one.

    Every decoration is checked by building and comparing its image under
    each automorphism, the identity included: the reference for
    ``splitting._decorated_orbits``, which reads the identity's part off the
    runs of equal rows.
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


# -- canonical forms ------------------------------------------------------------


def _dump(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode()


def _serialize(graph: ModularGraph, order: list[int]) -> bytes:
    """The canonical text of ``graph`` with its vertices in ``order``, built
    as a dict and written by ``json.dumps``: the reference for the layout
    ``graphs.keyed_form`` writes directly."""
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


def canonical_json(graph: ModularGraph) -> str:
    return canonical_form(graph).decode()


def _reference_vertex_key(graph: ModularGraph, v: int):
    return (
        tuple((l.label, l.e) for l in graph.legs_of_vertex(v)),
        tuple((r.label, r.f, r.c) for r in graph.roots_of_vertex(v)),
        graph.vertices[v].genus,
        graph.vertices[v].weight.exponents,
    )


def reference_canonical_form(graph: ModularGraph) -> bytes:
    """``graphs.canonical_form`` as first written, with each vertex key
    recomputed per comparison: the reference for its bytes and for its
    ScaleError threshold."""
    nv = len(graph.vertices)
    keyed = sorted(range(nv), key=lambda v: _reference_vertex_key(graph, v))
    groups: list[list[int]] = []
    for v in keyed:
        if groups and _reference_vertex_key(graph, groups[-1][0]) == _reference_vertex_key(graph, v):
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


# -- orbits of splittings ---------------------------------------------------------


def relabeled(splitting: Splitting, sigma: dict[int, int]) -> Splitting:
    """Apply a root-relabeling permutation to both sides."""

    def remap(g: ModularGraph) -> ModularGraph:
        return ModularGraph(
            vertices=g.vertices,
            edges=g.edges,
            legs=g.legs,
            roots=tuple(Root(sigma[r.label], r.f, r.c, r.vertex) for r in g.roots),
        )

    return Splitting(remap(splitting.xi1), remap(splitting.xi2), tuple(sorted(sigma.values())))


def reference_orbits(splittings) -> list[SplittingOrbit]:
    """``splitting.orbits`` with every twin built as a relabeled splitting
    and keyed by ``reference_canonical_form``: the reference for its
    representatives, stabilizer orders and members."""
    keys = [
        (reference_canonical_form(s.xi1), reference_canonical_form(s.xi2)) for s in splittings
    ]
    position = {key: i for i, key in enumerate(keys)}
    order = sorted(range(len(splittings)), key=lambda i: (len(splittings[i].m_labels), keys[i]))
    seen: set[int] = set()
    out = []
    for i in order:
        if i in seen:
            continue
        eta = splittings[i]
        found, stab = set(), 0
        for perm in itertools.permutations(eta.m_labels):
            twin = relabeled(eta, dict(zip(eta.m_labels, perm)))
            key = reference_canonical_form(twin.xi1), reference_canonical_form(twin.xi2)
            stab += key == keys[i]
            found.add(position[key])
        seen |= found
        out.append(SplittingOrbit(eta, stab, tuple(sorted(found, key=keys.__getitem__))))
    return out


def text_keyed_orbits(splittings: Sequence[Splitting]) -> list[SplittingOrbit]:
    """``splitting.orbits`` as it was when it keyed splittings and twins by
    canonical text, kept verbatim: the reference for the row-keyed one."""
    keys = [s.canonical_pair() for s in splittings]
    position = {key: i for i, key in enumerate(keys)}
    order = sorted(position.values(), key=lambda i: (len(splittings[i].m_labels), keys[i]))
    seen: set[int] = set()
    out = []
    for i in order:
        if i in seen:
            continue
        eta = splittings[i]
        sides = vertex_keys(eta.xi1), vertex_keys(eta.xi2)
        found, stab = set(), 0
        for perm in itertools.permutations(eta.m_labels):
            if perm == eta.m_labels:
                ikey = keys[i]
            else:
                sigma = dict(zip(eta.m_labels, perm))
                ikey = tuple(
                    keyed_form(
                        sorted(
                            (legs, tuple(sorted((sigma[lab], f, c) for lab, f, c in roots)), g, w)
                            for legs, roots, g, w in side
                        )
                    )
                    for side in sides
                )
            if ikey not in position:
                raise DegenkitError("orbits: input is not closed under root relabeling")
            stab += ikey == keys[i]
            found.add(position[ikey])
        seen |= found
        out.append(SplittingOrbit(eta, stab, tuple(sorted(found, key=keys.__getitem__))))
        assert stab * len(found) == math.factorial(len(eta.m_labels))
    return out


# -- splittings as first built and written ------------------------------------------


def validate_splitting(splitting: Splitting, problem: DegenerationProblem) -> None:
    """Check conditions A and B of ``splitting`` against the originating
    problem."""
    glued = splitting.glued()
    if not glued.is_connected():
        raise DegenkitError("condition A fails: glued graph is disconnected")
    if total_genus(glued) != problem.genus:
        raise DegenkitError("condition A fails: glued genus mismatch")
    if total_weight(glued) != problem.beta:
        raise DegenkitError("condition A fails: glued weight mismatch")
    if glued.leg_labels() != problem.leg_labels():
        raise DegenkitError("condition A fails: leg labels mismatch")
    b1, b2 = problem.monoid.split(problem.beta)
    if total_weight(splitting.xi1) != b1 or total_weight(splitting.xi2) != b2:
        raise DegenkitError("side weights do not lie in the proper submonoids")
    for side in (splitting.xi1, splitting.xi2):
        report = check_condition_B(side, problem.monoid)
        if not report.ok:
            raise DegenkitError("condition B fails: %s" % (report.failures,))


def fresh_splitting(structure, leg_assignment: dict, legs) -> Splitting:
    """``SplittingStructure.build_splitting`` as first written: new
    ``Vertex``, ``Root`` and ``Leg`` objects on every call, from the
    structure's fields alone."""
    e_of = {l.label: l.e for l in legs}
    fc_of = dict(zip(structure.m_labels, structure.root_data))

    def build(blocks, weights, genera, which: str) -> ModularGraph:
        roots = [Root(lab, *fc_of[lab], vi) for vi, block in enumerate(blocks) for lab in block]
        return ModularGraph(
            vertices=tuple(Vertex(g, CurveClass(dict(w.exponents))) for g, w in zip(genera, weights)),
            edges=(),
            legs=tuple(
                Leg(lab, e_of[lab], vi)
                for lab, (side, vi) in sorted(leg_assignment.items())
                if side == which
            ),
            roots=tuple(sorted(roots, key=lambda r: r.label)),
        )

    return Splitting(
        build(structure.blocks1, structure.weights1, structure.genera1, "X1"),
        build(structure.blocks2, structure.weights2, structure.genera2, "X2"),
        structure.m_labels,
    )


def reference_splittings(problem: DegenerationProblem) -> dict:
    """Every splitting of ``problem``, by canonical pair: ``fresh_splitting``
    of each labeled structure with each leg placement its side constraints
    allow, each one validated."""
    out = {}
    for structure in iter_structures(problem):
        slots = []
        for spec in problem.legs:
            slots.append(
                [("X1", i) for i in range(len(structure.blocks1)) if spec.side in (None, "X1")]
                + [("X2", i) for i in range(len(structure.blocks2)) if spec.side in (None, "X2")]
            )
        for choice in itertools.product(*slots):
            assignment = {spec.label: slot for spec, slot in zip(problem.legs, choice)}
            s = fresh_splitting(structure, assignment, problem.legs)
            validate_splitting(s, problem)
            out[canonical_form(s.xi1), canonical_form(s.xi2)] = s
    return out


def splitting_from_dict(data: dict) -> Splitting:
    return Splitting(
        jsonio.graph_from_dict(data["xi1"]),
        jsonio.graph_from_dict(data["xi2"]),
        tuple(jsonio._int(x, "root label") for x in data["m_labels"]),
    )


def twisting_to_obj(rule: TwistingChoice):
    """The twisting file object that ``jsonio.twisting_from_obj`` reads back
    as ``rule``."""
    if rule.kind == "lcm":
        return {"rule": "lcm"}
    if rule.kind == "multiple":
        return {"rule": "multiple", "k": rule.multiple}
    return {
        "rule": "table",
        "entries": [
            {"multiset": ",".join(str(c) for c in key), "value": value}
            for key, value in rule.table
        ],
    }


def graphs_as_dicts(obj):
    """``obj`` with each ``ModularGraph`` in it replaced by
    ``jsonio.graph_to_dict`` of it: with ``json.dumps``, the reference for
    the bytes ``jsonio.dumps`` writes."""
    if isinstance(obj, ModularGraph):
        return jsonio.graph_to_dict(obj)
    if isinstance(obj, dict):
        return {key: graphs_as_dicts(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [graphs_as_dicts(item) for item in obj]
    return obj
