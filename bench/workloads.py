"""Inputs and operations of the three benchmark workloads.

Every workload is a closed loop: one caller, no threads, and each op waits
for its answer before the next is sent.  ``setup(name, seed, workdir, root)``
builds one pass's inputs from the seed; ``run(name, inputs, begin_op, probe)``
performs the ops, calling ``begin_op(i)`` before op i, and returns one record
per op.

Calls into degenkit go through module attributes (``correlator.needed_keys``,
``oracle.build_p1_table``, ``cli.main``) so that the traced run's wrappers,
which rebind those names, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import time
from fractions import Fraction
from pathlib import Path

from degenkit import cli, correlator, jsonio, oracle
from degenkit.algebra import BasisClass, Parity, Sector, SectorCatalog
from degenkit.graphs import CurveClass, CurveClassMonoid, Generator, graph_from_canonical
from degenkit.splitting import DegenerationProblem, LegSpec

CATEGORIES = ("keys", "evaluate", "splittings", "oracle")

# Genus-major, so the small cells are spread over the pass.
P1_GRID = [(d, g) for g in range(0, 3) for d in range(1, 6)]
RANDOM_SUITE_SIZE = 100  # problems with non-empty keys, as in criterion 2
GATE_SEED = 2024  # criterion 2 draws its instances from random.Random(2024)
CLI_P1_SETS = [(2, 1, 0), (3, 0, 2), (3, 0, 0), (2, 2, 1)]  # (degree, genus, legs on X2)

EVEN, ODD = Parity.EVEN, Parity.ODD


class OpClock:
    """Wall and CPU time of one op, summed over its timed segments.

    Work between segments (the covariant table fill of ``random_suite``) is
    input generation and is not counted, and neither is the host probe's
    handler when it fires inside a segment.
    """

    def __init__(self, probe=None):
        self.probe = probe
        self.wall = 0.0
        self.cpu = 0.0
        self.parts = {c: 0.0 for c in CATEGORIES}
        self.start = self.end = None

    def call(self, category, fn, *args, **kwargs):
        spent = self.probe.spent if self.probe else 0.0
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            c1, w1 = time.process_time(), time.perf_counter()
            probe_s = self.probe.spent - spent if self.probe else 0.0
            cpu = c1 - c0 - probe_s
            self.wall += w1 - w0 - probe_s
            self.cpu += cpu
            if category is not None:
                self.parts[category] += cpu
            self.start = w0 if self.start is None else self.start
            self.end = w1


def _record(name, clock, answer, error=None):
    return {
        "name": name,
        "wall": clock.wall,
        "cpu": clock.cpu,
        "parts": clock.parts,
        "span": [clock.start, clock.end],
        "answer": answer,
        "error": error,
    }


def _run_ops(ops, begin_op, probe):
    """Run (name, fn) ops in order; fn(clock) returns (answer, error)."""
    records = []
    for i, (name, fn) in enumerate(ops):
        begin_op(i)
        clock = OpClock(probe)
        try:
            answer, error = fn(clock)
        except Exception as err:  # a failed op is counted, not fatal to the run
            answer, error = None, "%s: %s" % (type(err).__name__, err)
        records.append(_record(name, clock, answer, error))
    begin_op(None)
    return records


# -- p1_grid --------------------------------------------------------------------


def run_p1_grid(cells, begin_op, probe):
    def op(d, g):
        def fn(clock):
            problem, insertions = clock.call(None, oracle.p1_problem, d, g)
            table = clock.call(
                "oracle", oracle.build_p1_table, d, g, max_legs=len(insertions)
            )
            engine = clock.call(
                "evaluate", correlator.evaluate_degeneration, problem, insertions, table
            ).value
            count = clock.call(
                "oracle", oracle.hurwitz_count, oracle.HurwitzInstance(d, g)
            )
            answer = "d%d g%d %s" % (d, g, engine)
            if engine != count:
                return answer, "engine %s != oracle %s" % (engine, count)
            return answer, None

        return fn

    return _run_ops([("d%d_g%d" % (d, g), op(d, g)) for d, g in cells], begin_op, probe)


# -- random_suite: the criterion-2 random family ----------------------------------


def random_divisor_catalog(rng):
    """Untwisted sector plus a conjugate band-2 pair, a self-conjugate band-2
    sector, or an odd pair; the pairing is involution-invariant."""
    shape = rng.choice(["plain", "pair", "self", "odd", "odd-self"])
    sectors = [Sector("u", 1, "u")]
    basis = [BasisClass("u0", "u", EVEN)]
    inv = {"u0": ("u0", 1)}
    if shape == "pair":
        sectors += [Sector("t+", 2, "t-"), Sector("t-", 2, "t+")]
        basis += [BasisClass("t0+", "t+", EVEN), BasisClass("t0-", "t-", EVEN)]
        inv.update({"t0+": ("t0-", 1), "t0-": ("t0+", 1)})
    if shape in ("self", "odd-self"):
        sectors.append(Sector("t", 2, "t"))
        basis.append(BasisClass("t0", "t", EVEN))
        inv["t0"] = ("t0", rng.choice([1, -1]))
    if shape in ("odd", "odd-self"):
        basis += [BasisClass("o1", "u", ODD), BasisClass("o2", "u", ODD)]
        inv.update({"o1": ("o1", 1), "o2": ("o2", 1)})
    ids = [b.id for b in basis]
    pairing = [[Fraction(0)] * len(ids) for _ in ids]

    def put(a, b, value):
        pairing[ids.index(a)][ids.index(b)] = value

    put("u0", "u0", Fraction(rng.randint(1, 4)))
    if "t0+" in ids:
        q = Fraction(rng.randint(1, 3), rng.randint(1, 2))
        put("t0+", "t0+", q)
        put("t0-", "t0-", q)
    if "t0" in ids:
        put("t0", "t0", Fraction(rng.randint(1, 3), rng.randint(1, 2)))
    if "o1" in ids:
        s = Fraction(rng.randint(1, 3))
        put("o1", "o2", s)
        put("o2", "o1", -s)
    return SectorCatalog(
        sectors=tuple(sectors),
        basis=tuple(basis),
        pairing=tuple(tuple(row) for row in pairing),
        basis_involution={i: inv[i] for i in ids},
    )


def random_ambient_catalog(rng):
    basis = [BasisClass("g_even", "m", EVEN)]
    with_odd = rng.random() < 0.6
    if with_odd:
        basis += [BasisClass("g_odd1", "m", ODD), BasisClass("g_odd2", "m", ODD)]
    pairing = [[Fraction(0)] * len(basis) for _ in basis]
    pairing[0][0] = Fraction(1)
    if with_odd:
        pairing[1][2], pairing[2][1] = Fraction(1), Fraction(-1)
    return SectorCatalog(
        sectors=(Sector("m", 1, "m"),),
        basis=tuple(basis),
        pairing=tuple(tuple(row) for row in pairing),
    )


def random_problem(rng, max_legs=2):
    """|M| <= 3: side degrees 1 or 3/2 over half-degree generators, c <= 2."""
    divisor = random_divisor_catalog(rng)
    ambient = random_ambient_catalog(rng)
    k = rng.choice([2, 3])
    legs, insertions = [], []
    for i in range(rng.randint(0, max_legs)):
        legs.append(LegSpec(i + 1, 1, rng.choice([None, None, "X1", "X2"])))
        cid = rng.choice([b.id for b in ambient.basis])
        insertions.append(correlator.Insertion(rng.randint(0, 1), cid))
    monoid = CurveClassMonoid(
        (Generator("a", "X1", Fraction(1, 2)), Generator("b", "X2", Fraction(1, 2)))
    )
    problem = DegenerationProblem(
        monoid=monoid,
        genus=rng.randint(0, 2),
        legs=tuple(legs),
        beta=CurveClass({"a": k, "b": k}),
        divisor=divisor,
        c_max=2,
        ambient=ambient,
    )
    return problem, insertions


def _sorted_with_sign(entries, parities):
    """Stable sort plus the Koszul sign of the sorting permutation: -1 per
    inverted pair of odd entries."""
    order = sorted(range(len(entries)), key=lambda i: entries[i])
    sign = 1
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if order[a] > order[b] and parities[order[a]].is_odd and parities[order[b]].is_odd:
                sign = -sign
    return tuple(entries[i] for i in order), sign


def covariant_table(keys, divisor, ambient, rng):
    """Random values that transform with the Koszul sign under permutations
    of identical slots; a repeated odd insertion forces zero."""
    table = correlator.InvariantTable()
    values = {}
    for key in keys:
        graph = graph_from_canonical(key.graph)
        legs = sorted(graph.legs, key=lambda l: l.label)
        roots = sorted(graph.roots, key=lambda r: r.label)
        leg_entries = [(l.e, m, cid) for l, (m, cid) in zip(legs, key.legs)]
        leg_par = [ambient.parity_of(cid) for _, cid in key.legs]
        root_entries = [(r.f, r.c, cid) for r, cid in zip(roots, key.roots)]
        root_par = [divisor.parity_of(cid) for cid in key.roots]
        if any(
            len(odd) != len(set(odd))
            for odd in (
                [e for e, p in zip(leg_entries, leg_par) if p.is_odd],
                [e for e, p in zip(root_entries, root_par) if p.is_odd],
            )
        ):
            table.set(key, Fraction(0))
            continue
        legs_sorted, sign1 = _sorted_with_sign(leg_entries, leg_par)
        roots_sorted, sign2 = _sorted_with_sign(root_entries, root_par)
        vertex = graph.vertices[0]
        token = (key.side, len(graph.vertices), vertex.genus, vertex.weight.exponents,
                 legs_sorted, roots_sorted)
        if token not in values:
            values[token] = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice([1, -1])
        table.set(key, sign1 * sign2 * values[token])
    return table


def run_random_suite(seed, begin_op, probe):
    """The criterion-2 draw: problems from the gate's generator (seed 2024),
    table values from the benchmark seed.

    The problems stay the gate's for every seed because their cost is heavy
    tailed: one draw of 100 can hold a problem taking 40% of the pass, so
    drawing problems per seed moves the pass time by a quarter.  The draw
    generator still fills the gate's table for each problem, which keeps
    its stream, and so the later problems, identical to the gate's; with
    seed 2024 that table is the one evaluated, otherwise a table filled from
    the seed replaces it.
    """
    rng = random.Random(GATE_SEED)
    values = None if seed == GATE_SEED else random.Random(seed)
    records = []
    nonempty = 0
    i = 0
    while nonempty < RANDOM_SUITE_SIZE:
        begin_op(i)
        problem, insertions = random_problem(rng, max_legs=2)
        clock = OpClock(probe)
        answer = error = None
        counted = False
        try:
            keys = clock.call("keys", correlator.needed_keys, problem, insertions)
            answer = "keys=%d" % len(keys)
            if keys:
                nonempty += 1
                counted = True
                table = covariant_table(keys, problem.divisor, problem.ambient, rng)
                if values is not None:
                    table = covariant_table(keys, problem.divisor, problem.ambient, values)
                std = clock.call(
                    "evaluate", correlator.evaluate_degeneration, problem, insertions,
                    table, convention="standard_dual",
                ).value
                crn = clock.call(
                    "evaluate", correlator.evaluate_degeneration, problem, insertions,
                    table, convention="chen_ruan",
                ).value
                answer += " value=%s" % std
                if std != crn:
                    error = "standard_dual %s != chen_ruan %s" % (std, crn)
        except Exception as err:  # a failed op is counted, not fatal to the run
            error = "%s: %s" % (type(err).__name__, err)
            if not counted:  # a draw whose keys failed counts, so the loop ends
                nonempty += 1
        records.append(_record("draw_%d" % i, clock, answer, error))
        i += 1
    begin_op(None)
    return records


# -- cli_files --------------------------------------------------------------------


def _write(path, obj):
    Path(path).write_text(jsonio.dumps(obj), encoding="utf-8")


def setup_cli_files(seed, workdir, root):
    """Write the five file sets and return the CLI argument lists plus the
    value each evaluation must print."""
    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    sets = []
    docs = Path(root) / "docs"
    problem_obj = json.loads((docs / "sample_problem.json").read_text(encoding="utf-8"))
    insertions_obj = json.loads((docs / "sample_insertions.json").read_text(encoding="utf-8"))
    problem = jsonio.problem_from_dict(problem_obj)
    insertions = jsonio.insertions_from_list(problem, insertions_obj)
    keys = correlator.needed_keys(problem, insertions)
    table = covariant_table(keys, problem.divisor, problem.ambient, random.Random(seed))
    expected = correlator.evaluate_degeneration(problem, insertions, table).value
    sets.append(("sample", problem_obj, insertions_obj, table, expected))
    for d, g, k in CLI_P1_SETS:
        problem, insertions = oracle.p1_problem(d, g, second_side_legs=k)
        table = oracle.build_p1_table(d, g, max_legs=len(insertions))
        expected = oracle.hurwitz_count(oracle.HurwitzInstance(d, g))
        sets.append((
            "p1_d%d_g%d_k%d" % (d, g, k),
            jsonio.problem_to_dict(problem),
            jsonio.insertions_to_list(problem, insertions),
            table,
            expected,
        ))
    ops = []
    for name, problem_obj, insertions_obj, table, expected in sets:
        p, i, t = (str(workdir / ("%s_%s.json" % (name, part)))
                   for part in ("problem", "insertions", "table"))
        _write(p, problem_obj)
        _write(i, insertions_obj)
        _write(t, jsonio.table_to_obj(table))
        expect = jsonio.fraction_to_str(expected)
        ops += [
            (name + ":splittings", "splittings", ["splittings", p, "--orbits"], None),
            (name + ":keys", "keys", ["keys", p, i], None),
            (name + ":evaluate_terms", "evaluate", ["evaluate", p, i, t, "--terms"], expect),
            (name + ":evaluate_chen_ruan", "evaluate",
             ["evaluate", p, i, t, "--convention", "chen_ruan"], expect),
        ]
    return ops


def run_cli_files(ops, begin_op, probe):
    def op(category, argv, expect):
        def fn(clock):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = clock.call(category, cli.main, argv)
            text = out.getvalue()
            answer = hashlib.sha256(text.encode()).hexdigest()
            if code != 0:
                return answer, "exit %d: %s" % (code, err.getvalue().strip()[:300])
            if expect is not None and json.loads(text)["value"] != expect:
                return answer, "value %s != %s" % (json.loads(text)["value"], expect)
            return answer, None

        return fn

    return _run_ops([(name, op(cat, argv, expect)) for name, cat, argv, expect in ops],
                    begin_op, probe)


def setup(name, seed, workdir, root):
    if name == "p1_grid":
        return P1_GRID  # fixed; the seed does not change it
    if name == "random_suite":
        # the draw interleaves with the ops: a problem counts toward the 100
        # only once its keys are known
        return seed
    return setup_cli_files(seed, workdir, root)


def run(name, inputs, begin_op, probe=None):
    runner = {"p1_grid": run_p1_grid, "random_suite": run_random_suite,
              "cli_files": run_cli_files}[name]
    return runner(inputs, begin_op, probe)
