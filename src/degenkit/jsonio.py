"""JSON round-trips for every externally visible type.

All rationals travel as "p/q" with positive denominator and the fraction in
lowest terms; arrays are emitted in canonical order so identical inputs give
byte-identical outputs.  Every output is written by ``dumps``: 2-space
indent, sorted keys, ASCII escapes and one trailing newline.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .algebra import BasisClass, Parity, Sector, SectorCatalog
from .correlator import CorrelatorKey, EvaluationResult, Insertion, InvariantTable
from .errors import DegenkitError
from .graphs import (
    CurveClass,
    CurveClassMonoid,
    Generator,
    Leg,
    ModularGraph,
    Root,
    Vertex,
    canonical_form,
    rank_relabeled,
    vertex_data,
)
from .splitting import DegenerationProblem, LegSpec, Splitting
from .twisting import TwistingChoice


def fraction_to_str(x: Fraction) -> str:
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


def fraction_from_str(s: str | int) -> Fraction:
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    if not isinstance(s, str):
        raise DegenkitError("expected a rational string, got %r" % (s,))
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError):
        raise DegenkitError("not a rational number: %r" % s) from None


def _int(value, what: str) -> int:
    """A JSON integer; booleans, floats and strings are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DegenkitError("%s must be an integer, got %r" % (what, value))
    return value


def parse_int(value, what: str) -> int:
    """An integer given as a JSON integer or as decimal text, as in
    ``"2,3"`` lists and ``"k*lcm"`` rules; booleans, floats and other text
    are refused."""
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise DegenkitError("%s must be an integer, got %r" % (what, value)) from None
    return _int(value, what)


def parse_ints(text: str, what: str) -> list[int]:
    """A comma-separated list of integers; empty items are skipped."""
    return [parse_int(x, what) for x in text.split(",") if x.strip()]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise DegenkitError("%s must be an object, got %r" % (what, value))
    return value


def _objects(value, what: str) -> list[dict]:
    if not isinstance(value, list) or not all(isinstance(row, dict) for row in value):
        raise DegenkitError("%s must be a list of objects, got %r" % (what, value))
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise DegenkitError("%s must be a list, got %r" % (what, value))
    return value


def _field(data: dict, name: str, what: str):
    if name not in data:
        raise DegenkitError("%s is missing the field %r" % (what, name))
    return data[name]


def _lists(value, size: int, what: str) -> list[list]:
    """A list of lists of ``size`` entries each."""
    rows = _list(value, what)
    if not all(isinstance(row, list) and len(row) == size for row in rows):
        raise DegenkitError("%s must be a list of %d-entry lists, got %r" % (what, size, value))
    return rows


def _rows(value, what: str, *names: str) -> list[tuple]:
    """A list of objects, each read as the tuple of its required fields."""
    rows = _objects(value, what)
    return [tuple(_field(row, n, what + " row") for n in names) for row in rows]


def _str(value, what: str) -> str:
    """A JSON string, as every id and id reference must be."""
    if not isinstance(value, str):
        raise DegenkitError("%s must be a string, got %r" % (what, value))
    return value


def _curve_class(value, what: str) -> CurveClass:
    return CurveClass({g: _int(e, what + " exponent") for g, e in _object(value, what).items()})


def _parity(value) -> Parity:
    if value not in ("even", "odd"):
        raise DegenkitError("parity must be 'even' or 'odd', got %r" % (value,))
    return Parity(value)


# -- catalogs -----------------------------------------------------------------


def catalog_to_dict(cat: SectorCatalog) -> dict:
    out = {
        "sectors": [
            {"id": s.id, "band_order": s.band_order, "involution_image": s.involution_image}
            for s in cat.sectors
        ],
        "basis": [
            {"id": b.id, "sector": b.sector, "parity": b.parity.value}
            for b in cat.basis
        ],
        "pairing": [[fraction_to_str(x) for x in row] for row in cat.pairing],
    }
    if any(
        cat.basis_involution[b.id] != (b.id, 1) for b in cat.basis
    ):
        out["basis_involution"] = [
            {"id": bid, "image": img, "sign": sign}
            for bid, (img, sign) in sorted(cat.basis_involution.items())
        ]
    return out


def catalog_from_dict(data: dict) -> SectorCatalog:
    def rows(name: str, *fields: str) -> list[tuple]:
        return _rows(_field(data, name, "catalog"), name, *fields)

    inv = None
    if "basis_involution" in _object(data, "catalog"):
        inv = {
            _str(bid, "involution id"): (
                _str(image, "involution image"), _int(sign, "involution sign")
            )
            for bid, image, sign in rows("basis_involution", "id", "image", "sign")
        }
    return SectorCatalog(
        sectors=tuple(
            Sector(
                _str(sid, "sector id"),
                _int(band, "band_order"),
                _str(image, "involution_image"),
            )
            for sid, band, image in rows("sectors", "id", "band_order", "involution_image")
        ),
        basis=tuple(
            BasisClass(_str(bid, "basis id"), _str(sector, "basis sector"), _parity(parity))
            for bid, sector, parity in rows("basis", "id", "sector", "parity")
        ),
        pairing=tuple(
            tuple(fraction_from_str(x) for x in _list(row, "pairing row"))
            for row in _list(_field(data, "pairing", "catalog"), "pairing")
        ),
        basis_involution=inv,
    )


# -- monoid, classes, graphs --------------------------------------------------


def monoid_to_dict(monoid: CurveClassMonoid) -> dict:
    return {
        "generators": [
            {"id": g.id, "component": g.component, "d_degree": fraction_to_str(g.d_degree)}
            for g in monoid.generators
        ]
    }


def monoid_from_dict(data: dict) -> CurveClassMonoid:
    generators = _field(_object(data, "monoid"), "generators", "monoid")
    return CurveClassMonoid(
        tuple(
            Generator(
                _str(gid, "generator id"),
                _str(component, "generator component"),
                fraction_from_str(degree),
            )
            for gid, component, degree in _rows(
                generators, "generators", "id", "component", "d_degree"
            )
        )
    )


def curve_class_to_dict(cls: CurveClass) -> dict:
    return {g: e for g, e in cls.items()}


def graph_to_dict(graph: ModularGraph) -> dict:
    return {
        "vertices": [
            {"genus": v.genus, "weight": curve_class_to_dict(v.weight)}
            for v in graph.vertices
        ],
        "edges": [list(e) for e in graph.edges],
        "legs": [
            {"label": l.label, "e": l.e, "vertex": l.vertex} for l in graph.legs
        ],
        "roots": [
            {"label": r.label, "f": r.f, "c": r.c, "vertex": r.vertex}
            for r in graph.roots
        ],
    }


def graph_from_dict(data: dict) -> ModularGraph:
    edges = _list(data.get("edges", []), "graph edges")
    if not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise DegenkitError("graph edges must be pairs, got %r" % (edges,))
    return ModularGraph(
        vertices=tuple(
            Vertex(
                _int(_field(v, "genus", "graph vertex"), "vertex genus"),
                _curve_class(v.get("weight", {}), "vertex weight"),
            )
            for v in _objects(data.get("vertices", []), "graph vertices")
        ),
        edges=tuple((_int(a, "edge end"), _int(b, "edge end")) for a, b in edges),
        legs=tuple(
            Leg(*map(_int, row, ("leg label", "leg e", "leg vertex")))
            for row in _rows(data.get("legs", []), "graph legs", "label", "e", "vertex")
        ),
        roots=tuple(
            Root(*map(_int, row, ("root label", "root f", "root c", "root vertex")))
            for row in _rows(data.get("roots", []), "graph roots", "label", "f", "c", "vertex")
        ),
    )


# -- problems -----------------------------------------------------------------


def problem_to_dict(problem: DegenerationProblem) -> dict:
    legs = []
    for spec in problem.legs:
        row: dict[str, Any] = {"label": spec.label, "e": spec.e}
        if spec.side is not None:
            row["side"] = spec.side
        legs.append(row)
    out = {
        "monoid": monoid_to_dict(problem.monoid),
        "genus": problem.genus,
        "legs": legs,
        "beta": curve_class_to_dict(problem.beta),
        "divisor": catalog_to_dict(problem.divisor),
        "c_max": problem.c_max,
    }
    if problem.ambient is not None:
        out["ambient"] = catalog_to_dict(problem.ambient)
    if problem.budget is not None:
        out["budget"] = problem.budget
    return out


def problem_from_dict(data: dict) -> DegenerationProblem:
    _object(data, "problem")
    for field_name in ("monoid", "genus", "legs", "beta", "divisor", "c_max"):
        _field(data, field_name, "problem file")
    return DegenerationProblem(
        monoid=monoid_from_dict(data["monoid"]),
        genus=_int(data["genus"], "genus"),
        legs=tuple(
            LegSpec(
                _int(_field(l, "label", "leg"), "leg label"),
                _int(_field(l, "e", "leg"), "leg e"),
                l.get("side"),
            )
            for l in _objects(data["legs"], "legs")
        ),
        beta=_curve_class(data["beta"], "beta"),
        divisor=catalog_from_dict(data["divisor"]),
        c_max=_int(data["c_max"], "c_max"),
        ambient=catalog_from_dict(data["ambient"]) if "ambient" in data else None,
        budget=_int(data["budget"], "budget") if "budget" in data else None,
    )


def insertions_from_list(problem: DegenerationProblem, data: list) -> list[Insertion]:
    by_label = {}
    for row in _objects(data, "insertions"):
        label = _int(_field(row, "label", "insertion"), "insertion label")
        if label in by_label:
            raise DegenkitError("duplicate insertion for leg %d" % label)
        by_label[label] = Insertion(
            _int(row.get("m", 0), "insertion m"), _field(row, "class", "insertion")
        )
    out = []
    for spec in problem.legs:
        if spec.label not in by_label:
            raise DegenkitError("no insertion given for leg %d" % spec.label)
        out.append(by_label[spec.label])
    if len(by_label) != len(problem.legs):
        raise DegenkitError("insertions reference unknown leg labels")
    return out


def insertions_to_list(problem: DegenerationProblem, insertions) -> list:
    return [
        {"label": spec.label, "m": ins.m, "class": ins.class_id}
        for spec, ins in zip(problem.legs, insertions)
    ]


# -- twisting -----------------------------------------------------------------


def twisting_from_obj(data) -> TwistingChoice:
    if isinstance(data, str):
        text = data.strip()
        if text == "lcm":
            return TwistingChoice("lcm")
        if text.endswith("*lcm"):
            return TwistingChoice("multiple", multiple=parse_int(text[:-4], "twisting multiple"))
        raise DegenkitError("unknown twisting rule %r" % text)
    kind = _object(data, "twisting rule").get("rule", "lcm")
    if kind == "lcm":
        return TwistingChoice("lcm")
    if kind == "multiple":
        k = _field(data, "k", "multiple twisting rule")
        return TwistingChoice("multiple", multiple=parse_int(k, "twisting k"))
    if kind == "table":
        entries = []
        rows = _rows(data.get("entries", []), "twisting entries", "multiset", "value")
        for multiset, value in rows:
            contacts = tuple(parse_ints(str(multiset), "twisting multiset entry"))
            entries.append((contacts, parse_int(value, "twisting value")))
        return TwistingChoice("table", table=tuple(entries))
    raise DegenkitError("unknown twisting rule kind %r" % kind)


def twisting_to_obj(rule: TwistingChoice):
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


# -- splittings ---------------------------------------------------------------


def splitting_to_dict(s: Splitting) -> dict:
    return {
        "xi1": graph_to_dict(s.xi1),
        "xi2": graph_to_dict(s.xi2),
        "m_labels": list(s.m_labels),
    }


def splitting_from_dict(data: dict) -> Splitting:
    return Splitting(
        graph_from_dict(data["xi1"]),
        graph_from_dict(data["xi2"]),
        tuple(_int(x, "root label") for x in data["m_labels"]),
    )


def splittings_to_obj(splittings, orbit_list=None) -> list:
    """JSON array of graph pairs; with ``orbits(splittings)``, each row gains
    a block naming its orbit, whether it is the representative, the
    stabilizer order, and the orbit size."""
    rows = [splitting_to_dict(s) for s in splittings]
    if orbit_list is not None:
        for orbit_number, o in enumerate(orbit_list):
            for i in o.members:
                rows[i]["orbit"] = {
                    "index": orbit_number,
                    "representative": i == o.members[0],
                    "stabilizer_order": o.stabilizer_order,
                    "size": o.size,
                }
    return rows


# -- correlator keys and tables -----------------------------------------------


def key_to_dict(key: CorrelatorKey) -> dict:
    return {
        "side": key.side,
        "graph": key.graph.decode(),
        "legs": [{"m": m, "class": cid} for m, cid in key.legs],
        "roots": [{"class": cid} for cid in key.roots],
    }


def _key_graph(graph) -> tuple[bytes, int, int]:
    """The canonical bytes of a table key's graph, with its leg and root
    counts, given as an object (``graph_from_dict``) or as canonical JSON
    text in the layout of ``canonical_form``: ``{"e": [[a, b]...], "l":
    [[label, e, vertex]...], "r": [[label, f, c, vertex]...], "v": [[genus,
    [[generator, exponent]...]]...]}``.

    Text that ``graphs.vertex_data`` reads is the bytes ``vertex_form``
    writes, and is taken as it is.  Any other text is read with every number
    through ``_int`` and every generator id through ``_str``, and any other
    graph is built and canonicalised.
    """
    if isinstance(graph, dict):
        parsed = graph_from_dict(graph)
    else:
        # a lone surrogate passes into bytes that vertex_data refuses
        blob = _str(graph, "key graph").encode("utf-8", "surrogatepass")
        found = vertex_data(blob)
        if found is not None:
            return blob, len(found[2]), len(found[3])
        try:
            data = json.loads(graph)
        except (ValueError, RecursionError):
            raise DegenkitError("not a canonical graph: %r" % (graph,)) from None
        data = _object(data, "key graph")

        def rows(name: str, size: int, *what: str) -> list[tuple]:
            return [
                tuple(map(_int, row, what))
                for row in _lists(_field(data, name, "key graph"), size, "key graph " + name)
            ]

        vertices = []
        for genus, pairs in _lists(_field(data, "v", "key graph"), 2, "key graph v"):
            weight = {
                _str(gid, "vertex weight generator"): _int(e, "vertex weight exponent")
                for gid, e in _lists(pairs, 2, "vertex weight")
            }
            if len(weight) != len(pairs):
                raise DegenkitError("vertex weight repeats a generator: %r" % (pairs,))
            vertices.append((_int(genus, "vertex genus"), CurveClass(weight)))
        edges = rows("e", 2, "edge end", "edge end")
        legs = rows("l", 3, "leg label", "leg e", "leg vertex")
        roots = rows("r", 4, "root label", "root f", "root c", "root vertex")
        parsed = ModularGraph(
            vertices=tuple(Vertex(genus, weight) for genus, weight in vertices),
            edges=tuple(edges),
            legs=tuple(Leg(*row) for row in legs),
            roots=tuple(Root(*row) for row in roots),
        )
    return canonical_form(rank_relabeled(parsed)), len(parsed.legs), len(parsed.roots)


def key_from_dict(data: dict) -> CorrelatorKey:
    """A table key; a ``legs`` or ``roots`` list it gives holds one
    insertion per leg or root of its graph, in label order."""
    graph, *counts = _key_graph(_field(_object(data, "table key"), "graph", "table key"))
    key = CorrelatorKey(
        side=_field(data, "side", "table key"),
        graph=graph,
        legs=tuple(
            (_int(m, "key leg m"), _str(cid, "key leg class"))
            for m, cid in _rows(data.get("legs", []), "table key legs", "m", "class")
        ),
        roots=tuple(
            _str(cid, "key root class")
            for (cid,) in _rows(data.get("roots", []), "table key roots", "class")
        ),
    )
    for name, listed, count in zip(("legs", "roots"), (key.legs, key.roots), counts):
        if name in data and len(listed) != count:
            raise DegenkitError(
                "table key lists %d %s for the graph %s, which has %d"
                % (len(listed), name, key.graph.decode(), count)
            )
    return key


def table_to_obj(table: InvariantTable) -> list:
    return [
        {"key": key_to_dict(k), "value": fraction_to_str(v)}
        for k, v in table.items()
    ]


def table_from_obj(data: list) -> InvariantTable:
    """A table file; a key listed twice must have one value."""
    table = InvariantTable()
    for key, value in _rows(data, "table", "key", "value"):
        key, value = key_from_dict(key), fraction_from_str(value)
        known = table.get(key)
        if known is not None and known != value:
            raise DegenkitError(
                "table lists the key %s with two values, %s and %s"
                % (json.dumps(key_to_dict(key), sort_keys=True), known, value)
            )
        table.set(key, value)
    return table


def keys_to_obj(keys) -> list:
    return [{"key": key_to_dict(k)} for k in keys]


# -- evaluation results -------------------------------------------------------


def result_to_obj(result: EvaluationResult) -> dict:
    out = {
        "value": fraction_to_str(result.value),
        "convention": result.convention,
        "twisting": result.twisting,
    }
    if result.terms is not None:
        out["terms"] = [
            {
                "splitting": splitting_to_dict(t.splitting),
                "multiplicity": t.multiplicity,
                "delta_choice": [
                    {"label": lab, "class": cid} for lab, cid in t.delta_choice
                ],
                "dual_choice": [
                    {"label": lab, "class": cid} for lab, cid in t.dual_choice
                ],
                "sign": t.sign,
                "coefficient": fraction_to_str(t.coefficient),
                "expansion_coefficient": fraction_to_str(t.expansion_coefficient),
                "left": [
                    {"key": key_to_dict(k), "value": fraction_to_str(v)}
                    for k, v in t.left
                ],
                "right": [
                    {"key": key_to_dict(k), "value": fraction_to_str(v)}
                    for k, v in t.right
                ],
                "term_value": fraction_to_str(t.value),
            }
            for t in result.terms
        ]
    return out


def _append_json(obj, indent: str, out: list) -> None:
    """Append the pieces of ``json.dumps(obj, indent=2, sort_keys=True)``
    to ``out``; ``indent`` is the indent of the line ``obj`` starts on.
    Keys must be strings (``_quote`` raises TypeError on others).  The
    str and int values of dicts and the ints of lists, the bulk of every
    output, are written without a call."""
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            value = obj[key]
            head = sep + _quote(key) + ": "
            if type(value) is str:
                out.append(head + _quote(value))
            elif type(value) is int:
                out.append(head + int.__repr__(value))
            else:
                out.append(head)
                _append_json(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for item in obj:
            if type(item) is int:
                out.append(sep + int.__repr__(item))
            else:
                out.append(sep)
                _append_json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif type(obj) is int:
        out.append(int.__repr__(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:  # floats and other scalars
        out.append(json.dumps(obj))


def dumps(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True) + "\\n"``,
    written directly: below Python 3.13 ``indent`` turns the C encoder off,
    and this writer takes about half the time of the pure-Python encoder
    (0.055 s against 0.127 s of CPU on the 20 outputs of bench cli_files,
    Python 3.11).  Non-str keys raise TypeError on every version."""
    out: list[str] = []
    _append_json(obj, "", out)
    out.append("\n")
    return "".join(out)
