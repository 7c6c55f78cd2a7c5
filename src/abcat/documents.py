"""JSON document format for categories, diagrams, groups, and actions.

Every document is a UTF-8 JSON object with a top-level ``"kind"``
discriminator.  Objects and morphisms are named by strings; composition
is listed as triples [g, f, gf]; group presentations carry their
relation matrices column-major as arrays of integer arrays, and hom
matrices row-major with target-generator rows.  Parsing resolves all
names and reports failures with a field path; serialization emits a
fixed ordering so files are diff-stable.

Kinds and their bodies:

- category: objects, morphisms [{name, dom, cod}], identities,
  composition [[g, f, gf], ...], optional generators.
- functor: source, target (category bodies), on_objects, on_morphisms.
- setdiagram: base (or factors [cat, cat] for a product base), sets
  (size or label list per object), maps (tables per morphism).
- abgroup: generators (count or label list), relations (columns).
- abhom: source, target (abgroup bodies), matrix (rows).
- abdiagram: base, groups, homs; optional target {groups, homs} and
  maps (a natural family, one matrix per object).
- gmodule: elements, table, carrier, action (matrix per generator
  element); optional target (gmodule body) and map (matrix).
- family: index, groups; optional target_groups and maps.

The last three kinds are syntaxes for one type.  An abdiagram parses to
an ``AbDiagram``; a gmodule to ``abdiag.gmodule(table, carrier,
action)``, the diagram on ``group_as_category(table)``; a family to the
diagram on ``discrete_category`` labelled by its index, with identity
homs.  With a target and maps, each parses to an ``AbNaturalMap``
between two such diagrams on one base.  A gmodule serializes its action
at every non-identity element, named ``g<i>`` (the unit is ``e``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .abdiag import AbDiagram, gmodule
from .abgrp import AbHom, FGAbGroup, identity_hom
from .errors import DocumentError, InputError
from .fincat import (FinCategory, FinFunctor, ProductCategory, discrete_category,
                     generator_closure, product_category)
from .intmat import IntMatrix
from .setdiag import FinSet, SetFunctor

KINDS = ("category", "functor", "setdiagram", "abgroup", "abhom",
         "abdiagram", "gmodule", "family")


@dataclass(frozen=True)
class Document:
    kind: str
    value: object


@dataclass(frozen=True)
class AbNaturalMap:
    """A natural family of homs between two diagrams on a shared base."""

    source: AbDiagram
    target: AbDiagram
    components: tuple


def _need(payload, key, kind, path):
    if not isinstance(payload, dict):
        raise DocumentError("expected a JSON object", path=path)
    if key not in payload:
        raise DocumentError(f"missing field '{key}'", path=path)
    value = payload[key]
    if kind is not None and not isinstance(value, kind):
        raise DocumentError(f"field '{key}' has the wrong type", path=f"{path}.{key}")
    return value


def _name_list(values, path):
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise DocumentError("expected a list of names", path=path)
    return values


def _name(value, path):
    if not isinstance(value, str):
        raise DocumentError("expected a name string", path=path)
    return value


def _resolver(names, noun):
    """``resolve(name, path)``: the position of a name among ``names``."""
    index = {name: i for i, name in enumerate(names)}

    def resolve(name, path):
        if isinstance(name, str) and name in index:
            return index[name]
        _name(name, path)
        raise DocumentError(f"unresolved {noun} reference '{name}'", path=path)

    return resolve


def _section(payload, key, names, noun, what, read, path, default=None):
    """One entry per name, from the JSON object ``payload[key]``.

    Each key of the section must be one of ``names``; the entry at
    position i is ``read(i, value, value_path)``.  A name without a key
    takes ``default(i)`` when that is given and not None, and is
    otherwise reported as having no ``what``.
    """
    path_here = f"{path}.{key}"
    resolve = _resolver(names, noun)
    entries = [None] * len(names)
    for k, value in _need(payload, key, dict, path).items():
        i = resolve(k, path_here)
        entries[i] = read(i, value, f"{path_here}.{k}")
    for i, entry in enumerate(entries):
        if entry is None and default is not None:
            entry = entries[i] = default(i)
        if entry is None:
            raise DocumentError(f"{noun} '{names[i]}' has no {what}", path=path_here)
    return entries


def _labels(cat: FinCategory):
    """Object names and morphism names of a category, in index order."""
    return ([cat.object_label(c) for c in range(cat.n_objects)],
            [cat.morphism_label(m) for m in range(cat.n_morphisms)])


def _int_matrix_rows(rows, shape, path):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise DocumentError("matrix must be a list of integer rows", path=path)
    for i, r in enumerate(rows):
        for j, x in enumerate(r):
            if not isinstance(x, int) or isinstance(x, bool):
                raise DocumentError("matrix entries must be integers",
                                    path=f"{path}[{i}][{j}]")
    try:
        return IntMatrix(rows, shape=shape)
    except Exception as exc:
        raise DocumentError(str(exc), path=path) from None


def _homs_between(sources, targets):
    """Section reader for a matrix from ``sources[i]`` to ``targets[i]``."""
    def read(i, rows, path):
        src, tgt = sources[i], targets[i]
        return AbHom(src, tgt, _int_matrix_rows(rows, (tgt.gens, src.gens), path))
    return read


def _columns_matrix(columns, rows, path):
    if not isinstance(columns, list):
        raise DocumentError("relations must be a list of columns", path=path)
    for j, col in enumerate(columns):
        if not isinstance(col, list) or len(col) != rows:
            raise DocumentError(f"column {j} must have {rows} entries",
                                path=f"{path}[{j}]")
        for x in col:
            if not isinstance(x, int) or isinstance(x, bool):
                raise DocumentError("relation entries must be integers",
                                    path=f"{path}[{j}]")
    return IntMatrix.from_columns(columns, rows)


# ---------------------------------------------------------------------------
# category


def parse_category_body(payload, path="category") -> FinCategory:
    objects = _name_list(_need(payload, "objects", list, path), f"{path}.objects")
    if len(set(objects)) != len(objects):
        raise DocumentError("object names are not distinct", path=f"{path}.objects")
    obj = _resolver(objects, "object")
    names = []
    dom = []
    cod = []
    for i, entry in enumerate(_need(payload, "morphisms", list, path)):
        mpath = f"{path}.morphisms[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError("morphism entries must be objects", path=mpath)
        names.append(_need(entry, "name", str, mpath))
        d = _need(entry, "dom", str, mpath)
        c = _need(entry, "cod", str, mpath)
        dom.append(obj(d, f"{mpath}.dom"))
        cod.append(obj(c, f"{mpath}.cod"))
    if len(set(names)) != len(names):
        raise DocumentError("morphism names are not distinct", path=f"{path}.morphisms")
    mor = _resolver(names, "morphism")
    ident = _section(payload, "identities", objects, "object", "identity",
                     lambda _, name, p: mor(name, p), path)
    table = {}
    for i, triple in enumerate(_need(payload, "composition", list, path)):
        tpath = f"{path}.composition[{i}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise DocumentError("composition entries must be [g, f, gf] triples",
                                path=tpath)
        g, f, gf = [mor(name, f"{tpath}[{k}]") for k, name in enumerate(triple)]
        table[(g, f)] = gf
    # composites with identities may be omitted; they are forced
    for f, (d, c) in enumerate(zip(dom, cod)):
        table.setdefault((ident[c], f), f)
        table.setdefault((f, ident[d]), f)
    generators = None
    if "generators" in payload:
        gpath = f"{path}.generators"
        generators = [mor(name, gpath)
                      for name in _name_list(_need(payload, "generators", list, path), gpath)]
    cat = FinCategory(len(objects), dom, cod, ident, table,
                      object_labels=objects, morphism_labels=names,
                      generators=generators)
    if generators is not None:
        reachable = generator_closure(cat, table)
        missing = next((m for m in range(len(names)) if m not in reachable), None)
        if missing is not None:
            raise DocumentError(f"morphism '{names[missing]}' is not a composite of "
                                f"generators", path=f"{path}.generators")
    return cat


def category_body(cat: FinCategory) -> dict:
    cat = cat.with_composition_table()
    objects, names = _labels(cat)
    body = {
        "objects": objects,
        "morphisms": [{"name": names[m], "dom": objects[cat.dom[m]],
                       "cod": objects[cat.cod[m]]}
                      for m in range(cat.n_morphisms)],
        "identities": {objects[c]: names[cat.identity[c]]
                       for c in range(cat.n_objects)},
        "composition": [[names[g], names[f], names[cat.compose(g, f)]]
                        for (g, f) in cat.composable_pairs()],
    }
    if cat.generators is not None:
        body["generators"] = [names[g] for g in cat.generators]
    return body


# ---------------------------------------------------------------------------
# per-kind parsers


def _parse_functor(payload, path="functor") -> FinFunctor:
    source = parse_category_body(_need(payload, "source", dict, path), f"{path}.source")
    target = parse_category_body(_need(payload, "target", dict, path), f"{path}.target")
    s_obj, s_mor = _labels(source)
    t_obj, t_mor = _labels(target)
    obj, mor = _resolver(t_obj, "object"), _resolver(t_mor, "morphism")
    on_objects = _section(payload, "on_objects", s_obj, "object", "image",
                          lambda _, name, p: obj(name, p), path)
    on_morphisms = _section(payload, "on_morphisms", s_mor, "morphism", "image",
                            lambda _, name, p: mor(name, p), path)
    return FinFunctor(source, target, on_objects, on_morphisms)


def _read_set(_, value, path):
    if isinstance(value, int) and not isinstance(value, bool):
        if value < 0:
            raise DocumentError("set size must be nonnegative", path=path)
        return FinSet(value)
    if isinstance(value, list):
        return FinSet(len(value), tuple(_name_list(value, path)))
    raise DocumentError("set must be a size or a label list", path=path)


def _read_table(_, value, path):
    if not isinstance(value, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise DocumentError("map must be a list of element indices", path=path)
    return tuple(value)


def _parse_setdiagram(payload, path="setdiagram") -> SetFunctor:
    if "factors" in payload:
        factors = _need(payload, "factors", list, path)
        if len(factors) != 2:
            raise DocumentError("factors must list exactly two categories",
                                path=f"{path}.factors")
        left = parse_category_body(factors[0], f"{path}.factors[0]")
        right = parse_category_body(factors[1], f"{path}.factors[1]")
        base = product_category(left, right)
    else:
        base = parse_category_body(_need(payload, "base", dict, path), f"{path}.base")
    objects, morphisms = _labels(base)
    sets = _section(payload, "sets", objects, "object", "carrier", _read_set, path)

    def identity_table(m):
        if base.identity[base.dom[m]] == m:
            return tuple(range(sets[base.dom[m]].size))
        return None

    tables = _section(payload, "maps", morphisms, "morphism", "map", _read_table,
                      path, default=identity_table)
    try:
        return SetFunctor(base, sets, tables)
    except Exception as exc:
        raise DocumentError(str(exc), path=path) from None


def parse_abgroup_body(payload, path="abgroup") -> FGAbGroup:
    gens = _need(payload, "generators", None, path)
    if isinstance(gens, int) and not isinstance(gens, bool):
        count = gens
    elif isinstance(gens, list):
        count = len(gens)
    else:
        raise DocumentError("generators must be a count or a label list",
                            path=f"{path}.generators")
    if count < 0:
        raise DocumentError("generator count must be nonnegative",
                            path=f"{path}.generators")
    relations = _columns_matrix(payload.get("relations", []), count,
                                f"{path}.relations")
    return FGAbGroup(count, relations)


def abgroup_body(group: FGAbGroup) -> dict:
    return {
        "generators": group.gens,
        "relations": [list(col) for col in group.relations.columns()],
    }


def _read_group(_, value, path):
    return parse_abgroup_body(value, path)


def _parse_abhom(payload, path="abhom") -> AbHom:
    source = parse_abgroup_body(_need(payload, "source", dict, path), f"{path}.source")
    target = parse_abgroup_body(_need(payload, "target", dict, path), f"{path}.target")
    matrix = _int_matrix_rows(_need(payload, "matrix", list, path),
                              (target.gens, source.gens), f"{path}.matrix")
    return AbHom(source, target, matrix)


def _parse_diagram_body(payload, base, path) -> AbDiagram:
    """The ``groups`` and ``homs`` sections of a diagram on ``base``."""
    objects, morphisms = _labels(base)
    groups = _section(payload, "groups", objects, "object", "group", _read_group, path)

    def identity_hom(m):
        if base.identity[base.dom[m]] == m:
            g = groups[base.dom[m]]
            return AbHom(g, g, IntMatrix.identity(g.gens))
        return None

    read = _homs_between([groups[c] for c in base.dom], [groups[c] for c in base.cod])
    homs = _section(payload, "homs", morphisms, "morphism", "hom", read, path,
                    default=identity_hom)
    return AbDiagram(base, groups, homs)


def _parse_abdiagram(payload, path="abdiagram"):
    base = parse_category_body(_need(payload, "base", dict, path), f"{path}.base")
    diagram = _parse_diagram_body(payload, base, path)
    if "target" not in payload:
        return diagram
    target = _parse_diagram_body(_need(payload, "target", dict, path), base,
                                 f"{path}.target")
    maps = _section(payload, "maps", _labels(base)[0], "object", "map",
                    _homs_between(diagram.groups, target.groups), path)
    return AbNaturalMap(diagram, target, tuple(maps))


def _parse_gmodule_body(payload, path="gmodule"):
    elements = _name_list(_need(payload, "elements", list, path),
                          f"{path}.elements")
    if len(set(elements)) != len(elements):
        raise DocumentError("element names are not distinct", path=f"{path}.elements")
    element = _resolver(elements, "element")
    table_payload = _need(payload, "table", list, path)
    if len(table_payload) != len(elements):
        raise DocumentError("table must have one row per element", path=f"{path}.table")
    table = []
    for i, row in enumerate(table_payload):
        rpath = f"{path}.table[{i}]"
        if not isinstance(row, list) or len(row) != len(elements):
            raise DocumentError(f"table row {i} must list {len(elements)} elements",
                                path=rpath)
        table.append(tuple(element(name, rpath) for name in row))
    carrier = parse_abgroup_body(_need(payload, "carrier", dict, path),
                                 f"{path}.carrier")
    action = {}
    for k, v in _need(payload, "action", dict, path).items():
        g = element(k, f"{path}.action")
        action[g] = AbHom(carrier, carrier,
                          _int_matrix_rows(v, (carrier.gens, carrier.gens),
                                           f"{path}.action.{k}"))
    try:
        module = gmodule(table, carrier, action)
    except Exception as exc:
        raise DocumentError(str(exc), path=path) from None
    return module, elements


def _parse_gmodule(payload, path="gmodule"):
    module, elements = _parse_gmodule_body(payload, path)
    if "target" not in payload:
        return module
    tpayload = dict(_need(payload, "target", dict, path))
    tpayload.setdefault("elements", list(elements))
    tpayload.setdefault("table", _table_names(module.base, elements))
    target, _ = _parse_gmodule_body(tpayload, f"{path}.target")
    if target.base != module.base:
        raise DocumentError("modules are over different groups", path=f"{path}.target")
    component = _homs_between(module.groups, target.groups)(
        0, _need(payload, "map", list, path), f"{path}.map")
    return AbNaturalMap(module, target, (component,))


def _parse_family(payload, path="family"):
    index = _name_list(_need(payload, "index", list, path), f"{path}.index")
    if len(set(index)) != len(index):
        raise DocumentError("index labels are not distinct", path=f"{path}.index")
    base = discrete_category(len(index), labels=index)

    def family(key):
        groups = _section(payload, key, index, "index", "group", _read_group, path)
        return AbDiagram(base, groups, [identity_hom(g) for g in groups])

    source = family("groups")
    if "target_groups" not in payload:
        return source
    target = family("target_groups")
    maps = _section(payload, "maps", index, "index", "map",
                    _homs_between(source.groups, target.groups), path)
    return AbNaturalMap(source, target, tuple(maps))


# ---------------------------------------------------------------------------
# entry points


def parse_document(text: str) -> Document:
    """Parse and validate a document; errors carry a position or path."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc.msg}",
                            position=(exc.lineno, exc.colno)) from None
    if not isinstance(payload, dict):
        raise DocumentError("document must be a JSON object")
    kind = payload.get("kind")
    if kind not in KINDS:
        raise DocumentError(f"unknown kind {kind!r}; expected one of {', '.join(KINDS)}",
                            path="kind")
    try:
        if kind == "category":
            value = parse_category_body(payload)
        elif kind == "functor":
            value = _parse_functor(payload)
        elif kind == "setdiagram":
            value = _parse_setdiagram(payload)
        elif kind == "abgroup":
            value = parse_abgroup_body(payload)
        elif kind == "abhom":
            value = _parse_abhom(payload)
        elif kind == "abdiagram":
            value = _parse_abdiagram(payload)
        elif kind == "gmodule":
            value = _parse_gmodule(payload)
        else:
            value = _parse_family(payload)
    except InputError as exc:
        raise DocumentError(str(exc), path=kind) from None
    return Document(kind, value)


def load_document(path) -> Document:
    with open(path, encoding="utf-8") as fh:
        return parse_document(fh.read())


def _rows(hom: AbHom) -> list:
    return [list(r) for r in hom.matrix.data]


def _groups_body(names, groups) -> dict:
    return {name: abgroup_body(g) for name, g in zip(names, groups)}


def _diagram_body(d: AbDiagram) -> dict:
    objects, morphisms = _labels(d.base)
    return {"groups": _groups_body(objects, d.groups),
            "homs": {name: _rows(d.hom(m)) for m, name in enumerate(morphisms)}}


def _table_names(group: FinCategory, names) -> list:
    """The multiplication table of a one-object group category, by name."""
    n = group.n_morphisms
    return [[names[group.compose(a, b)] for b in range(n)] for a in range(n)]


def _module_body(module: AbDiagram, names) -> dict:
    """A gmodule body, the action written at every non-identity element."""
    return {
        "elements": list(names),
        "table": _table_names(module.base, names),
        "carrier": abgroup_body(module.groups[0]),
        "action": {names[g]: _rows(module.hom(g)) for g in module.base.generating()},
    }


def _serialize_value(doc: Document) -> dict:
    kind, value = doc.kind, doc.value
    if kind == "category":
        body = category_body(value)
    elif kind == "functor":
        s_obj, s_mor = _labels(value.source)
        t_obj, t_mor = _labels(value.target)
        body = {
            "source": category_body(value.source),
            "target": category_body(value.target),
            "on_objects": {name: t_obj[c] for name, c in zip(s_obj, value.on_objects)},
            "on_morphisms": {name: t_mor[m] for name, m in zip(s_mor, value.on_morphisms)},
        }
    elif kind == "setdiagram":
        base = value.base
        objects, morphisms = _labels(base)
        body = {"sets": {name: list(s.labels) if s.labels else s.size
                         for name, s in zip(objects, value.sets)},
                "maps": {name: list(t) for name, t in zip(morphisms, value.tables)}}
        if isinstance(base, ProductCategory):
            body["factors"] = [category_body(base.left), category_body(base.right)]
        else:
            body["base"] = category_body(base)
    elif kind == "abgroup":
        body = abgroup_body(value)
    elif kind == "abhom":
        body = {"source": abgroup_body(value.source),
                "target": abgroup_body(value.target),
                "matrix": _rows(value)}
    else:
        natural = isinstance(value, AbNaturalMap)
        source = value.source if natural else value
        objects = _labels(source.base)[0]
        if kind == "abdiagram":
            body = {"base": category_body(source.base), **_diagram_body(source)}
            if natural:
                body["target"] = _diagram_body(value.target)
                body["maps"] = {name: _rows(h) for name, h in zip(objects, value.components)}
        elif kind == "gmodule":
            names = [f"g{i}" for i in range(source.base.n_morphisms)]
            names[source.base.identity[0]] = "e"
            body = _module_body(source, names)
            if natural:
                target = _module_body(value.target, names)
                del target["elements"], target["table"]
                body["target"] = target
                body["map"] = _rows(value.components[0])
        else:
            body = {"index": objects, "groups": _groups_body(objects, source.groups)}
            if natural:
                body["target_groups"] = _groups_body(objects, value.target.groups)
                body["maps"] = {name: _rows(h) for name, h in zip(objects, value.components)}
    return {"kind": kind, **body}


def serialize_document(doc: Document) -> str:
    """Stable JSON rendering; parse(serialize(doc)) reproduces doc."""
    return json.dumps(_serialize_value(doc), indent=2, sort_keys=True) + "\n"
