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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .abdiag import AbDiagram, GModule
from .abgrp import AbHom, FGAbGroup
from .errors import DocumentError, InputError
from .fincat import (FinCategory, FinFunctor, ProductCategory, generator_closure,
                     product_category)
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


@dataclass(frozen=True)
class EquivariantMap:
    """A hom of modules over the same group."""

    source: GModule
    target: GModule
    component: AbHom


@dataclass(frozen=True)
class GroupFamily:
    """A family of groups indexed by a labelled finite set."""

    index: tuple
    groups: tuple


@dataclass(frozen=True)
class FamilyMap:
    """Two families over the same index with componentwise homs."""

    index: tuple
    source: tuple
    target: tuple
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
    obj_index = {name: i for i, name in enumerate(objects)}
    morphisms = _need(payload, "morphisms", list, path)
    names = []
    dom = []
    cod = []
    for i, entry in enumerate(morphisms):
        mpath = f"{path}.morphisms[{i}]"
        if not isinstance(entry, dict):
            raise DocumentError("morphism entries must be objects", path=mpath)
        name = _need(entry, "name", str, mpath)
        d = _need(entry, "dom", str, mpath)
        c = _need(entry, "cod", str, mpath)
        if d not in obj_index:
            raise DocumentError(f"unresolved object reference '{d}'", path=f"{mpath}.dom")
        if c not in obj_index:
            raise DocumentError(f"unresolved object reference '{c}'", path=f"{mpath}.cod")
        names.append(name)
        dom.append(obj_index[d])
        cod.append(obj_index[c])
    if len(set(names)) != len(names):
        raise DocumentError("morphism names are not distinct", path=f"{path}.morphisms")
    mor_index = {name: i for i, name in enumerate(names)}
    identities = _need(payload, "identities", dict, path)
    ident = [None] * len(objects)
    for oname, mname in identities.items():
        _name(mname, f"{path}.identities.{oname}")
        if oname not in obj_index:
            raise DocumentError(f"unresolved object reference '{oname}'",
                                path=f"{path}.identities")
        if mname not in mor_index:
            raise DocumentError(f"unresolved morphism reference '{mname}'",
                                path=f"{path}.identities.{oname}")
        ident[obj_index[oname]] = mor_index[mname]
    for i, v in enumerate(ident):
        if v is None:
            raise DocumentError(f"object '{objects[i]}' has no identity",
                                path=f"{path}.identities")
    table = {}
    for i, triple in enumerate(_need(payload, "composition", list, path)):
        tpath = f"{path}.composition[{i}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise DocumentError("composition entries must be [g, f, gf] triples",
                                path=tpath)
        g, f, gf = triple
        for k, name in enumerate((g, f, gf)):
            _name(name, f"{tpath}[{k}]")
            if name not in mor_index:
                raise DocumentError(f"unresolved morphism reference '{name}'",
                                    path=f"{tpath}[{k}]")
        table[(mor_index[g], mor_index[f])] = mor_index[gf]
    # composites with identities may be omitted; they are forced
    for f, (d, c) in enumerate(zip(dom, cod)):
        table.setdefault((ident[c], f), f)
        table.setdefault((f, ident[d]), f)
    generators = None
    if "generators" in payload:
        generators = []
        for name in _name_list(_need(payload, "generators", list, path),
                               f"{path}.generators"):
            if name not in mor_index:
                raise DocumentError(f"unresolved morphism reference '{name}'",
                                    path=f"{path}.generators")
            generators.append(mor_index[name])
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
    objects = [cat.object_label(i) for i in range(cat.n_objects)]
    names = [cat.morphism_label(i) for i in range(cat.n_morphisms)]
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


def _morphism_names(cat: FinCategory):
    return {cat.morphism_label(m): m for m in range(cat.n_morphisms)}


def _object_names(cat: FinCategory):
    return {cat.object_label(c): c for c in range(cat.n_objects)}


# ---------------------------------------------------------------------------
# per-kind parsers


def _parse_functor(payload, path="functor") -> FinFunctor:
    source = parse_category_body(_need(payload, "source", dict, path), f"{path}.source")
    target = parse_category_body(_need(payload, "target", dict, path), f"{path}.target")
    s_obj = _object_names(source)
    s_mor = _morphism_names(source)
    t_obj = _object_names(target)
    t_mor = _morphism_names(target)
    on_objects = [None] * source.n_objects
    for k, v in _need(payload, "on_objects", dict, path).items():
        _name(v, f"{path}.on_objects.{k}")
        if k not in s_obj:
            raise DocumentError(f"unresolved object reference '{k}'",
                                path=f"{path}.on_objects")
        if v not in t_obj:
            raise DocumentError(f"unresolved object reference '{v}'",
                                path=f"{path}.on_objects.{k}")
        on_objects[s_obj[k]] = t_obj[v]
    on_morphisms = [None] * source.n_morphisms
    for k, v in _need(payload, "on_morphisms", dict, path).items():
        _name(v, f"{path}.on_morphisms.{k}")
        if k not in s_mor:
            raise DocumentError(f"unresolved morphism reference '{k}'",
                                path=f"{path}.on_morphisms")
        if v not in t_mor:
            raise DocumentError(f"unresolved morphism reference '{v}'",
                                path=f"{path}.on_morphisms.{k}")
        on_morphisms[s_mor[k]] = t_mor[v]
    if None in on_objects:
        missing = source.object_label(on_objects.index(None))
        raise DocumentError(f"object '{missing}' has no image", path=f"{path}.on_objects")
    if None in on_morphisms:
        missing = source.morphism_label(on_morphisms.index(None))
        raise DocumentError(f"morphism '{missing}' has no image",
                            path=f"{path}.on_morphisms")
    return FinFunctor(source, target, on_objects, on_morphisms)


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
    obj_names = _object_names(base)
    mor_names = _morphism_names(base)
    sets_payload = _need(payload, "sets", dict, path)
    sets = [None] * base.n_objects
    for k, v in sets_payload.items():
        if k not in obj_names:
            raise DocumentError(f"unresolved object reference '{k}'", path=f"{path}.sets")
        if isinstance(v, int) and not isinstance(v, bool):
            if v < 0:
                raise DocumentError("set size must be nonnegative",
                                    path=f"{path}.sets.{k}")
            sets[obj_names[k]] = FinSet(v)
        elif isinstance(v, list):
            sets[obj_names[k]] = FinSet(len(v), tuple(v))
        else:
            raise DocumentError("set must be a size or a label list",
                                path=f"{path}.sets.{k}")
    if None in sets:
        missing = base.object_label(sets.index(None))
        raise DocumentError(f"object '{missing}' has no carrier", path=f"{path}.sets")
    maps_payload = _need(payload, "maps", dict, path)
    tables = [None] * base.n_morphisms
    for k, v in maps_payload.items():
        if k not in mor_names:
            raise DocumentError(f"unresolved morphism reference '{k}'",
                                path=f"{path}.maps")
        if not isinstance(v, list):
            raise DocumentError("map must be a list of element indices",
                                path=f"{path}.maps.{k}")
        tables[mor_names[k]] = tuple(v)
    for m in range(base.n_morphisms):
        if tables[m] is None:
            if base.identity[base.dom[m]] == m:
                tables[m] = tuple(range(sets[base.dom[m]].size))
            else:
                raise DocumentError(
                    f"morphism '{base.morphism_label(m)}' has no map",
                    path=f"{path}.maps")
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


def _parse_abhom(payload, path="abhom") -> AbHom:
    source = parse_abgroup_body(_need(payload, "source", dict, path), f"{path}.source")
    target = parse_abgroup_body(_need(payload, "target", dict, path), f"{path}.target")
    matrix = _int_matrix_rows(_need(payload, "matrix", list, path),
                              (target.gens, source.gens), f"{path}.matrix")
    return AbHom(source, target, matrix)


def _parse_groups_map(payload, base, path):
    obj_names = _object_names(base)
    groups = [None] * base.n_objects
    for k, v in payload.items():
        if k not in obj_names:
            raise DocumentError(f"unresolved object reference '{k}'", path=path)
        groups[obj_names[k]] = parse_abgroup_body(v, f"{path}.{k}")
    for c, g in enumerate(groups):
        if g is None:
            raise DocumentError(f"object '{base.object_label(c)}' has no group",
                                path=path)
    return groups


def _parse_homs_map(payload, base, groups, path):
    mor_names = _morphism_names(base)
    homs = [None] * base.n_morphisms
    for k, v in payload.items():
        if k not in mor_names:
            raise DocumentError(f"unresolved morphism reference '{k}'", path=path)
        m = mor_names[k]
        src = groups[base.dom[m]]
        tgt = groups[base.cod[m]]
        homs[m] = AbHom(src, tgt,
                        _int_matrix_rows(v, (tgt.gens, src.gens), f"{path}.{k}"))
    for m, h in enumerate(homs):
        if h is None:
            if base.identity[base.dom[m]] == m:
                g = groups[base.dom[m]]
                homs[m] = AbHom(g, g, IntMatrix.identity(g.gens))
            else:
                raise DocumentError(
                    f"morphism '{base.morphism_label(m)}' has no hom", path=path)
    return homs


def _parse_abdiagram(payload, path="abdiagram"):
    base = parse_category_body(_need(payload, "base", dict, path), f"{path}.base")
    groups = _parse_groups_map(_need(payload, "groups", dict, path), base,
                               f"{path}.groups")
    homs = _parse_homs_map(_need(payload, "homs", dict, path), base, groups,
                           f"{path}.homs")
    diagram = AbDiagram(base, groups, homs)
    if "target" not in payload:
        return diagram
    tpayload = _need(payload, "target", dict, path)
    tgroups = _parse_groups_map(_need(tpayload, "groups", dict, f"{path}.target"),
                                base, f"{path}.target.groups")
    thoms = _parse_homs_map(_need(tpayload, "homs", dict, f"{path}.target"),
                            base, tgroups, f"{path}.target.homs")
    target = AbDiagram(base, tgroups, thoms)
    obj_names = _object_names(base)
    maps = [None] * base.n_objects
    for k, v in _need(payload, "maps", dict, path).items():
        if k not in obj_names:
            raise DocumentError(f"unresolved object reference '{k}'",
                                path=f"{path}.maps")
        c = obj_names[k]
        maps[c] = AbHom(groups[c], tgroups[c],
                        _int_matrix_rows(v, (tgroups[c].gens, groups[c].gens),
                                         f"{path}.maps.{k}"))
    if None in maps:
        missing = base.object_label(maps.index(None))
        raise DocumentError(f"object '{missing}' has no map", path=f"{path}.maps")
    return AbNaturalMap(diagram, target, tuple(maps))


def _parse_gmodule_body(payload, path="gmodule"):
    elements = _name_list(_need(payload, "elements", list, path),
                          f"{path}.elements")
    if len(set(elements)) != len(elements):
        raise DocumentError("element names are not distinct", path=f"{path}.elements")
    index = {name: i for i, name in enumerate(elements)}
    table_payload = _need(payload, "table", list, path)
    if len(table_payload) != len(elements):
        raise DocumentError("table must have one row per element", path=f"{path}.table")
    table = []
    for i, row in enumerate(table_payload):
        if not isinstance(row, list) or len(row) != len(elements):
            raise DocumentError(f"table row {i} must list {len(elements)} elements",
                                path=f"{path}.table[{i}]")
        out = []
        for name in row:
            _name(name, f"{path}.table[{i}]")
            if name not in index:
                raise DocumentError(f"unresolved element reference '{name}'",
                                    path=f"{path}.table[{i}]")
            out.append(index[name])
        table.append(tuple(out))
    carrier = parse_abgroup_body(_need(payload, "carrier", dict, path),
                                 f"{path}.carrier")
    action = {}
    for k, v in _need(payload, "action", dict, path).items():
        if k not in index:
            raise DocumentError(f"unresolved element reference '{k}'",
                                path=f"{path}.action")
        action[index[k]] = AbHom(carrier, carrier,
                                 _int_matrix_rows(v, (carrier.gens, carrier.gens),
                                                  f"{path}.action.{k}"))
    try:
        module = GModule(table, carrier, action)
    except Exception as exc:
        raise DocumentError(str(exc), path=path) from None
    return module, elements


def _parse_gmodule(payload, path="gmodule"):
    module, elements = _parse_gmodule_body(payload, path)
    if "target" not in payload:
        return module
    tpayload = dict(_need(payload, "target", dict, path))
    tpayload.setdefault("elements", list(elements))
    tpayload.setdefault("table", [[elements[v] for v in row] for row in module.table])
    target, _ = _parse_gmodule_body(tpayload, f"{path}.target")
    if target.table != module.table:
        raise DocumentError("modules are over different groups", path=f"{path}.target")
    matrix = _int_matrix_rows(_need(payload, "map", list, path),
                              (target.carrier.gens, module.carrier.gens),
                              f"{path}.map")
    return EquivariantMap(module, target, AbHom(module.carrier, target.carrier, matrix))


def _parse_family(payload, path="family"):
    index = _name_list(_need(payload, "index", list, path), f"{path}.index")
    if len(set(index)) != len(index):
        raise DocumentError("index labels are not distinct", path=f"{path}.index")
    positions = {name: i for i, name in enumerate(index)}

    def read_groups(sub, sub_path):
        groups = [None] * len(index)
        for k, v in sub.items():
            if k not in positions:
                raise DocumentError(f"unresolved index reference '{k}'", path=sub_path)
            groups[positions[k]] = parse_abgroup_body(v, f"{sub_path}.{k}")
        for i, g in enumerate(groups):
            if g is None:
                raise DocumentError(f"index '{index[i]}' has no group", path=sub_path)
        return tuple(groups)

    groups = read_groups(_need(payload, "groups", dict, path), f"{path}.groups")
    if "target_groups" not in payload:
        return GroupFamily(tuple(index), groups)
    targets = read_groups(_need(payload, "target_groups", dict, path),
                          f"{path}.target_groups")
    maps = [None] * len(index)
    for k, v in _need(payload, "maps", dict, path).items():
        if k not in positions:
            raise DocumentError(f"unresolved index reference '{k}'",
                                path=f"{path}.maps")
        i = positions[k]
        maps[i] = AbHom(groups[i], targets[i],
                        _int_matrix_rows(v, (targets[i].gens, groups[i].gens),
                                         f"{path}.maps.{k}"))
    if None in maps:
        raise DocumentError(f"index '{index[maps.index(None)]}' has no map",
                            path=f"{path}.maps")
    return FamilyMap(tuple(index), groups, targets, tuple(maps))


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


def _serialize_value(doc: Document) -> dict:
    kind, value = doc.kind, doc.value
    if kind == "category":
        body = category_body(value)
    elif kind == "functor":
        src_names = [value.source.object_label(i) for i in range(value.source.n_objects)]
        src_mors = [value.source.morphism_label(i) for i in range(value.source.n_morphisms)]
        body = {
            "source": category_body(value.source),
            "target": category_body(value.target),
            "on_objects": {src_names[c]: value.target.object_label(value.on_objects[c])
                           for c in range(value.source.n_objects)},
            "on_morphisms": {src_mors[m]: value.target.morphism_label(value.on_morphisms[m])
                             for m in range(value.source.n_morphisms)},
        }
    elif kind == "setdiagram":
        base = value.base
        sets = {}
        for c in range(base.n_objects):
            s = value.sets[c]
            sets[base.object_label(c)] = list(s.labels) if s.labels else s.size
        maps = {base.morphism_label(m): list(value.tables[m])
                for m in range(base.n_morphisms)}
        if isinstance(base, ProductCategory):
            body = {"factors": [category_body(base.left), category_body(base.right)],
                    "sets": sets, "maps": maps}
        else:
            body = {"base": category_body(base), "sets": sets, "maps": maps}
    elif kind == "abgroup":
        body = abgroup_body(value)
    elif kind == "abhom":
        body = {"source": abgroup_body(value.source),
                "target": abgroup_body(value.target),
                "matrix": [list(r) for r in value.matrix.data]}
    elif kind == "abdiagram":
        if isinstance(value, AbNaturalMap):
            base = value.source.base
            body = {
                "base": category_body(base),
                "groups": {base.object_label(c): abgroup_body(value.source.groups[c])
                           for c in range(base.n_objects)},
                "homs": {base.morphism_label(m): [list(r) for r in value.source.hom(m).matrix.data]
                         for m in range(base.n_morphisms)},
                "target": {
                    "groups": {base.object_label(c): abgroup_body(value.target.groups[c])
                               for c in range(base.n_objects)},
                    "homs": {base.morphism_label(m): [list(r) for r in value.target.hom(m).matrix.data]
                             for m in range(base.n_morphisms)},
                },
                "maps": {base.object_label(c): [list(r) for r in value.components[c].matrix.data]
                         for c in range(base.n_objects)},
            }
        else:
            base = value.base
            body = {
                "base": category_body(base),
                "groups": {base.object_label(c): abgroup_body(value.groups[c])
                           for c in range(base.n_objects)},
                "homs": {base.morphism_label(m): [list(r) for r in value.hom(m).matrix.data]
                         for m in range(base.n_morphisms)},
            }
    elif kind == "gmodule":
        def module_body(module, names):
            return {
                "elements": list(names),
                "table": [[names[v] for v in row] for row in module.table],
                "carrier": abgroup_body(module.carrier),
                "action": {names[g]: [list(r) for r in h.matrix.data]
                           for g, h in sorted(module.generator_action.items())},
            }
        if isinstance(value, EquivariantMap):
            names = [f"g{i}" for i in range(len(value.source.table))]
            names[value.source.unit] = "e"
            body = module_body(value.source, names)
            tbody = module_body(value.target, names)
            del tbody["elements"]
            del tbody["table"]
            body["target"] = tbody
            body["map"] = [list(r) for r in value.component.matrix.data]
        else:
            names = [f"g{i}" for i in range(len(value.table))]
            names[value.unit] = "e"
            body = module_body(value, names)
    else:
        if isinstance(value, FamilyMap):
            body = {
                "index": list(value.index),
                "groups": {value.index[i]: abgroup_body(value.source[i])
                           for i in range(len(value.index))},
                "target_groups": {value.index[i]: abgroup_body(value.target[i])
                                  for i in range(len(value.index))},
                "maps": {value.index[i]: [list(r) for r in value.components[i].matrix.data]
                         for i in range(len(value.index))},
            }
        else:
            body = {
                "index": list(value.index),
                "groups": {value.index[i]: abgroup_body(value.groups[i])
                           for i in range(len(value.index))},
            }
    return {"kind": kind, **body}


def serialize_document(doc: Document) -> str:
    """Stable JSON rendering; parse(serialize(doc)) reproduces doc."""
    return json.dumps(_serialize_value(doc), indent=2, sort_keys=True) + "\n"
