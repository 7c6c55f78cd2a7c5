"""Document format: parsing, reference resolution, round trips."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from abcat.abdiag import AbDiagram
from abcat.abgrp import cyclic, hom
from abcat.documents import (AbNaturalMap, Document, load_document, parse_document,
                             serialize_document)
from abcat.errors import DocumentError
from abcat.fincat import (discrete_category, group_as_category, identity_functor,
                          parallel_pair_category, product_category, span_category)
from abcat.harting import h_embedding, harting_expand, hx_category, hx_skeleton
from abcat.sampling import random_commute_instance, random_family, random_gset_chain
from abcat.setdiag import FinSet, SetFunctor
from abcat.verify import COMMUTE_SHAPES
from cat_corpus import category_corpus, constant_diagram, diagonal_functor

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name):
    return (FIXTURES / name).read_text()


def test_minimal_category_parses():
    text = json.dumps({
        "kind": "category",
        "objects": ["*"],
        "morphisms": [{"name": "id", "dom": "*", "cod": "*"}],
        "identities": {"*": "id"},
        "composition": [["id", "id", "id"]],
    })
    doc = parse_document(text)
    assert doc.kind == "category"
    assert doc.value.n_objects == 1


def test_unresolved_morphism_reference():
    text = json.dumps({
        "kind": "category",
        "objects": ["*"],
        "morphisms": [{"name": "id", "dom": "*", "cod": "*"}],
        "identities": {"*": "id"},
        "composition": [["id", "ghost", "id"]],
    })
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "ghost" in str(err.value)
    assert "composition[0]" in str(err.value)


def test_schema_violation_has_path():
    text = json.dumps({"kind": "abgroup", "generators": 1,
                       "relations": [[1, 2]]})
    with pytest.raises(DocumentError) as err:
        parse_document(text)
    assert "relations" in str(err.value)


def test_syntax_error_has_position():
    with pytest.raises(DocumentError) as err:
        parse_document("{ not json")
    assert err.value.position is not None


def test_unknown_kind():
    for kind in ("mystery", ["category"], {"kind": "category"}, None):
        with pytest.raises(DocumentError, match="kind"):
            parse_document(json.dumps({"kind": kind}))


ALL_FIXTURES = ["chain3.json", "discrete2.json", "top_inclusion.json",
                "equalizer_sets.json", "gset_chain.json", "z6_presentation.json",
                "neg_z.json", "notlex.json", "family.json", "ab4_family.json",
                "ab5_chain.json"]


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip(name):
    doc = parse_document(fixture_text(name))
    text = serialize_document(doc)
    again = parse_document(text)
    assert again.kind == doc.kind
    assert again.value == doc.value
    # serialization is a fixed point after one pass
    assert serialize_document(again) == text


def test_round_trip_keeps_generators():
    payload = json.loads(fixture_text("chain3.json"))
    payload["generators"] = ["0<=1", "1<=2"]
    doc = parse_document(json.dumps(payload))
    text = serialize_document(doc)
    assert json.loads(text)["generators"] == ["0<=1", "1<=2"]
    again = parse_document(text)
    assert again == doc and again.value.generating() == (1, 4)
    assert serialize_document(again) == text


@pytest.mark.parametrize("shape", [parallel_pair_category(), discrete_category(2),
                                   span_category()],
                         ids=["parallel_pair", "discrete2", "span"])
def test_round_trip_product_of_unlabelled_factors(shape):
    _, _, diagram = random_commute_instance(random.Random(0), 3, shape, 3)
    doc = Document("setdiagram", diagram)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    assert serialize_document(again) == text


def test_chain_fixture_contents():
    doc = load_document(FIXTURES / "chain3.json")
    cat = doc.value
    assert cat.n_objects == 3
    assert cat.n_morphisms == 6
    from abcat.fincat import validate_category
    assert validate_category(cat).ok


def test_notlex_fixture_is_an_equivariant_map():
    doc = load_document(FIXTURES / "notlex.json")
    assert isinstance(doc.value, AbNaturalMap)
    assert doc.value.components[0].matrix.data == ((-1,), (1,))


def test_family_kinds():
    assert isinstance(parse_document(fixture_text("family.json")).value, AbDiagram)
    assert isinstance(parse_document(fixture_text("ab4_family.json")).value, AbNaturalMap)


def test_families_and_modules_parse_to_diagrams_on_their_bases():
    family = parse_document(fixture_text("ab4_family.json"))
    index = json.loads(fixture_text("ab4_family.json"))["index"]
    assert family.kind == "family"
    assert family.value.source.base == discrete_category(len(index), labels=index)
    assert family.value.target.base is family.value.source.base
    notlex = parse_document(fixture_text("notlex.json"))
    assert notlex.kind == "gmodule"
    for module in (notlex.value.source, notlex.value.target):
        assert module.base == group_as_category(((0, 1), (1, 0)))


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_documents_hash_consistently_with_equality(name):
    doc = parse_document(fixture_text(name))
    again = parse_document(serialize_document(doc))
    assert again == doc
    assert hash(again) == hash(doc)
    assert {doc: name}[again] == name


def assert_round_trip(doc):
    again = parse_document(serialize_document(doc))
    assert again == doc and hash(again) == hash(doc)


def representable(cat) -> SetFunctor:
    """hom(0, -): the maps out of object 0, each morphism acting by composing."""
    homs = [list(cat.hom(0, x)) for x in range(cat.n_objects)]
    return SetFunctor(cat, [FinSet(len(h)) for h in homs], lambda m: [
        homs[cat.cod[m]].index(cat.compose(m, f)) for f in homs[cat.dom[m]]])


CORPUS = [cat for _, cat in category_corpus()]
# a base and a functor out of it: the diagonal of a corpus category, and
# the identity of the product of two neighbours in the corpus
BASES = [(cat, diagonal_functor(cat)[0]) for cat in CORPUS] + [
    (cat, identity_functor(cat)) for cat in map(product_category, CORPUS, CORPUS[1:])]


@pytest.mark.parametrize("cat, functor", BASES, ids=range(len(BASES)))
def test_every_kind_round_trips_on_the_corpus_and_its_products(cat, functor):
    z3 = constant_diagram(cat, cyclic(3))
    for doc in (Document("category", cat), Document("functor", functor),
                Document("setdiagram", representable(cat)), Document("abdiagram", z3),
                Document("abdiagram", AbNaturalMap(z3, z3, (hom(cyclic(3), cyclic(3), [[2]]),)
                                                   * cat.n_objects))):
        assert_round_trip(doc)


@pytest.mark.parametrize("build", [hx_category, hx_skeleton])
def test_every_kind_round_trips_on_a_truncation(build):
    h = build(FinSet(2, ("a", "b")), 2)
    positions = SetFunctor(h, [FinSet(o.arity) for o in h.objects], lambda m: h.morphisms[m][2])
    expansion = harting_expand(random_family(random.Random(2), 2), h)
    for doc in (Document("category", h), Document("functor", h_embedding(h)),
                Document("setdiagram", positions), Document("abdiagram", expansion),
                Document("abdiagram", AbNaturalMap(expansion, expansion, tuple(
                    hom(g, g, [[-(i == j) for j in range(g.gens)] for i in range(g.gens)])
                    for g in expansion.groups)))):
        assert_round_trip(doc)


@pytest.mark.parametrize("build, letters, cap", [
    (hx_category, 1, 2), (hx_category, 2, 2), (hx_category, 2, 3),
    (hx_skeleton, 1, 2), (hx_skeleton, 2, 2), (hx_skeleton, 2, 3), (hx_skeleton, 3, 3)])
def test_expansions_round_trip_on_both_truncation_bases(build, letters, cap):
    family = random_family(random.Random(10 * letters + cap), letters)
    assert_round_trip(Document("abdiagram", harting_expand(family, build(FinSet(letters), cap))))


Z3_ELEMENTS = ["e", "g1", "g2"]
Z3_TABLE_NAMES = [["e", "g1", "g2"], ["g1", "g2", "e"], ["g2", "e", "g1"]]
ROTATION = [[0, -1], [1, -1]]           # order 3 on Z^2
ROTATION_SQUARED = [[-1, 1], [-1, 0]]


def z3_module_text(action):
    return json.dumps({"kind": "gmodule", "elements": Z3_ELEMENTS, "table": Z3_TABLE_NAMES,
                       "carrier": {"generators": 2, "relations": []}, "action": action})


def test_gmodule_round_trip_on_a_non_minimal_presentation():
    minimal = parse_document(z3_module_text({"g1": ROTATION}))
    redundant = parse_document(z3_module_text(
        {"e": [[1, 0], [0, 1]], "g1": ROTATION, "g2": ROTATION_SQUARED}))
    assert minimal == redundant
    texts = []
    for doc in (minimal, redundant):
        text = serialize_document(doc)
        again = parse_document(text)
        assert again == doc
        assert serialize_document(again) == text
        texts.append(text)
    assert texts[0] == texts[1]
    assert json.loads(texts[0])["action"] == {"g1": ROTATION, "g2": ROTATION_SQUARED}


# SHA-256 of serialized sampled diagrams, recorded before the two samplers
# shared their chain assembly; a refactor must keep every draw and byte
SAMPLED_DIGESTS = {
    ("commute", 0): "34ba3f22107f36caef7aa2c14b0ee97f7fad57ca97015d875106a8778fa08763",
    ("commute", 1): "a47e2a1e17eb21e92ec5d63f38ecdc49430357899c006e504a0d9cdf4cf6bd68",
    ("commute", 2): "18ba6d3b49444c59432a9906247da5fd9de6921950414874ea3b6ada54db8ffe",
    ("commute", 3): "7c047e4b239a4da6a95425cc4b73515eeb57fdc675bb7a82ae7108b75408278e",
    ("commute", 4): "02b251cbf9af981d182fa1480f710c3281c3a9af666c86da0068ca22819bc548",
    ("gset", 0): "f5bbbf04e417efc00b31acc44b5bb82d07b8cb5e9e8e58429cab6685a238bd46",
    ("gset", 1): "1c1744d475226e804463f54110b2f69a114a6842b399930660536c0a3ef8ed1e",
    ("gset", 2): "f6a5522b8a792a9e08d88f45101370c4c927b0f5c53b7710f0aef6e88c0eedc2",
    ("gset", 3): "4ec277a0823f9aab23068a5f3eb08c4c2cb3e559dc03f27252cd3b4e9933c892",
    ("gset", 4): "5627111e480641da3a8711dcb6eec59ae6c2e94f9822bddf93e3ecca5f1c6d40",
}


@pytest.mark.parametrize("sampler, seed", sorted(SAMPLED_DIGESTS))
def test_sampled_chain_diagrams_are_pinned(sampler, seed):
    rng = random.Random(seed)
    if sampler == "commute":
        _, _, diagram = random_commute_instance(rng, 2 + seed % 3, COMMUTE_SHAPES[seed % 3])
    else:
        diagram = random_gset_chain(rng, 2 + seed % 3)[-1]
    text = serialize_document(Document("setdiagram", diagram))
    assert hashlib.sha256(text.encode()).hexdigest() == SAMPLED_DIGESTS[sampler, seed]


def test_setdiagram_with_factors_has_product_base():
    from abcat.fincat import ProductCategory
    doc = parse_document(fixture_text("gset_chain.json"))
    assert isinstance(doc.value.base, ProductCategory)


def test_parser_failures_are_always_document_errors():
    # mutate real documents and require every failure to surface as a
    # DocumentError rather than a stray TypeError from a lookup
    import copy
    import random
    rng = random.Random(311)

    def mutate(obj):
        if isinstance(obj, dict) and obj and rng.random() < 0.6:
            key = rng.choice(list(obj))
            roll = rng.random()
            if roll < 0.3:
                del obj[key]
            elif roll < 0.6:
                obj[key] = rng.choice([None, 3.5, True, "ghost", [], {}, -1])
            else:
                mutate(obj[key])
        elif isinstance(obj, list) and obj and rng.random() < 0.7:
            i = rng.randrange(len(obj))
            if rng.random() < 0.4:
                obj[i] = rng.choice([None, "ghost", 2.5, True, [1], {"x": 1}])
            else:
                mutate(obj[i])

    for name in ALL_FIXTURES:
        base = json.loads(fixture_text(name))
        for _ in range(120):
            payload = copy.deepcopy(base)
            for _ in range(rng.randint(1, 3)):
                mutate(payload)
            try:
                parse_document(json.dumps(payload))
            except DocumentError:
                pass


def test_identity_composites_can_be_omitted():
    text = json.dumps({
        "kind": "category",
        "objects": ["0", "1"],
        "morphisms": [{"name": "id0", "dom": "0", "cod": "0"},
                      {"name": "id1", "dom": "1", "cod": "1"},
                      {"name": "f", "dom": "0", "cod": "1"}],
        "identities": {"0": "id0", "1": "id1"},
        "composition": [],
    })
    cat = parse_document(text).value
    from abcat.fincat import validate_category
    assert validate_category(cat).ok


def _idempotent_body(**changes):
    """The monoid {1, e} with e∘e = e as a category body, with changes."""
    body = {"objects": ["*"],
            "morphisms": [{"name": "1", "dom": "*", "cod": "*"},
                          {"name": "e", "dom": "*", "cod": "*"}],
            "identities": {"*": "1"},
            "composition": [["e", "e", "e"]]}
    return {"kind": "category", **body, **changes}


def _document_error(payload):
    with pytest.raises(DocumentError) as err:
        parse_document(json.dumps(payload))
    return str(err.value), err.value.path


TRIPLE_FAULTS = [
    ("e", "composition entries must be [g, f, gf] triples", ""),
    (["e", "e"], "composition entries must be [g, f, gf] triples", ""),
    (["e", "e", "e", "e"], "composition entries must be [g, f, gf] triples", ""),
    (["ghost", "e", "e"], "unresolved morphism reference 'ghost'", "[0]"),
    (["e", "ghost", "e"], "unresolved morphism reference 'ghost'", "[1]"),
    (["e", "e", "ghost"], "unresolved morphism reference 'ghost'", "[2]"),
    (["ghost", 5, "e"], "unresolved morphism reference 'ghost'", "[0]"),
    (["e", 5, "e"], "expected a name string", "[1]"),
    (["e", "e", ["e"]], "expected a name string", "[2]"),
]


@pytest.mark.parametrize("triple,message,suffix", TRIPLE_FAULTS)
def test_composition_triple_faults_name_the_entry(triple, message, suffix):
    payload = _idempotent_body(composition=[["e", "e", "e"], triple])
    path = "category.composition[1]" + suffix
    assert _document_error(payload) == (f"{message} at {path}", path)


MORPHISM_FAULTS = [
    ("e", "morphism entries must be objects", ""),
    ({"dom": "*", "cod": "*"}, "missing field 'name'", ""),
    ({"name": 5, "dom": "*", "cod": "*"}, "field 'name' has the wrong type", ".name"),
    ({"name": "f", "dom": ["*"], "cod": "*"}, "field 'dom' has the wrong type", ".dom"),
    ({"name": "f", "dom": "?", "cod": "*"}, "unresolved object reference '?'", ".dom"),
    ({"name": "f", "dom": "*", "cod": "?"}, "unresolved object reference '?'", ".cod"),
    ({"name": "f", "dom": "?"}, "missing field 'cod'", ""),
]


@pytest.mark.parametrize("entry,message,suffix", MORPHISM_FAULTS)
def test_morphism_entry_faults_name_the_entry(entry, message, suffix):
    payload = _idempotent_body()
    payload["morphisms"].append(entry)
    path = "category.morphisms[2]" + suffix
    assert _document_error(payload) == (f"{message} at {path}", path)


def test_a_pair_has_one_composite():
    # e∘e listed as both 1 and e: the second entry is the error
    conflict = _idempotent_body(composition=[["e", "e", "1"], ["e", "e", "e"]])
    path = "category.composition[1]"
    assert _document_error(conflict) == (
        f"conflicting composites for ['e', 'e'] at {path}", path)
    # an identical repeat is the same table
    repeat = _idempotent_body(composition=[["e", "e", "e"], ["e", "e", "e"]])
    assert parse_document(json.dumps(repeat)) == parse_document(json.dumps(_idempotent_body()))


def _point():
    """The one-object category with only its identity, as a body."""
    return {"objects": ["*"], "morphisms": [{"name": "1", "dom": "*", "cod": "*"}],
            "identities": {"*": "1"}, "composition": []}


def _z2_module(**changes):
    """Z/2 acting on Z by negation, with changes."""
    return {"kind": "gmodule", "elements": ["e", "s"], "table": [["e", "s"], ["s", "e"]],
            "carrier": {"generators": 1}, "action": {"s": [[-1]]}, **changes}


GUARD_FAULTS = [
    (_z2_module(action={"s": [["-1"]]}), "matrix entries must be integers",
     "gmodule.action.s[0][0]"),
    ({"kind": "abgroup", "generators": 1, "relations": [[2.0]]},
     "relation entries must be integers", "abgroup.relations[0]"),
    ({"kind": "category", **_point(), "objects": ["*", "*"]},
     "object names are not distinct", "category.objects"),
    (_idempotent_body(morphisms=[{"name": "1", "dom": "*", "cod": "*"}] * 2),
     "morphism names are not distinct", "category.morphisms"),
    ({"kind": "setdiagram", "base": _point(), "sets": {"*": -1}, "maps": {}},
     "set size must be nonnegative", "setdiagram.sets.*"),
    ({"kind": "setdiagram", "factors": [_point()], "sets": {}, "maps": {}},
     "factors must list exactly two categories", "setdiagram.factors"),
    (_z2_module(elements=["e", "e"]), "element names are not distinct", "gmodule.elements"),
    (_z2_module(target={"elements": ["e"], "table": [["e"]], "carrier": {"generators": 1},
                        "action": {}}, map=[[1]]),
     "modules are over different groups", "gmodule.target"),
    ({"kind": "family", "index": ["a", "a"], "groups": {"a": {"generators": 1}}},
     "index labels are not distinct", "family.index"),
    ([], "document must be a JSON object", None),
    ({"kind": "setdiagram", "base": _point(), "sets": {"*": ["x", "x"]}, "maps": {}},
     "labels are not distinct", "setdiagram"),
]


@pytest.mark.parametrize("payload,message,path", GUARD_FAULTS,
                         ids=[message for _, message, _ in GUARD_FAULTS])
def test_each_parser_guard_names_its_path(payload, message, path):
    assert _document_error(payload) == (
        message if path is None else f"{message} at {path}", path)
