"""Document format: parsing, reference resolution, round trips."""

import hashlib
import json
import random
from pathlib import Path

import pytest

from abcat.abdiag import AbDiagram
from abcat.documents import (AbNaturalMap, Document, load_document, parse_document,
                             serialize_document)
from abcat.errors import DocumentError
from abcat.fincat import (discrete_category, group_as_category, parallel_pair_category,
                          span_category)
from abcat.sampling import random_commute_instance, random_gset_chain
from abcat.verify import COMMUTE_SHAPES

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
    with pytest.raises(DocumentError, match="kind"):
        parse_document(json.dumps({"kind": "mystery"}))


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
