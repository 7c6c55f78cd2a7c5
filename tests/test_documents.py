"""Document format: parsing, reference resolution, round trips."""

import json
import random
from pathlib import Path

import pytest

from abcat.documents import (Document, EquivariantMap, FamilyMap, GroupFamily,
                             load_document, parse_document, serialize_document)
from abcat.errors import DocumentError
from abcat.fincat import discrete_category, parallel_pair_category, span_category
from abcat.sampling import random_commute_instance

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
    assert isinstance(doc.value, EquivariantMap)
    assert doc.value.component.matrix.data == ((-1,), (1,))


def test_family_kinds():
    assert isinstance(parse_document(fixture_text("family.json")).value, GroupFamily)
    assert isinstance(parse_document(fixture_text("ab4_family.json")).value, FamilyMap)


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
