"""The verification table: every seeded trial is a document value."""

from random import Random

import pytest

from abcat.documents import Document, parse_document, serialize_document
from abcat.errors import InputError
from abcat.fincat import cospan_category
from abcat.sampling import random_commute_instance
from abcat.verify import PROPERTIES, run_suite, verify_commute


def _draws(row):
    if row.suite is None:
        yield row.draw(None, 0)
        return
    for seed in (1, 2):
        rng = Random(seed)
        for t in range(30):
            yield row.draw(rng, t)


@pytest.mark.parametrize("prop", sorted(PROPERTIES))
def test_each_draw_is_a_document_that_checks_alike(prop):
    # a suite checks what `abcat verify PROP FILE` would read from the
    # serialized draw: the same value, hash and report
    row = PROPERTIES[prop]
    for value in _draws(row):
        parsed = parse_document(serialize_document(Document(row.kind, value)))
        assert parsed == Document(row.kind, value)
        assert hash(parsed.value) == hash(value)
        assert row.check(parsed.value, cap=2, stability_cap=None) == \
            row.check(value, cap=2, stability_cap=None)


def test_a_property_without_a_suite_refuses_to_run_one():
    with pytest.raises(InputError, match="^notlex has no seeded suite$"):
        run_suite("notlex", 1, 0)


def test_filtered_colimits_commute_with_pullbacks():
    # the span in COMMUTE_SHAPES has an initial apex, so its limit is the
    # value there; the cospan's limit is a pullback
    rng = Random(2026)
    for trial in range(60):
        f_cat, _, diagram = random_commute_instance(rng, rng.randint(2, 4), cospan_category())
        report = verify_commute(f_cat, cospan_category(), diagram)
        assert report.ok, (trial, report.details)
