"""The library's records are named tuples: they check their input as
before, are immutable, hash and compare by their fields, print their
class, and load without the dataclasses machinery."""

import subprocess
import sys
from pathlib import Path

import pytest

from abcat.errors import InputError
from abcat.fincat import ValidationReport, ZigZag
from abcat.harting import HXMorphism, HXObject
from abcat.setdiag import Cocone, FinSet
from abcat.verify import VerifyReport

SRC = Path(__file__).resolve().parent.parent / "src"


def test_library_loads_without_dataclasses_or_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import abcat, abcat.cli, abcat.verify, abcat.sampling; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


U, V = HXObject(1, (0,)), HXObject(2, (0, 1))


@pytest.mark.parametrize("build, message", [
    (lambda: FinSet(-1), "negative set size"),
    (lambda: FinSet(2, ("a",)), "label count does not match size"),
    (lambda: FinSet(2, ("a", "a")), "labels are not distinct"),
    (lambda: FinSet(2)._replace(size=-1), "negative set size"),
    (lambda: HXObject(2, (0,)), "word length does not match arity"),
    (lambda: U._replace(arity=2), "word length does not match arity"),
    (lambda: HXMorphism(V, U, (0,)), "mapping length does not match source arity"),
    (lambda: HXMorphism(U, V, (2,)), "mapping sends 0 outside the target word"),
    (lambda: HXMorphism(U, V, (1,)), "words disagree at position 0"),
    (lambda: HXMorphism(U, V, (0,))._replace(mapping=(1,)), "words disagree at position 0"),
])
def test_validating_records_keep_their_messages(build, message):
    with pytest.raises(InputError) as refused:
        build()
    assert str(refused.value) == message


def test_validating_records_coerce_their_fields():
    assert FinSet(2, ["a", "b"]).labels == ("a", "b")
    assert HXObject(2, ["1", 0]).word == (1, 0)
    assert HXMorphism(U, V, [0]).mapping == (0,)


def test_records_are_immutable():
    for record, field in ((FinSet(2), "size"), (U, "word"), (ZigZag(0, 0, ()), "steps"),
                          (VerifyReport("suite", True, {}), "ok")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_records_hash_and_compare_by_fields():
    assert FinSet(2, ["a", "b"]) == FinSet(2, ("a", "b"))
    assert hash(FinSet(2, ["a", "b"])) == hash(FinSet(2, ("a", "b")))
    assert FinSet(2) != FinSet(2, ("a", "b")) and FinSet(2) != FinSet(3)
    assert {U: "u"}[HXObject(1, [0])] == "u"
    assert ZigZag(0, 1, ((2, True), (3, False))) == ZigZag(0, 1, ((2, True), (3, False)))
    assert ValidationReport(("bad",)) != ValidationReport(())
    # as tuples, records equal the tuple of their fields and iterate over them
    assert FinSet(2) == (2, None) and tuple(Cocone(FinSet(1), ((0,),))) == (FinSet(1), ((0,),))
    assert FinSet(2)._replace(labels=("a", "b")) == FinSet(2, ("a", "b"))


def test_records_print_their_class():
    assert repr(FinSet(2)) == "FinSet(size=2, labels=None)"
    assert repr(HXObject(1, (0,))) == "HXObject(arity=1, word=(0,))"
    assert repr(VerifyReport("suite", True, {})) == \
        "VerifyReport(name='suite', ok=True, details={})"
    assert repr(ValidationReport(())) == "ValidationReport(problems=())"
