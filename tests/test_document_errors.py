"""Golden parser behaviour on systematically mutated fixture documents.

At every JSON object of every fixture document, the probe makes one case
for each of the object's first three keys (in file order) with that key
deleted, and one case with an unknown key ``"~"`` added.  Each case
records either the parse error (message with its path) or a digest of the
serialized document, so a refactor of the parser must keep every error
message, every error path and every serialized byte.

Regenerate the golden file after an intended change with

    PYTHONPATH=src python tests/test_document_errors.py --write
"""

import copy
import hashlib
import json
import sys
from pathlib import Path

from abcat.documents import parse_document, serialize_document
from abcat.errors import DocumentError

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "document_errors.jsonl"


def _objects(node, where=()):
    """Every JSON object in ``node`` with its key path, in document order."""
    if isinstance(node, dict):
        yield where, node
        for key, value in node.items():
            yield from _objects(value, where + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _objects(value, where + (i,))


def _at(node, where):
    for step in where:
        node = node[step]
    return node


def probe_cases():
    """(fixture, key path, mutation, mutated document) for every case."""
    for fixture in sorted(p.name for p in FIXTURES.glob("*.json")):
        original = json.loads((FIXTURES / fixture).read_text())
        for where, obj in _objects(original):
            mutations = [("del", key) for key in list(obj)[:3]] + [("add", "~")]
            for op, key in mutations:
                payload = copy.deepcopy(original)
                target = _at(payload, where)
                if op == "del":
                    del target[key]
                else:
                    target[key] = "?"
                yield fixture, list(where), [op, key], payload


def outcome(payload):
    """The parse error, or a digest of the serialized document."""
    try:
        doc = parse_document(json.dumps(payload))
    except DocumentError as exc:
        return {"error": str(exc), "path": exc.path}
    text = serialize_document(doc)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def records():
    for fixture, where, mutation, payload in probe_cases():
        yield {"fixture": fixture, "at": where, "mutation": mutation,
               **outcome(payload)}


def test_mutated_documents_match_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = [json.loads(line) for line in fh]
    current = list(records())
    assert [r["fixture"] for r in current] == [r["fixture"] for r in golden]
    changed = [(g, c) for g, c in zip(golden, current) if g != c]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: test_document_errors.py --write")
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for record in records():
            fh.write(json.dumps(record, sort_keys=True) + "\n")
