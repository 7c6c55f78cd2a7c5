"""Every function the benchmark's traced run wraps still exists.

``perfbench/spans.py`` names its targets as strings, so a renamed or
removed library function would only show when ``--trace 1`` runs.  This
reads the target list and resolves each name the way the tracer does:
a function on its module, a method in its own class's namespace.
"""

import importlib
from pathlib import Path

ROOT = Path(__file__).parent.parent


def test_every_span_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    spans = importlib.import_module("perfbench.spans")
    missing = []
    for module, attr, _, _ in spans.TARGETS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if not isinstance(cls, type) or meth not in vars(cls):
                missing.append(f"{module}.{attr}")
        elif not callable(getattr(owner, attr, None)):
            missing.append(f"{module}.{attr}")
    assert spans.TARGETS
    assert not missing, missing
