"""The benchmark tracer's targets still name distinct functions of the package.

``perfbench/spans.py`` wraps each target by name: a missing name makes
``Tracer.install`` raise, and two targets bound to one function object
would wrap it twice. The module is read, never edited.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).parents[1] / "perfbench" / "spans.py"


def tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


def test_every_target_resolves_to_its_own_function():
    seen = {}
    for _, module, attr, _, _ in tracer_targets():
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            members = vars(getattr(owner, cls_name))
            assert meth in members, f"{module}.{attr} is not defined on the class"
            fn = members[meth]
        else:
            assert hasattr(owner, attr), f"{module}.{attr} does not exist"
            fn = getattr(owner, attr)
        assert callable(fn), f"{module}.{attr} is not a function"
        assert id(fn) not in seen, f"{module}.{attr} is the same function as {seen.get(id(fn))}"
        seen[id(fn)] = f"{module}.{attr}"
