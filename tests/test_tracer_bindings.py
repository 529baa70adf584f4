"""Every target of the benchmark tracer still exists in the package.

`perfbench/tracer.py` patches circlesys functions and methods by name,
so a rename or deletion here would only show as a failed traced
benchmark run.  The tracer is loaded from its file and never installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import circlesys.cli  # noqa: F401  (loads every module, as install does)

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)


@pytest.mark.parametrize("name", sorted(tracer.SPANS))
def test_span_target_resolves(name):
    modname, attr, _measure = tracer.SPANS[name]
    owner = importlib.import_module(modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        fn = vars(getattr(owner, cls_name)).get(meth)
    else:
        fn = getattr(owner, attr, None)
    assert callable(fn), "%s: %s.%s is gone" % (name, modname, attr)


@pytest.mark.parametrize("name", sorted(tracer.COUNTED))
def test_counted_target_is_a_generator(name):
    modname, attr = tracer.COUNTED[name]
    fn = getattr(importlib.import_module(modname), attr, None)
    assert inspect.isgeneratorfunction(fn), \
        "%s: %s.%s is not a generator function" % (name, modname, attr)
