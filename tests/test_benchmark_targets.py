"""Every function the benchmark's traced run wraps still exists where it looks for it.

The tracer resolves each target of ``perfbench/layers.py`` with ``getattr``
on the imported module (``Class.method`` targets in the class's own
namespace), and a name that has moved away ends the traced run. The
benchmark's files are imported here, never written.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _layer_targets():
    sys.path.insert(0, str(PERFBENCH))  # layers.py imports its sibling spans.py by name
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # no __pycache__ appears in the benchmark's directory
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(PERFBENCH))
    return layers.TARGETS


TARGETS = _layer_targets()


def test_the_benchmark_wraps_targets():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.module}.{t.attr}")
def test_target_resolves(target):
    module = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, meth = target.attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in vars(cls), f"{target.module}.{cls_name} defines no {meth}"
        assert callable(getattr(cls, meth))
    else:
        assert callable(getattr(module, target.attr, None)), \
            f"{target.module} has no function {target.attr}"
