"""The benchmark tracer finds every function it is told to wrap.

``bench/tracing.py`` records a target it cannot find as missing and then
reports its metrics as null, so a rename or a method moved into a base
class would silently blank a benchmark layer.  The file is loaded from
source here and never installed.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = load_tracing()
    unresolved = []
    for module, path, _ in tracing.TARGETS:
        mod = importlib.import_module(f"krasner.{module}")
        if "." not in path:
            found = getattr(mod, path, None) is not None
        else:
            # install() looks a method up in the class's own __dict__, so
            # one inherited from a base class would count as missing
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name, None)
            found = cls is not None and attr in cls.__dict__
        if not found:
            unresolved.append(f"{module}.{path}")
    assert unresolved == []
    assert importlib.import_module("krasner.suite").CHECKS
