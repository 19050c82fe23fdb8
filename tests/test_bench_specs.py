"""The traced benchmark wraps hopfforge functions by name from outside.

``bench/tracer.py`` lists them in SPECS as (module, attribute path, ...);
a rename or removal in the package would make the traced run fail to
install, so every entry must still resolve: a module attribute, or, for
``Class.method``, an attribute defined on that class itself.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _resolves(modname, path) -> bool:
    mod = importlib.import_module(modname)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        return attr in vars(getattr(mod, owner_name, object))
    return callable(getattr(mod, attr, None))


def test_every_tracer_spec_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{m}.{path}" for m, path, *_ in tracer.SPECS
               if not _resolves(m, path)]
    assert missing == []
