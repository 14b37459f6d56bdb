"""The names the benchmark tracer looks up when it starts must exist.

cloudbench/layers.py wraps the functions it names in SPANS and COUNTED (and
harness.run) by getattr on their modules; a renamed function crashes a traced
run (`cloudbench/run.py --trace 1`) but no untraced one, so it fails here.
"""

import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "cloudbench" / "layers.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("cloudbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # defines the tables; install() is not called
    names = [(mod, name) for table in (layers.SPANS, layers.COUNTED)
             for mod, fns in table.items() for name in fns]
    assert names
    for mod, name in names + [(layers.harness, "run")]:
        assert callable(getattr(mod, name, None)), f"{mod.__name__}.{name}"
