"""The functions that perfbench/layers.py traces exist under their names."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_traced_layers_are_callables_of_their_modules():
    # Tracer.install rebinds each LAYERS name with getattr, so a function that
    # a refactor renames or removes breaks `perfbench/run.py --trace 1`
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [
        f"wittcalc.{module}.{name}"
        for module, names in layers.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"wittcalc.{module}"), name, None))
    ]
    assert layers.LAYERS and not missing
