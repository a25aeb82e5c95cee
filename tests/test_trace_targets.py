"""Every span target of the benchmark's tracer names a real function.

``perfbench/tracer.py`` skips a target it cannot find without a word, so a
rename or a move in ``src/mfal`` would read 0 in that per-layer metric.  The
tracer swaps the function in its owner's own namespace, so the attribute must
be in ``vars(owner)``: an inherited method would be found and never wrapped.
The tracer file is only read, never installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


TARGETS = _tracer_targets()


@pytest.mark.parametrize("name, module_name, path, stat", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_is_in_its_owners_namespace(name, module_name, path, stat):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = vars(owner).get(part)
        assert owner is not None, f"{name}: {module_name} has no {part}"
    assert callable(vars(owner).get(attr)), f"{name}: {path} is not defined in {module_name}"
