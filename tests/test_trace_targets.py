"""Every span target of the benchmark's tracer names a real function.

``perfbench/tracer.py`` skips a target it cannot find without a word, so a
rename or a move in ``src/mfal`` would read 0 in that per-layer metric.  The
tracer swaps the function in its owner's own namespace, so the attribute must
be in ``vars(owner)``: an inherited method would be found and never wrapped.
A target whose function was removed on purpose is listed in RETIRED with the
reason, and must stay gone.  The tracer file is only read, never installed.
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


#: span name -> why its function is gone; the span reads 0
RETIRED = {
    "alia.scalar_oracle": "the check is the alia.scalar_oracle row of checks.IDENTITIES, "
                          "timed whole as checks.alia.scalar_oracle.total_s",
    "liealg.exp_nilpotent": "deleted: Phi_n's factors are the closed form sl2.unipotents",
    "liealg.sym_power_matrix": "moved to mfal.sl2 with the other symmetric-power code",
}
TARGETS = [t for t in _tracer_targets() if t[0] not in RETIRED]
GONE = [t for t in _tracer_targets() if t[0] in RETIRED]


def _owner(module_name, path):
    owner = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    for part in owners:
        owner = vars(owner).get(part)
        assert owner is not None, f"{module_name} has no {part}"
    return vars(owner), attr


@pytest.mark.parametrize("name, module_name, path, stat", TARGETS, ids=[t[0] for t in TARGETS])
def test_target_is_in_its_owners_namespace(name, module_name, path, stat):
    namespace, attr = _owner(module_name, path)
    assert callable(namespace.get(attr)), f"{name}: {path} is not defined in {module_name}"


@pytest.mark.parametrize("name, module_name, path, stat", GONE, ids=[t[0] for t in GONE])
def test_retired_target_is_gone(name, module_name, path, stat):
    namespace, attr = _owner(module_name, path)
    assert attr not in namespace, f"{name}: {path} is back; drop it from RETIRED"
