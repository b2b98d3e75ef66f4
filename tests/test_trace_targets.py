"""The benchmark's tracer replaces functions at the names their callers look
up. Each of those names must exist in the program, so a rename that would
leave a span unrecorded fails here, not first in a benchmark run."""

import importlib.util
from pathlib import Path

import hgdiff
import hgdiff.cli  # noqa: F401  (a traced module the package does not import)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    # read only: the module defines the targets and patches nothing on import
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracing()
    targets = tracing.stage_targets(hgdiff, True) + tracing.layer_targets(hgdiff)
    assert targets
    missing = [(getattr(owner, "__name__", owner), attr, span)
               for owner, attr, span, _, _ in targets if attr not in vars(owner)]
    assert not missing
