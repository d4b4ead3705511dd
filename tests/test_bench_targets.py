"""The traced benchmark wraps kubolab functions by name (bench/spans.py);
a rename in src/ must fail here, not only in the slower bench tests."""

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines LAYERS; installs no wrapper
    return module.LAYERS


def test_every_traced_target_resolves_to_a_callable():
    targets = [t for targets in _layers().values() for t in targets]
    assert targets
    for module_name, path in targets:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), f"{module_name}.{path} is not a callable"


def test_kubo_node_count_parameters_keep_their_names():
    # spans.py counts quadrature nodes by binding these arguments by name
    from kubolab.response import sigma_kubo_integral

    params = inspect.signature(sigma_kubo_integral).parameters
    assert {"eta", "s_min", "panel_width", "panel_order"} <= set(params)
