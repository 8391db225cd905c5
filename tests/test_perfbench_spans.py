"""The benchmark's span list names functions that exist in wgqed."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_resolves():
    # Tracer.install calls getattr on each (module, attribute) of TRACED,
    # so a name deleted from wgqed would crash a traced benchmark run
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for mod_name, attr in spans.TRACED:
        owner = importlib.import_module(f"wgqed.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{mod_name}.{attr}")
    assert missing == []
