"""Every name the benchmark's tracer wraps is still bound where it wraps it.

perfbench/spans.py looks its PATCHES names up with getattr; a renamed
function would otherwise surface only when a traced benchmark run fails.
"""

import importlib.util
from pathlib import Path

from amoebas import cli

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_wraps_and_restores_every_name(tmp_path):
    spans = _load_spans()
    names = [(owner, attr) for owner, attr, _, _ in spans.PATCHES]
    before = [getattr(owner, attr) for owner, attr in names]
    tracer = spans.Tracer()
    with spans.traced(tracer):
        assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(names, before))
        out = tmp_path / "fold.txt"
        assert cli.main(["cres", "-f", "z1 + z2 + 1", "-k", "1", "-o", str(out)]) == 0
    assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(names, before))
    recorded = {name for _, _, name, _, _, _ in tracer.spans}
    assert {"cli.main", "poly.parse", "cycres.fold", "poly.format"} <= recorded
