"""Every name the benchmark's tracer wraps is still bound where it wraps it,
and its count hooks still read the results they are given.

perfbench/spans.py looks its PATCHES names up with getattr, and its hooks
read fields of grid verdicts and rasters; a renamed function or field
would otherwise surface only when a traced benchmark run fails.
"""

import importlib.util
from fractions import Fraction
from pathlib import Path

import numpy as np

from amoebas import cli
from amoebas.gridsolver import GridSpec, approximate_amoeba
from amoebas.poly import parse
from oracles import LINE

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


def test_traced_hooks_read_grid_and_raster_results(tmp_path):
    spans = _load_spans()
    tracer = spans.Tracer()
    grid, raster = tmp_path / "grid.csv", tmp_path / "raster.svg"
    with spans.traced(tracer):
        argv = ["amoeba", "-f", LINE, "--step", "1/2", "--kmax", "2", "-o", str(grid)]
        assert cli.main(argv) == 0
        argv = ["semialg", "-f", LINE, "-k", "1,2", "--format", "svg", "--res", "8", "-o", str(raster)]
        assert cli.main(argv) == 0
    tracer.settle()
    recorded = {name for _, _, name, _, _, _ in tracer.spans}
    assert {
        "gridsolver.approximate", "gridsolver.csv", "semialg.describe", "semialg.raster",
        "newton.hull", "render.svg", "lopsided.table_build", "lopsided.classify",
    } <= recorded
    level = approximate_amoeba(parse(LINE, 2), GridSpec(-2, 2, Fraction(1, 2), 2), kmax=2).level
    for k in range(3):
        assert tracer.counts[f"gridsolver.certified_L{k}"] == np.count_nonzero(level == k)
    assert tracer.counts["gridsolver.csv_bytes"] == grid.stat().st_size
    assert tracer.counts["semialg.raster_samples"] == 2 * 8 * 8
    # the command writes the picture and a newline
    assert tracer.counts["render.svg_bytes"] == raster.stat().st_size - 1
