"""End-to-end command line checks through main(argv)."""

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import jsonschema
import pytest

from amoebas import cli, semialg
from amoebas.cli import main
from amoebas.cycres import quick_cyclic_resultant
from amoebas.poly import parse
from oracles import CUBIC, LINE, OVER_BUDGET, PICTURE_SHA256, SEMIALG_JSON_SHA256

RECORD_SCHEMA = {
    "type": "object",
    "required": ["point", "inAmoeba", "level", "order"],
    "properties": {
        "point": {"type": "array", "items": {"type": "string"}},
        "inAmoeba": {"type": "boolean"},
        "level": {"type": ["integer", "null"]},
        "order": {
            "type": ["array", "null"],
            "items": {"type": "integer"},
        },
    },
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cres_golden(capsys):
    code, out, _ = run_cli(capsys, "cres", "-f", "z1 + 1", "-k", "1")
    assert (code, out) == (0, "-z1^2+1\n")
    code, out, _ = run_cli(capsys, "cres", "-f", "z1", "-k", "0")
    assert (code, out) == (0, "z1\n")
    code, out, _ = run_cli(capsys, "cres", "-f", "z1", "-k", "1")
    assert (code, out) == (0, "-z1^2\n")


def test_cres_round_trips_through_text(capsys, cubic):
    code, out, _ = run_cli(capsys, "cres", "-f", CUBIC, "-k", "1")
    assert code == 0
    assert parse(out.strip(), 2) == quick_cyclic_resultant(cubic, 1)


def test_cres_to_file(tmp_path, capsys):
    target = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, "cres", "-f", "z1 + 1", "-k", "1", "-o", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text() == "-z1^2+1\n"


def test_poly_file_input(tmp_path, capsys):
    src = tmp_path / "poly.txt"
    src.write_text("z1 + 1\n")
    code, out, _ = run_cli(capsys, "cres", "--poly-file", str(src), "-k", "1")
    assert (code, out) == (0, "-z1^2+1\n")


def test_amoeba_csv(capsys):
    code, out, _ = run_cli(
        capsys, "amoeba", "-f", LINE, "--box", "-1", "1", "--step", "1", "--kmax", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w1,w2,bit,level,order1,order2"
    assert len(lines) == 10  # 3x3 grid plus header
    assert "0,0,1,,," in lines  # the origin is never certified for the line


def test_amoeba_jsonl_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "amoeba", "-f", LINE, "--box", "-1", "1", "--step", "1",
        "--kmax", "1", "--format", "jsonl",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9
    for line in lines:
        jsonschema.validate(json.loads(line), RECORD_SCHEMA)
    middle = json.loads(lines[4])
    assert middle == {"point": ["0", "0"], "inAmoeba": True, "level": None, "order": None}


def test_amoeba_svg(capsys):
    code, out, _ = run_cli(
        capsys,
        "amoeba", "-f", LINE, "--box", "-2", "2", "--step", "1",
        "--kmax", "1", "--format", "svg",
    )
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_amoeba_ppm(tmp_path, capsys):
    target = tmp_path / "grid.ppm"
    code, _, _ = run_cli(
        capsys,
        "amoeba", "-f", LINE, "--box", "-1", "1", "--step", "1",
        "--kmax", "1", "--format", "ppm", "-o", str(target),
    )
    assert code == 0
    data = target.read_bytes()
    assert data.startswith(b"P6\n3 3\n255\n")
    assert len(data) == len(b"P6\n3 3\n255\n") + 27


@pytest.mark.parametrize("argv", list(PICTURE_SHA256), ids=lambda a: f"{a[0]}-{a[a.index('--format') + 1]}")
def test_picture_bytes_pinned(argv, tmp_path):
    target = tmp_path / "picture"
    assert main([*argv, "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == PICTURE_SHA256[argv]


@pytest.mark.parametrize("text", list(SEMIALG_JSON_SHA256))
def test_semialg_json_bytes_pinned(text, tmp_path):
    target = tmp_path / "system.json"
    assert main(["semialg", "-f", text, "-k", "1,2", "--format", "json", "-o", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SEMIALG_JSON_SHA256[text]


def test_semialg_json_default(capsys):
    code, out, _ = run_cli(capsys, "semialg", "-f", LINE)
    assert code == 0
    obj = json.loads(out)
    assert obj["level"] == 1
    assert len(obj["candidates"]) == 3


def test_semialg_json_multi_level(capsys):
    code, out, _ = run_cli(capsys, "semialg", "-f", LINE, "-k", "1,2")
    assert code == 0
    arr = json.loads(out)
    assert [obj["level"] for obj in arr] == [1, 2]


def test_semialg_text(capsys):
    code, out, _ = run_cli(capsys, "semialg", "-f", LINE, "--format", "text")
    assert code == 0
    assert "g(x) = x1^4 + 2*x1^2*x2^2 + x2^4" in out
    assert "order (1, 0): 2*x1^4 > g(x)" in out


@pytest.mark.parametrize("lo, hi", [("1", "1e400"), ("1e-400", "1")])
def test_semialg_raster_box_must_fit_a_float(capsys, tmp_path, lo, hi, recwarn):
    target = tmp_path / "region.ppm"
    code, _, err = run_cli(
        capsys,
        "semialg", "-f", LINE, "--format", "ppm", "--res", "8", "--box", lo, hi, "-o", str(target),
    )
    assert code == 2 and err.startswith("error:")
    assert not recwarn.list


def test_semialg_svg(capsys):
    code, out, _ = run_cli(
        capsys, "semialg", "-f", LINE, "-k", "1,2", "--format", "svg", "--res", "24"
    )
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")


def test_semialg_ppm_single_level_only(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "semialg", "-f", LINE, "-k", "1,2", "--format", "ppm", "--res", "16"
    )
    assert code == 2
    assert "error:" in err

    target = tmp_path / "region.ppm"
    code, _, _ = run_cli(
        capsys,
        "semialg", "-f", LINE, "--format", "ppm", "--res", "16", "-o", str(target),
    )
    assert code == 0
    assert target.read_bytes().startswith(b"P6\n16 16\n255\n")


def test_bench_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "bench", "line=z1 + z2 + 1", "-k", "1")
    assert code == 0
    assert out.splitlines()[0].split()[:2] == ["id", "level"]
    assert "line" in out

    code, out, _ = run_cli(
        capsys, "bench", "z1 + z2 + 1", "-k", "1", "--format", "csv", "--no-baseline"
    )
    assert code == 0
    assert out.splitlines()[0].startswith("poly_id,")
    assert out.splitlines()[1].startswith("p1,1,")


def test_bench_keeps_case_order(capsys):
    code, out, _ = run_cli(
        capsys, "bench", f"b={CUBIC}", f"a={LINE}", "-k", "2,1", "--no-baseline"
    )
    assert code == 0
    rows = [line.split()[:2] for line in out.splitlines()[2:]]
    assert rows == [["b", "2"], ["b", "1"], ["a", "2"], ["a", "1"]]

    code, out, _ = run_cli(
        capsys, "bench", f"b={CUBIC}", f"a={LINE}", "-k", "2,1", "--no-baseline", "--format", "csv"
    )
    assert code == 0
    rows = [line.split(",")[:2] for line in out.splitlines()[1:]]
    assert rows == [["b", "2"], ["b", "1"], ["a", "2"], ["a", "1"]]


def test_bench_reports_case_failures(capsys):
    code, out, _ = run_cli(capsys, "bench", OVER_BUDGET, "-k", "1")
    assert code == 1  # per-case failure, not a usage error
    assert "terms" in out


def test_error_exits(capsys, tmp_path):
    code, _, err = run_cli(capsys, "cres", "-f", "z1 +")
    assert code == 2 and err.startswith("error:")

    src = tmp_path / "p.txt"
    src.write_text("z1")
    code, _, err = run_cli(capsys, "cres", "-f", "z1", "--poly-file", str(src))
    assert code == 2 and "not both" in err

    code, _, err = run_cli(capsys, "cres")
    assert code == 2 and "required" in err

    code, _, err = run_cli(capsys, "amoeba", "-f", OVER_BUDGET, "--kmax", "1")
    assert code == 2 and "over the budget of 10000000" in err

    code, _, err = run_cli(capsys, "amoeba", "-f", LINE, "--kmax", "1", "--eps", "1/2")
    assert code == 2 and "not both" in err

    # 1e400 overflows a float; 1e-400 rounds to 0, which is not positive
    for eps in ("1e400", "1e-400"):
        code, out, err = run_cli(capsys, "amoeba", "-f", LINE, "--eps", eps)
        assert code == 2 and err.startswith("error:") and out == ""


@pytest.mark.parametrize("runs", ["0", "-2"])
def test_bench_rejects_nonpositive_runs(capsys, runs):
    code, _, err = run_cli(capsys, "bench", "z1+z2+1", "-k", "1", "--runs", runs)
    assert code == 2 and err.startswith("error:") and "runs" in err


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_bench_rejects_nonpositive_timeout(capsys, timeout):
    code, out, err = run_cli(capsys, "bench", "z1+1", "-k", "1", "--timeout", timeout)
    assert code == 2 and out == ""
    assert err == f"error: timeout must be positive, got {float(timeout)}\n"


@pytest.mark.parametrize("nvars", ["0", "-1"])
def test_nonpositive_nvars_exit_2(capsys, nvars):
    code, out, err = run_cli(capsys, "cres", "-f", "z1+1", "-n", nvars)
    assert code == 2 and out == ""
    assert err == f"error: -n must be at least 1, not {nvars}\n"


def test_semialg_checks_the_term_budget_before_the_hull(capsys, monkeypatch):
    def no_hull(f):
        raise AssertionError("the hull was scanned before the term budget was checked")

    monkeypatch.setattr(semialg, "newton", no_hull)
    code, out, err = run_cli(capsys, "semialg", "-f", OVER_BUDGET, "-k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "over the budget of 10000000" in err


def _no_fold(*args, **kwargs):
    raise AssertionError("folded before the picture arguments were checked")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("-f", "z1 + z2 + z3 + 1", "-k", "3", "--format", "svg"), "rasterize draws 2-variable systems only"),
        (("-f", CUBIC, "-k", "1,2,3,4,5", "--format", "ppm"), "ppm output draws exactly one level"),
        (("-f", LINE, "--format", "svg", "--res", "1"), "need at least 2 samples per axis"),
        (("-f", LINE, "--format", "ppm", "--box", "2", "1"), "axis range [2, 1] needs lo < hi"),
        (("-f", LINE, "--format", "ppm", "--res", "40000"), "raster has 1600000000 samples, limit is 10000000"),
    ],
)
def test_semialg_pictures_check_arguments_before_folding(capsys, monkeypatch, argv, message):
    monkeypatch.setattr(cli, "semialg_description", _no_fold)
    code, out, err = run_cli(capsys, "semialg", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("fmt", ["svg", "ppm"])
def test_amoeba_pictures_check_the_grid_before_classifying(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "approximate_amoeba", _no_fold)
    code, out, err = run_cli(
        capsys, "amoeba", "-f", "z1 + z2 + z3 + 1", "--step", "1", "--format", fmt
    )
    assert code == 2 and out == ""
    assert err == "error: grid pictures need a 2-variable grid\n"


def test_grid_with_inner_products_beyond_float_range_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "amoeba", "-f", f"z1^{10**400} + 1", "-n", "1",
        "--box", "0", "1", "--step", "1", "--kmax", "0",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "too large for a float" in err


@pytest.mark.parametrize("fmt", ["svg", "ppm"])
def test_raster_of_exponents_beyond_float_range_exits_2(capsys, fmt):
    n = 10**400
    code, out, err = run_cli(
        capsys, "semialg", "-f", f"z1^{n} + z1^{n}*z2 + z1^{n + 1}", "-k", "1",
        "--format", fmt, "--res", "16",
    )
    assert code == 2 and out == ""
    assert err == "error: an exponent is too large for a float\n"


def test_grid_denominator_beyond_float_range_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "amoeba", "-f", "z1+z2+1",
        "--box", "0", f"1/{10**399}", "--step", f"1/{10**400}", "--kmax", "1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "too large for a float" in err


def test_amoeba_box_takes_negative_fractions(capsys):
    grid = ("amoeba", "-f", "z1+z2+1", "-n", "2", "--kmax", "1")
    code, out, _ = run_cli(capsys, *grid, "--box", "-1/2", "1/2", "--step", "1/2")
    assert code == 0 and out.startswith("w1,w2,bit,level,order1,order2\r\n-1/2,-1/2,")
    assert run_cli(capsys, *grid, "--box", "-0.5", "0.5", "--step", "0.5") == (0, out, "")


@pytest.mark.parametrize("lo", ["-1/2", "-0.5"])
def test_semialg_box_takes_negative_fractions(capsys, lo):
    # json does not use the box; a picture refuses it with the library's reason
    described = run_cli(capsys, "semialg", "-f", LINE, "--format", "json")
    assert run_cli(capsys, "semialg", "-f", LINE, "--format", "json", "--box", lo, "3") == described
    code, out, err = run_cli(capsys, "semialg", "-f", LINE, "--format", "svg", "--box", lo, "3")
    assert (code, out) == (2, "")
    assert err == "error: the box must lie in the open positive orthant\n"


def test_file_errors_exit_2(capsys, tmp_path):
    missing = tmp_path / "no_such_dir" / "p.txt"
    code, _, err = run_cli(capsys, "cres", "--poly-file", str(missing))
    assert code == 2 and err.startswith("error:")

    code, out, err = run_cli(capsys, "cres", "-f", "z1 + 1", "-o", str(missing))
    assert code == 2 and err.startswith("error:") and out == ""


def test_module_entry_point():
    # pytest's pythonpath setting reaches only its own process
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "amoebas.cli", "cres", "-f", "z1 + 1", "-k", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "-z1^2+1\n"
