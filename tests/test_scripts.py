"""The figure scripts run end to end and write their pinned bytes."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import FIGURE_RUNS, FIGURE_SHA256

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", sorted(FIGURE_RUNS))
def test_figure_script_bytes(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *FIGURE_RUNS[script], "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    prefix = script.removeprefix("reproduce_").removesuffix(".py")
    assert written == {k: v for k, v in FIGURE_SHA256.items() if k.startswith(prefix)}
