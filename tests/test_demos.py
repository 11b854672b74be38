"""Every demo script runs to completion.

Each demo runs in a subprocess from a copy under tmp_path, so files a demo
writes next to itself (demo_08's traces) land there, not in demos/, and no
demo prints that directory. The traces demo_08 writes must match the
committed ones byte for byte.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("demo_0*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 8


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # what a demo prints does not depend on where it runs from
    assert str(tmp_path) not in result.stdout
    if demo.stem == "demo_08_timeline_case_study":
        written = {p.name: p.read_bytes() for p in (tmp_path / "traces").glob("*.json")}
        committed = {p.name: p.read_bytes() for p in (ROOT / "demos" / "traces").glob("*.json")}
        assert len(committed) == 4
        assert written == committed
