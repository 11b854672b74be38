"""`scripts/bench_record.py` must not write a recording that mixes two
versions of the code. The script is loaded from its path and left as it is."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"


def load_bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """The script pointed at a checkout whose src/ holds one module."""
    module = load_bench_record()
    pkg = tmp_path / "src" / "varlenplan"
    pkg.mkdir(parents=True)
    (pkg / "remapping.py").write_text("X = 1\n")
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    return module, pkg


def test_record_is_written_when_src_is_unchanged(checkout, tmp_path):
    module, _ = checkout
    before = module.src_sha256(str(tmp_path))
    out = tmp_path / "BENCH_0.json"
    module.write_record(str(out), {"outputs_sha256": {"equal": True}}, before)
    assert json.loads(out.read_text()) == {"outputs_sha256": {"equal": True}}


def test_record_is_refused_when_src_changed_during_the_rounds(checkout, tmp_path):
    module, pkg = checkout
    before = module.src_sha256(str(tmp_path))
    (pkg / "remapping.py").write_text("X = 2\n")
    after = module.src_sha256(str(tmp_path))
    assert after != before
    out = tmp_path / "BENCH_0.json"
    with pytest.raises(SystemExit) as exit_info:
        module.write_record(str(out), {}, before)
    # a string exit status prints to stderr and exits with status 1
    assert isinstance(exit_info.value.code, str)
    assert before in exit_info.value.code and after in exit_info.value.code
    assert not out.exists()
