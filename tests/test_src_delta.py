"""``scripts/src_delta.py``: the net ``src/`` line delta of a change."""

import importlib.util
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_delta.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_delta", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _git(root, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                    *args], cwd=root, check=True, capture_output=True)


def test_counts_staged_and_unstaged_src_lines_only(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "a.py").write_text("1\n2\n3\n")
    (tmp_path / "README").write_text("x\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "base")
    (tmp_path / "src" / "a.py").write_text("1\n3\n4\n5\n")  # -1 +2
    (tmp_path / "src" / "b.py").write_text("new\n")         # +1, staged
    (tmp_path / "README").write_text("y\nz\n")              # outside src
    _git(tmp_path, "add", "src/b.py")
    assert _load().src_delta("HEAD", tmp_path) == (3, 1)
