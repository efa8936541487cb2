"""The scripts under scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("run_all_schemes.py", ["--seeds", "1"]),
    ("compare_sub_protocols.py", ["--seeds", "1"]),
    ("emit_regions.py", ["--out-dir", "{tmp}"]),
])
def test_script_exits_zero(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout
