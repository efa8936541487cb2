"""The scripts under scripts/ run to completion, and print what they
printed when their output was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _launch(script, argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *argv],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)


def _run(script, argv, cwd):
    done = _launch(script, argv, cwd)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("script, args", [
    ("run_all_schemes.py", ["--seeds", "1"]),
    ("compare_sub_protocols.py", ["--seeds", "1"]),
    ("emit_regions.py", ["--out-dir", "{tmp}"]),
])
def test_script_exits_zero(tmp_path, script, args):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    assert _run(script, argv, tmp_path)


@pytest.mark.parametrize("script", ["run_all_schemes.py", "compare_sub_protocols.py"])
@pytest.mark.parametrize("seeds", ["0", "-1"])
def test_seeds_below_one_are_an_argument_error(tmp_path, script, seeds):
    done = _launch(script, ["--seeds", seeds], tmp_path)
    assert done.returncode == 2 and not done.stdout
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1] == (
        f"{script}: error: --seeds must be at least 1, got {seeds}")


# SHA-256 of the scripts' stdout; the same with one and with two BLAS threads
@pytest.mark.parametrize("script, args, digest", [
    ("run_all_schemes.py", ["--seeds", "2"],
     "d39d6161c9dd4d75509e41be41e352d829ebf975c5277a475861cd42b5086778"),
    ("compare_sub_protocols.py", ["--seeds", "1"],
     "c1c198c5f5fa310b9a25ff8174d1392f07598840561580e521dda9ba127f8949"),
])
def test_script_output_is_pinned(tmp_path, script, args, digest):
    stdout = _run(script, args, tmp_path)
    assert hashlib.sha256(stdout.encode()).hexdigest() == digest, stdout
