"""The registry digest (``tools/registry_digest.py``) hashes the JSON output
of 97 CLI runs.  Every run must still print what the committed
``tools/registry_digest.expected`` records, byte for byte, with its exit
code.  The tool's ``--check`` runs all 97 in one fresh interpreter, away
from the state other tests leave in this one.  The regenerating command is
in README's Tests section."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "registry_digest.py"


def _digest_tool():
    spec = importlib.util.spec_from_file_location("registry_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the tool's runs share the preset caches and the intern table, so these
#: also go through their own interpreters: a verify, an expand and the
#: euler-factor that reads what it saved, and a refused enumerate (exit 2)
IN_SUBPROCESS = ("verify theorem-2", "expand --product theorem-2 --qmax 20",
                 "euler-factor --series $TMP/theorem-2.json",
                 "enumerate primary-overpartitions(2) --qmax 6")


def _in_subprocess(cmd: list[str]) -> tuple[bytes, int]:
    """Runs one command as ``python3 -m wwords.cli`` in its own interpreter."""
    done = subprocess.run(
        [sys.executable, "-m", "wwords.cli", "--format", "json", *cmd],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, check=False)
    return done.stdout, done.returncode


def test_every_registry_run_prints_its_expected_digest(tmp_path):
    with subprocess.Popen([sys.executable, str(TOOL), "--check"],
                          stdout=subprocess.PIPE, text=True) as check:
        tool = _digest_tool()
        picked = [(cmd, save_to) for cmd, save_to in tool._commands(tmp_path)
                  if " ".join(cmd).replace(str(tmp_path), "$TMP") in IN_SUBPROCESS]
        lines = list(tool.digest(picked, _in_subprocess, tmp_path))
        try:
            diffs = check.communicate(timeout=120)[0]
        finally:
            check.kill()
    assert (check.returncode, diffs) == (0, "")
    assert lines == [line for line in tool.EXPECTED.read_text().splitlines()
                     if line.split(" ", 2)[2] in IN_SUBPROCESS]
