"""The registry digest (``tools/registry_digest.py``) hashes the JSON output
of 95 CLI runs.  Every run must still print what the committed
``tools/registry_digest.expected`` records, byte for byte, with its exit
code.  The regenerating command is in README's Tests section."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _digest_tool():
    path = ROOT / "tools" / "registry_digest.py"
    spec = importlib.util.spec_from_file_location("registry_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: in-process runs share the preset caches and the intern table, so these
#: also go through their own interpreters: a verify, an expand and the
#: euler-factor that reads what it saved, and a refused enumerate (exit 2)
IN_SUBPROCESS = ("verify theorem-2", "expand --product theorem-2 --qmax 20",
                 "euler-factor --series $TMP/theorem-2.json",
                 "enumerate primary-overpartitions(2) --qmax 6")


def test_every_registry_run_prints_its_expected_digest(tmp_path):
    tool = _digest_tool()
    commands = tool._commands(ROOT / "src", tmp_path)
    assert tool.differences(tool.digest(commands, tool.in_process, tmp_path)) == []
    picked = [(cmd, save_to) for cmd, save_to in commands
              if " ".join(cmd).replace(str(tmp_path), "$TMP") in IN_SUBPROCESS]
    lines = tool.digest(picked, tool.in_subprocess(ROOT / "src"), tmp_path)
    assert list(lines) == [line for line in tool.EXPECTED.read_text().splitlines()
                           if line.split(" ", 2)[2] in IN_SUBPROCESS]
