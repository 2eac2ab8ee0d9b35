"""Digest the JSON output of the registry CLI runs, one line per run.

Runs 97 commands as ``wwords --format json ...`` against a source tree and
prints, for each, the sha256 of its standard output, its exit code and its
arguments.  Two trees whose lines are identical gave byte-identical JSON
and the same exit codes on every run:

* ``verify`` on every identity at its own order;
* ``verify`` with the dilation engine and one other engine past the
  registered orders, on all six identities that have a dilation
  (theorem-1/4/5 at q120, theorem-7 and primc-conjecture at q80,
  schur-dilated at q90);
* ``expand --qmax 20`` on every product side, and ``euler-factor`` on the
  document each ``expand`` printed;
* ``enumerate --qmax 14 --degmax 14`` and ``enumerate --list 8 --degmax 8``
  on every preset, the parametric families at r = 2;
* ``check-eq --qmax 24`` on every builtin equation;
* ``discover --primaries a,b`` on schur-dilated-mod3 at q18, on
  siladic-dilated-free at q24 (the full 59,049-candidate search), on
  schur-weighted at q12 (no free colour) and on schur-dilated-mod3 at q2
  with ``--max-exponent 1`` (a window too short for any period);
* ``dilate`` on the weighted source and dilation of every dilated preset
  (``systems.DILATED_PRESETS``), the pairs the dilation engine uses;
* runs with ``--degmax`` below ``--qmax`` on primc-weighted, which erases
  ``b``: ``verify`` theorem-6 and theorem-7, ``check-eq primc-eg`` and
  ``enumerate``; and on the cases that set colour variables to 1:
  ``verify`` theorem-1 and primc-conjecture;
* runs the engines refuse, each with exit 2 and its error document:
  ``enumerate`` and ``enumerate --list`` on an overpartition family,
  whose size-0 parts need ``--degmax``, without it;
* ``verify`` on schur-dilated, whose B side gives the multiples of 3
  the colour ab, capped by ``--degmax`` with every engine and with
  enumeration against the dilation engine, and on the small-part conventions of theorem-3 with
  two engines and at ``--qmax 0``, where the conventions cannot be told
  apart (exit 2).

Usage: ``python3 tools/registry_digest.py [REPO]``, where REPO is the root
of the tree to run (default: the tree holding this script).  The tool puts
``REPO/src`` first on the import path and runs every command in this one
interpreter through ``wwords.cli.main``, with standard output captured as
bytes and standard error dropped.  Each invocation is a fresh interpreter,
so two trees are compared by running the tool once on each and diffing
the output.  No JSON output depends on the hash seed.

``python3 tools/registry_digest.py --check`` runs the commands on the tree
holding this script, prints each line that differs from
``registry_digest.expected`` beside it, and exits 1 if any does.
Standard library only.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).with_suffix(".expected")

HIGH_ORDER = (("theorem-1", "recurrence", "120"), ("theorem-4", "product", "120"),
              ("theorem-5", "product", "120"), ("theorem-7", "product", "80"),
              ("primc-conjecture", "product", "80"),
              ("schur-dilated", "product", "90"))

DISCOVER = (("schur-dilated-mod3", "18"), ("siladic-dilated-free", "24"),
            ("schur-weighted", "12"),
            ("schur-dilated-mod3", "2", "--max-exponent", "1"))

ERASED_CAPPED = (("verify", "theorem-6", "--qmax", "16", "--degmax", "6"),
                 ("verify", "theorem-7", "--qmax", "20", "--degmax", "6"),
                 ("check-eq", "primc-eg", "--qmax", "16", "--degmax", "4"),
                 ("enumerate", "primc-weighted", "--qmax", "10", "--degmax", "3"),
                 ("verify", "theorem-1", "--qmax", "20", "--degmax", "3"),
                 ("verify", "primc-conjecture", "--qmax", "28", "--degmax", "25"))

REFUSED = (("enumerate", "primary-overpartitions(2)", "--qmax", "6"),
           ("enumerate", "andrews-overpartitions(2)", "--list", "4"))

CAPPED_AND_CONVENTIONS = (
    ("verify", "schur-dilated", "--qmax", "30", "--degmax", "6"),
    ("verify", "schur-dilated", "--qmax", "24", "--degmax", "3",
     "--engines", "enum,dilation"),
    ("verify", "theorem-3", "--engines", "recurrence,product", "--qmax", "24"),
    ("verify", "theorem-3", "--qmax", "0"))


def _commands(scratch: Path) -> list[tuple[list[str], Path | None]]:
    """(arguments, file to save stdout to or None) for every run, in order."""
    import wwords
    from wwords.systems import DILATED_PRESETS

    cases = wwords.identity_cases()
    presets = [p.replace("(r)", "(2)") for p in wwords.preset_names()]
    cmds = [["verify", name] for name in cases]
    cmds += [["verify", name, "--engines", f"dilation,{other}", "--qmax", q]
             for name, other, q in HIGH_ORDER]
    saved = {}
    for name, case in cases.items():
        if case.product is not None:
            doc = scratch / f"{name}.json"
            expand = ["expand", "--product", name, "--qmax", "20"]
            saved[len(cmds)] = doc
            cmds += [expand, ["euler-factor", "--series", str(doc)]]
    for p in presets:
        cmds.append(["enumerate", p, "--qmax", "14", "--degmax", "14"])
        cmds.append(["enumerate", p, "--list", "8", "--degmax", "8"])
    cmds += [["check-eq", e.name, "--qmax", "24"]
             for e in wwords.builtin_equations()]
    cmds += [["discover", system, "--primaries", "a,b", "--qmax", q, *more]
             for system, q, *more in DISCOVER]
    dilations = sorted(
        (source, d.modulus, json.dumps(dict(d.var_shifts), sort_keys=True))
        for source, d in DILATED_PRESETS.values())
    cmds += [["dilate", system, "--modulus", str(m), "--offsets", shifts]
             for system, m, shifts in dilations]
    cmds += [list(cmd)
             for cmd in ERASED_CAPPED + REFUSED + CAPPED_AND_CONVENTIONS]
    return [(cmd, saved.get(i)) for i, cmd in enumerate(cmds)]


def in_process(cmd: list[str]) -> tuple[bytes, int]:
    """Runs one command through ``wwords.cli.main`` in this interpreter,
    discarding its standard error; an uncaught exception exits 1, as it
    would from the interpreter."""
    from wwords.cli import main

    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n")
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(["--format", "json", *cmd])
        except Exception:
            code = 1
    out.flush()
    return out.buffer.getvalue(), code


def digest(commands: list[tuple[list[str], Path | None]],
           run: Callable[[list[str]], tuple[bytes, int]], scratch: Path):
    """One line per command: the sha256 of its output, its exit code and its
    arguments, with the scratch directory shown as $TMP."""
    for cmd, save_to in commands:
        stdout, code = run(cmd)
        if save_to is not None:
            save_to.write_bytes(stdout)
        shown = [a.replace(str(scratch), "$TMP") for a in cmd]
        yield f"{hashlib.sha256(stdout).hexdigest()} {code} {' '.join(shown)}"


def differences(lines) -> list[str]:
    """Each line that differs from the expected file, beside the line there."""
    return [f"expected {want}\n     got {got}"
            for want, got in zip_longest(EXPECTED.read_text().splitlines(), lines)
            if want != got]


def main(argv: list[str]) -> int:
    check = argv == ["--check"]
    here = Path(__file__).resolve().parent.parent
    src = ((Path(argv[0]) if argv and not check else here) / "src").resolve()
    if not (src / "wwords").is_dir():
        sys.exit(f"no wwords package under {src}")
    sys.path.insert(0, str(src))
    with tempfile.TemporaryDirectory() as tmp:
        lines = digest(_commands(Path(tmp)), in_process, Path(tmp))
        if check:
            diffs = differences(lines)
            for diff in diffs:
                print(diff)
            return 1 if diffs else 0
        for line in lines:
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
