"""What a command pays before it runs: the import graph of ``navscribe.cli``.

Every CLI command is a fresh process, so each module the command line
imports is loaded again per command. The compile path needs neither numpy
nor the network stack that ``xml.sax.saxutils`` drags in through
``urllib.request``, and only help and usage errors need ``argparse`` and the
``gettext`` it imports. The loss arithmetic and the renderer are loaded
only by the two commands that use them.

The probes run under ``-I``, which ignores ``PYTHONDONTWRITEBYTECODE``, so a
caller that writes no bytecode passes ``-B`` on: otherwise a test run would
leave bytecode in ``__pycache__`` under ``src/`` and later cold starts would
read it.
"""
from __future__ import annotations

import json
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY = ("numpy", "xml.sax", "urllib.request", "http.client", "ssl", "email", "argparse",
         "gettext", "navscribe.aux_loss_math", "navscribe.render_svg")

# Modules already loaded by the interpreter's start-up are not navscribe's.
_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import navscribe.cli
print(json.dumps({"file": navscribe.cli.__file__,
                  "loaded": sorted(set(sys.modules) - before)}))
"""


def _import_cli(*flags: str) -> dict:
    if sys.flags.dont_write_bytecode:
        flags = ("-B", *flags)
    before = set(SRC.rglob("*.pyc"))
    done = subprocess.run([sys.executable, *flags, "-c", _PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    if sys.flags.dont_write_bytecode:
        assert set(SRC.rglob("*.pyc")) == before
    return json.loads(done.stdout)


def test_cli_import_loads_no_numpy_and_no_network_stack():
    # -I ignores PYTHONPATH and user site-packages, but installed packages
    # stay importable, so an optional "try: import numpy" would show here.
    probe = _import_cli("-I")
    assert pathlib.Path(probe["file"]).is_relative_to(SRC)
    heavy = [m for m in probe["loaded"]
             if any(m == h or m.startswith(h + ".") for h in HEAVY)]
    assert heavy == []


def test_cli_imports_with_the_standard_library_alone():
    # -S drops site-packages from sys.path: navscribe has no runtime dependency.
    probe = _import_cli("-I", "-S")
    assert pathlib.Path(probe["file"]).is_relative_to(SRC)
