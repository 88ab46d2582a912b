"""The package's export list names only what the package holds, once each,
and the package holds only modules that ``import navscribe`` loads, the
command line, and the two modules no compile command needs (the loss
arithmetic and the renderer), whose exports the package imports on first
access."""
from __future__ import annotations

import collections
import json
import pathlib
import subprocess
import sys

import pytest

import navscribe

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

# A fresh interpreter: this one has loaded whatever the other tests imported.
_PROBE = """
import json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import navscribe
print(json.dumps(sorted(module.name for module in pkgutil.iter_modules(navscribe.__path__)
                        if "navscribe." + module.name not in sys.modules)))
"""


def test_every_export_resolves_on_the_package():
    missing = [name for name in navscribe.__all__ if not hasattr(navscribe, name)]
    assert missing == []


def test_no_export_is_listed_twice():
    counts = collections.Counter(navscribe.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_every_module_but_the_command_line_is_loaded_by_the_package():
    flags = ("-B",) if sys.flags.dont_write_bytecode else ()
    done = subprocess.run([sys.executable, *flags, "-c", _PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["__main__", "aux_loss_math", "cli", "render_svg"]


def test_lazy_exports_are_their_modules_own_objects():
    from navscribe import aux_loss_math, render_svg
    assert navscribe.gradient_check is aux_loss_math.gradient_check
    assert navscribe.RenderSpec is render_svg.RenderSpec
    assert set(navscribe._LAZY) <= set(navscribe.__all__)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_export'"):
        navscribe.no_such_export


def test_object_ref_is_one_class_under_every_import_path():
    from navscribe import instruction_crafter, object_saliency
    assert navscribe.ObjectRef is object_saliency.ObjectRef
    assert instruction_crafter.ObjectRef is object_saliency.ObjectRef
