"""Tests of the benchmark itself: public-API use, smoke run, input identity.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: names the benchmark uses to refer to the hoszp package
PACKAGE_NAMES = {"h", "hoszp"}


def exported_names() -> set:
    """Names bound in hoszp/__init__.py: the public API."""
    tree = ast.parse((ROOT / "src" / "hoszp" / "__init__.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _is_package(node) -> bool:
    # ``h``, ``hoszp`` or ``self.h``
    if isinstance(node, ast.Name):
        return node.id in PACKAGE_NAMES
    return isinstance(node, ast.Attribute) and node.attr == "h"


def private_uses(source: str, exported: set) -> list:
    """Every use of hoszp beyond its exported names and ``hoszp.cli.main``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.startswith("hoszp.") and a.name != "hoszp.cli"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("hoszp"):
            allowed = exported if node.module == "hoszp" else {"main"} if node.module == "hoszp.cli" else set()
            found += [f"{node.module}.{a.name}" for a in node.names if a.name not in allowed]
        elif isinstance(node, ast.Attribute) and _is_package(node.value):
            dunder = node.attr.startswith("__") and node.attr.endswith("__")
            if node.attr not in exported | {"cli"} and not dunder:
                found.append(node.attr)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute) \
                and node.value.attr == "cli" and _is_package(node.value.value) \
                and node.attr != "main":
            found.append(f"cli.{node.attr}")
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" \
                and node.args and _is_package(node.args[0]):
            found.append("getattr on the package")
    return found


def test_private_use_check_flags_private_names():
    exported = exported_names()
    bad = ("from hoszp.ops import STREAM_OPS\n"
           "import hoszp.codec\n"
           "from hoszp import apply_stream_op\n"
           "h._decode_bins(s)\n"
           "h.cli._emit([], 'text')\n")
    assert len(private_uses(bad, exported)) == 5
    assert private_uses("import hoszp.cli\nh.compress(r, p)\nh.cli.main([])\n", exported) == []


@pytest.mark.parametrize("path", sorted(p.name for p in HERE.glob("*.py")))
def test_benchmark_uses_public_api_only(path):
    assert private_uses((HERE / path).read_text(), exported_names()) == []


def test_smoke_emits_every_declared_metric():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr


def test_same_seed_gives_identical_inputs():
    sys.path.insert(0, str(HERE))
    import run
    from workloads import SMOKE_SIDE, WORKLOADS

    for workload in WORKLOADS:
        first, second, other = (run.run(workload, seed, 0.05, 0, side=SMOKE_SIDE)
                                for seed in (7, 7, 8))
        assert first[1]["provenance"] == second[1]["provenance"]
        assert (first[0]["metrics"]["compression_ratio"]
                == second[0]["metrics"]["compression_ratio"])
        assert first[1]["provenance"]["operands"] != other[1]["provenance"]["operands"]
