"""Source hygiene of the library: no runtime dependencies beyond the
standard library, and no floating point.  The benchmark's seed-0
outputs are also reproduced here, byte for byte."""

import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from util import benchmark_gen

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "parastrata").glob("*.py"))


def parsed(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exact.py", "cli.py", "flagcoh.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_relative_or_stdlib(path):
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root in sys.stdlib_module_names, f"{path.name}:{node.lineno} imports {root}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    for node in ast.walk(parsed(path)):
        if isinstance(node, ast.Constant):
            assert not isinstance(node.value, (float, complex)), f"{path.name}:{node.lineno} float literal"
        if isinstance(node, ast.Name):
            assert node.id != "float", f"{path.name}:{node.lineno} uses float"


def test_benchmark_tracer_installs():
    """The benchmark's tracer wraps library functions and methods by
    name; renaming one of them must fail here, not only in a traced run."""
    code = "import sys; sys.path[:0] = ['src', 'perfbench']; import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["sweep", "descend", "requests"])
def test_benchmark_round_zero_matches_golden_digest(workload, monkeypatch):
    """The CLI's output bytes are its contract: the first timed round of
    seed 0 must hash to the digest the benchmark checks against."""
    from parastrata.cli import run_command

    rounds, _ = benchmark_gen(monkeypatch).streams(workload, 0)
    digest = hashlib.sha256()
    for req in next(rounds):
        code, out, err = run_command(req.argv, req.stdin)
        assert code == 0, err
        digest.update(out)
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    assert digest.hexdigest() == golden[workload]


def test_readme_layout_names_every_export():
    """README's library layout table names, in backticks, every name that
    the package exports."""
    init = parsed(ROOT / "src" / "parastrata" / "__init__.py")
    exported = {alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom) for alias in node.names}
    readme = (ROOT / "README.md").read_text().splitlines()
    table = "\n".join(line for line in readme if line.startswith("| `parastrata."))
    assert exported and sorted(name for name in exported if f"`{name}`" not in table) == []
