"""Source hygiene of the library: no runtime dependencies beyond the
standard library, no floating point, and no value storing a second
copy of what it was built from.  The benchmark's seed-0
outputs are also reproduced here, byte for byte, README's Python tour
is run against the results it documents, and the names in README's
layout table are resolved in their modules."""

import ast
import builtins
import contextlib
import hashlib
import importlib
import io
import json
import keyword
import re
import subprocess
import sys
import tokenize
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


# functions that may call themselves, each with what bounds its depth
RECURSION_ALLOWED = {
    "cli._report_json": "one level per level of the report, whose shape each subcommand fixes",
    "cli._parse_new": "a tuple of coefficient strings recurses once, on each string",
}


def test_no_function_calls_itself():
    """No function in the library, nested ones included, calls its own
    bare name, outside `RECURSION_ALLOWED`: a depth that grows with the
    input ends in `RecursionError`, an exit 1.  Two such routes were
    found, a table count and a table fill, each recursing once per
    table entry."""
    found = []
    for path in SOURCES:
        for node in ast.walk(parsed(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [
                call.lineno
                for call in ast.walk(node)
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
            ]
            if calls and f"{path.stem}.{node.name}" not in RECURSION_ALLOWED:
                found.append(f"{path.name}:{calls[0]} {node.name}")
    assert found == []


# classes that may store a second copy of what they are built from,
# each with the reason
STORED_ONCE_ALLOWED: dict[str, str] = {}


def stores_a_copy(call):
    """A dataclass `field(..., init=False, ...)` or an
    `object.__setattr__` call: a value setting what it was not given."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "__setattr__":
        return isinstance(func.value, ast.Name) and func.value.id == "object"
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    return name == "field" and any(
        k.arg == "init" and isinstance(k.value, ast.Constant) and k.value.value is False for k in call.keywords
    )


def test_values_store_what_they_are_built_from_once():
    """No library value keeps a second copy of what it was built from,
    outside `STORED_ONCE_ALLOWED`: a derived field set after `__init__`
    is one more thing to keep equal to its source, and one more check
    of the same input."""
    found = []
    for path in SOURCES:
        tree = parsed(path)
        # ast.walk meets outer classes first, so a nested class names its own calls
        owner = {
            child: node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef) for child in ast.walk(node)
        }
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and stores_a_copy(call):
                where = ".".join([path.stem, *filter(None, [owner.get(call)])])
                if where not in STORED_ONCE_ALLOWED:
                    found.append(f"{path.name}:{call.lineno} {where}")
    assert found == []


def test_benchmark_tracer_installs():
    """The benchmark's tracer wraps library functions and methods by
    name; renaming one of them must fail here, not only in a traced run."""
    code = "import sys; sys.path[:0] = ['src', 'perfbench']; import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["sweep", "descend", "requests"])
def test_benchmark_traced_round_runs(workload, tmp_path):
    """A traced round of each workload runs through the tracer's wrappers
    and checks out, so a change that breaks a wrapper (one that reads a
    library value's fields, say) fails here.  Its spans are written one
    JSON object a line, and an untraced replay checks out too: a
    traced benchmark run takes both steps."""
    spans = tmp_path / "spans.jsonl"
    argv = [sys.executable, "perfbench/worker.py", "--mode", "trace", "--workload", workload,
            "--seed", "0", "--seconds", "0.01", "--spans", str(spans)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["failures"] == [] and result["exit_nonzero"] == 0
    assert "cli.run_command" in result["stats"]
    lines = spans.read_text().splitlines()
    assert len(lines) == result["spans"] > 0
    for line in lines:
        json.loads(line)

    # `worker.slowdowns` divides by the calibration samples taken during
    # the requests, one per 5 ms, so a replay needs about 0.1 s of
    # request time: one round of `requests` often gets no sample
    rounds = {"sweep": 10, "descend": 1, "requests": 40}[workload]
    argv = [sys.executable, "perfbench/worker.py", "--mode", "replay", "--workload", workload,
            "--seed", "0", "--rounds", str(rounds)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failures"] == []


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


def test_readme_layout_names_resolve():
    """Every backticked capitalized name in the layout row of module
    `parastrata.X` resolves in X, dotted names attribute by attribute,
    so that a deleted class cannot linger in README.  Builtins and
    keywords are exempt."""
    readme = (ROOT / "README.md").read_text().splitlines()
    stale = []
    for line in readme:
        row = re.match(r"\| `(parastrata\.\w+)` *\|(.*)", line)
        if not row:
            continue
        module = importlib.import_module(row[1])
        for name in re.findall(r"`([A-Z][\w.]*)`", row[2]):
            attrs = name.split(".")
            if hasattr(builtins, attrs[0]) or keyword.iskeyword(attrs[0]):
                continue
            value = module
            for attr in attrs:
                if not hasattr(value, attr):
                    stale.append(f"{row[1]}: {name}")
                    break
                value = getattr(value, attr)
    assert stale == []


def test_readme_tour_results_hold():
    """README's Python tour runs, and every result it documents holds.
    An expression's result is the comment on its line, or else the
    comment lines right below it; it reads as the value's repr, and may
    go on after a colon.  A statement that prints writes exactly the
    comment lines right below it."""
    readme = (ROOT / "README.md").read_text()
    source = readme.split("A quick tour:\n\n```python\n", 1)[1].split("```", 1)[0]
    lines = source.splitlines()
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    comments = {tok.start[0]: tok.string[1:].strip() for tok in tokens if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        below = []
        for lineno in range(node.end_lineno + 1, len(lines) + 1):
            if not lines[lineno - 1].startswith("#"):
                break
            below.append(comments[lineno])
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            if isinstance(node, ast.Expr):
                value = repr(eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace))
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
        if isinstance(node, ast.Expr):
            documented = comments.get(node.end_lineno) or "\n".join(below)
            assert documented == value or documented.startswith(f"{value}:"), (documented, value)
            checked += 1
        elif below or printed.getvalue():
            assert printed.getvalue().splitlines() == below
            checked += 1
    assert checked == 7
