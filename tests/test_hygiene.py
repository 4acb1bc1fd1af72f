"""Tooling checks over the package source: traced bindings, unused imports,
asserts, readers of counts, the modules the command line imports, the
README's budget and library layout tables, and the benchmark records."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

from hadpi import words

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing() -> ModuleType:
    # the benchmark's tracer, loaded by path: hadpibench is not a package
    spec = importlib.util.spec_from_file_location(
        "hadpibench_tracing", ROOT / "hadpibench" / "tracing.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _bindings(tracing):
    for entries in tracing.ENTRY_POINTS.values():
        for span, attr, owners in entries:
            for owner in owners:
                yield span, owner, attr


def test_tracer_patches_every_binding_and_restores_it():
    tracing = _load_tracing()
    missing = [
        f"{owner.__name__}.{attr}"
        for _, owner, attr in _bindings(tracing)
        if attr not in owner.__dict__
    ]
    assert not missing, f"bindings the traced benchmark patches are gone: {missing}"
    # every name a span patches binds one function, so one wrapper counts it
    by_span: dict = {}
    for span, owner, attr in _bindings(tracing):
        by_span.setdefault((span, attr), set()).add(id(owner.__dict__[attr]))
    split = [key for key, fns in by_span.items() if len(fns) > 1]
    assert not split, f"names of one span bind different functions: {split}"

    before = {(owner, attr): owner.__dict__[attr] for _, owner, attr in _bindings(tracing)}
    tracer = tracing.Tracer().install()
    try:
        for (owner, attr), fn in before.items():
            assert owner.__dict__[attr].__wrapped__ is fn
        tracer.run_op(0, lambda: words.word_sem(words.parse_word("n=2 H[1,2]")))
        assert tracer.totals()["words.word_sem"]["calls"] == 1
    finally:
        tracer.uninstall()
    for (owner, attr), fn in before.items():
        assert owner.__dict__[attr] is fn


def _unused_imports(path: Path) -> set[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_unused_imports():
    tracing = _load_tracing()
    # names kept only so that the traced benchmark can patch them
    traced = {
        (owner.__name__.rpartition(".")[2], attr)
        for _, owner, attr in _bindings(tracing)
        if isinstance(owner, ModuleType)
    }
    unused = sorted(
        (path.stem, name)
        for path in (ROOT / "src" / "hadpi").glob("*.py")
        for name in _unused_imports(path)
        if (path.stem, name) not in traced
    )
    assert not unused


def test_no_assert_in_the_package():
    # python -O strips asserts, so a check a caller can trip must raise, and
    # an invariant its callers hold is stated in a comment
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted((ROOT / "src" / "hadpi").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"asserts in the package: {found}"


def _int_calls(path: Path) -> list[str]:
    """module.function:line of each int(...) call, named by its innermost
    enclosing function."""
    out = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "int"
        ):
            out.append(f"{path.stem}.{fn}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(path.read_text()), None)
    return out


def test_only_words_names_run():
    # words._run's output is read only in words (program_matrix, program_form)
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted((ROOT / "src" / "hadpi").glob("*.py"))
        if path.stem != "words"
        for node in ast.walk(ast.parse(path.read_text()))
        if "_run" in (getattr(node, attr, None) for attr in ("id", "attr", "name"))
    ]
    assert not found, f"_run named outside words: {found}"


def test_counts_are_read_by_one_reader():
    # int() also takes a sign, underscores, spaces and other scripts' digits,
    # so every count goes through ring.parse_natural; signed ring entries and
    # the capped power of a term read their own digits
    readers = {"ring.parse_natural", "ring.parse_ringint", "lang._parse"}
    paths = sorted((ROOT / "src" / "hadpi").glob("*.py"))
    found = [c for path in paths for c in _int_calls(path) if c.partition(":")[0] not in readers]
    assert not found, f"int() outside the readers of counts: {found}"


def test_cli_import_leaves_out_slow_modules():
    # every hadpi call pays for the imports of hadpi.cli; -S keeps site, which
    # may load pathlib itself, out of the count
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, hadpi.cli; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert "hadpi.cli" in proc.stdout.split()
    assert not {"dataclasses", "inspect", "pathlib"} & set(proc.stdout.split())


def _budget_rows() -> list[tuple[str, str, str]]:
    """(module, constant, value cell) of each row of the README's budget table
    that names a constant."""
    rows = []
    for line in (ROOT / "README.md").read_text().splitlines():
        m = re.match(r"\| `(\w+)\.(MAX_\w+)` \| ([^|]*)\|", line)
        if m:
            rows.append((m[1], m[2], m[3].strip()))
    return rows


def test_readme_budget_table_matches_the_code():
    # each row states its constant's value, and each constant has a row
    rows = _budget_rows()
    for module, name, cell in rows:
        stated = re.match(r"[\d,]+", cell)
        assert stated, f"{module}.{name}: no value in {cell!r}"
        actual = getattr(importlib.import_module(f"hadpi.{module}"), name, None)
        assert actual == int(stated[0].replace(",", "")), f"{module}.{name} is {actual}"
    defined = set()
    for path in (ROOT / "src" / "hadpi").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined.update(
                (path.stem, t.id) for t in targets
                if isinstance(t, ast.Name) and t.id.startswith("MAX_")
            )
    assert defined == {(module, name) for module, name, _ in rows}


def test_readme_library_layout_names_every_module():
    text = (ROOT / "README.md").read_text()
    table = text.split("## Library layout", 1)[1]
    rows = set(re.findall(r"^\| `hadpi\.(\w+)`", table, re.MULTILINE))
    modules = {p.stem for p in (ROOT / "src" / "hadpi").glob("*.py")} - {"__init__"}
    assert modules <= rows, f"modules with no row in the library layout: {modules - rows}"


def _self_recursive(path: Path) -> list[str]:
    """module.function of each function that calls itself by name, as f(...)
    or self.f(...); a nested function is named by those around it."""
    out = []

    def visit(node, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = [*names, child.name]
                called = set()
                for call in ast.walk(child):
                    f = getattr(call, "func", None) if isinstance(call, ast.Call) else None
                    if isinstance(f, ast.Name):
                        called.add(f.id)
                    elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
                        called.add(f.attr)
                if child.name in called:
                    out.append(".".join([path.stem, *qual]))
                visit(child, qual)
            elif isinstance(child, ast.ClassDef):
                visit(child, [*names, child.name])
            else:
                visit(child, names)

    visit(ast.parse(path.read_text()), [])
    return out


def _mutually_recursive(path: Path) -> list[list[str]]:
    """The sets of two or more module-level names of path that reach each
    other: an edge runs from each module-level function, method or assigned
    name to each module-level function or assigned name that it names,
    called or passed as an argument."""
    bodies = {}  # a method is named Class.method, which no name in the code reads
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ClassDef):
            bodies.update((f"{node.name}.{f.name}", f) for f in node.body if isinstance(f, ast.FunctionDef))
        elif isinstance(node, ast.FunctionDef):
            bodies[node.name] = node
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            bodies[node.targets[0].id] = node.value
    edges = {
        f: {n.id for n in ast.walk(body) if isinstance(n, ast.Name) and n.id in bodies} - {f}
        for f, body in bodies.items()
    }
    reach = {}  # f -> every name that f reaches along the edges
    for f in edges:
        seen, todo = set(), [f]
        while todo:
            new = edges[todo.pop()] - seen
            seen |= new
            todo += new
        reach[f] = seen
    cycles = {frozenset({f} | {g for g in reach[f] if f in reach[g]}) for f in edges}
    return sorted(sorted(f"{path.stem}.{g}" for g in c) for c in cycles if len(c) > 1)


def test_only_type_directed_code_recurses():
    # a term may nest past the recursion limit (t_q nests one sum of terms
    # per coordinate), so no reading, walk, fold or printing of a term
    # recurses; what recurses follows a type or pattern, bounded through
    # MAX_NESTING
    allowed = {
        "lang._infer", "lang._equate", "lang._holds",
        "lang._resolve", "lang._instance", "lang._text_length", "lang._chars",
        "lang._compile.visit", "lang._compile.build",
    }
    paths = sorted((ROOT / "src" / "hadpi").glob("*.py"))
    found = {f for path in paths for f in _self_recursive(path)}
    assert found <= allowed, f"functions that recurse: {sorted(found - allowed)}"
    assert found == allowed, f"allowed but no longer recursive: {sorted(allowed - found)}"
    # nor do functions that reach each other, as a parser's helpers might
    mutual = [c for path in paths for c in _mutually_recursive(path)]
    assert not mutual, f"functions that reach each other: {mutual}"


def test_every_bench_record_holds_each_side_and_metric():
    # each BENCH_<pr>.json at the root records, for every workload it ran,
    # the parent's and the change's run line with every end-to-end metric
    # that BENCHMARK.json declares
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        workloads = json.loads(path.read_text())["workloads"]
        assert workloads, path.name
        for workload, sides in workloads.items():
            for side in ("parent", "change"):
                record = sides[side]
                where = f"{path.name} {workload} {side}"
                assert isinstance(record["correct"], bool), where
                assert isinstance(record["failed"], int), where
                missing = [m for m in names if "value" not in record["metrics"].get(m, {})]
                assert not missing, f"{where} lacks {missing}"
