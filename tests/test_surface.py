"""Pin the number of settable values and of source lines in romlab, and
the layering of its sweep kernels.

A settable value is a function parameter with a default or a dataclass
field with a default: each is a knob that callers can turn and that tests
and benchmarks must cover.  A change that adds or removes one updates
SETTABLE_VALUES in the same diff.  SOURCE_LINES is the line count of
src/romlab/*.py (the total of ``wc -l``), tracked like a benchmark; a change
that moves it updates SOURCE_LINES in the same diff.  The private kernels
of sweep.py are for solver.py alone; every other module sweeps through the
public batched calls.  experiments.STUDIES is the one table of study kinds,
so the CLI imports no study function.
"""
import ast
from pathlib import Path

import romlab

SETTABLE_VALUES = 14
SOURCE_LINES = 2293


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_settable_values(package_dir: Path) -> int:
    """Defaulted parameters of every function plus defaulted dataclass fields."""
    count = 0
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(
                    isinstance(stmt, ast.AnnAssign) and stmt.value is not None
                    for stmt in node.body
                )
    return count


def test_settable_value_count_is_pinned():
    count = count_settable_values(Path(romlab.__file__).parent)
    assert count == SETTABLE_VALUES, (
        f"src/romlab has {count} settable values, pinned at {SETTABLE_VALUES}. "
        "Count = defaulted parameters (args.defaults plus non-None kw_defaults of "
        "every def and lambda) + dataclass fields with a default value, over "
        "src/romlab/*.py by AST. If the change adds or removes a knob on purpose, "
        "update SETTABLE_VALUES in this file in the same diff."
    )


def test_source_line_count_is_pinned():
    package_dir = Path(romlab.__file__).parent
    count = sum(path.read_bytes().count(b"\n") for path in package_dir.glob("*.py"))
    assert count == SOURCE_LINES, (
        f"src/romlab has {count} lines, pinned at {SOURCE_LINES}. "
        "Count = the total of `wc -l src/romlab/*.py`. If the change adds or "
        "removes lines on purpose, update SOURCE_LINES in this file in the same diff."
    )


def test_only_the_solver_imports_sweep_privates():
    package_dir = Path(romlab.__file__).parent
    found = []
    for path in sorted(package_dir.glob("*.py")):
        if path.name in ("sweep.py", "solver.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in ("sweep", "romlab.sweep"):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert not found, f"modules other than solver.py import sweep privates: {found}"


def test_cli_imports_no_study_function():
    cli_path = Path(romlab.__file__).parent / "cli.py"
    found = [
        alias.name
        for node in ast.walk(ast.parse(cli_path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("experiments", "romlab.experiments")
        for alias in node.names
        if alias.name.endswith("_study")
    ]
    assert not found, f"cli.py imports study functions {found}; call them through experiments.STUDIES"
