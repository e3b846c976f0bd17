"""Pin the number of settable values and of source lines in romlab, the
layering of its sweep kernels, and that every public name has a reader.

A settable value is a function parameter with a default or a dataclass
field with a default: each is a knob that callers can turn and that tests
and benchmarks must cover.  A change that adds or removes one updates
SETTABLE_VALUES in the same diff.  SOURCE_LINES is the line count of
src/romlab/*.py (the total of ``wc -l``), tracked like a benchmark; a change
that moves it updates SOURCE_LINES in the same diff.  The private kernels
of sweep.py are for solver.py alone; every other module sweeps through the
public batched calls.  operators.py assembles every transport and iteration
matrix through one call of averaged_response_matrix, so that assembly and
its lambda > 0 check cannot fork.  experiments.STUDIES is the one table of
study kinds, so the CLI imports no study function.  The benchmark's tracer
(perfbench/tracing.py) reads SolveReport.iterations and the rows of a bias
table, so a traced bias and regularization run still records those, and
its rom_sample count still means one draw per antithetic pair.

Every public function, class, method and property defined in
src/romlab/*.py (__init__.py aside, whose re-exports read nothing) is read
somewhere in src/romlab outside its own definition, or is listed in
UNREAD_PUBLIC_NAMES with the reason it stays: code that no caller needs is
deleted, not kept for the tests alone.  A function or class is read by a
loaded name or attribute of its name; a method or property only by a loaded
attribute of its name, since a local of that name is another binding.  So
the check is by name, not by binding.
"""
import ast
import importlib.util
from collections import Counter
from pathlib import Path

import romlab
import romlab.cli  # noqa: F401  (the tracer wraps cli.main, so the module must be loaded)
from romlab import experiments
from conftest import small_config

SETTABLE_VALUES = 12
SOURCE_LINES = 2349

# Public names that nothing in src/romlab reads, each with the reason it stays.
UNREAD_PUBLIC_NAMES = {
    "apply_transport": "the paper's single-direction scattering response, the tests' scalar oracle",
    "boundary_term": "the paper's single-direction boundary response, the tests' scalar oracle",
    "angular_fluxes": "the per-ordinate fluxes of a solve, the tests' single-direction oracle",
    "gram_trace": "acceptance criteria 2 and 3 read it",
    "SpatialGrid.x_left": "acceptance criterion 3 reads it",
    "SpatialGrid.x_right": "acceptance criterion 3 reads it",
    "weighted_adjoint": "acceptance criteria 2 and 3 read it",
    "uniform_stream": "the stream's statistical tests read it; moving it into the tests was rejected",
    "transmission_averages": "perfbench/tracing.py binds it; delete it at the next benchmark refresh",
}


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


def test_operators_assemble_transport_once():
    tree = ast.parse((Path(romlab.__file__).parent / "operators.py").read_text())
    calls = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "averaged_response_matrix"
    ]
    assert len(calls) == 1, f"operators.py calls averaged_response_matrix at lines {calls}; keep one"


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


def test_tracer_reads_bias_and_regularization_studies():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    config = small_config(ncells=8, n_list=(4, 8), sample_count=4, delta_list=(0.2,))
    with tracing.Tracer() as tracer:
        for kind in ("bias", "regularization"):
            experiments.STUDIES[kind].run(config, 1)
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["experiments.bias_study.drawn"] > 0
    assert metrics["experiments.regularization_study.calls"] == 1
    # a call solves a block of quadratures: every drawn sample is one linear solve
    assert metrics["solver.solve.rom.iterations"] == metrics["experiments.bias_study.drawn"]
    # rom_pair_block draws once per antithetic pair, so the draw count means pairs
    assert metrics["angular.rom_sample.calls"] == metrics["experiments.bias_study.drawn"] / 2


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level def and class, and of
    each public method and property of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _reads(tree: ast.AST, kinds: tuple) -> Counter:
    """How often each name is loaded under ``tree`` by a node of one of ``kinds``."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, kinds) and isinstance(node.ctx, ast.Load)
    )


def test_every_public_name_has_a_reader():
    package_dir = Path(romlab.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package_dir.glob("*.py"))
             if path.name != "__init__.py"]
    name_or_attribute, attribute = (ast.Name, ast.Attribute), (ast.Attribute,)
    reads = {kinds: sum((_reads(tree, kinds) for tree in trees), Counter())
             for kinds in (name_or_attribute, attribute)}
    unread = set()
    for tree in trees:
        for qualname, node in _public_definitions(tree):
            # a method or property is read only as an attribute: a local of its name is another binding
            kinds = attribute if "." in qualname else name_or_attribute
            if reads[kinds][node.name] == _reads(node, kinds)[node.name]:  # read only in its own definition
                unread.add(qualname)
    allowed = set(UNREAD_PUBLIC_NAMES)
    assert unread == allowed, (
        f"public names with no reader in src/romlab: {sorted(unread - allowed)}; "
        f"listed in UNREAD_PUBLIC_NAMES but read now: {sorted(allowed - unread)}. "
        "Delete what no caller needs, or list it with the reason it stays."
    )
