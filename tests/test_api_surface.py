"""Structure checks on the package source.

Every name the package exports is used by the package itself.  A name that
only tests call is a second API to keep working; this check keeps such names
from accumulating.  A use is a ``Name`` or ``Attribute`` node in some
``chemobranch`` module, outside the statement that defines the name and
outside ``__init__.py``; docstrings and comments do not count.

No sort in the package orders cells by their word columns: the canonical
cell order is decided once, by ``population.cell_keys``, and every ordering
sorts or searches those keys.

A cell is its (line, word length, word bits) columns and a run's events are
its ``EventColumns``: neither the package nor its tests read the event
records that ``microscopic`` keeps for the benchmark alone.

The particle step has one owner: only ``microscopic.ModelParams`` builds
the rate and drift functions (``build`` of a ``RateSpec`` or
``DriftSpec``) and decides what the rates read (``lambda_arg``,
``reads_field``) and whether there is a drift (``is_zero``); every model
reads them from it.

A point's phases have one source: only ``field.point_phases``, which checks
and wraps the points first, calls ``field._unit_phases``.

The report schema has one builder per row kind: only ``analysis._series``
(``raw`` and ``mean`` rows) and ``analysis._wilson_series`` (``wilson``
rows) build a ``ReportRow``.
"""

import ast
from pathlib import Path

import chemobranch

PACKAGE = Path(chemobranch.__file__).parent
TESTS = Path(__file__).parent


def _exported() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _used() -> set[str]:
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            defined = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != defined:  # recursion is not a caller
                    used.add(name)
    return used


def test_every_export_has_a_caller_in_the_package():
    unused = sorted(set(_exported()) - _used())
    assert unused == [], f"exported but never used inside chemobranch: {unused}"


WORD_COLUMNS = {"wbits", "wlens", "word_bits", "word_lens"}


def test_no_sort_orders_cells_by_their_word_columns():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("lexsort", "argsort")
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "np"):
                continue
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for arg in node.args + [k.value for k in node.keywords]
                     for sub in ast.walk(arg)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if names & WORD_COLUMNS:
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"sorts by word columns instead of cell_keys: {found}"


# read only by the benchmark's span hooks, and defined in ``microscopic``
BENCHMARK_ONLY = {"event_log", "live_counts", "EventRecord"}
RETIRED_ATTRIBUTES = {"event_log", "live_counts", "idx"}
# the deleted identity class, spelled in two parts so that a search of the
# sources for its name finds no use of it
RETIRED_NAMES = {"EventRecord", "Lineage" "Index"}


def _retired_uses(tree, exempt):
    """Line numbers of the retired names in ``tree``, read or defined,
    skipping the definitions named in ``exempt``."""
    found, todo = [], [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            if node.name in exempt:
                continue
            if node.name in BENCHMARK_ONLY | RETIRED_NAMES:
                found.append(node.lineno)
        if (isinstance(node, ast.Attribute)
                and node.attr in RETIRED_ATTRIBUTES | RETIRED_NAMES
                or isinstance(node, ast.Name) and node.id in RETIRED_NAMES
                or isinstance(node, ast.alias)
                and node.name in RETIRED_NAMES):
            found.append(node.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return sorted(found)


def test_nothing_reads_the_benchmark_only_event_records():
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = (BENCHMARK_ONLY if path == PACKAGE / "microscopic.py"
                  else set())
        found += [f"{path.name}:{line}"
                  for line in _retired_uses(tree, exempt)]
    assert found == [], f"reads retired event or cell records: {found}"



# what only ModelParams reads of its rate and drift specs and switches
STEP_ATTRIBUTES = {"build", "lambda_arg", "reads_field", "is_zero"}


def test_only_model_params_owns_the_particle_step():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [ast.parse(path.read_text(encoding="utf-8"))]
        while todo:
            node = todo.pop()
            if (isinstance(node, ast.ClassDef) and node.name == "ModelParams"
                    and path.name == "microscopic.py"):
                continue
            if (isinstance(node, ast.Attribute)
                    and node.attr in STEP_ATTRIBUTES):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            todo.extend(ast.iter_child_nodes(node))
    assert found == [], ("rates, drift or what the rates read decided "
                         f"outside ModelParams: {sorted(found)}")


def test_only_point_phases_computes_phases():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [ast.parse(path.read_text(encoding="utf-8"))]
        while todo:
            node = todo.pop()
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "point_phases"
                    and path.name == "field.py"):
                continue
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                if name == "_unit_phases":
                    found.append(f"{path.name}:{node.lineno}")
            todo.extend(ast.iter_child_nodes(node))
    assert found == [], f"phases computed outside point_phases: {found}"


def test_only_the_series_builders_build_report_rows():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        todo = [ast.parse(path.read_text(encoding="utf-8"))]
        while todo:
            node = todo.pop()
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("_series", "_wilson_series")
                    and path.name == "analysis.py"):
                continue
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                if name == "ReportRow":
                    found.append(f"{path.name}:{node.lineno}")
            todo.extend(ast.iter_child_nodes(node))
    assert found == [], f"ReportRow built outside the series builders: {found}"
