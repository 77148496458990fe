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
