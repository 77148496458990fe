"""Structure checks on the package source.

Every name the package exports is used by the package itself.  A name that
only tests call is a second API to keep working; this check keeps such names
from accumulating.  A use is a ``Name`` or ``Attribute`` node in some
``chemobranch`` module, outside the statement that defines the name and
outside ``__init__.py``; docstrings and comments do not count.

No sort in the package orders cells by their word columns: the canonical
cell order is decided once, by ``population.cell_keys``, and every ordering
sorts or searches those keys.
"""

import ast
from pathlib import Path

import chemobranch

PACKAGE = Path(chemobranch.__file__).parent


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
