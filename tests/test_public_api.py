"""No public name that only tests use.

Every public module-level function, class and constant, and every public
method and property of a public class, in `src/spdsim/*.py` must be
referenced in `src/spdsim/`, `README.md` or `perfbench/` (its test file
aside) outside its own definition. Definitions come from the AST, and a
reference is a whole-word match of the name. The word match cannot tell two
meanings of one name apart: a property named like a parameter or a key
counts as referenced wherever the parameter or the key is. So a
`conservation_error` property on `OpticalResponse` would pass unseen,
because `absorption_map` takes a `conservation_error=` argument.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spdsim"


def public_definitions():
    """(file, name, first line, last line) of each public definition, the
    lines covering its decorators and body."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, node.name, _first_line(node), node.end_lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield path, target.id, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield path, item.name, _first_line(item), item.end_lineno


def _first_line(node):
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for path in [*sorted(PACKAGE.glob("*.py")), ROOT / "README.md",
                            *sorted((ROOT / "perfbench").glob("*.py")),
                            *sorted((ROOT / "perfbench").glob("*.md"))]
               if not path.name.startswith("test_")}
    unused = []
    for path, name, first, last in public_definitions():
        if name.startswith("_"):
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(line)
                   for source, lines in sources.items()
                   for n, line in enumerate(lines, start=1)
                   if not (source == path and first <= n <= last)):
            unused.append(f"{path.name}: {name}")
    assert not unused, f"public names that only tests use: {unused}"
