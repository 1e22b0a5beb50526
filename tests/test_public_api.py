"""No public name or parameter that only tests use.

Every public module-level function, class and constant, and every public
method and property of a public class, in `src/spdsim/*.py` must be
referenced in `src/spdsim/`, `README.md` or `perfbench/` (its test file
aside) outside its own definition. Definitions come from the AST, and a
reference is a whole-word match of the name. The word match cannot tell two
meanings of one name apart: a property named like a parameter or a key
counts as referenced wherever the parameter or the key is. So a
`conservation_error` property on `OpticalResponse` would pass unseen,
because `absorption_map` takes a `conservation_error=` argument.

Every defaulted parameter of a public function or public method must be
passed by some call in `src/spdsim/`, `perfbench/` (its test files aside)
or a `python` block of `README.md`. Calls come from the AST and match by
the callee's last name, so a call to another function of the same name
counts too.
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


def public_functions():
    """(file, function node, parameters a call leaves implicit) of each public
    module-level function and each public method of a public class: 1 for the
    `self` or `cls` of a method that is not static, else 0."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield path, node, 0
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        yield path, item, 0 if static else 1


def defaulted_parameters(function, bound):
    """(name, position or None) of each parameter with a default; the position
    counts from the first argument a call gives, and is None for a
    keyword-only parameter."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], start=first):
        yield arg.arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def calls_outside_the_tests():
    """Every call in `src/spdsim/`, `perfbench/` (its test files aside) and
    the README's `python` blocks."""
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    texts = [path.read_text(encoding="utf-8") for path in paths
             if not path.name.startswith("test_")]
    texts += re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    for text in texts:
        yield from (node for node in ast.walk(ast.parse(text)) if isinstance(node, ast.Call))


def _callee(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """A default that no caller overrides is a constant, or an extension point
    only tests use. A call passes a parameter by keyword or by position, and a
    `*` or `**` argument passes every one; calls match by the callee's last name."""
    calls = {}
    for call in calls_outside_the_tests():
        calls.setdefault(_callee(call), []).append(call)

    def passed(call, name, position):
        if any(isinstance(a, ast.Starred) for a in call.args) or any(
                k.arg in (None, name) for k in call.keywords):
            return True
        return position is not None and len(call.args) > position

    unpassed = [f"{path.name}: {function.name}({name}=)"
                for path, function, bound in public_functions()
                for name, position in defaulted_parameters(function, bound)
                if not any(passed(call, name, position) for call in calls.get(function.name, []))]
    assert not unpassed, f"defaulted parameters that only tests pass: {unpassed}"
