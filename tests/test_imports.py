import ast
import pathlib

import qkoorn

PACKAGE = pathlib.Path(qkoorn.__file__).parent


def unused_imports(source):
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import gcd, pi\n"
                          "print(pi)\n") == [(1, "os"), (2, "gcd")]


def test_no_unused_imports():
    # the package __init__ imports only to re-export
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"}
    assert {name: got for name, got in found.items() if got} == {}


def unused_parameters(source):
    """(line, function, parameter) for each parameter that its function,
    nested functions included, never reads; ``self``, ``cls`` and names
    starting with an underscore are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        read = {sub.id for stmt in node.body for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)}
        out += [(node.lineno, node.name, a.arg) for a in params
                if a.arg not in read and a.arg not in ("self", "cls")
                and not a.arg.startswith("_")]
    return sorted(out)


def test_unused_parameters_are_found():
    source = ("def f(a, b, _c, *rest, key=1):\n    return a + key\n\n"
              "class K:\n    def m(self, x, y):\n        return y\n\n"
              "    @classmethod\n    def c(cls, z):\n"
              "        def inner():\n            return z\n"
              "        return inner\n")
    assert unused_parameters(source) == [(1, "f", "b"), (1, "f", "rest"),
                                         (5, "m", "x")]


def test_no_unused_parameters():
    found = {path.name: unused_parameters(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: got for name, got in found.items() if got} == {}


def defined_names(source):
    """(qualified name, name) of every module-level function and of every
    method of a module-level class."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, node.name))
        elif isinstance(node, ast.ClassDef):
            out += [("%s.%s" % (node.name, item.name), item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)]
    return out


def referenced_names(source):
    """Every name a module reads or imports and every attribute it reads."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def dead_names(defining, sources):
    """Qualified names defined in the ``defining`` sources that no source
    refers to by name; dunder methods are called by the language."""
    used = set().union(*map(referenced_names, sources))
    return sorted(qual for source in defining
                  for qual, name in defined_names(source)
                  if name not in used
                  and not (name.startswith("__") and name.endswith("__")))


def test_dead_names_are_found():
    source = ("def used():\n    pass\n\ndef unused():\n    pass\n\n"
              "class K:\n    def m(self):\n        pass\n\n"
              "    def __repr__(self):\n        return ''\n\nused()\n")
    assert dead_names([source], [source]) == ["K.m", "unused"]


def test_every_definition_is_referenced():
    # a function or method that nothing in the package, its tests or the
    # benchmark names is dead code
    root = PACKAGE.parents[1]
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    others = [path.read_text() for folder in ("tests", "qkbench")
              for path in sorted((root / folder).glob("*.py"))]
    assert dead_names(package, package + others) == []
