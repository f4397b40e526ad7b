"""No library function calls itself: on a scenario tree the depth of a
recursion would follow the tree's, and a deep tree would end in
RecursionError.  The scan reads the source of src/stochbellman."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "stochbellman"

# enumerate_stopping_times refuses a tree of more than 63 nodes before its
# generators run, so their depth is bounded
ALLOWED = {"stopping.py:enumerate_stopping_times.antichains",
           "stopping.py:enumerate_stopping_times.antichains.product"}


def _calls(func, name):
    """Whether a call's func is `name` or `self.name`."""
    if isinstance(func, ast.Name):
        return func.id == name
    return (isinstance(func, ast.Attribute) and func.attr == name
            and isinstance(func.value, ast.Name) and func.value.id == "self")


def _self_calls(path):
    """file:qualified name of each function of path whose body, nested
    functions included, calls it by its name or as self.<name>."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if any(isinstance(sub, ast.Call) and _calls(sub.func, child.name)
                       for sub in ast.walk(child)):
                    found.add(f"{path.name}:{name}")
                visit(child, name + ".")
            else:
                visit(child, prefix + child.name + "." if isinstance(child, ast.ClassDef)
                      else prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def test_no_library_function_calls_itself():
    found = set().union(*(_self_calls(path) for path in sorted(SRC.glob("*.py"))))
    assert ALLOWED <= found  # the scan sees the bounded recursion it allows
    assert not found - ALLOWED, sorted(found - ALLOWED)
