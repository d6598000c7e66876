"""No input-sized path recurses: every tree walk in the package goes through
``ir.fold``'s explicit stack.  A function that calls itself (or one that a
nested function calls back) must be on the allow-list below, with the cap
that bounds its depth."""

import ast
from pathlib import Path

import circuit_energy

PACKAGE = Path(circuit_energy.__file__).resolve().parent

ALLOWED = {
    "bounds.dt_from_patterns.extract":
        "one level per queried variable of the extracted tree: n <= EVAL_CAP",
    "bounds.dt_from_patterns.extract.subtree":
        "one level per variable of the picked gate, within extract's n <= EVAL_CAP",
    "semantics.dt_depth.solve": "one level per variable: n <= DT_CAP",
    "semantics.dt_depth.rebuild": "one level per variable: n <= DT_CAP",
    "verify._all_reduced_trees.trees": "one level per tree level: corpus depth <= 3",
    "verify._all_reduced_trees.predicted": "one level per tree level: corpus depth <= 3",
    "corpus._gen_formula_tree": "one level per split: depth < the leaf budget",
    "corpus._gen_readonce.build": "one level per split: depth < the leaf budget <= n",
    "corpus._gen_dtree.build": "one level per tree level: depth <= min(n, size) <= 19",
    "corpus.generate_nonskew.build": "one level per split: depth < the leaf budget",
    "corpus._balanced": "halves its leaves per level: depth <= log2 of the gate count",
    "ir.copy_subformula": "one nested call: the copy of swap_in swaps nothing",
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_calls(fn):
    """Names called in ``fn``'s body, outside the functions nested in it."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                yield f.id
            elif isinstance(f, ast.Attribute) and getattr(f.value, "id", None) == "self":
                yield f.attr
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def recursive_functions(package: Path = PACKAGE) -> set[str]:
    """Qualified names of the functions of ``package`` that a call reaches
    from their own body or from a function nested in them."""
    found = set()
    for path in sorted(package.glob("*.py")):
        todo = [(ast.parse(path.read_text()), (), ())]  # (node, qualname, enclosing fns)
        while todo:
            node, qual, fns = todo.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    inner = (*qual, child.name)
                    scope = (*fns, inner)
                    called = set(_own_calls(child))
                    found.update(
                        ".".join((path.stem, *q)) for q in scope if q[-1] in called
                    )
                    todo.append((child, inner, scope))
                elif isinstance(child, ast.ClassDef):
                    todo.append((child, (*qual, child.name), ()))
                else:
                    todo.append((child, qual, fns))
    return found


def test_no_recursion_outside_the_capped_allow_list():
    found = recursive_functions()
    assert found - ALLOWED.keys() == set(), "recursive, and not on the allow-list"
    assert ALLOWED.keys() - found == set(), "on the allow-list, but no longer recursive"


def test_the_guard_sees_nested_and_mutual_recursion(tmp_path):
    (tmp_path / "m.py").write_text(
        "def walk(t):\n"
        "    return [walk(c) for c in t]\n"
        "def outer(n):\n"
        "    def inner(k):\n"
        "        return outer(k - 1) if k else inner(k)\n"
        "    return inner(n)\n"
        "class C:\n"
        "    def visit(self, t):\n"
        "        return t and self.visit(t[1:])\n"
        "def fine(t):\n"
        "    return len(t)\n"
    )
    assert recursive_functions(tmp_path) == {
        "m.walk", "m.outer", "m.outer.inner", "m.C.visit",
    }
