"""The closed-form and oracle routes share no intermediate value with the
Kraus route, checked on the source.

The closed route may not name a Kraus operator or the measures module
anywhere in closedform.py. The oracle functions, and every function of
measures.py they call, may not name the exchange matrix or the batched
Kraus route.
"""

import ast
from pathlib import Path

import pytest

from paulinoise import closedform, measures

KRAUS_NAMES = {"kraus", "ops", "KrausChannel", "make_one_pauli", "measures"}
EXCHANGE_NAMES = {"_w_entries", "_kraus_contraction", "w_matrix", "report_batch"}
ORACLE_ROOTS = ("environment_entropy_oracle", "environment_entropy_oracle_batch")


def _tree(module) -> ast.Module:
    return ast.parse(Path(module.__file__).read_text(encoding="utf-8"))


def _names(node: ast.AST) -> set[str]:
    """Every identifier the code under node reads, binds, imports or takes
    as a parameter, attributes included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.arg):
            names.add(sub.arg)
        elif isinstance(sub, ast.alias):
            names.update(filter(None, (sub.name, sub.asname)))
        elif isinstance(sub, ast.ImportFrom) and sub.module:
            names.update(sub.module.split("."))
    return names


def forbidden_names(tree: ast.Module, forbidden: set[str], roots=None) -> set[str]:
    """The forbidden names the module uses; with roots, only those used by
    the root functions and the module functions they reach."""
    if roots is None:
        return _names(tree) & forbidden
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    used, seen, todo = set(), set(), list(roots)
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        names = _names(functions[name])
        used |= names
        todo.extend(names & functions.keys())
    return used & forbidden


def test_closed_route_names_no_kraus_quantity():
    assert forbidden_names(_tree(closedform), KRAUS_NAMES) == set()


def test_oracle_names_no_exchange_matrix():
    assert forbidden_names(_tree(measures), EXCHANGE_NAMES, ORACLE_ROOTS) == set()


def _plant(tree: ast.Module, function: str | None, statement: str) -> ast.Module:
    """tree with statement appended to the module or to one function."""
    body = tree.body
    if function is not None:
        body = next(
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == function
        ).body
    body.append(ast.parse(statement).body[0])
    return tree


@pytest.mark.parametrize(
    "module, function, statement, forbidden, roots, found",
    [
        (closedform, "closed_batch", "from .channels import make_one_pauli",
         KRAUS_NAMES, None, {"make_one_pauli"}),
        # reached from the scalar oracle only through the call to its batch kernel
        (measures, "environment_entropy_oracle_batch", "_kraus_contraction(kraus, rhos)",
         EXCHANGE_NAMES, ("environment_entropy_oracle",), {"_kraus_contraction"}),
    ],
    ids=["closed-route", "oracle"],
)
def test_checker_finds_planted_violation(module, function, statement, forbidden,
                                         roots, found):
    tree = _plant(_tree(module), function, statement)
    assert forbidden_names(tree, forbidden, roots) == found
