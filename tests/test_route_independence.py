"""The closed-form and oracle routes share no intermediate value with the
Kraus route, checked on the source.

The closed route may not name a Kraus operator or the measures module
anywhere in closedform.py. The oracle functions, and every function of
measures.py they call, may not name the exchange matrix or the batched
Kraus route. What each of the two routes names of the modules all three
share (linalg, bloch, channels) is pinned to a written allowlist.
"""

import ast
from pathlib import Path

import pytest

from paulinoise import bloch, channels, closedform, linalg, measures

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


def _defined(module) -> set[str]:
    """The names module binds at its top level: functions, classes and
    assigned constants, not the names it imports."""
    names = set()
    for node in _tree(module).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= set().union(*map(_names, node.targets))
    return names


SHARED_NAMES = _defined(linalg) | _defined(bloch) | _defined(channels)

# The independence rule: which shared primitives an independent route may
# name. A guard or product (a validator, a record type, an input the route
# reads) hides nothing. A shared formula computes part of the result the
# same way on both sides, so a digit it loses is lost by every route alike
# and no residual shows it. Changing what a route shares means editing
# this list on purpose.
GUARD_OR_PRODUCT, SHARED_FORMULA = "guard or product", "shared formula"
ALLOWED_SHARED = {
    "closed": {
        "PauliAxis": GUARD_OR_PRODUCT,
        "as_axis": GUARD_OR_PRODUCT,
        "check_retention": GUARD_OR_PRODUCT,
        "BlochVector": GUARD_OR_PRODUCT,
        "check_bloch": GUARD_OR_PRODUCT,
        "SpectrumPair": GUARD_OR_PRODUCT,
        # (t - sqrt(r))/2 with r ~ 1 near x = 0 or 1 and for pure outputs:
        # the cancelling split every route takes, which hides the edge errors
        "split_spectrum": SHARED_FORMULA,
        "_entropy": SHARED_FORMULA,
    },
    "oracle": {
        "KrausChannel": GUARD_OR_PRODUCT,
        "_checked_density": GUARD_OR_PRODUCT,
        "_vdot": SHARED_FORMULA,
        # split_spectrum's split, on the environment state
        "_eigenvalues": SHARED_FORMULA,
        "_entropy": SHARED_FORMULA,
    },
}
ROUTES = {"closed": (closedform, None), "oracle": (measures, ORACLE_ROOTS)}


@pytest.mark.parametrize("route", ROUTES)
def test_route_shares_only_the_allowed_primitives(route):
    module, roots = ROUTES[route]
    assert forbidden_names(_tree(module), SHARED_NAMES, roots) == ALLOWED_SHARED[route].keys()


def test_allowlist_check_finds_a_new_shared_primitive():
    tree = _plant(_tree(closedform), "closed_batch", "hermitian_eigenvalues_2x2(m)")
    found = forbidden_names(tree, SHARED_NAMES)
    assert found - ALLOWED_SHARED["closed"].keys() == {"hermitian_eigenvalues_2x2"}


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
