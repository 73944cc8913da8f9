"""Each input rule has one definition, checked on the source.

The integer rule (numbers.Integral but not a bool, then operator.index) lives
in channels.as_count, and the real-number rule (numbers.Real but not a bool)
in linalg.as_real, which raises ValidationError with its caller's rule. No
other function of the package names those ABCs or operator.index, and none
catches TypeError around an as_real call to word its error again.
"""

import ast
from pathlib import Path

import pytest
from test_route_independence import _plant

import paulinoise

MODULES = sorted(Path(paulinoise.__file__).parent.glob("*.py"))

# The one function allowed to catch TypeError around as_real: its handler
# also turns the unpacking errors of a non-3-sequence into its one message,
# "not a real 3-vector: ...".
CATCHES_AROUND_AS_REAL = {"bloch.check_bloch"}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}


def _innermost_owners(trees: dict[str, ast.Module], matches) -> set[str]:
    """module.function of the innermost function holding each node that
    matches (the module's name outside any function), methods included."""
    owners = set()

    def visit(node, module, owner):
        if matches(node):
            owners.add(owner)
        for child in ast.iter_child_nodes(node):
            function = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, f"{module}.{child.name}" if function else owner)

    for module, tree in trees.items():
        visit(tree, module, module)
    return owners


def _names(name: str):
    return lambda node: isinstance(node, ast.Name) and node.id == name


def _operator_index(node) -> bool:
    return (
        isinstance(node, ast.Attribute) and node.attr == "index"
        and isinstance(node.value, ast.Name) and node.value.id == "operator"
    )


def _catches_type_error(handler: ast.ExceptHandler) -> bool:
    return handler.type is None or any(
        isinstance(sub, ast.Name) and sub.id in {"TypeError", "Exception", "BaseException"}
        for sub in ast.walk(handler.type)
    )


def _calls_as_real(statements) -> bool:
    return any(
        isinstance(sub, ast.Call) and _names("as_real")(sub.func)
        for statement in statements for sub in ast.walk(statement)
    )


def _catches_around_as_real(node) -> bool:
    """A try whose body calls as_real and one of whose handlers catches TypeError."""
    return (
        isinstance(node, ast.Try) and _calls_as_real(node.body)
        and any(map(_catches_type_error, node.handlers))
    )


RULES = {
    "Integral": (_names("Integral"), {"channels.as_count"}),
    "operator.index": (_operator_index, {"channels.as_count"}),
    "Real": (_names("Real"), {"linalg.as_real"}),
}


@pytest.mark.parametrize("rule", RULES)
def test_each_rule_is_named_in_one_function(rule):
    matches, owners = RULES[rule]
    assert _innermost_owners(_trees(), matches) == owners


def test_no_function_rewords_as_real_through_type_error():
    assert _innermost_owners(_trees(), _catches_around_as_real) == CATCHES_AROUND_AS_REAL


def test_rule_check_finds_a_second_integer_rule():
    trees = _trees()
    _plant(trees["channels"], "as_axis", "isinstance(value, Integral)")
    assert _innermost_owners(trees, RULES["Integral"][0]) == {
        "channels.as_count", "channels.as_axis"
    }


def test_rule_check_finds_a_rewording_handler():
    trees = _trees()
    source = "try:\n    x = as_real(x, 'rule')\nexcept TypeError:\n    raise"
    _plant(trees["channels"], "check_retention", source)
    found = _innermost_owners(trees, _catches_around_as_real)
    assert found == CATCHES_AROUND_AS_REAL | {"channels.check_retention"}
