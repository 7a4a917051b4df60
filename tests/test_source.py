import ast
import pathlib

import elicit

PACKAGE = pathlib.Path(elicit.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert statements, so a check the program relies on
    # must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/elicit: {found}"
