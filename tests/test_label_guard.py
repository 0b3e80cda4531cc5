"""No policy names a group.  What is too big to run by default is decided by
size, in the module that owns each computation (the enumeration budget,
`b_poly_is_heavy`, `mm_exact_is_heavy`, the predicted-error gate), never by
a type label.  So the only labels spelled out in the package source are the
suite's default groups."""

import ast
import re
from pathlib import Path

import coxdunkl
from coxdunkl.suite import DEFAULT_GROUPS

LABEL = re.compile(r"^[ABDEFH]\d+$|^I2\(\d+\)$")


def test_only_the_default_groups_are_named():
    named = []
    for path in sorted(Path(coxdunkl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and LABEL.match(node.value)):
                named.append((path.name, node.lineno, node.value))
    assert sorted(v for _, _, v in named) == sorted(DEFAULT_GROUPS), named
