"""No dead definitions: every function and class under ``src/ccdlab`` is
named somewhere else in the package, in code, a string or a docstring.
Dunder methods are called by Python itself and are exempt. A definition
kept for planned work is allowlisted here with its reason; the allowlist
must be exactly the hits, so an entry goes once its definition is named."""

import ast
import re
from collections import Counter
from pathlib import Path

import ccdlab

PACKAGE = Path(ccdlab.__file__).parent

# qualified names that stay although nothing else in the package names them
ALLOWED = {
    # the exact population gradient of the streaming quadratic, which the
    # exact population diagnostics of ROADMAP item 10 read
    "StreamingQuadratic.population_grad",
}


def _definitions(tree):
    """(qualified name, name) of every function and class in the module."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualified = f"{prefix}{child.name}"
                yield qualified, child.name
                yield from walk(child, qualified + ".")
            else:
                yield from walk(child, prefix)

    return walk(tree, "")


def test_every_definition_is_named_elsewhere_in_the_package():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))]
    words = Counter(re.findall(r"\w+", "\n".join(sources)))
    found = sorted(
        qualified
        for source in sources
        for qualified, name in _definitions(ast.parse(source))
        if not (name.startswith("__") and name.endswith("__")) and words[name] <= 1
    )
    assert found == sorted(ALLOWED)
