"""No test-only names in the package: every top-level function and class is used by src itself."""

import ast
from pathlib import Path

import rclab

SRC = Path(rclab.__file__).resolve().parent

# oracles the package documents and keeps for checking, not for its own use
DOCUMENTED_ORACLES = {"block_states", "theorem1_error", "p2_objective_numerical", "lemma1_error"}


def _definitions_and_uses():
    """``{(module, name)}`` of every top-level def, and ``{name: {(module, owner)}}`` of every use.

    A use is a ``Name``, an ``Attribute`` or an imported name; ``owner`` is
    the top-level definition it sits in, or None at module level.
    """
    defined, used = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add((path.stem, top.name))
                owner = top.name
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                for name in names:
                    used.setdefault(name, set()).add((path.stem, owner))
    return defined, used


def test_every_top_level_name_is_used_in_src():
    defined, used = _definitions_and_uses()
    unused = sorted(
        f"{module}.{name}" for module, name in defined
        if name not in DOCUMENTED_ORACLES and not used.get(name, set()) - {(module, name)}
    )
    assert unused == []


def test_documented_oracles_exist():
    defined, _ = _definitions_and_uses()
    assert DOCUMENTED_ORACLES <= {name for _, name in defined}
