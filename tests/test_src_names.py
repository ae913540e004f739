"""No test-only names in the package: every top-level function and class is used by src
itself, every dataclass field is read there, and every exception class is caught there."""

import ast
import builtins
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


def _unused_names():
    """``{name}`` of every top-level definition that src uses nowhere outside its own body."""
    defined, used = _definitions_and_uses()
    return {name for module, name in defined if not used.get(name, set()) - {(module, name)}}


def test_every_top_level_name_is_used_in_src():
    assert sorted(_unused_names() - DOCUMENTED_ORACLES) == []


def test_documented_oracles_are_still_unused():
    # an oracle that src comes to use is a path, and leaves the exemptions
    assert sorted(DOCUMENTED_ORACLES - _unused_names()) == []


def test_documented_oracles_exist():
    defined, _ = _definitions_and_uses()
    assert DOCUMENTED_ORACLES <= {name for _, name in defined}


def test_no_module_imports_another_modules_private_name():
    # a name one module needs from another is part of that module's interface
    crossing = sorted(
        f"{path.stem} imports {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rclab"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )
    assert crossing == []


def _is_dataclass(decorator) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)) == "dataclass"


def _fields_and_reads():
    """``{(class, field)}`` of every dataclass field, and every attribute name src loads."""
    fields, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields |= {(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)}
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return fields, read


def _unread_fields():
    """``{class.field}`` of every dataclass field that src never loads.

    Matched by name, like the checks above: a field counts as read wherever
    src loads an attribute of its name.
    """
    fields, read = _fields_and_reads()
    return {f"{cls}.{name}" for cls, name in fields if name not in read}


def test_every_dataclass_field_is_read_in_src():
    assert sorted(_unread_fields()) == []


# optional parameters kept for callers outside src: the CLI's argument list
DOCUMENTED_PARAMETERS = {"bench_cli.main.argv"}


def _optional_parameters():
    """``{(module.function.parameter, function, position)}`` of every optional parameter.

    Covers top-level functions and methods; ``position`` counts the
    positional arguments of a call before it (``self`` or ``cls`` excluded),
    and is None for a keyword-only parameter.
    """
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            defs = [(top, 0)] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):  # a method's call passes self or cls implicitly
                defs = [(d, 1) for d in top.body if isinstance(d, ast.FunctionDef)]
            for fn, skip in defs:
                positional = fn.args.posonlyargs + fn.args.args
                first_optional = len(positional) - len(fn.args.defaults)
                for i, arg in enumerate(positional[first_optional:], first_optional):
                    found.add((f"{path.stem}.{fn.name}.{arg.arg}", fn.name, i - skip))
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                    if default is not None:
                        found.add((f"{path.stem}.{fn.name}.{arg.arg}", fn.name, None))
    return found


def _calls():
    """``{name: [(positional count, keyword names)]}`` of every src call, matched by name.

    A ``*args`` splat counts as every position and a ``**kwargs`` splat as
    the keyword None.
    """
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                calls.setdefault(name, []).append(
                    (float("inf") if starred else len(node.args), {k.arg for k in node.keywords}))
    return calls


def _unpassed_parameters():
    """``{module.function.parameter}`` of every optional parameter that no src call passes."""
    calls = _calls()
    return {
        qualified for qualified, name, position in _optional_parameters()
        if not any(keywords & {qualified.rsplit(".", 1)[1], None}
                   or (position is not None and n_positional > position)
                   for n_positional, keywords in calls.get(name, []))
    }


def test_every_optional_parameter_is_passed_in_src():
    # an optional parameter that no src call passes is a knob for tests alone
    assert sorted(_unpassed_parameters() - DOCUMENTED_PARAMETERS) == []


def test_documented_parameters_are_still_unpassed():
    assert sorted(DOCUMENTED_PARAMETERS - _unpassed_parameters()) == []


def test_documented_parameters_exist():
    assert DOCUMENTED_PARAMETERS <= {qualified for qualified, _, _ in _optional_parameters()}


# parameters kept unread for a caller outside src: perfbench passes the fd report's n
# positionally, so that its signature matches the td report's
UNREAD_PARAMETERS = {"weight_config.configure_frequency_domain_report.n"}


def _unread_parameters():
    """``module.function.parameter`` of every parameter that its function or lambda never loads.

    A read anywhere in the body counts, nested functions included; a lambda
    is named ``<lambda>:line``.
    """
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [a for a in (args.vararg, args.kwarg) if a]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {node.id for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            name = getattr(fn, "name", f"<lambda>:{fn.lineno}")
            unread |= {f"{path.stem}.{name}.{p.arg}" for p in params if p.arg not in loaded}
    return unread


def test_every_parameter_is_read():
    assert sorted(_unread_parameters() - UNREAD_PARAMETERS) == []


def test_unread_parameters_are_still_unread():
    assert UNREAD_PARAMETERS <= _unread_parameters()


# exception classes kept for callers outside src: the config boundary's one error type,
# which the CLI reports through its ValueError base
DOCUMENTED_EXCEPTIONS = {"ConfigFileError"}


def _uncaught_exceptions():
    """``{name}`` of every src exception class that no src ``except`` names.

    A class is an exception when a base is a builtin exception or another src
    exception class; like the checks above, names are matched without modules.
    """
    bases, caught = {}, set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {getattr(b, "id", None) or getattr(b, "attr", None) for b in node.bases}
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught |= {getattr(t, "id", None) or getattr(t, "attr", None) for t in types}
    known = {name for name, obj in vars(builtins).items()
             if isinstance(obj, type) and issubclass(obj, BaseException)}
    exceptions = set()
    while grown := {name for name, b in bases.items() if b & known} - exceptions:
        exceptions |= grown
        known |= grown
    return exceptions - caught


def test_every_exception_class_is_caught_in_src():
    # a class that only tests catch is a plain ValueError with a longer name
    assert sorted(_uncaught_exceptions() - DOCUMENTED_EXCEPTIONS) == []


def test_documented_exceptions_are_still_uncaught():
    assert sorted(DOCUMENTED_EXCEPTIONS - _uncaught_exceptions()) == []
