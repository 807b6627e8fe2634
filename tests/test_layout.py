"""Static checks of the package layout, read from the source with ``ast``."""

import ast
import builtins
import sys
from pathlib import Path

import pytest

import spherelab

SRC = Path(__file__).resolve().parent.parent / "src" / "spherelab"
TESTS = Path(__file__).resolve().parent
# Private names one module may take from another: the shared thread pool.
ALLOWED_PRIVATE = {("spherelab.rng", "_shard_map")}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def called_names() -> set[str]:
    """Every name a test file calls, as ``f(...)`` or ``obj.f(...)``."""
    names = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Call):
                func = node.func
                names.add(func.id if isinstance(func, ast.Name) else getattr(func, "attr", ""))
    return names


def public_functions(module: str) -> list[str]:
    """Public module functions, and the public methods (not properties) of public classes."""
    names = []
    for node in parse(SRC / f"{module}.py").body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            names += [f.name for f in node.body if isinstance(f, ast.FunctionDef)
                      and not f.name.startswith("_")
                      and not any(getattr(d, "id", "") == "property" for d in f.decorator_list)]
        elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            names.append(node.name)
    return names


@pytest.mark.parametrize("module", sorted(path.stem for path in SRC.glob("*.py")
                                           if path.stem != "__init__"))
def test_every_public_function_is_called_by_a_test(module):
    public = public_functions(module)
    assert public
    assert sorted(set(public) - called_names()) == []


def test_no_test_module_defines_a_top_level_name_twice():
    # A second ``def test_x`` shadows the first, and pytest collects only one.
    twice = {}
    for path in TESTS.glob("*.py"):
        names = [node.name for node in parse(path).body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            twice[path.name] = repeated
    assert twice == {}


def private_imports(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` of each ``_`` name ``path`` takes from another spherelab module."""
    found = set()
    aliases = {}  # local name -> spherelab module it binds
    tree = parse(path)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spherelab"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.add((node.module, alias.name))
                elif node.module == "spherelab":
                    aliases[alias.asname or alias.name] = f"spherelab.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("spherelab.") and alias.asname:
                    aliases[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")):
            found.add((aliases[node.value.id], node.attr))
    return found


def test_modules_share_only_the_allowed_private_names():
    extra = {path.name: sorted(private_imports(path) - ALLOWED_PRIVATE)
             for path in SRC.glob("*.py")}
    assert {name: found for name, found in extra.items() if found} == {}


def top_level_imports() -> set[tuple[str, str]]:
    """``(file name, top-level module)`` of every absolute import in the package."""
    imports = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Import):
                imports |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports.add((path.name, node.module.split(".")[0]))
    return imports


def test_the_package_imports_only_the_standard_library_numpy_and_itself():
    # numpy is the one runtime dependency; scipy and the rest are test-only.
    allowed = set(sys.stdlib_module_names) | {"numpy", "spherelab"}
    assert {(name, module) for name, module in top_level_imports()
            if module not in allowed} == set()


def test_only_rng_imports_threads():
    # rng._shard_map is the library's one concurrency point.
    assert {name for name, module in top_level_imports()
            if module in ("threading", "concurrent")} == {"rng.py"}


def checked_classes() -> dict[str, tuple[dict[str, str], ast.FunctionDef]]:
    """Each class with a ``__post_init__``: its annotated fields (name -> type) and that method."""
    found = {}
    for path in SRC.glob("*.py"):
        for cls in ast.walk(parse(path)):
            post_init = [f for f in cls.body if isinstance(f, ast.FunctionDef)
                         and f.name == "__post_init__"] if isinstance(cls, ast.ClassDef) else []
            if post_init:
                fields = {f.target.id: getattr(f.annotation, "id", "") for f in cls.body
                          if isinstance(f, ast.AnnAssign)}
                found[cls.name] = fields, post_init[0]
    return found


def calls_to(post_init: ast.FunctionDef, *names: str) -> list[ast.Call]:
    return [call for call in ast.walk(post_init) if isinstance(call, ast.Call)
            and getattr(call.func, "id", "") in names]


def test_every_int_field_of_a_checked_dataclass_goes_through_require_ints():
    # A class with a __post_init__ checks its fields; each one annotated
    # ``int`` must be a keyword of a require_ints call there.
    unchecked, classes = {}, checked_classes()
    for name, (fields, post_init) in classes.items():
        ints = {field for field, kind in fields.items() if kind == "int"}
        keywords = {kw.arg for call in calls_to(post_init, "require_ints") for kw in call.keywords}
        if ints - keywords:
            unchecked[name] = sorted(ints - keywords)
    assert {"SphereConfig", "TrainConfig", "ProbeConfig", "AttackConfig"} <= classes.keys()
    assert unchecked == {}


def fields_passed_to(kind: str, *checks: str) -> tuple[set[str], dict[str, list[str]]]:
    """``Class.field`` of each field annotated ``kind`` that its ``__post_init__``
    passes as ``self.<field>`` to one of ``checks``, and the fields it does not."""
    unchecked, checked = {}, set()
    for name, (fields, post_init) in checked_classes().items():
        typed = {field for field, annotation in fields.items() if annotation == kind}
        passed = {arg.attr for call in calls_to(post_init, *checks)
                  for arg in call.args if isinstance(arg, ast.Attribute)
                  and getattr(arg.value, "id", "") == "self"}
        checked |= {f"{name}.{field}" for field in typed & passed}
        if typed - passed:
            unchecked[name] = sorted(typed - passed)
    return checked, unchecked


def test_every_float_field_of_a_checked_dataclass_goes_through_require_above():
    checked, unchecked = fields_passed_to("float", "require_above", "require_radius")
    assert {"ProbeConfig.step_size", "TrainConfig.lr", "SphereConfig.R"} <= checked
    assert unchecked == {}


def test_every_bool_field_of_a_checked_dataclass_goes_through_require_bool():
    checked, unchecked = fields_passed_to("bool", "require_bool")
    assert {"ProbeConfig.nearest", "TrainConfig.stop_on_perfect"} <= checked
    assert unchecked == {}


def exception_classes() -> set[str]:
    """Each class of the package that derives, through its bases, from a builtin exception."""
    bases = {cls.name: [getattr(base, "id", "") for base in cls.bases]
             for path in SRC.glob("*.py") for cls in ast.walk(parse(path))
             if isinstance(cls, ast.ClassDef)}

    def is_exception(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    return {name for name in bases if is_exception(name)}


def raised_in_tests() -> set[str]:
    """Every name a test passes to ``pytest.raises``, alone or in a tuple."""
    names = set()
    for path in TESTS.glob("*.py"):
        for node in ast.walk(parse(path)):
            if (isinstance(node, ast.Call) and getattr(node.func, "attr", "") == "raises"
                    and node.args):
                first = node.args[0]
                for arg in first.elts if isinstance(first, ast.Tuple) else [first]:
                    names.add(getattr(arg, "id", getattr(arg, "attr", "")))
    return names


def test_every_exception_class_of_the_package_is_raised_in_a_test():
    defined = exception_classes()
    assert {"CheckpointError", "InfeasibleTargetError", "UnsupportedRegimeError"} <= defined
    assert sorted(defined - raised_in_tests()) == []


def test_the_package_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = tomllib.loads((SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert spherelab.__version__ == pyproject["project"]["version"]
