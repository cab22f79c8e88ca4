"""The package's export list, no module-level helper left unused, and the
modules that call the per-gain wrappers."""

import ast
import pathlib
import types

import lqrnewton

SOURCE = pathlib.Path(lqrnewton.__file__).parent


def test_export_list_matches_the_public_names():
    exported = lqrnewton.__all__
    assert len(exported) == len(set(exported))
    missing = [name for name in exported if not hasattr(lqrnewton, name)]
    assert missing == []
    public = {name for name, value in vars(lqrnewton).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public - set(exported) == set()


def test_every_module_level_definition_is_exported_or_used():
    # a definition counts as used when its name is read, imported or looked
    # up as an attribute anywhere in the package; its own def is not a use
    defined, used = [], set()
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [f"{path.stem}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 50
    unused = [name for name in defined
              if name.split(".")[1] not in set(lqrnewton.__all__) | used]
    assert unused == []


# one-line reads of an Evaluation: the library's other modules read the
# Evaluation itself
PER_GAIN_WRAPPERS = {"is_gamma_stabilizing", "performance", "solve_value", "solve_sigma",
                     "policy_gradient", "gn_hessian", "jacobian_vecP", "lambda_term",
                     "exact_hessian"}


def test_only_lqr_and_derivatives_use_the_per_gain_wrappers():
    users = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            else:
                continue
            if name in PER_GAIN_WRAPPERS:
                users.add(path.name)
    assert users - {"__init__.py", "lqr.py", "derivatives.py"} == set()
