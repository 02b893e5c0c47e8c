"""The package namespace republishes its modules' public names, and every
public name has a reader."""

import ast
from pathlib import Path

import thetawave
from thetawave import curve, elliptic, limits, solution, theta, verify

ROOT = Path(__file__).resolve().parent.parent


def test_package_all_is_module_all_union():
    modules = (curve, elliptic, limits, solution, theta, verify)
    names = {name for m in modules for name in m.__all__}
    assert set(thetawave.__all__) == names | {"__version__"}
    assert len(thetawave.__all__) == len(set(thetawave.__all__))
    for m in modules:
        for name in m.__all__:
            assert getattr(thetawave, name) is getattr(m, name)


def _referenced_names(path):
    """The Name ids and Attribute names in the module at ``path``, each
    outside the top-level definition of that name."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        own = getattr(node, "name", None)
        for sub in ast.walk(node):
            name = (sub.id if isinstance(sub, ast.Name)
                    else sub.attr if isinstance(sub, ast.Attribute) else None)
            if name is not None and name != own:
                found.add(name)
    return found


def test_every_public_name_has_a_reader():
    # a public name is read by the package itself, by the benchmark (the
    # genus-2 route eval_p_general has no other reader) or by the
    # acceptance suite
    read = set()
    for path in [*(ROOT / "src" / "thetawave").glob("*.py"),
                 *(ROOT / "perfbench").glob("*.py")]:
        read |= _referenced_names(path)
    acceptance = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    read |= {alias.name for node in ast.walk(acceptance)
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unread = [name for name in thetawave.__all__
              if name != "__version__" and name not in read]
    assert not unread
