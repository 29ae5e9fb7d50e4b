import ast
import importlib
import inspect
import pkgutil

import rachopt


def test_exports_name_what_each_module_defines():
    # a name deleted from a module must leave its __all__ and the package's imports
    modules = {
        info.name: importlib.import_module(f"rachopt.{info.name}")
        for info in pkgutil.iter_modules(rachopt.__path__)
    }
    for name, module in modules.items():
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (name, missing)
    imports = [
        node
        for node in ast.parse(inspect.getsource(rachopt)).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        exported = modules[node.module].__all__
        stray = [alias.name for alias in node.names if alias.name not in exported]
        assert not stray, (node.module, stray)
