"""The package's exported names exist: a name left in `__all__`, or in the
package's imports, after its definition is gone fails here by name."""

import ast
import importlib
import pkgutil
from pathlib import Path

import richelot_ctp

MODULES = [importlib.import_module(f"richelot_ctp.{m.name}")
           for m in pkgutil.iter_modules(richelot_ctp.__path__)]


def test_every_exported_name_resolves():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    imported = [alias.asname or alias.name
                for node in ast.walk(ast.parse(Path(richelot_ctp.__file__).read_text()))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(imported) > 20
    missing = [name for name in imported if not hasattr(richelot_ctp, name)]
    assert not missing, missing
