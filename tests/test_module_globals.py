"""Every global name a function body reads must exist on its module, and
every name the package exports must resolve.

A name missing from an import list only fails when the function runs, so a
rarely taken path can hide it; this walks each module's symbol table and
checks every global a function references against the imported module and
the builtins.
"""

import builtins
import importlib
import pkgutil
import symtable
from pathlib import Path

import scalelaw


def _function_globals(table):
    for child in table.get_children():
        if child.get_type() == "function":
            for sym in child.get_symbols():
                if sym.is_global() and sym.is_referenced():
                    yield child.get_name(), sym.get_name()
        yield from _function_globals(child)


def test_function_globals_resolve():
    missing = []
    for info in pkgutil.iter_modules(scalelaw.__path__, "scalelaw."):
        module = importlib.import_module(info.name)
        path = Path(module.__file__)
        table = symtable.symtable(path.read_text(), str(path), "exec")
        for func, name in _function_globals(table):
            if not hasattr(module, name) and not hasattr(builtins, name):
                missing.append((info.name, func, name))
    assert missing == []


def test_public_exports_resolve():
    assert [name for name in scalelaw.__all__ if not hasattr(scalelaw, name)] == []
    namespace: dict = {}
    exec("from scalelaw import *", namespace)
    assert set(scalelaw.__all__) <= namespace.keys()
    # a name deleted from the export table or from __all__ must not stay in the other
    exported = [name for names in scalelaw._EXPORTS.values() for name in names]
    assert len(scalelaw.__all__) == len(set(scalelaw.__all__))
    assert sorted(scalelaw.__all__) == sorted(exported + ["__version__"])
    assert set(scalelaw.__all__) <= set(dir(scalelaw))
