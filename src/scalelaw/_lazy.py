"""Modules that load on first attribute access.

Two kinds of module are loaded this way, both so that a process pays only
for the code it runs:

- numpy.  `advise` and `tradeoff` evaluate a handful of closed-form laws on
  Python floats and never need numpy, yet importing it is most of their
  start-up time.  So do `ingest` (with or without `--out`), `fit-bopt`,
  `frontier`, `fit-lr` and `export-plot` (every kind) when their run log is
  a cache hit: its curves are stdlib buffers, whose numpy views are built
  only when read.  What still loads numpy is `simulate`, `fit-law` and any
  verb whose run log is a cache miss, which parses it with numpy.  Modules
  write ``from ._lazy import np`` so that numpy loads only when some array
  work first touches ``np``.
- the package's own layer modules.  ``scalelaw/__init__.py`` registers each
  of them with lazy_import, so ``import scalelaw`` executes none of them
  and each CLI verb executes only the layers it touches.

This is the stdlib ``importlib.util.LazyLoader`` recipe.  The module object
is placed in ``sys.modules`` at once and its code runs when an attribute is
first read; a module that is already imported is reused as is.  The lazy
load is not thread-safe on Python < 3.12, which is fine because scalelaw is
single-threaded.
"""

import importlib.util
import sys


def lazy_import(name: str):
    """The module called name, registered in sys.modules, its code not yet run."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = lazy_import("numpy")
