"""numpy, loaded on first attribute access.

`advise` and `tradeoff` evaluate a handful of closed-form laws on Python
floats and never need numpy, yet importing it is most of their start-up
time.  Modules write ``from ._numpy import np`` so that numpy loads only when
some array work first touches ``np``.  This is the stdlib
``importlib.util.LazyLoader`` recipe; a numpy that is already imported is
reused as is.  The lazy load is not thread-safe on Python < 3.12, which is
fine because scalelaw is single-threaded.
"""

import importlib.util
import sys

np = sys.modules.get("numpy")
if np is None:
    _spec = importlib.util.find_spec("numpy")
    if _spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    np = importlib.util.module_from_spec(_spec)
    sys.modules["numpy"] = np
    _spec.loader.exec_module(np)
