"""numpy, imported on its first use.

``from ._lazy import np`` binds the one ``numpy`` module object.  Unless
numpy is already imported, its code runs only when one of its attributes
is first read, so a command that never touches an array never pays for
importing it: only ``verify``, ``scaling`` and ``syndrome`` load it.
"""

import importlib.util
import sys


def _numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
