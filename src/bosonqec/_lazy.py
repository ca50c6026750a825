"""Modules imported on their first use.

``module(name)`` returns the module ``name``: the one already in
``sys.modules``, or else a new one registered there whose code runs only
when one of its attributes is first read.  ``bosonqec/__init__``
registers every submodule this way, so a command executes only the
modules it uses: ``budget`` runs none but ``cli`` and ``report``.

``numpy()`` is the package's one import of numpy.  Only the ``eigh``
branch of ``syndrome._inverse_sqrt`` calls it, for the Gram blocks
larger than 1x1 of hand-built codes, so no command on a shipped family
loads numpy.
"""

import importlib.util
import sys


def module(name: str):
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


def numpy():
    """The numpy module, imported on the first call."""
    import numpy

    return numpy
