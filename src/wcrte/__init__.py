"""Weighted cumulative residual Tsallis entropy and its order-1 limit.

Closed forms and quadrature for common lifetime models, five nonparametric
estimators with asymptotic-variance companions, a seeded Monte Carlo
bias/MSE harness, uniformity tests with simulated critical values and a
power study, plus a comparison harness against bundled published tables.

The package namespace is the union of the modules' ``__all__`` lists. It is
built on first access (PEP 562): ``import wcrte`` loads only
``distributions`` (with numpy, ``errors`` and ``sample``), the first public
name looked up loads every module, and ``wcrte.gof`` or ``wcrte.cli`` loads
only that module and what it imports. So a command of ``python -m wcrte``
loads only the modules it runs.
"""

import importlib

# Every module and command imports distributions, so loading it here defers
# nothing that could be saved, and `python -X importtime -c "import wcrte"`
# keeps reporting its import time.
from . import distributions  # noqa: F401

__version__ = "0.1.0"

_MODULES = ("distributions", "errors", "sample", "estimators", "mc", "gof", "reference")


def __getattr__(name: str):
    if name in (*_MODULES, "cli"):
        return importlib.import_module(f".{name}", __name__)
    namespace = globals()
    if "__all__" not in namespace:
        modules = [importlib.import_module(f".{m}", __name__) for m in _MODULES]
        namespace.update({n: getattr(m, n) for m in modules for n in m.__all__})
        namespace["__all__"] = ["__version__", *(n for m in modules for n in m.__all__)]
    if name in namespace:
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    __getattr__("__all__")
    return sorted(globals())
