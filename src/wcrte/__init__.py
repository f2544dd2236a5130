"""Weighted cumulative residual Tsallis entropy and its order-1 limit.

Closed forms and quadrature for common lifetime models, five nonparametric
estimators with asymptotic-variance companions, a seeded Monte Carlo
bias/MSE harness, uniformity tests with simulated critical values and a
power study, plus a comparison harness against bundled published tables.

The package namespace is the union of the modules' ``__all__`` lists, read
on each access (PEP 562). ``import wcrte`` loads only ``distributions``
(with numpy, ``errors`` and ``sample``). A public name loads the modules in
dependency order up to the first one that exports it, so ``parse_estimator``
loads ``estimators`` and ``McStudyConfig`` also ``mc``; ``wcrte.gof`` or
``wcrte.cli`` loads only that module and what it imports. ``__all__``,
``dir(wcrte)`` and ``from wcrte import *`` load every module. So a command
of ``python -m wcrte`` loads only the modules it runs.
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
    if name == "__all__":
        names = (n for m in _MODULES for n in __getattr__(m).__all__)
        return list(dict.fromkeys(["__version__", *names]))  # mc re-exports two names
    # Each lookup reads the defining module, so a name patched there (or
    # wrapped by a tracer and unwrapped again) is what the package returns.
    if not (name.startswith("__") and name.endswith("__")):
        for module in map(__getattr__, _MODULES):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
