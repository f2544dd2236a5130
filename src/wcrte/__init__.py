"""Weighted cumulative residual Tsallis entropy and its order-1 limit.

Closed forms and quadrature for common lifetime models, five nonparametric
estimators with asymptotic-variance companions, a seeded Monte Carlo
bias/MSE harness, uniformity tests with simulated critical values and a
power study, plus a comparison harness against bundled published tables.

The package namespace is the union of the modules' ``__all__`` lists.
"""

from . import distributions, errors, estimators, gof, mc, reference, sample

__version__ = "0.1.0"

_MODULES = (distributions, errors, sample, estimators, mc, gof, reference)

globals().update({name: getattr(m, name) for m in _MODULES for name in m.__all__})

__all__ = ["__version__", *(name for m in _MODULES for name in m.__all__)]
