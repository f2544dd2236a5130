"""Reference distributions and exact values of the weighted residual measures.

Two groups of models live here. The parametric families (uniform, exponential,
Rayleigh, Pareto type I, Weibull) serve as ground truth in the bias/MSE
studies: each knows its cdf, survival function, quantile function, quantile
derivative, and closed-form weighted cumulative residual Tsallis entropy.
The Stephens-style alternatives on [0, 1] exist only to feed the power study
of the uniformity tests and carry no closed forms.

The measure of order ``a`` for a nonnegative variable with survival function
S is ``(1/(a-1)) * integral x * (S(x) - S(x)**a) dx`` over the support, and
its limit as the order tends to 1 is ``- integral x * S(x) * log S(x) dx``
(the weighted cumulative residual entropy, WCRE, selected everywhere in this
package by passing ``None`` for the order). Each family has one closed form in
the order, and the WCRE is its value at order 1. The closed forms follow the
published reference table that the Monte Carlo harness treats as truth; for
the exponential family that table value exceeds the defining integral by a
factor of the order (so the two agree at the WCRE). The defining integral
remains available through :func:`wcrte_by_quadrature` as an intentionally
independent route; scipy is imported only when a quadrature route runs.
"""

from __future__ import annotations

import math
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, NumericError, ParseError
from .sample import _check_size

__all__ = [
    "WCRE_LIMIT",
    "DEFAULT_SEED",
    "Model",
    "Uniform",
    "Exponential",
    "Rayleigh",
    "ParetoOne",
    "Weibull",
    "StephensAlternative",
    "check_order",
    "order_from_label",
    "order_label",
    "parse_model",
    "closed_wcrte",
    "closed_wcre",
    "wcrte_by_quadrature",
    "wcrte_lower_bound",
    "entropy_bound_offset",
]

#: Marker for the order -> 1 limit (the WCRE). Deliberately ``None`` rather
#: than the float 1.0, so the limit can never be confused with a real order.
WCRE_LIMIT = None

#: Default master seed of the command line and the Monte Carlo studies;
#: exported by :mod:`wcrte.mc`.
DEFAULT_SEED = 0xC0FFEE

_ORDER_ONE_TOL = 1e-12
#: Floor applied inside logarithms of quadrature integrands.
_LOG_FLOOR = 1e-300


def check_order(order) -> float:
    """Validate a Tsallis order: a positive real different from 1.

    Returns the order as a float. ``None`` is not accepted here; callers that
    support the WCRE limit check for ``None`` before calling.
    """
    try:
        a = float(order)
    except (TypeError, ValueError):
        raise DomainError(f"order must be a positive real, got {order!r}") from None
    if not math.isfinite(a) or a <= 0.0:
        raise DomainError(f"order must be a positive finite real, got {order!r}")
    if abs(a - 1.0) <= _ORDER_ONE_TOL:
        raise DomainError(
            "order 1 is the WCRE limit; pass None (WCRE_LIMIT) or call the wcre_* variant"
        )
    return a


def _check_order_above_one(order) -> float:
    """The rule of the L-statistic and of the uniformity tests: order > 1."""
    a = check_order(order)
    if a < 1.0:
        raise DomainError(f"the L-statistic and the uniformity tests need order > 1, got {a:g}")
    return a


def order_from_label(value) -> float | None:
    """Map an external order label to an internal order.

    ``None`` and the number 1 both select the WCRE limit, matching the
    published tables where the limit occupies the alpha=1 column; anything
    else must be a valid order.
    """
    if value is None:
        return None
    try:
        a = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"order must be a number or null, got {value!r}") from None
    if abs(a - 1.0) <= _ORDER_ONE_TOL:
        return None
    return check_order(a)


def order_label(order) -> str:
    """External label for an order: the WCRE limit prints as 1."""
    return "1" if order is None else _fmt(order)


def _ret(out: np.ndarray):
    """Return a float for 0-d results, the array otherwise."""
    return out.item() if out.ndim == 0 else out


def _check_u(u) -> np.ndarray:
    """Validate quantile arguments, u in [0, 1), into a new float array.

    Zero is allowed (uniform generators draw from [0, 1) and every bundled
    quantile extends continuously to 0); one is not, since several supports
    are unbounded.
    """
    v = np.array(u, dtype=float)
    # NaN fails both comparisons, so it is rejected too.
    if v.size and not (v.min() >= 0.0 and v.max() < 1.0):
        raise DomainError("quantile argument must lie in [0, 1)")
    return v


def _power(v: np.ndarray, exponent: float) -> np.ndarray:
    """``v **= exponent`` in place; a 0-d ``v`` takes numpy's scalar pow (libm's).

    An out-of-place expression turns a 0-d argument into a numpy scalar at
    its first step, so its pow is the scalar one; the in-place formulas keep
    those bits.
    """
    if v.ndim:
        v **= exponent
    else:
        v[()] = v[()] ** exponent
    return v


def _family_of(model: Model) -> tuple[str, dict[str, str]]:
    """The spec name of ``model``'s family and its {spec key -> field} map."""
    return next(((name, key_map) for name, (cls, key_map) in _FAMILIES.items()
                 if cls is type(model)), (type(model).__name__, {}))


def _require_positive(model: Model) -> None:
    """Every parameter of ``model`` must be positive; an error names its spec key."""
    for key, field in _family_of(model)[1].items():
        value = getattr(model, field)
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"parameter {key} must be positive, got {value!r}")


class Model(ABC):
    """Common interface: cdf, survival, quantile, slope, inverse-cdf sampling."""

    def __post_init__(self):
        _require_positive(self)

    @abstractmethod
    def cdf(self, x):
        ...

    @abstractmethod
    def _transform(self, v: np.ndarray) -> np.ndarray:
        """The quantile formula, mapping the owned float array ``v`` of [0, 1) values in place.

        Returns ``v``. A caller that drew ``v`` from a uniform generator
        passes it without the checks of :meth:`quantile`.
        """

    def quantile(self, u):
        """The quantile function at ``u`` in [0, 1), which is never modified.

        ``u`` is checked and copied, and the family's one in-place formula
        (:meth:`_transform`) maps the copy; a 0-d argument gives a float.
        """
        return _ret(self._transform(_check_u(u)))

    @abstractmethod
    def quantile_slope(self, u):
        """Derivative of the quantile function, used by the quadrature routes."""

    def spec_string(self) -> str:
        """Canonical parseable form, e.g. ``exp:lambda=2`` or ``alt:B,j=1.5``."""
        name, key_map = _family_of(self)
        items = [f"{key}={_fmt(getattr(self, field))}" for key, field in key_map.items()]
        if name == "alt":
            items.insert(0, self.family)
        return f"{name}:{','.join(items)}"

    def survival(self, x):
        return 1.0 - self.cdf(x)

    def sample(self, n: int, stream: np.random.Generator):
        """Draw ``n`` observations by inverse-cdf transform of ``stream``."""
        return self._transform(stream.random(_check_size(n, 1)))

    # Hooks of the measure evaluators, at order ``a`` (1.0 for the WCRE): the
    # parametric families give their closed form, and a family whose measure
    # diverges on part of its parameter space says where.
    def _closed(self, a: float) -> float:
        raise DomainError(f"no closed form for {self}")

    def _require_finite(self, a: float) -> None:
        pass

    def __str__(self) -> str:
        return self.spec_string()


@dataclass(frozen=True)
class Uniform(Model):
    """Uniform distribution on (0, theta)."""

    theta: float = 1.0

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        return _ret(np.clip(arr / self.theta, 0.0, 1.0))

    def _transform(self, v):
        v *= self.theta
        return v

    def quantile_slope(self, u):
        v = _check_u(u)
        return _ret(np.full_like(v, self.theta))

    def _closed(self, a: float) -> float:
        return self.theta**2 * (a + 4.0) / (6.0 * (a + 1.0) * (a + 2.0))


@dataclass(frozen=True)
class Exponential(Model):
    """Exponential distribution with rate parameter (mean 1/rate)."""

    rate: float = 1.0

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        out = -np.expm1(-self.rate * np.maximum(arr, 0.0))
        return _ret(out)

    def survival(self, x):
        arr = np.asarray(x, dtype=float)
        return _ret(np.exp(-self.rate * np.maximum(arr, 0.0)))

    def _transform(self, v):
        # -log1p(-v) / rate
        np.negative(v, out=v)
        np.log1p(v, out=v)
        np.negative(v, out=v)
        v /= self.rate
        return v

    def quantile_slope(self, u):
        v = _check_u(u)
        return _ret(1.0 / (self.rate * (1.0 - v)))

    def _closed(self, a: float) -> float:
        # Reference-table convention; the defining integral is this divided
        # by the order (see the module docstring).
        return (a + 1.0) / (a * self.rate**2)


@dataclass(frozen=True)
class Rayleigh(Model):
    """Rayleigh distribution with scale sigma."""

    sigma: float = 1.0

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        z = np.maximum(arr, 0.0) / self.sigma
        return _ret(-np.expm1(-0.5 * z * z))

    def survival(self, x):
        arr = np.asarray(x, dtype=float)
        z = np.maximum(arr, 0.0) / self.sigma
        return _ret(np.exp(-0.5 * z * z))

    def _transform(self, v):
        # sigma * sqrt(-2 log1p(-v))
        np.negative(v, out=v)
        np.log1p(v, out=v)
        v *= -2.0
        np.sqrt(v, out=v)
        v *= self.sigma
        return v

    def quantile_slope(self, u):
        v = _check_u(u)
        with np.errstate(divide="ignore"):
            out = self.sigma / ((1.0 - v) * np.sqrt(-2.0 * np.log1p(-v)))
        return _ret(out)

    def _closed(self, a: float) -> float:
        return self.sigma**2 / a


@dataclass(frozen=True)
class ParetoOne(Model):
    """Pareto type I with lower endpoint ``scale`` and tail index ``shape``.

    Survival is (scale/x)**shape for x >= scale. The weighted measures only
    exist on part of the parameter space: the WCRTE of order a needs
    shape > 2 and shape * a > 2, the WCRE needs shape > 2.
    """

    scale: float
    shape: float

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        ratio = self.scale / np.maximum(arr, self.scale)
        return _ret(1.0 - ratio**self.shape)

    def survival(self, x):
        arr = np.asarray(x, dtype=float)
        ratio = self.scale / np.maximum(arr, self.scale)
        return _ret(ratio**self.shape)

    def _transform(self, v):
        # scale * (1 - v)**(-1/shape)
        np.subtract(1.0, v, out=v)
        _power(v, -1.0 / self.shape)
        v *= self.scale
        return v

    def quantile_slope(self, u):
        v = _check_u(u)
        return _ret((self.scale / self.shape) * (1.0 - v) ** (-1.0 / self.shape - 1.0))

    def _require_finite(self, a: float) -> None:
        if self.shape <= 2.0 or self.shape * a <= 2.0:
            raise DivergenceError(
                f"WCRTE of order {a:g} diverges for {self}: needs delta > 2 and delta * alpha > 2"
            )

    def _closed(self, a: float) -> float:
        d = self.shape
        return d * self.scale**2 / ((d - 2.0) * (d * a - 2.0))


@dataclass(frozen=True)
class Weibull(Model):
    """Weibull distribution with rate ``rate`` and shape exponent ``shape``.

    Survival is exp(-(rate * x)**shape); shape = 2 recovers a Rayleigh with
    sigma = 1 / (rate * sqrt(2)), shape = 1 an exponential with the same rate.
    """

    rate: float = 1.0
    shape: float = 1.0

    def cdf(self, x):
        arr = np.asarray(x, dtype=float)
        z = self.rate * np.maximum(arr, 0.0)
        return _ret(-np.expm1(-(z**self.shape)))

    def survival(self, x):
        arr = np.asarray(x, dtype=float)
        z = self.rate * np.maximum(arr, 0.0)
        return _ret(np.exp(-(z**self.shape)))

    def _transform(self, v):
        # (-log1p(-v))**(1/shape) / rate
        np.negative(v, out=v)
        np.log1p(v, out=v)
        np.negative(v, out=v)
        _power(v, 1.0 / self.shape)
        v /= self.rate
        return v

    def quantile_slope(self, u):
        v = _check_u(u)
        with np.errstate(divide="ignore"):
            out = (-np.log1p(-v)) ** (1.0 / self.shape - 1.0) / (
                self.shape * self.rate * (1.0 - v)
            )
        return _ret(out)

    def _closed(self, a: float) -> float:
        p = self.shape
        if a == 1.0:  # (1 - a**(-2/p)) / (a - 1) tends to 2/p
            return math.gamma(2.0 / p) * (2.0 / p) / (p * self.rate**2)
        return math.gamma(2.0 / p) * (1.0 - a ** (-2.0 / p)) / (p * self.rate**2 * (a - 1.0))


#: The (family, j) pairs covered by the published power study.
_STUDIED_ALTERNATIVES = {
    ("A", 1.5),
    ("A", 2.0),
    ("B", 1.5),
    ("B", 2.0),
    ("B", 3.0),
    ("C", 1.5),
    ("C", 2.0),
}


@dataclass(frozen=True)
class StephensAlternative(Model):
    """Power-study alternatives on [0, 1], families A, B and C.

    Family A pushes mass toward 0, family B toward the center, family C
    toward both endpoints; j = 1 is the uniform in every family. Pairs
    outside the standard study grid are accepted but flagged with a warning.
    """

    family: str
    j: float

    def __post_init__(self):
        fam = str(self.family).upper()
        if fam not in ("A", "B", "C"):
            raise DomainError(f"alternative family must be A, B or C, got {self.family!r}")
        object.__setattr__(self, "family", fam)
        _require_positive(self)
        if (fam, float(self.j)) not in _STUDIED_ALTERNATIVES:
            warnings.warn(
                f"alternative {fam} with j={self.j:g} is outside the standard "
                "power-study grid; treating it as an extension",
                stacklevel=2,
            )

    def cdf(self, x):
        z = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        j = self.j
        c = 2.0 ** (j - 1.0)
        if self.family == "A":
            out = 1.0 - (1.0 - z) ** j
        elif self.family == "B":
            out = np.where(z <= 0.5, c * z**j, 1.0 - c * (1.0 - z) ** j)
        else:
            out = np.where(
                z <= 0.5,
                0.5 - c * np.maximum(0.5 - z, 0.0) ** j,
                0.5 + c * np.maximum(z - 0.5, 0.0) ** j,
            )
        return _ret(out)

    def _transform(self, v):
        j = self.j
        c = 2.0 ** (j - 1.0)
        if self.family == "A":
            # 1 - (1 - v)**(1/j)
            np.subtract(1.0, v, out=v)
            _power(v, 1.0 / j)
            np.subtract(1.0, v, out=v)
            return v
        # Both halves in one pass: r = (w / c)**(1/j) with w the distance to
        # the nearer end (B) or to the center (C), signed toward the half of v;
        # B then gives r below one half and 1 - r above, C gives 0.5 +- r. One
        # half itself takes the lower branch: its sign is +0 and r is 0.
        if self.family == "B":
            offset = v > 0.5  # one above one half
            sign = 0.5 - v
            np.minimum(v, 1.0 - v, out=v)
        else:
            offset = 0.5
            sign = v - 0.5
            np.abs(sign, out=v)
        v /= c
        _power(v, 1.0 / j)
        np.copysign(v, sign, out=v)
        v += offset
        return v

    def quantile_slope(self, u):
        raise DomainError(
            "alternatives are sampling-only models; no quantile derivative is exposed"
        )


def _fmt(x: float) -> str:
    """Label of a number: ``%g`` when that reads back as the same float, else ``repr``."""
    x = float(x)
    text = format(x, "g")
    return text if float(text) == x else repr(x)


# --- spec grammar ------------------------------------------------------------


def _split_spec(text: str, keys: dict, positional=()) -> tuple[str, str | None, dict[str, str]]:
    """Split a spec ``head[:token][,key=value]...``: the grammar of every spec.

    ``keys`` maps each accepted head to its keys. Heads and keys are
    case-insensitive. For the heads in ``positional`` the first item is a
    positional token (None when absent). Returns the lower-cased head, the
    token and the stripped values by key; raises ParseError for an unknown
    head, an item without ``=``, an unknown key or a repeated key.
    """
    spec = text.strip()
    head, _, rest = spec.partition(":")
    head = head.strip().lower()
    if head not in keys:
        raise ParseError(f"{spec!r}: unknown name {head!r} (known: {', '.join(sorted(keys))})")
    items = [p.strip() for p in rest.split(",") if p.strip()]
    token = items.pop(0) if head in positional and items else None
    fields: dict[str, str] = {}
    for item in items:
        key, eq, value = item.partition("=")
        key = key.strip().lower()
        if not eq:
            raise ParseError(f"{spec!r}: expected key=value, got {item!r}")
        if key not in keys[head]:
            raise ParseError(
                f"{spec!r}: unknown key {key!r} for {head} (expected: {', '.join(keys[head])})"
            )
        if key in fields:
            raise ParseError(f"{spec!r}: duplicate key {key!r}")
        fields[key] = value.strip()
    return head, token, fields


def _parse_number(token: str, context: str, kind=float):
    """``kind(token)`` for a spec value; ParseError names the spec and the value."""
    try:
        return kind(token)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ParseError(f"{context}: not {what}: {token!r}") from None


# --- option values -------------------------------------------------------------
# One converter per key. A value is a command-line flag string ("10,20",
# "0xff", "sweep") or a JSON value (a list, a scalar, or such a string);
# already converted values pass through unchanged. The command line and
# ``mc.study_config_from_json`` share them.


def _integer(value, base: int = 10) -> int:
    """An integer; a JSON float must be integral."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        return int(str(value), base)
    except ValueError:
        raise ParseError(f"not an integer: {value!r}") from None


def _order(value) -> float | None:
    """An order label: 1 or null select the WCRE limit."""
    try:
        return order_from_label(value)
    except DomainError as exc:
        raise ParseError(str(exc)) from None


def _items(value, split: bool = True) -> list:
    """A JSON list, a comma-separated string (``split``), or one scalar, as a list."""
    if isinstance(value, (list, tuple)):
        items = list(value)
    elif isinstance(value, str) and split:
        items = [s for s in value.split(",") if s.strip()]
    else:
        items = [value]
    if not items:
        raise ParseError("empty list")
    return items


def _windows(value):
    """``auto``, ``sweep`` (any case) or a list of windows."""
    if isinstance(value, str) and value.strip().lower() in ("auto", "sweep"):
        return value.strip().lower()
    return tuple(map(_integer, _items(value)))


#: The converters of the study grid's numeric keys; ``mc._STUDY_KEYS`` adds
#: the model and estimator keys.
_GRID_KEYS = {
    "n": lambda v: tuple(map(_integer, _items(v))),
    "alpha": lambda v: tuple(map(_order, _items(v))),
    "m": _windows,
    "replications": _integer,
    "seed": lambda v: _integer(v, 0),
}


def _convert(converters: dict, key: str, value):
    """``converters[key](value)``; a ParseError names the key."""
    try:
        return converters[key](value)
    except ParseError as exc:
        raise ParseError(f"{key}: {exc}") from None


def _json_object(doc, keys, what: str, where: str = "") -> dict:
    """The JSON object in ``doc`` (a dict, JSON text or bytes, or a file object).

    Undecodable bytes and invalid JSON raise ParseError, as do an integer
    literal beyond Python's digit limit, a document that is not an object
    and keys outside ``keys``; ``what`` names the document and ``where``
    (such as ``"path: "``) prefixes every message. json is imported here, on
    first use, so that ``import wcrte`` does not load it.
    """
    import json

    try:
        if hasattr(doc, "read"):
            doc = doc.read()
        if isinstance(doc, (str, bytes)):
            doc = json.loads(doc)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, the digit limit
        raise ParseError(f"{where}invalid JSON {what}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where}{what} must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ParseError(f"{where}unknown {what} keys: {', '.join(unknown)}")
    return doc


# --- model spec parsing ------------------------------------------------------

# family name -> (class, {grammar key -> constructor field})
_FAMILIES = {
    "uniform": (Uniform, {"theta": "theta"}),
    "exp": (Exponential, {"lambda": "rate"}),
    "rayleigh": (Rayleigh, {"sigma": "sigma"}),
    "pareto1": (ParetoOne, {"k": "scale", "delta": "shape"}),
    "weibull": (Weibull, {"lambda": "rate", "p": "shape"}),
    "alt": (StephensAlternative, {"j": "j"}),
}


def parse_model(text: str) -> Model:
    """Parse a model spec such as ``exp:lambda=2`` or ``alt:B,j=1.5``.

    Family names and parameter keys are case-insensitive; every parameter
    must be given explicitly, and ``alt`` takes its family as a positional
    token.
    """
    spec = text.strip()
    name, family, fields = _split_spec(
        spec, {name: key_map for name, (_, key_map) in _FAMILIES.items()}, positional=("alt",)
    )
    cls, key_map = _FAMILIES[name]
    missing = sorted(set(key_map) - set(fields))
    if missing:
        raise ParseError(f"{spec!r}: missing parameter(s): {', '.join(missing)}")
    kwargs = {key_map[key]: _parse_number(value, spec) for key, value in fields.items()}
    if name == "alt":
        if family is None:
            raise ParseError(f"{spec!r}: expected alt:<family>,j=<value>")
        kwargs["family"] = family
    return cls(**kwargs)


# --- quadrature machinery ----------------------------------------------------


def _unit_quad(fn, tol: float, what: str) -> float:
    """Adaptive quadrature over (0, 1) with an interior split point.

    Fails loudly (NumericError) if scipy fails or the error estimate does not
    reach ``tol``; a DomainError raised by the integrand passes through
    unchanged. scipy is imported here, on first use, so that no other route loads it.
    """
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        try:
            value, err = integrate.quad(
                fn, 0.0, 1.0, points=(0.5,), limit=200, epsabs=tol * 1e-2, epsrel=1e-11
            )
        except DomainError:
            raise
        except Exception as exc:  # pragma: no cover - defensive
            raise NumericError(f"quadrature failed for {what}: {exc}") from exc
    if not math.isfinite(value) or err > tol:
        raise NumericError(
            f"quadrature for {what} missed tolerance {tol:g} (error estimate {err:g})"
        )
    return value


def closed_wcrte(model: Model, order) -> float:
    """Exact weighted cumulative residual Tsallis entropy of ``model``.

    ``order=None`` selects the WCRE limit, which is the family's closed form
    at order 1. Values follow the published closed-form table that the Monte
    Carlo harness uses as truth; see the module docstring for how that table
    relates to the defining integral. A value that leaves the float range
    raises NumericError.
    """
    a = 1.0 if order is None else check_order(order)
    model._require_finite(a)
    try:
        value = float(model._closed(a))
        if math.isfinite(value):
            return value
    except (OverflowError, ZeroDivisionError):
        pass
    raise NumericError(f"the closed form of order {order_label(order)} of {model} "
                       "leaves the float range")


def closed_wcre(model: Model) -> float:
    """Weighted cumulative residual entropy (the order -> 1 limit), in closed form."""
    return closed_wcrte(model, None)


def wcrte_by_quadrature(model: Model, order) -> float:
    """The defining integral, evaluated numerically in quantile form.

    This is the deliberately independent second route: it agrees with
    :func:`closed_wcrte` for every bundled family except the exponential,
    whose reference-table value is larger by a factor of the order (so the
    two agree at the WCRE, ``order=None``). Absolute tolerance 1e-10.
    """
    a = 1.0 if order is None else check_order(order)
    model._require_finite(a)

    def integrand(u: float) -> float:
        tail = 1.0 - u
        weight = -tail * math.log1p(-u) if order is None else tail - tail**a
        return model.quantile(u) * model.quantile_slope(u) * weight

    value = _unit_quad(integrand, 1e-10, f"integral of order {order_label(order)} of {model}")
    return value if order is None else value / (a - 1.0)


def entropy_bound_offset(order) -> float:
    """Offset term of the lower bound: integral over (0,1) of log((u - u**a)/(a - 1)).

    Finite for every valid order; equals -2 exactly at order 2.
    """
    a = check_order(order)

    def integrand(u: float) -> float:
        return math.log(max(abs(u - u**a), _LOG_FLOOR))

    core = _unit_quad(integrand, 1e-8, f"bound offset at order {a:g}")
    return core - math.log(abs(a - 1.0))


def wcrte_lower_bound(model: Model, order) -> float:
    """Exponential lower bound for the measure of ``order``.

    Computed as exp(integral of log(Q(u) * Q'(u)) du + offset(order)), which
    only requires the differential entropy and the mean log of the model to
    be finite. Quadrature tolerance 1e-8 on the log integral.
    """
    a = check_order(order)

    def integrand(u: float) -> float:
        qq = model.quantile(u) * model.quantile_slope(u)
        return math.log(max(qq, _LOG_FLOOR))

    core = _unit_quad(integrand, 1e-8, f"log-density integral of {model.spec_string()}")
    return math.exp(core + entropy_bound_offset(a))
