"""Source distribution models, sampling, and transport maps.

A :class:`SourceModel` names a scalar distribution family with parameters,
over the real or complex field.  The module provides closed-form (or
quadrature) differential entropies in nats, deterministic inverse-CDF
sampling on Philox streams, entropy normalization across a set of models,
and monotone transport maps from the standard normal onto a target model.

Real families are zero-mean by default; the exponential family is the
exception and is intended for estimator calibration only.  Complex families
are circularly symmetric.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .complex_embedding import dtype_of, real_dims
from .errors import NotCircular, UnsupportedFamily
from .rng import check_count, generator, normal_open, uniform_open

__all__ = [
    "SourceModel",
    "DiagonalScaling",
    "TransportMap1D",
    "RadialTransportMap2D",
    "gaussian",
    "uniform",
    "laplace",
    "exponential",
    "gaussian_mixture",
    "circular_gaussian",
    "uniform_disk",
    "unit_variance_uniform",
    "exact_entropy",
    "variance",
    "sample",
    "sample_sources",
    "check_sources",
    "scale_model",
    "normalize_entropies",
    "match_entropy",
    "quantile_transport",
    "radial_transport",
    "transport_log_derivative_expectation",
]

# family: (field, required parameters, optional parameters).
_FAMILIES = {
    "gaussian": ("real", ("sigma",), ("mu",)),
    "uniform": ("real", ("low", "high"), ()),
    "laplace": ("real", ("scale",), ("mu",)),
    "exponential": ("real", ("rate",), ()),
    "gaussian_mixture_2": ("real", ("weights", "mus", "sigmas"), ()),
    "complex_circular_gaussian": ("complex", ("sigma",), ()),
    "complex_uniform_disk": ("complex", ("radius",), ()),
}
# The matrix EPI is tight exactly when every unrecoverable component is Gaussian.
_GAUSSIAN_FAMILIES = {"gaussian", "complex_circular_gaussian"}
_LIST_PARAMS = ("weights", "mus", "sigmas")  # one number per mixture component


@dataclass(frozen=True)
class SourceModel:
    """A named scalar distribution with validated parameters.

    Parameters
    ----------
    family:
        A key of the ``_FAMILIES`` table, which gives its field and parameters.
    params:
        Family-specific parameters; see the factory helpers below.
    field:
        ``"real"`` or ``"complex"``; defaults to the family's field, and any
        other value raises ``UnsupportedFamily``.
    """

    family: str
    params: dict
    field: str | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise UnsupportedFamily(f"unknown family {self.family!r}")
        expected = _FAMILIES[self.family][0]
        if self.field is None:
            object.__setattr__(self, "field", expected)
        elif self.field != expected:
            raise UnsupportedFamily(f"family {self.family!r} is a {expected}-field family")
        _validate_params(self.family, self.params)
        # A copy, so later changes to the caller's dict or lists skip no validation.
        params = {k: v.copy() if isinstance(v, (list, np.ndarray)) else v for k, v in self.params.items()}
        object.__setattr__(self, "params", params)


def _number(family: str, key: str, v) -> float:
    # An int, a float or a numpy real scalar; a bool or a str is not a number.
    if isinstance(v, bool) or not isinstance(v, (int, float, np.integer, np.floating)):
        raise ValueError(f"{family} parameter {key!r} must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{family} parameter {key!r} must be finite, got {v!r}")
    return x


def _validate_params(family: str, params: dict) -> None:
    """Raise ValueError, naming the family and the key, unless every
    parameter is known, present, finite and in range.  The params stay as given."""
    _, required, optional = _FAMILIES[family]
    for key in [*params, *required]:
        if key not in required + optional:
            raise ValueError(f"{family} has no parameter {key!r}")
        if key not in params:
            raise ValueError(f"{family} requires parameter {key!r}")
    p = {}
    for key, v in params.items():
        if key in _LIST_PARAMS:
            v = v.tolist() if isinstance(v, np.ndarray) else v
            if not isinstance(v, (list, tuple)) or len(v) != 2:
                raise ValueError(
                    f"{family} parameter {key!r} must be a list of two numbers, got {v!r}"
                )
            p[key] = [_number(family, key, x) for x in v]
        else:
            p[key] = _number(family, key, v)
    for key in ("sigma", "scale", "rate", "radius"):
        if key in p and not p[key] > 0:
            raise ValueError(f"{family} parameter {key!r} must be positive, got {p[key]}")
    if family == "uniform" and not p["high"] > p["low"]:
        raise ValueError("uniform parameters need 'low' < 'high'")
    if family == "gaussian_mixture_2":
        if min(p["weights"]) <= 0 or abs(sum(p["weights"]) - 1.0) > 1e-12:
            raise ValueError(f"{family} parameter 'weights' must be positive and sum to 1")
        if min(p["sigmas"]) <= 0:
            raise ValueError(f"{family} parameter 'sigmas' must be positive")


def gaussian(sigma: float = 1.0, mu: float = 0.0) -> SourceModel:
    """Normal N(mu, sigma^2)."""
    return SourceModel("gaussian", {"sigma": float(sigma), "mu": float(mu)})


def uniform(low: float, high: float) -> SourceModel:
    """Uniform on [low, high]."""
    return SourceModel("uniform", {"low": float(low), "high": float(high)})


def unit_variance_uniform() -> SourceModel:
    """Uniform on [-sqrt(3), sqrt(3)]: zero mean, unit variance."""
    s = math.sqrt(3.0)
    return uniform(-s, s)


def laplace(scale: float = 1.0, mu: float = 0.0) -> SourceModel:
    """Laplace with density exp(-|x - mu| / scale) / (2 scale)."""
    return SourceModel("laplace", {"scale": float(scale), "mu": float(mu)})


def exponential(rate: float = 1.0) -> SourceModel:
    """Exponential with density rate * exp(-rate x) on x >= 0.

    Not zero-mean; intended for estimator calibration rather than mixing
    experiments.
    """
    return SourceModel("exponential", {"rate": float(rate)})


def gaussian_mixture(weights, mus, sigmas) -> SourceModel:
    """Two-component Gaussian mixture."""
    return SourceModel(
        "gaussian_mixture_2",
        {
            "weights": [float(w) for w in weights],
            "mus": [float(m) for m in mus],
            "sigmas": [float(s) for s in sigmas],
        },
    )


def circular_gaussian(sigma: float = 1.0) -> SourceModel:
    """Circularly symmetric complex normal with E|X|^2 = sigma^2.

    Real and imaginary parts are independent N(0, sigma^2 / 2); the
    entropy, viewing the variable as two real coordinates, is
    log(pi e sigma^2).
    """
    return SourceModel("complex_circular_gaussian", {"sigma": float(sigma)})


def uniform_disk(radius: float = 1.0) -> SourceModel:
    """Uniform on the complex disk of the given radius."""
    return SourceModel("complex_uniform_disk", {"radius": float(radius)})


def exact_entropy(model: SourceModel) -> float:
    """Differential entropy in nats.

    Complex families report the entropy of the two-dimensional real
    embedding.  The two-component Gaussian mixture is integrated by
    adaptive quadrature to absolute accuracy better than 1e-10.
    """
    p = model.params
    if model.family in _GAUSSIAN_FAMILIES:
        # Variance sigma^2 spread over d real dimensions.
        d = real_dims(model.field)
        return d / 2 * math.log(2 * math.pi * math.e * p["sigma"] ** 2 / d)
    if model.family == "uniform":
        return math.log(p["high"] - p["low"])
    if model.family == "laplace":
        return 1.0 + math.log(2 * p["scale"])
    if model.family == "exponential":
        return 1.0 - math.log(p["rate"])
    if model.family == "gaussian_mixture_2":
        return _mixture_entropy(p)
    if model.family == "complex_uniform_disk":
        return math.log(math.pi * p["radius"] ** 2)
    raise UnsupportedFamily(model.family)


def _mixture_density(p: dict) -> Callable[[np.ndarray], np.ndarray]:
    w = np.asarray(p["weights"], dtype=float)
    mus = np.asarray(p["mus"], dtype=float)
    sigmas = np.asarray(p["sigmas"], dtype=float)

    def pdf(x):
        x = np.asarray(x, dtype=float)
        z = (x[..., None] - mus) / sigmas
        comp = np.exp(-0.5 * z * z) / (sigmas * math.sqrt(2 * math.pi))
        return comp @ w

    return pdf


def _mixture_entropy(p: dict) -> float:
    from scipy import integrate

    pdf = _mixture_density(p)
    mus = p["mus"]
    sigmas = p["sigmas"]
    lo = min(m - 40 * s for m, s in zip(mus, sigmas))
    hi = max(m + 40 * s for m, s in zip(mus, sigmas))

    def integrand(x):
        f = pdf(x)
        return np.where(f > 0, -f * np.log(np.maximum(f, 1e-300)), 0.0)

    val, _ = integrate.quad(integrand, lo, hi, points=sorted(mus), limit=400, epsabs=1e-12, epsrel=1e-12)
    return float(val)


def variance(model: SourceModel) -> float:
    """Central second moment; for complex models, E|X - EX|^2."""
    p = model.params
    if model.family in _GAUSSIAN_FAMILIES:
        return p["sigma"] ** 2
    if model.family == "uniform":
        return (p["high"] - p["low"]) ** 2 / 12.0
    if model.family == "laplace":
        return 2.0 * p["scale"] ** 2
    if model.family == "exponential":
        return 1.0 / p["rate"] ** 2
    if model.family == "gaussian_mixture_2":
        w = np.asarray(p["weights"])
        mus = np.asarray(p["mus"])
        sigmas = np.asarray(p["sigmas"])
        m1 = float(w @ mus)
        return float(w @ (sigmas**2 + mus**2) - m1**2)
    if model.family == "complex_uniform_disk":
        return p["radius"] ** 2 / 2.0
    raise UnsupportedFamily(model.family)


def sample(model: SourceModel, n_samples: int, seed: int, stream: int = 0) -> np.ndarray:
    """Draw ``n_samples`` variates deterministically.

    Sampling is inverse-CDF on uniforms from a Philox stream keyed by
    (seed, stream), so results are reproducible bit for bit and independent
    streams never overlap.  Complex families return complex128 arrays.
    """
    n_samples = check_count(n_samples, "n_samples")
    rng = generator(seed, stream)
    p = model.params
    if model.family == "gaussian":
        return p.get("mu", 0.0) + p["sigma"] * normal_open(rng, n_samples)
    if model.family == "uniform":
        return p["low"] + (p["high"] - p["low"]) * rng.random(n_samples)
    if model.family == "laplace":
        u = uniform_open(rng, n_samples) - 0.5
        return p.get("mu", 0.0) - p["scale"] * np.sign(u) * np.log1p(-2.0 * np.abs(u))
    if model.family == "exponential":
        u = rng.random(n_samples)
        return -np.log1p(-u) / p["rate"]
    if model.family == "gaussian_mixture_2":
        which = (rng.random(n_samples) >= p["weights"][0]).astype(int)
        z = normal_open(rng, n_samples)
        return np.asarray(p["mus"])[which] + np.asarray(p["sigmas"])[which] * z
    if model.family == "complex_circular_gaussian":
        z1 = normal_open(rng, n_samples)
        z2 = normal_open(rng, n_samples)
        return p["sigma"] / math.sqrt(2.0) * (z1 + 1j * z2)
    if model.family == "complex_uniform_disk":
        u1 = rng.random(n_samples)
        u2 = rng.random(n_samples)
        r = p["radius"] * np.sqrt(u1)
        ang = 2 * math.pi * u2
        return r * np.exp(1j * ang)
    raise UnsupportedFamily(model.family)


def sample_sources(
    sources, n_samples: int, seed: int, trial: int = 0, columns=None
) -> np.ndarray:
    """Sample an (n_samples, n) matrix, one column per source model.

    Column j of trial t uses the derived stream t * 2^20 + j, so trials and
    components are independent and reproducible.  ``columns`` lists the
    source indices to draw, in output order (default: all); each keeps its
    own stream, so a subset holds exactly the columns of the full draw.  All
    models must live over the same field (else ``UnsupportedFamily``); an
    empty list or a bad count, trial or column raises ``ValueError``.
    """
    sources = list(sources)
    if not sources:
        raise ValueError("need at least one source")
    if len({s.field for s in sources}) > 1:
        raise UnsupportedFamily("cannot sample models over mixed fields into one array")
    n_samples = check_count(n_samples, "n_samples")
    trial = check_count(trial, "trial", 0)
    n = len(sources)
    columns = range(n) if columns is None else [check_count(j, "column", 0, n - 1) for j in columns]
    out = np.empty((n_samples, len(columns)), dtype=dtype_of(sources[0].field))
    for k, j in enumerate(columns):
        out[:, k] = sample(sources[j], n_samples, seed, stream=(trial << 20) | j)
    return out


def check_sources(sources, field: str, cols: int) -> None:
    """Require one model over ``field`` per column of a ``cols``-column
    mixing matrix: ValueError for a wrong count, else UnsupportedFamily."""
    if len(sources) != cols:
        raise ValueError(f"need one source per column: {len(sources)} sources for {cols} columns")
    for s in sources:
        if s.field != field:
            raise UnsupportedFamily(
                f"source family {s.family!r} does not match the {field} matrix field"
            )


def scale_model(model: SourceModel, c: float) -> SourceModel:
    """The model of c X for a positive real factor c.

    Each parameter is multiplied by c, but ``rate`` is divided by c and the
    mixture ``weights`` stay.  Real entropies shift by log c, complex by 2 log c.
    """
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("scale factor must be positive and finite")

    def scaled(key, x):
        return float(x / c if key == "rate" else x if key == "weights" else c * x)

    params = {
        key: [scaled(key, x) for x in v] if key in _LIST_PARAMS else scaled(key, v)
        for key, v in model.params.items()
    }
    return SourceModel(model.family, params)


@dataclass(frozen=True)
class DiagonalScaling:
    """Per-component scale factors recorded by entropy normalization."""

    deltas: tuple[float, ...]


def normalize_entropies(models) -> tuple[list[SourceModel], DiagonalScaling]:
    """Rescale models so all entropies are equal (to zero).

    Each model X_j is replaced by X_j / delta_j with
    delta_j = exp(h(X_j) / d), d real dimensions per entry (2 for complex
    models, whose entropy a scaling shifts by twice the log factor).  All
    models must live over the same field.

    Returns the scaled models and the recorded scalings.
    """
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    fields = {m.field for m in models}
    if len(fields) > 1:
        raise UnsupportedFamily("cannot normalize models over mixed fields")
    d = real_dims(fields.pop())
    deltas = []
    scaled = []
    for m in models:
        delta = math.exp(exact_entropy(m) / d)
        deltas.append(delta)
        scaled.append(scale_model(m, 1.0 / delta))
    return scaled, DiagonalScaling(deltas=tuple(deltas))


def match_entropy(model: SourceModel, target_entropy: float) -> SourceModel:
    """Rescale one model to the requested entropy."""
    d = real_dims(model.field)
    return scale_model(model, math.exp((target_entropy - exact_entropy(model)) / d))


@dataclass(frozen=True)
class TransportMap1D:
    """Monotone map T with T(Z) distributed as the target for Z ~ N(0, 1).

    ``transform`` evaluates T = F_target^{-1} o Phi and ``derivative``
    evaluates T'(x) = phi(x) / f_target(T(x)); both are vectorized and
    strictly positive-derivative.
    """

    target: SourceModel
    _transform: Callable[[np.ndarray], np.ndarray]
    _derivative: Callable[[np.ndarray], np.ndarray]

    def transform(self, x) -> np.ndarray:
        return self._transform(np.asarray(x, dtype=float))

    def derivative(self, x) -> np.ndarray:
        return self._derivative(np.asarray(x, dtype=float))


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)


def quantile_transport(target: SourceModel) -> TransportMap1D:
    """Monotone transport from the standard normal to a real target.

    Gaussian targets use the exact affine map, so identity targets have
    identically zero log-derivative.  The two-component mixture inverts its
    CDF numerically to 1e-12.

    Raises
    ------
    UnsupportedFamily
        For complex targets; use :func:`radial_transport` instead.
    """
    from scipy.special import ndtr

    if target.field != "real":
        raise UnsupportedFamily("quantile transport requires a real target")
    p = target.params
    fam = target.family

    if fam == "gaussian":
        mu, sigma = p.get("mu", 0.0), p["sigma"]

        def t(x):
            return mu + sigma * x

        def dt(x):
            return np.full_like(x, sigma, dtype=float)

    elif fam == "uniform":
        low, width = p["low"], p["high"] - p["low"]

        def t(x):
            return low + width * ndtr(x)

        def dt(x):
            return width * _norm_pdf(x)

    elif fam == "laplace":
        mu, b = p.get("mu", 0.0), p["scale"]

        # 1 - 2|Phi(x) - 1/2| is 2 Phi(-|x|), evaluated as the tail itself:
        # the difference cancels to 0 from |x| = 8.3 on.
        def t(x):
            return mu - b * np.sign(x) * np.log(2.0 * ndtr(-np.abs(x)))

        def dt(x):
            return _norm_pdf(x) * b / ndtr(-np.abs(x))

    elif fam == "exponential":
        rate = p["rate"]

        def t(x):
            # -log(1 - Phi(x)) / rate, with the complement evaluated stably.
            return -np.log(np.maximum(ndtr(-np.asarray(x, dtype=float)), 1e-300)) / rate

        def dt(x):
            return _norm_pdf(x) / np.maximum(rate * ndtr(-np.asarray(x, dtype=float)), 1e-300)

    elif fam == "gaussian_mixture_2":
        from scipy import optimize

        pdf = _mixture_density(p)
        w = np.asarray(p["weights"])
        mus = np.asarray(p["mus"])
        sigmas = np.asarray(p["sigmas"])

        def cdf(y):
            y = np.asarray(y, dtype=float)
            return (ndtr((y[..., None] - mus) / sigmas) @ w).reshape(y.shape)

        lo0 = float(min(mus - 42 * sigmas))
        hi0 = float(max(mus + 42 * sigmas))

        def t(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            u = ndtr(x)
            out = np.empty_like(x)
            for i, ui in np.ndenumerate(u):
                out[i] = optimize.brentq(lambda y: cdf(y) - ui, lo0, hi0, xtol=1e-12, rtol=1e-14)
            return out

        def dt(x):
            x = np.asarray(x, dtype=float)
            return _norm_pdf(x) / np.maximum(pdf(t(x)), 1e-300)

    else:
        raise UnsupportedFamily(fam)

    return TransportMap1D(target=target, _transform=t, _derivative=dt)


@dataclass(frozen=True)
class RadialTransportMap2D:
    """Radial transport of a standard 2-D normal onto a circular target.

    The map sends x to g(|x|) x / |x| where g matches radius CDFs:
    F_target(g(r)) = 1 - exp(-r^2 / 2).  Its Jacobian at x is symmetric
    positive definite with eigenvalues g'(r) and g(r)/r.
    """

    target: SourceModel
    _g: Callable[[np.ndarray], np.ndarray]
    _gprime: Callable[[np.ndarray], np.ndarray]

    def radial_map(self, r) -> np.ndarray:
        return self._g(np.asarray(r, dtype=float))

    def radial_derivative(self, r) -> np.ndarray:
        return self._gprime(np.asarray(r, dtype=float))

    def transform(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        single = pts.ndim == 1
        pts = np.atleast_2d(pts)
        r = np.linalg.norm(pts, axis=1)
        safe = np.maximum(r, 1e-300)
        factor = np.where(r > 0, self._g(safe) / safe, self._gprime(np.zeros_like(r)))
        out = pts * factor[:, None]
        return out[0] if single else out

    def jacobian(self, point) -> np.ndarray:
        x = np.asarray(point, dtype=float)
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return float(self._gprime(np.array(0.0))) * np.eye(2)
        u = (x / r)[:, None]
        proj = u @ u.T
        gp = float(self._gprime(np.array(r)))
        ratio = float(self._g(np.array(r))) / r
        return gp * proj + ratio * (np.eye(2) - proj)


def radial_transport(target: SourceModel) -> RadialTransportMap2D:
    """Radial transport onto a circular complex target.

    For the circular Gaussian with E|X|^2 = sigma^2 the map is the linear
    g(r) = sigma r / sqrt(2); for the uniform disk of radius R it is
    g(r) = R sqrt(1 - exp(-r^2 / 2)).

    Raises
    ------
    NotCircular
        If the target is not a circular complex family.
    """
    if target.field != "complex":
        raise NotCircular("radial transport requires a circular complex target")
    p = target.params
    if target.family == "complex_circular_gaussian":
        slope = p["sigma"] / math.sqrt(2.0)

        def g(r):
            return slope * r

        def gp(r):
            return np.full_like(np.asarray(r, dtype=float), slope)

    elif target.family == "complex_uniform_disk":
        R = p["radius"]

        def g(r):
            return R * np.sqrt(-np.expm1(-0.5 * r * r))

        def gp(r):
            r = np.asarray(r, dtype=float)
            base = np.sqrt(np.maximum(-np.expm1(-0.5 * r * r), 1e-300))
            out = R * r * np.exp(-0.5 * r * r) / (2.0 * base)
            # Limit R / sqrt(2) at r -> 0.
            return np.where(r < 1e-8, R / math.sqrt(2.0), out)

    else:
        raise NotCircular(f"family {target.family!r} is not circular")

    return RadialTransportMap2D(target=target, _g=g, _gprime=gp)


def transport_log_derivative_expectation(tmap: TransportMap1D, n_samples: int, seed: int) -> float:
    """Monte Carlo estimate of E[log T'(Z)] for Z ~ N(0, 1).

    Equals h(target) - h(N(0, 1)) in expectation; in particular it vanishes
    when the target entropy matches the standard normal entropy, and is
    exactly zero for the standard normal target itself.
    """
    n_samples = check_count(n_samples, "n_samples")
    z = normal_open(generator(seed, 0), n_samples)
    return float(np.mean(np.log(tmap.derivative(z))))
