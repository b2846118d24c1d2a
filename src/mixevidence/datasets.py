"""Dataset generation and ingestion.

Two small simulated benchmarks (a well-separated two-component mixture and
a three-component mixture with overlap) are generated on demand from their
defining mixtures; the galaxy and fish-length benchmark files are vendored
under ``data/`` with provenance notes in their headers.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .model import Dataset
from .numerics import as_generator

__all__ = [
    "MixtureSpec",
    "D1_SPEC",
    "D2_SPEC",
    "generate_dataset",
    "load_dataset",
    "builtin_dataset",
    "BUILTIN_NAMES",
    "DatasetFormatError",
]


class DatasetFormatError(ValueError):
    """A dataset file could not be parsed."""


@dataclass(frozen=True)
class MixtureSpec:
    """A generating Gaussian mixture given as (weights, means, sds)."""

    weights: tuple[float, ...]
    means: tuple[float, ...]
    sds: tuple[float, ...]

    def __post_init__(self):
        if not (len(self.weights) == len(self.means) == len(self.sds)):
            raise ValueError("weights/means/sds must have equal length")
        if abs(sum(self.weights) - 1.0) > 1e-12 or any(w < 0 for w in self.weights):
            raise ValueError("weights must be a probability vector")
        if any(s <= 0 for s in self.sds):
            raise ValueError("sds must be positive")

    @property
    def k(self) -> int:
        return len(self.weights)

    @property
    def mean(self) -> float:
        return float(np.dot(self.weights, self.means))

    @property
    def variance(self) -> float:
        w = np.array(self.weights)
        m = np.array(self.means)
        s = np.array(self.sds)
        return float(np.dot(w, s**2 + m**2) - self.mean**2)


# 60 points from 0.3 N(-1, 1) + 0.7 N(5, 2^2): well separated.
D1_SPEC = MixtureSpec((0.3, 0.7), (-1.0, 5.0), (1.0, 2.0))
# 80 points from 0.15 N(-5, 1) + 0.65 N(1, 2^2) + 0.2 N(6, 1): overlapping.
D2_SPEC = MixtureSpec((0.15, 0.65, 0.2), (-5.0, 1.0, 6.0), (1.0, 2.0, 1.0))

_DEFAULT_N = {"d1": 60, "d2": 80}


def generate_dataset(spec: MixtureSpec | str, n: int | None = None, rng=0,
                     name: str = "") -> Dataset:
    """n iid draws: a component index per point, then the Gaussian draw."""
    if isinstance(spec, str):
        key = spec.lower()
        if key not in ("d1", "d2"):
            raise ValueError(f"unknown mixture spec name: {spec!r}")
        if n is None:
            n = _DEFAULT_N[key]
        name = name or key
        spec = D1_SPEC if key == "d1" else D2_SPEC
    if n is None or n < 1:
        raise ValueError("n must be >= 1")
    gen = as_generator(rng)
    comp = gen.choice(spec.k, size=n, p=spec.weights)
    x = gen.normal(np.array(spec.means)[comp], np.array(spec.sds)[comp])
    return Dataset(x, name=name or "mixture")


def load_dataset(path, name: str = "") -> Dataset:
    """Plain text, one value per line; blank lines and `#` comments ignored."""
    path = Path(path)
    values = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                values.append(float(line))
            except ValueError:
                raise DatasetFormatError(
                    f"{path}:{lineno}: not a number: {line!r}"
                ) from None
            if not np.isfinite(values[-1]):
                raise DatasetFormatError(f"{path}:{lineno}: not a finite number: {line!r}")
    if not values:
        raise DatasetFormatError(f"{path}: no numeric values found")
    return Dataset(np.array(values), name=name or path.stem)


BUILTIN_NAMES = ("d1", "d2", "galaxy", "fishery")


def builtin_dataset(name: str, n: int | None = None, rng=0) -> Dataset:
    """A named benchmark: simulated (d1, d2) or vendored (galaxy, fishery)."""
    key = name.lower()
    if key in ("d1", "d2"):
        return generate_dataset(key, n=n, rng=rng)
    if key in ("galaxy", "fishery"):
        ref = resources.files("mixevidence").joinpath(f"data/{key}.txt")
        with resources.as_file(ref) as path:
            return load_dataset(path, name=key)
    raise ValueError(f"unknown builtin dataset {name!r}; choose from {BUILTIN_NAMES}")
