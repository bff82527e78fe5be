"""Coordinate charts, metrics given by expressions, maps, and sections."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import parse

_PRIMES = (2, 3, 5, 7, 11, 13)


class DomainError(ValueError):
    """A point, parameter set, or region violates a chart's domain."""


def _halton(indices, base):
    out = np.zeros(len(indices))
    # copy: //= below must not clobber the caller's index array
    f, i = 1.0, np.array(indices, dtype=np.int64)
    active = i > 0
    while np.any(active):
        f /= base
        out = out + f * (i % base)
        i //= base
        active = i > 0
    return out


@dataclass(frozen=True)
class ChartDomain:
    """An open box in R^dim with named coordinates and excluded hyperplanes.

    ``excluded`` lists (axis, value) pairs for loci like rho = 0 that the
    chart must avoid; sampling stays clear of them by an absolute margin.
    """
    coords: tuple
    box: tuple  # ((lo, hi), ...) per axis
    excluded: tuple = ()

    def __post_init__(self):
        if len(self.coords) != len(self.box):
            raise ValueError("one box interval per coordinate required")
        for lo, hi in self.box:
            if not lo < hi:
                raise ValueError(f"empty box interval ({lo}, {hi})")

    @property
    def dim(self):
        return len(self.coords)

    def sample(self, count, seed):
        """Low-discrepancy interior points: Halton stream offset by the seed,
        box shrunk 5% per side, excluded hyperplanes avoided by 1e-3."""
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        span = hi - lo
        lo_s, hi_s = lo + 0.05 * span, hi - 0.05 * span
        start = 1 + (int(seed) % (1 << 20)) * count
        pts, need = [], count
        while need > 0:
            idx = np.arange(start, start + 2 * need)
            start += 2 * need
            u = np.stack([_halton(idx, _PRIMES[i % len(_PRIMES)])
                          for i in range(self.dim)], axis=1)
            cand = lo_s + u * (hi_s - lo_s)
            keep = np.ones(len(cand), dtype=bool)
            for axis, value in self.excluded:
                keep &= np.abs(cand[:, axis] - value) > 1e-3
            cand = cand[keep][:need]
            pts.append(cand)
            need -= len(cand)
        return np.concatenate(pts, axis=0)

    def contains(self, x):
        x = np.asarray(x, dtype=float)
        lo = np.array([b[0] for b in self.box])
        hi = np.array([b[1] for b in self.box])
        ok = np.all((x > lo) & (x < hi), axis=-1)
        for axis, value in self.excluded:
            ok &= x[..., axis] != value
        return ok

    def require(self, x):
        """Raise DomainError naming the first point of ``x`` outside the
        chart; its ``outside`` is True at every such point."""
        ok = self.contains(x)
        if not np.all(ok):
            arr = np.asarray(x, dtype=float).reshape(-1, self.dim)
            bad = arr[~np.asarray(ok).reshape(-1)]
            err = DomainError(f"point outside chart domain: {bad[0].tolist()}")
            err.outside = ~ok
            raise err


def _as_ast(component):
    return parse(component) if isinstance(component, str) else component


@dataclass(frozen=True)
class RiemannianMetric:
    """Symmetric 2-tensor with expression components over a chart: F^-2
    times the components when ``factor`` is an expression F
    (:func:`conformal.conformal_metric`), the components themselves when
    it is None."""
    domain: ChartDomain
    components: tuple  # m x m tuple of ASTs
    parameters: dict = field(default_factory=dict)
    factor: object = None

    @classmethod
    def from_components(cls, domain, rows, parameters=None):
        """Components from expressions or source strings; a mirror entry
        whose source text equals its entry's shares that entry's tree."""
        comps = [[_as_ast(c) for c in row] for row in rows]
        if len(comps) != domain.dim or any(len(r) != domain.dim for r in comps):
            raise ValueError("metric component matrix must be dim x dim")
        for i in range(domain.dim):
            for j in range(i):
                if isinstance(rows[i][j], str) and rows[i][j] == rows[j][i]:
                    comps[i][j] = comps[j][i]
        return cls(domain, tuple(map(tuple, comps)), dict(parameters or {}))

    @classmethod
    def euclidean(cls, domain):
        m = domain.dim
        return cls.from_components(
            domain, [[("1" if i == j else "0") for j in range(m)] for i in range(m)])

    @classmethod
    def conformally_flat(cls, domain, factor, parameters=None):
        """factor * delta_ij, with factor an expression in the chart coordinates."""
        m = domain.dim
        f = _as_ast(factor)
        zero = parse("0")
        return cls(domain, tuple(tuple(f if i == j else zero for j in range(m))
                                 for i in range(m)), dict(parameters or {}))

    @property
    def dim(self):
        return self.domain.dim


@dataclass(frozen=True)
class SmoothMap:
    """Map between charts, one expression per codomain coordinate."""
    domain: ChartDomain
    codomain: ChartDomain
    components: tuple
    parameters: dict = field(default_factory=dict)

    @classmethod
    def from_components(cls, domain, codomain, comps, parameters=None):
        comps = tuple(_as_ast(c) for c in comps)
        if len(comps) != codomain.dim:
            raise ValueError("one component per codomain coordinate required")
        return cls(domain, codomain, comps, dict(parameters or {}))


@dataclass(frozen=True)
class VectorFieldAlongMap:
    """Section of the pulled-back tangent bundle: codomain-frame components
    given by expressions in the domain coordinates."""
    components: tuple
    parameters: dict = field(default_factory=dict)

    @classmethod
    def from_components(cls, comps, parameters=None):
        return cls(tuple(_as_ast(c) for c in comps), dict(parameters or {}))

