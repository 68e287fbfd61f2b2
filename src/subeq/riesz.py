"""Riesz characteristic of a monotonicity cone.

For a cone M of pure second-order type, the characteristic is the largest
p such that I - p e⊗e stays in M for every unit direction e.  It controls
which radial powers/logs are subharmonic for everything M-monotone, and it
is monotone in M, so it doubles as a quick cone-size invariant.

The scalar is computed by bisection on the predicate "all probe directions
accept I - p e⊗e", evaluated in one batched rho call per candidate p.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (Subequation, DEFAULT_EPS_B, _unit_sphere_qmc, bisect,
                   sample_members)
from .catalog import make_pcone
from .errors import ConfigError


@dataclass(frozen=True)
class RieszResult:
    p: float
    unbounded: bool
    directions_tested: int
    bracket: tuple
    label: str = ""

    def to_json_dict(self) -> dict:
        return {"p": self.p, "unbounded": self.unbounded,
                "directions_tested": self.directions_tested,
                "bracket": list(self.bracket), "label": self.label}


def _probe_directions(n: int, extra: int = 64, seed: int = 0) -> np.ndarray:
    # a few balanced combinations catch off-axis minima of sharp cones
    comb = np.ones((1, n)) / np.sqrt(n)
    return np.vstack([np.eye(n), _unit_sphere_qmc(n, extra, seed=seed), comb])


def _accepts(M: Subequation, p, dirs: np.ndarray) -> np.ndarray:
    """Per direction e: is I - p e⊗e in M, within the boundary band?
    ``p`` is one value for all directions or one value per direction."""
    n = M.n
    N = len(dirs)
    p = np.reshape(p, (-1, 1, 1))
    A = np.eye(n)[None, :, :] - p * np.einsum("ni,nj->nij", dirs, dirs)
    vals = M.value_batch(np.zeros(N), np.zeros((N, n)), A)
    return vals >= -DEFAULT_EPS_B


def riesz_characteristic(M: Subequation, tol: float = 1e-6,
                         dirs: int = 64, seed: int = 0) -> RieszResult:
    """Bisect for sup{p : I - p e⊗e in M for all unit e}.

    Requires a reduced, x-independent cone (the quantity only makes sense
    there).  Values at or beyond n + 1 are reported as unbounded: every
    matrix I - p e⊗e already lies well inside the maximal cone by then.

    The sup is taken over ``dirs + n + 1`` probe directions only (the axes,
    ``dirs`` quasi-random ones and the balanced one), so ``tol`` bounds the
    bisection, not the direction sampling: p can exceed the exact value
    where the worst direction lies between probes.
    """
    if M.x_dependent or not M.reduced:
        raise ConfigError("characteristic needs a reduced constant cone")
    n = M.n
    probes = _probe_directions(n, extra=dirs, seed=seed)
    cap = float(n + 1)

    if not _accepts(M, 1.0, probes).all():
        # smaller than the smallest nontrivial cone; bisect down from 1
        lo, hi = 0.0, 1.0
    elif _accepts(M, cap, probes).all():
        return RieszResult(cap, True, len(probes), (cap, np.inf), M.label)
    else:
        lo, hi = 1.0, cap

    lo, hi = bisect(lambda mid: _accepts(M, mid, probes).all(),
                    lo, hi, 80, done=lambda lo, hi: hi - lo <= 0.5 * tol)
    lo, hi = float(lo), float(hi)
    return RieszResult(0.5 * (lo + hi), False, len(probes), (lo, hi), M.label)


@dataclass(frozen=True)
class InclusionReport:
    p: float
    included: bool
    trials: int
    violations: int
    witness: dict | None

    def to_json_dict(self) -> dict:
        return {"p": self.p, "included": self.included, "trials": self.trials,
                "violations": self.violations, "witness": self.witness}


def pcone_inclusion_check(M: Subequation, p: float,
                          trials: int = 2000) -> InclusionReport:
    """Sampled test of "every member of the p-cone lies in M".

    Random members of the p-cone are drawn by rejection, augmented with the
    deterministic extremal family I - q e⊗e for q between 1 and p: those
    rank-one perturbations are exactly the matrices that decide inclusion.
    """
    if M.x_dependent or not M.reduced:
        raise ConfigError("inclusion check needs a reduced constant cone")
    n = M.n
    P = make_pcone(p, n)
    rng = np.random.default_rng(0)

    mats = []
    if trials > 0:
        _, _, A = sample_members(P, trials, rng)
        mats.append(A)
    qs = np.linspace(1.0, p, 17)
    es = _probe_directions(n, extra=32, seed=1)
    probes = (np.eye(n)[None, None, :, :]
              - qs[:, None, None, None] * np.einsum("ni,nj->nij", es, es)[None])
    mats.append(probes.reshape(-1, n, n))
    A_all = np.concatenate(mats, axis=0)
    rng.shuffle(A_all, axis=0)

    vals = M.value_batch(np.zeros(len(A_all)), np.zeros((len(A_all), n)), A_all)
    bad = np.flatnonzero(vals < -DEFAULT_EPS_B)
    witness = None
    if len(bad):
        i = int(bad[np.argmin(vals[bad])])
        witness = {"A": A_all[i].tolist(), "value": float(vals[i])}
    return InclusionReport(p, len(bad) == 0, int(len(A_all)),
                           int(len(bad)), witness)


def directional_thresholds(M: Subequation, dirs: int = 16,
                           seed: int = 0) -> np.ndarray:
    """Per-direction sup{p : I - p e⊗e in M}, each bisected to a bracket of
    1e-8; min over e is the characteristic."""
    if M.x_dependent or not M.reduced:
        raise ConfigError("thresholds need a reduced constant cone")
    n = M.n
    es = _unit_sphere_qmc(n, dirs, seed=seed)
    cap = float(n + 1)
    unbounded = _accepts(M, cap, es)
    lo, hi = bisect(lambda mid: _accepts(M, mid, es),
                    np.zeros(dirs), np.full(dirs, cap), 60,
                    done=lambda lo, hi: unbounded | (hi - lo <= 1e-8))
    return np.where(unbounded, np.inf, 0.5 * (lo + hi))
