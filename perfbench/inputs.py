"""Seeded inputs for the benchmark workloads.

Every repeat of a run draws its inputs from numpy's generator seeded with
[seed, repeat], so the same seed always gives the same inputs and no two
repeats of one run hand the program the same perturbed schemes.  Schemes
are the built-in presets with every nonzero coefficient scaled by a
factor in [1 - rel, 1 + rel]; zero coefficients, and so the degrees and
P's vanishing constant term, are kept.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from zetagaps.fracpoly import FracPoly
from zetagaps.hfunc import CoeffScheme
from zetagaps.presets import PRESETS

PERTURB_REL = 0.01
PERTURBED_PER_SHAPE = 7  # 3 degree shapes, so 21 perturbed schemes per certify batch
CERTIFY_GRID = (0.45, 0.60, 0.002)  # wide scan: about 33 steps, then 13 bisections
CERTIFY_TOL = 1e-6
ORACLE_T = 1e9
# a_k are checked against trial division at this smaller length, K_CHECK
# sampled indices, and the whole finite ratio against a brute-force sum at
# ORACLE_T_CHECK (mollifier length 754).
K_CHECK = 200_000
N_AK_SAMPLES = 64
ORACLE_T_CHECK = 1e5


@dataclass(frozen=True)
class Item:
    """One scheme handed to the program; base_c is set for unperturbed presets."""

    label: str
    scheme: CoeffScheme
    base_c: float | None = None


def rng_for(seed: int, repeat: int) -> np.random.Generator:
    return np.random.default_rng([seed, repeat])


def dense(p: FracPoly) -> np.ndarray:
    out = np.zeros(int(round(p.degree)) + 1 if not p.is_zero else 0)
    for coeff, expo in p.terms:
        out[int(round(expo))] = coeff
    return out


def perturb(scheme: CoeffScheme, rng, rel: float, rel_r: float) -> CoeffScheme:
    def jitter(p: FracPoly) -> FracPoly:
        c = dense(p)
        return FracPoly.from_coeffs(c * (1.0 + rng.uniform(-rel, rel, c.size)))

    return CoeffScheme(
        r=scheme.r * (1.0 + rng.uniform(-rel_r, rel_r)),
        f1=jitter(scheme.f1),
        f1t=jitter(scheme.f1t),
        P=jitter(scheme.P),
    )


def certify_batch(seed: int, repeat: int) -> list[Item]:
    """The three presets as published, then 7 perturbed copies of each shape."""
    rng = rng_for(seed, repeat)
    items = [Item(p.name, p.scheme, p.c) for p in PRESETS]
    for i in range(PERTURBED_PER_SHAPE * len(PRESETS)):
        base = PRESETS[i % len(PRESETS)]
        scheme = perturb(base.scheme, rng, PERTURB_REL, PERTURB_REL)
        items.append(Item(f"{base.name}~{i}", scheme))
    return items


def optimize_start(seed: int, repeat: int) -> CoeffScheme:
    """table1-row1 (degrees 3, 1, 2) with its coefficients perturbed, r kept."""
    return perturb(PRESETS[0].scheme, rng_for(seed, repeat), PERTURB_REL, 0.0)


def oracle_scheme(seed: int, repeat: int) -> tuple[Item, np.ndarray]:
    """table1-row3 perturbed like the certify batch, and the a_k indices to check.

    One base shape for every seed: the oracle's peak memory grows with the
    number of terms of f1 (coeffs_ak evaluates it on all K points at once).
    """
    rng = rng_for(seed, repeat)
    base = PRESETS[2]
    scheme = perturb(base.scheme, rng, PERTURB_REL, PERTURB_REL)
    ks = np.concatenate([[1, 2, K_CHECK], rng.integers(3, K_CHECK, N_AK_SAMPLES - 3)])
    return Item(f"{base.name}~oracle", scheme), ks
