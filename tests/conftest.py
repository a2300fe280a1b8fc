import importlib.util
import pathlib
import sys

import numpy as np
import pytest
from numpy.polynomial.polynomial import Polynomial

import zetagaps.hfunc
from zetagaps import PRESETS, CoeffScheme, FracPoly

HB_FIELDS = ["d1", "d2", "d31", "d32", "n1", "n2", "n31", "n32", "n41", "n42", "n43"]


def compose_one_minus(p: FracPoly) -> FracPoly:
    """x -> p(1 - x), by numpy's polynomial composition: the reflection that hfunc never
    takes, as a test reference.  DomainError unless p has integer exponents (to_coeffs)."""
    return FracPoly.from_coeffs(Polynomial(p.to_coeffs())(Polynomial([1.0, -1.0])).coef)


def from_terms(terms) -> FracPoly:
    """The sum of the (coefficient, exponent) pairs c x**e, repeats summed: a test shorthand
    for FracPoly(shift, coeffs), whose exponents lie whole numbers above the smallest."""
    c, e = np.array(list(terms), dtype=float).reshape(-1, 2).T
    shift = e.min() if e.size else 0.0
    return FracPoly(shift, np.bincount(np.rint(e - shift).astype(int), weights=c))


# Reference construction of the forms: every coefficient of x = (f1 | f1t) is a one-hot
# unit row, pushed through the general pairing T[i, j, a, b] = <K_i, f_ia ((x**(2j) h_i) * g_ib)>
# by einsum.  Rows n1..n43: kernel, and dense rows (f1, f1t, P, 1) of f, h and g.
REF_K, REF_F, REF_H, REF_G = np.array(
    [[0, 1, 1, 0, 2, 3, 1], [0, 1, 0, 0, 1, 1, 1], [3, 3, 3, 2, 3, 3, 2], [0, 0, 1, 1, 1, 1, 1]]
)


def reference_pairings(mu, f, h, g):
    """T[i, j, a, b] = sum_kl h_ik g_ibl B(2j+k+1, l+1) nu_ia(2j+k+l+1) for nu_ia = mu_i correlated
    with f_ia: the kernel moments gathered through a degree table of their own."""
    nu = np.array([[np.correlate(m, fa, "valid") for fa in fi] for m, fi in zip(mu, f)])
    j, k, l = np.ogrid[: zetagaps.fracpoly.SINE_TERMS, : h.shape[1], : h.shape[1]]
    betas = zetagaps.hfunc._unit_betas(h.shape[1])[2 * j + k, l]
    return np.einsum("iajkl,ik,ibl->ijab", nu[:, :, 2 * j + k + l + 1] * betas, h, g)


def reference_forms(scheme):
    """The forms row by row, (A_i, B_i) with d_i = x A_i x and M[i, j] = x B_ij x: summed over
    rows in row order, the floats hfunc._forms(scheme.r, scheme.dense[2]) gives."""
    w = scheme.dense.shape[1]
    unit = np.eye(2 * w).reshape(2 * w, 2, w).transpose(1, 0, 2)
    hankel = scheme.kernels[:, np.add.outer(np.arange(w), np.arange(w))]
    hankel[1] *= 2.0
    a = np.einsum("iam,iml,ibl->iab", unit[[0, 0, 1, 1]], hankel, unit[[0, 1, 1, 1]])
    b = reference_pairings(scheme.kernels[REF_K], unit[REF_F], scheme.dense[REF_H], unit[REF_G])
    return 0.5 * (a + a.swapaxes(1, 2)), 0.5 * (b + b.swapaxes(2, 3))


WORKER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture
def perfbench_worker(monkeypatch):
    """perfbench/worker.py loaded as a module, leaving no bytecode in perfbench/."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.fixture(scope="session")
def rows():
    return PRESETS


@pytest.fixture(scope="session")
def row1():
    return PRESETS[0]


@pytest.fixture(scope="session")
def row2():
    return PRESETS[1]


@pytest.fixture(scope="session")
def row3():
    return PRESETS[2]


@pytest.fixture(scope="session")
def plain_scheme():
    """f1 = 1, no second piece: the simplest nondegenerate scheme."""
    return CoeffScheme(
        r=1.0,
        f1=FracPoly.from_coeffs([1.0]),
        f1t=FracPoly.zero(),
        P=FracPoly.zero(),
    )


@pytest.fixture(scope="session")
def ramp_scheme():
    """f1 = 1 - u, no second piece."""
    return CoeffScheme(
        r=1.0,
        f1=FracPoly.from_coeffs([1.0, -1.0]),
        f1t=FracPoly.zero(),
        P=FracPoly.zero(),
    )


def certify_batch():
    """The three presets, then 21 copies with r and every coefficient scaled by a factor in
    [0.99, 1.01], drawn in the order the certify benchmark draws its seed-0, repeat-0 batch."""
    rng = np.random.default_rng([0, 0])
    schemes = [p.scheme for p in PRESETS]
    for i in range(7 * len(PRESETS)):
        base = PRESETS[i % len(PRESETS)].scheme
        r = base.r * (1.0 + rng.uniform(-0.01, 0.01))
        f1, f1t, p = (
            FracPoly.from_coeffs(c * (1.0 + rng.uniform(-0.01, 0.01, c.size)))
            for c in (q.to_coeffs() for q in (base.f1, base.f1t, base.P))
        )
        schemes.append(CoeffScheme(r, f1, f1t, p))
    return schemes
