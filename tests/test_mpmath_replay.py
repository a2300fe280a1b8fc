"""The eleven closed forms of h(c) and the four kernels' moments, replayed at 40
digits with mpmath.

The replay shares no arithmetic with zetagaps.fracpoly: a polynomial is a
dict {(k, m): coefficient} for the term x**(k + m*a), a = r**2, and every
integral is a termwise mpmath Beta value.  Only the scheme's float
coefficients are read from the library.
"""

import mpmath as mp
import pytest

from zetagaps.fracpoly import FracPoly
from zetagaps.hfunc import CoeffScheme, h_value

from conftest import HB_FIELDS


def _add(out, key, value):
    out[key] = out.get(key, 0) + value


def replay(scheme, c, n_sinc_terms=24):
    """The eleven components and h(c) of hfunc's closed forms, as mpf values."""
    r = mp.mpf(scheme.r)
    a = r * r

    def expo(key):
        return key[0] + key[1] * a

    def mul(p, q):
        out = {}
        for kp, vp in p.items():
            for kq, vq in q.items():
                _add(out, (kp[0] + kq[0], kp[1] + kq[1]), vp * vq)
        return out

    def conv(p, q):  # u -> int_0^u p(v) q(u - v) dv
        out = {}
        for kp, vp in p.items():
            for kq, vq in q.items():
                beta = mp.beta(expo(kp) + 1, expo(kq) + 1)
                _add(out, (kp[0] + kq[0] + 1, kp[1] + kq[1]), vp * vq * beta)
        return out

    def bc(p):  # u -> int_0^u (u - v)**(a-1) p(v) dv
        return {(k, m + 1): v * mp.beta(a, expo((k, m)) + 1) for (k, m), v in p.items()}

    def integral(w, p):  # int_0^1 (1 - u)**(w-1) p(u) du
        return mp.fsum(v * mp.beta(w, expo(k) + 1) for k, v in p.items())

    def reflect(p):  # u -> p(1 - u) for integer exponents
        out = {}
        for (n, _), v in p.items():
            for k in range(n + 1):
                _add(out, (k, 0), v * mp.binomial(n, k) * (-1) ** k)
        return out

    def poly(fp, drop=0):
        return {(k - drop, 0): mp.mpf(float(v)) for k, v in enumerate(fp.to_coeffs()) if v}

    f1, f1t, p1 = poly(scheme.f1), poly(scheme.f1t), poly(scheme.P, drop=1)
    p1c = reflect(p1)
    p2c = reflect({(k - 1, m): v for (k, m), v in mul(poly(scheme.P), poly(scheme.P)).items()})
    x = mp.pi * mp.mpf(c)
    sinc = {(2 * j, 0): (-1) ** j * x ** (2 * j + 1) / mp.factorial(2 * j + 1) for j in range(n_sinc_terms)}
    sin_p1 = mul({(k + 1, m): v for (k, m), v in sinc.items()}, p1)
    conv_s_f1, conv_s_f1t = conv(sinc, f1), conv(sinc, f1t)
    big_f = bc(mul(f1t, f1t))
    big_g = bc(mul(f1t, conv_s_f1t))
    pref1, pref3, pref5 = (-2 * r**k / mp.pi for k in (1, 3, 5))
    out = {
        "d1": integral(a, mul(f1, f1)),
        "d2": 2 * r**2 * integral(1, mul(p1c, bc(mul(f1, f1t)))),
        "d31": r**4 * integral(1, mul(p1c, conv(p1, big_f))),
        "d32": r**2 * integral(1, mul(p2c, big_f)),
        "n1": pref1 * integral(a, mul(f1, conv_s_f1)),
        "n2": pref3 * integral(1, mul(p1c, bc(mul(f1t, conv_s_f1)))),
        "n31": pref3 * integral(1, mul(p1c, bc(mul(f1, conv_s_f1t)))),
        "n32": pref1 * integral(a, mul(f1, conv(sin_p1, f1t))),
        "n41": pref5 * integral(1, mul(p1c, conv(p1, big_g))),
        "n42": pref3 * integral(1, mul(p2c, big_g)),
        "n43": pref3 * integral(1, mul(p1c, bc(mul(f1t, conv(sin_p1, f1t))))),
    }
    den = mp.fsum(out[k] for k in HB_FIELDS[:4])
    out["h"] = mp.mpf(c) - mp.fsum(out[k] for k in HB_FIELDS[4:]) / den
    return out


def _check(name, scheme, cs):
    for c in cs:
        hb = h_value(scheme, c)
        with mp.workdps(40):
            ref = replay(scheme, c)
        for field in HB_FIELDS:
            rel = abs(getattr(hb, field) - ref[field]) / abs(ref[field])
            assert rel <= 1e-14, (name, c, field, float(rel))
        assert abs(hb.h - ref["h"]) <= 1e-15, (name, c)


@pytest.mark.parametrize("which", [0, 1, 2])
def test_h_value_matches_40_digit_replay(rows, which):
    preset = rows[which]
    _check(preset.name, preset.scheme, (preset.c, 0.01, 0.45, 0.6, 0.99))


def test_h_value_matches_40_digit_replay_at_r_one(row1):
    # r = 1 makes K1 = 1 and every kernel exponent an integer
    scheme = CoeffScheme(r=1.0, f1=row1.scheme.f1, f1t=row1.scheme.f1t, P=row1.scheme.P)
    _check("r=1", scheme, (0.01, 0.45, row1.c, 0.99))


def replay_kernels(scheme, m):
    """<K, x**n> = int_0^1 K(1-u) u**n du for n < m of K1 = x**(a-1), K2 = r^2 BC(P1),
    K3 = r^4 P1 * BC(P1) and K4 = r^2 BC(P1 P), built term by term as in replay."""
    a = mp.mpf(scheme.r) ** 2

    def expo(key):
        return key[0] + key[1] * a

    def bc(p):  # u -> int_0^u (u - v)**(a-1) p(v) dv
        return {(k, m + 1): v * mp.beta(a, expo((k, m)) + 1) for (k, m), v in p.items()}

    def pair(kernel, n):  # <kernel, x**n>
        return mp.fsum(v * mp.beta(expo(k) + 1, n + 1) for k, v in kernel.items())

    p = {(k, 0): mp.mpf(float(v)) for k, v in enumerate(scheme.P.to_coeffs()) if v}
    p1 = {(k - 1, 0): v for (k, _), v in p.items()}
    p2, k3, bc_p1 = {}, {}, bc(p1)
    for kp, vp in p1.items():
        for kq, vq in p.items():
            _add(p2, (kp[0] + kq[0], 0), vp * vq)
        for kq, vq in bc_p1.items():
            beta = mp.beta(expo(kp) + 1, expo(kq) + 1)
            _add(k3, (kp[0] + kq[0] + 1, kq[1]), vp * vq * beta)
    kernels = [({(-1, 1): mp.mpf(1)}, 1), (bc_p1, a), (k3, a * a), (bc(p2), a)]
    return [[scale * pair(kernel, n) for n in range(m)] for kernel, scale in kernels]


def test_kernels_match_40_digit_replay(rows):
    s, poly = rows[0].scheme, FracPoly.from_coeffs
    schemes = {preset.name: preset.scheme for preset in rows} | {
        "r=1": CoeffScheme(1.0, s.f1, s.f1t, s.P),  # every Beta argument an integer
        "r=1.5": CoeffScheme(1.5, s.f1, s.f1t, s.P),
        "P=0": CoeffScheme(1.2, poly([1.0]), FracPoly.zero(), FracPoly.zero()),  # width 1
        "deg P=6": CoeffScheme(
            1.3, poly([1.0, -0.5]), poly([0.3, 1.0]), poly([0, 1.0, -0.5, 0.25, 0.3, -0.2, 0.1])
        ),
    }
    for name, scheme in schemes.items():
        got = scheme.kernels
        with mp.workdps(40):
            ref = replay_kernels(scheme, got.shape[1])
        for i, (row, ref_row) in enumerate(zip(got, ref)):
            for n, (x, y) in enumerate(zip(row.tolist(), ref_row)):
                ok = x == 0 if y == 0 else abs(x - y) / abs(y) <= 1e-14
                assert ok, (name, i, n, x, float(y))
