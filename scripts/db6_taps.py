"""Derive the 12-tap Daubechies low-pass filter (6 vanishing moments) in float64.

Spectral factorisation in 50-digit arithmetic (needs mpmath, which the
package does not depend on): the squared response is
``|m0(xi)|^2 = cos(xi/2)^12 P(sin(xi/2)^2)`` with
``P(y) = sum_{k<6} C(5+k, k) y^k``. Each root y of P gives the pair z, 1/z
of ``z^2 - (2 - 4y) z + 1 = 0``; the extremal-phase filter keeps the root
inside the unit circle, ``h(z) ~ (1 + z)^6 prod (z - z_k)``, scaled to
``sum h = sqrt(2)``. Prints the taps as ``spatial.DB6_LO`` lists them.

Run: python3 scripts/db6_taps.py
"""

from math import comb

import mpmath as mp

mp.mp.dps = 50
N = 6


def taps():
    p = [comb(N - 1 + k, k) for k in range(N)]          # P(y), lowest power first
    kept = []
    for y in mp.polyroots(p[::-1], maxsteps=200, extraprec=200):
        z = mp.polyroots([1, -(2 - 4 * y), 1], extraprec=200)
        kept.append(min(z, key=abs))
    poly = [mp.mpc(1)]                                   # lowest power first
    for root in [mp.mpf(-1)] * N + kept:
        poly = [a - root * b for a, b in zip([0] + poly, poly + [0])]
    h = [mp.re(c) for c in poly]
    scale = mp.sqrt(2) / sum(h)
    return [c * scale for c in h][::-1]


if __name__ == "__main__":
    for c in taps():
        print(f"    {float(c)!r},")
