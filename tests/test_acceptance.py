"""Acceptance gate: one test per advertised guarantee, one PASS/FAIL line each.

Each criterion prints a single ``[criterion N] PASS/FAIL`` line with the
measured numbers before asserting, so a full run documents the state of
every guarantee at once.  Criteria 1 and 2 compare the benchmark table
against fixed reference magnitudes; under the pinned periodic data model
they are known not to hold, and the tests record the measured values
instead of widening the bands (see the module README).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import funcdeconv as fd
from funcdeconv import simlab

THREADS = 4

REFERENCE_FUNCTIONAL = 0.0363   # M=256, sigma=0.5, quadratic x blip
REFERENCE_SEPARATE = 0.0452


def _report(num: int, ok: bool, detail: str) -> str:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    return line


class TestCriterion1TableOrderings:
    def test_all_24_orderings_match_the_reference_table(self, table25,
                                                        table_cell):
        """Documented expected failure: functional should win every M=256
        cell and separate every M=128 cell (24/24).  Under the pinned
        periodic model the functional estimator's MISE falls below the
        separate one at *both* grid sizes, so the twelve M=128 orderings
        are inverted."""
        matches, total = 0, 0
        misses = []
        for f1, f2 in simlab.PAIR_ORDER:
            for sigma in (0.5, 1.0):
                fun256 = table_cell(table25, f1, f2, 256, sigma, "functional")
                sep256 = table_cell(table25, f1, f2, 256, sigma, "separate")
                fun128 = table_cell(table25, f1, f2, 128, sigma, "functional")
                sep128 = table_cell(table25, f1, f2, 128, sigma, "separate")
                for ok, tag in ((fun256 < sep256, f"{f1}x{f2} s={sigma} M=256"),
                                (sep128 < fun128, f"{f1}x{f2} s={sigma} M=128")):
                    total += 1
                    matches += ok
                    if not ok:
                        misses.append(tag)
        line = _report(1, matches == total,
                       f"{matches}/{total} orderings match the reference "
                       f"table (first misses: {misses[:3]})")
        assert matches == total, line


class TestCriterion2TableMagnitudes:
    def test_quadratic_blip_cell_within_35_percent_of_reference(self):
        """Documented expected failure: the pinned periodic model changes
        the absolute error scale, so the measured magnitudes sit far above
        the reference cell (0.0363 functional / 0.0452 separate)."""
        res = {}
        for mode in ("functional", "separate"):
            sim = simlab.SimConfig(f1="Quadratic", f2="Blip", m=256, n=512,
                                   sigma=0.5, mode=mode, runs=100, seed=0,
                                   threads=THREADS)
            res[mode] = simlab.run_mise(sim).mean_mise
        ok_fun = abs(res["functional"] - REFERENCE_FUNCTIONAL) \
            <= 0.35 * REFERENCE_FUNCTIONAL
        ok_sep = abs(res["separate"] - REFERENCE_SEPARATE) \
            <= 0.35 * REFERENCE_SEPARATE
        line = _report(2, ok_fun and ok_sep,
                       f"functional {res['functional']:.4g} vs "
                       f"{REFERENCE_FUNCTIONAL} +-35%, separate "
                       f"{res['separate']:.4g} vs {REFERENCE_SEPARATE} +-35%")
        assert ok_fun and ok_sep, line


class TestCriterion3SigmaScaling:
    def test_quadrupling_holds_in_every_cell(self, table25, table_cell):
        """MISE(sigma=1)/MISE(sigma=0.5) lies in [3.2, 4.6] for all 24
        (pair, M, mode) combinations."""
        ratios = []
        for f1, f2 in simlab.PAIR_ORDER:
            for m in (128, 256):
                for mode in ("functional", "separate"):
                    lo = table_cell(table25, f1, f2, m, 0.5, mode)
                    hi = table_cell(table25, f1, f2, m, 1.0, mode)
                    ratios.append(hi / lo)
        ratios = np.array(ratios)
        ok = bool(np.all((ratios >= 3.2) & (ratios <= 4.6)))
        line = _report(3, ok, f"24 cell ratios in [{ratios.min():.3f}, "
                              f"{ratios.max():.3f}], required [3.2, 4.6]")
        assert ok, line


class TestCriterion4VarianceLaw:
    def test_noise_only_coefficient_variance_scaling(self, kernel_for):
        """Var(beta-tilde) * MN * 2^(-2 j nu) is level-constant within a
        factor 4 across j in {3,4,5} (200 noise-only replicates) and
        quadruples when sigma doubles (independent seed block)."""
        m, n, sigma = 64, 512, 0.5
        _, ks = kernel_for(m, n)
        nu = fd.estimate_nu(ks)
        zero = np.zeros((m, n))

        def collect(sig, seed, reps=200):
            ent, cfg = [], None
            for rep in range(reps):
                obs = simlab.synthesize_data(zero, sig, seed=seed, rep=rep)
                if cfg is None:
                    cfg = fd.config_for(obs, ks, mode="functional", nu=nu,
                                        j=6, j_prime=6)
                co = fd.estimate_coeffs(fd.fourier_coeffs(obs.samples), fd.plan(cfg, ks))
                ent.append(co.entries)
            return np.array(ent), co

        ent, co = collect(sigma, seed=0)
        slices = co.plan.time_slices
        stat = {j: ent[:, :, slices[j]].var(axis=0).mean()
                * m * n * 2.0 ** (-2 * j * nu) for j in (3, 4, 5)}
        spread = max(stat.values()) / min(stat.values())
        ent2, _ = collect(2 * sigma, seed=1)
        doubling = (ent2[:, :, slices[4]].var(axis=0).mean()
                    / ent[:, :, slices[4]].var(axis=0).mean())
        ok = spread < 4.0 and 3.2 <= doubling <= 4.8
        line = _report(4, ok,
                       f"S_3..S_5 = {stat[3]:.1f}/{stat[4]:.1f}/{stat[5]:.1f} "
                       f"(spread {spread:.3f} < 4), sigma-doubling ratio "
                       f"{doubling:.3f} in [3.2, 4.8]")
        assert ok, line


class TestCriterion5TransformExactness:
    def test_round_trips_norms_bounds_and_supports(self, meyer, spatial):
        """Analysis/synthesis round trips < 1e-10; unit row norms; the
        2^(-j/2) amplitude bound; exact frequency-support containment."""
        rng = np.random.default_rng(5)
        checks = []

        n = 256
        spec = np.zeros((3, n // 2 + 1), dtype=complex)
        interior = fd.j_capacity(n)
        mmax = (2 ** interior) // 3
        re = rng.standard_normal((3, mmax + 1))
        im = rng.standard_normal((3, mmax + 1))
        im[:, 0] = 0.0
        spec[:, :mmax + 1] = re + 1j * im
        packed = meyer.analyze_t(spec, interior)
        back = np.zeros_like(spec)
        band = meyer.synthesize_t(packed)
        back[:, :band.shape[1]] = band
        checks.append(("meyer round trip",
                       float(np.abs(back - spec).max()) < 1e-10))

        x = rng.standard_normal(128)
        y = spatial.dwt_inverse(spatial.dwt_forward(x))
        checks.append(("spatial round trip",
                       float(np.abs(y - x).max()) < 1e-10))

        norm_dev, amp_excess, containment = 0.0, 0.0, True
        synthesis, weight = fd.MeyerBasis().band_matrix(9)
        norms = (synthesis ** 2 * weight).sum(1)
        rows, slices = synthesis.view(complex), fd.level_slices(3, 9)
        for j in range(3, 9):
            ms = meyer.support_set(j)
            lo, hi = math.ceil(2 ** j / 3), (2 ** (j + 2)) // 3
            containment &= bool(np.all((np.abs(ms) >= lo) & (np.abs(ms) <= hi)))
            norm_dev = max(norm_dev, float(np.abs(norms[slices[j]] - 1.0).max()))
            amp_excess = max(amp_excess,
                             float(np.abs(rows[slices[j]]).max()) - 2.0 ** (-j / 2))
        checks.append(("unit row norms", norm_dev < 1e-10))
        checks.append(("amplitude bound", amp_excess < 1e-12))
        checks.append(("support containment", containment))

        ok = all(flag for _, flag in checks)
        failed = [name for name, flag in checks if not flag]
        line = _report(5, ok, "round trips < 1e-10, norm dev "
                              f"{norm_dev:.2e}, amp excess {amp_excess:.2e}, "
                              f"containment exact"
                              + (f"; FAILED: {failed}" if failed else ""))
        assert ok, line


class TestCriterion6SingleAtomRecovery:
    def test_tensor_atom_comes_back_as_a_unit_coefficient(self, meyer,
                                                          spatial,
                                                          kernel_for):
        """sigma = 0, one tensor basis function at (j=4, k=2) x (j'=4, k'=3),
        M = N = 256: the target estimate is 1 +- 0.02, everything else
        below 0.02."""
        m = n = 256
        _, ks = kernel_for(m, n)
        tslices = fd.level_slices(3, 5)
        packed = np.zeros((1, 32))
        packed[0, tslices[4].start + 2] = 1.0
        t_part = fd.spectrum_to_samples(meyer.synthesize_t(packed), n)[0]
        sslices = fd.level_slices(3, 8)
        unit = np.zeros(m)
        unit[sslices[4].start + 3] = 1.0
        u_part = spatial.dwt_inverse(unit) * math.sqrt(m)
        obs = simlab.synthesize_data(np.outer(u_part, t_part), 0.0)
        cfg = fd.config_for(obs, ks, j=5, j_prime=6)
        coeffs = fd.estimate_coeffs(fd.fourier_coeffs(obs.samples), fd.plan(cfg, ks))
        atom = (sslices[4].start + 3, tslices[4].start + 2)
        target = coeffs.entries[atom]
        rest = coeffs.entries.copy()
        rest[atom] = 0.0
        worst = float(np.abs(rest).max())
        ok = abs(target - 1.0) <= 0.02 and worst < 0.02
        line = _report(6, ok, f"target coefficient {target:.6f} "
                              f"(needs 1 +- 0.02), largest other {worst:.2e} "
                              f"(needs < 0.02)")
        assert ok, line


class TestCriterion7RateCalculatorExactness:
    def test_case_form_matches_min_form_on_10k_admissible_draws(self, min_form):
        """exponent_multi's case selection equals the three-way min form on
        10,000 seeded admissible draws, with zero discrepancies, and the
        worked examples are exact as rationals."""
        rng = np.random.default_rng(20260814)
        p_choices = (Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3),
                     math.inf)
        accepted = discrepancies = 0
        while accepted < 10_000:
            s1 = Fraction(int(rng.integers(1, 73)), int(rng.integers(1, 13)))
            s2 = Fraction(int(rng.integers(1, 73)), int(rng.integers(1, 13)))
            nu = Fraction(int(rng.integers(0, 25)), int(rng.integers(1, 7)))
            p = p_choices[int(rng.integers(0, len(p_choices)))]
            ball = fd.BesovBall(s1=s1, s2_vec=(s2,), p=p)
            if not ball.in_regime():
                continue
            accepted += 1
            rep = fd.exponent_multi(ball, nu)
            if rep.d != min_form(ball, nu):
                discrepancies += 1
        examples = (
            (fd.BesovBall(s1=4, s2_vec=(1,)), 1, Fraction(2, 3)),
            (fd.BesovBall(s1=2, s2_vec=(1,)), 1, Fraction(4, 7)),
            (fd.BesovBall(s1=Fraction(6, 5), s2_vec=(1,), p=1), 2,
             Fraction(7, 27)),
        )
        exact = all(fd.exponent_multi(b, nu).d == want for b, nu, want in examples)
        ok = discrepancies == 0 and exact
        line = _report(7, ok, f"{discrepancies} discrepancies in "
                              f"{accepted} draws; worked examples "
                              f"{'exact' if exact else 'WRONG'}")
        assert ok, line


class TestCriterion8MiseSlope:
    def test_log_log_mise_falls_with_mn(self):
        """Fixed sigma and signal pair, M in {64, 128, 256}: mean MISE is
        strictly decreasing in MN and the log-log slope is negative."""
        mise = []
        for m in (64, 128, 256):
            sim = simlab.SimConfig(f1="Quadratic", f2="Blip", m=m, n=512,
                                   sigma=0.5, mode="functional", runs=25,
                                   seed=0, threads=THREADS)
            mise.append(simlab.run_mise(sim).mean_mise)
        mn = np.array([64, 128, 256]) * 512.0
        slope = np.polyfit(np.log(mn), np.log(mise), 1)[0]
        ok = slope < 0 and mise[0] > mise[1] > mise[2]
        line = _report(8, ok, f"MISE {mise[0]:.1f}/{mise[1]:.1f}/"
                              f"{mise[2]:.1f} strictly decreasing, "
                              f"log-log slope {slope:.3f} < 0")
        assert ok, line
