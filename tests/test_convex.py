"""Convex-density LSE: Gram forms, certificates, oracle equivalence."""

import hashlib
import math

from hypothesis import example, given, settings, strategies as st
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import cholesky
from scipy.optimize import nnls

from shapedist import convexlse
from shapedist.convexlse import (
    ConvexLse,
    FitError,
    characterization_report,
    fit_lse,
    gram_matrix,
    lse_objective,
    marshall_A,
    marshall_Aprime,
)
from shapedist.curves import Extrema, curve_sub, extrema
from shapedist.empirical import (EmpiricalData, integrated_ecdf, integrated_ecdf_curve, sample,
                                 seed_for)
from shapedist.models import make_model


def test_gram_matrix_against_quadrature():
    thetas = np.array([0.3, 1.0, 1.7, 4.2])
    G = gram_matrix(thetas)
    for i, ti in enumerate(thetas):
        for j, tj in enumerate(thetas):
            want, _ = quad(
                lambda x: max(ti - x, 0.0) * max(tj - x, 0.0),
                0.0,
                float(max(ti, tj)),
                points=[float(min(ti, tj))],
            )
            assert math.isclose(G[i, j], want, rel_tol=1e-10)
    assert np.all(np.linalg.eigvalsh(G) > 0)


def test_single_point_closed_form():
    # one observation x1: minimizing over a single generator gives
    # Q(c, theta) = c^2 theta^3/6 - c (theta - x1)_+, optimized at
    # theta = 3 x1, c = 2/(9 x1^2), Q = -2 x1/27... (value -3(th-x1)^2/(2 th^3))
    for x1 in (0.5, 2.0, 7.0):
        fit = fit_lse(EmpiricalData(np.array([x1])))
        np.testing.assert_allclose(fit.kinks, [3.0 * x1], rtol=1e-9)
        np.testing.assert_allclose(fit.weights, [2.0 / (9.0 * x1**2)], rtol=1e-9)
        q = lse_objective(EmpiricalData(np.array([x1])), fit.kinks, fit.weights)
        assert math.isclose(q, -2.0 * x1 / 27.0 / x1**2 * x1, rel_tol=1e-9) or math.isclose(
            q, -3.0 * (2.0 * x1) ** 2 / (2.0 * (3.0 * x1) ** 3), rel_tol=1e-9
        )


def test_objective_value_single_generator():
    d = EmpiricalData(np.array([2.0]))
    # c = 1/18, theta = 6: Q = 1/2 c^2 theta^3/3 - c * (6-2) = -1/9
    assert math.isclose(lse_objective(d, [6.0], [1.0 / 18.0]), -1.0 / 9.0, rel_tol=1e-12)


@pytest.mark.parametrize("trial", range(8))
def test_fit_matches_grid_oracle(trial):
    # independent oracle: NNLS over a dense fixed generator grid; the fit
    # must reach at least the same objective value.
    rng = np.random.default_rng(100 + trial)
    n = int(rng.integers(1, 4))
    d = EmpiricalData(rng.exponential(size=n) + 0.05)
    fit = fit_lse(d)
    qfit = lse_objective(d, fit.kinks, fit.weights)
    xmax = float(d.x[-1])
    grid = np.unique(np.concatenate([np.linspace(0.02 * xmax, 6.0 * xmax, 220), fit.kinks]))
    G = gram_matrix(grid)
    v = np.asarray(integrated_ecdf(d, grid), dtype=float)
    L = cholesky(G + 1e-13 * G.diagonal().max() * np.eye(len(grid)), lower=True)
    c, _ = nnls(L.T, np.linalg.solve(L, v))
    qgrid = float(0.5 * c @ G @ c - c @ v)
    assert qfit <= qgrid + 1e-7


@pytest.mark.parametrize("n", [10, 100, 1000])
def test_characterization_certificate(n):
    m = make_model("truncated-exponential", (1.0,))
    for rep in range(10):
        d = sample(m, n, seed_for(300, n, rep))
        fit = fit_lse(d)
        rep_ = characterization_report(fit, d)
        cube = float(d.x[-1]) ** 3
        assert rep_.min_gap >= -1e-8 * cube
        assert rep_.max_abs_gap_at_kinks <= 1e-8 * cube
        assert rep_.tail_min_gap >= -1e-8 * cube


def test_fit_properties():
    d = sample(make_model("truncated-exponential", (1.0,)), 400, seed=2)
    fit = fit_lse(d)
    assert np.all(fit.weights > 0)
    assert np.all(np.diff(fit.kinks) > 0)
    # decreasing convex density; integrates to ~1; CDF/double integral consistent
    hi = float(fit.kinks[-1]) * 1.1
    t = np.linspace(0.0, hi, 500)
    dens = fit.density_curve()(t)
    assert np.all(np.diff(dens) <= 1e-12)
    assert np.all(np.diff(dens, 2) >= -1e-12)
    assert abs(fit.mass - 1.0) <= 1e-4
    cdf, icdf = fit.cdf_curve(), fit.integrated_cdf_curve()
    assert math.isclose(cdf(hi), fit.mass, rel_tol=1e-12)
    h = 1e-6
    mid = t[5:-5]
    np.testing.assert_allclose((icdf(mid + h) - icdf(mid - h)) / (2 * h), cdf(mid), atol=1e-6)
    np.testing.assert_allclose((cdf(mid + h) - cdf(mid - h)) / (2 * h), fit.density_curve()(mid),
                               atol=1e-5)
    # the curve and the closed-form scan are two routes to the same integrated CDF
    np.testing.assert_allclose(icdf(t), fit._integrated_cdf_sorted(t, convexlse._powers(t)),
                               rtol=0.0, atol=1e-14)


def test_descent_trace():
    d = sample(make_model("beta-like", (2.0,)), 250, seed=6)
    fit, info = fit_lse(d, full_output=True)
    tr = info["objective_trace"]
    assert len(tr) == info["iterations"] >= 1
    assert all(b <= a + 1e-10 * (1.0 + abs(a)) for a, b in zip(tr, tr[1:]))
    assert info["min_gap"] >= -1e-9 * float(d.x[-1]) ** 3
    assert math.isclose(tr[-1], lse_objective(d, fit.kinks, fit.weights), rel_tol=1e-9)


def test_scale_equivariance():
    # halving the data is exact in binary floats: kinks halve, weights x4
    d = sample(make_model("truncated-exponential", (1.0,)), 150, seed=13)
    f1 = fit_lse(d)
    f2 = fit_lse(EmpiricalData(d.x / 2.0))
    np.testing.assert_allclose(f2.kinks, f1.kinks / 2.0, rtol=1e-12)
    np.testing.assert_allclose(f2.weights, f1.weights * 4.0, rtol=1e-12)


def test_marshall_factor_two():
    # projection inequalities for the least-squares fit: the fitted cdf is
    # at most twice as far from any convex decreasing-density cdf as the
    # ecdf is, and the same factor holds one level up for the integrated
    # cdf against any curve with convex derivative.
    m = make_model("truncated-exponential", (1.0,))
    interval = (0.0, m.tau)
    for rep in range(100):
        d = sample(m, 150, seed_for(55, 150, rep))
        fit = fit_lse(d)
        lhs, rhs = marshall_A(fit, d, m.F_curve(), interval)
        assert lhs <= rhs + 1e-12  # rhs already carries the factor 2
        lhs_h, rhs_h = marshall_Aprime(fit, d, m.Fint_curve(), interval)
        assert lhs_h <= 2.0 * rhs_h + 1e-12


def test_marshall_integrated_level_needs_factor_two():
    # negative control, frozen counterexample: a factor-one inequality at
    # the integrated level is false.  The fitted integrated cdf touches the
    # integrated ecdf only at its kinks, so wherever the integrated ecdf
    # attains its sup-distance from the target on the positive side at a
    # non-kink point, the fit is strictly farther.  That happens in roughly
    # half of all replicates; this seed is one verified instance (the fit
    # is globally optimal: an independent dense-grid NNLS solve agrees with
    # its objective to 5e-13).
    m = make_model("truncated-exponential", (1.0,))
    d = sample(m, 150, seed_for(55, 150, 0))
    fit = fit_lse(d)
    hi = 3.0 * float(d.x[-1])
    lhs, rhs = marshall_Aprime(fit, d, m.Fint_curve(), (0.0, hi))
    assert math.isclose(lhs, 0.0351205767, abs_tol=1e-9)
    assert math.isclose(rhs, 0.0347544270, abs_tol=1e-9)
    assert lhs > rhs  # factor one fails ...
    assert lhs <= 2.0 * rhs  # ... factor two does not


def test_fit_rejects_bad_input():
    with pytest.raises(FitError):
        fit_lse(EmpiricalData(np.array([0.0, 0.0, 0.0])))


def test_convexlse_evaluators_sorted_construction():
    lse = ConvexLse(np.array([2.0, 1.0]), np.array([0.1, 0.2]))
    np.testing.assert_allclose(lse.kinks, [1.0, 2.0])
    np.testing.assert_allclose(lse.weights, [0.2, 0.1])
    # density at 0 is sum c_i theta_i; mass is sum c theta^2/2
    assert math.isclose(lse.density_curve()(0.0), 0.2 * 1.0 + 0.1 * 2.0, rel_tol=1e-15)
    assert math.isclose(lse.mass, 0.5 * (0.2 * 1.0 + 0.1 * 4.0), rel_tol=1e-15)
    assert lse.density_curve()(5.0) == 0.0
    assert math.isclose(lse.cdf_curve()(5.0), lse.mass, rel_tol=1e-15)


# sha256 of the float.hex of kinks, weights, objective trace and min_gap, and
# the iteration count, recorded before the candidate scan was streamed and the
# certificate screened: both must keep every bit of the support-reduction path.
FROZEN_FITS = {
    ("truncated-exponential", 64, 0): "7301da58c7daaa0d37be8aa286c76d0f72f483b9d45aa828beed2dbf1dd29a83",
    ("truncated-exponential", 64, 1): "a206c93618e975f35223fa73f79f98e711776ccb5873485c35995475f9408f8c",
    ("truncated-exponential", 64, 2): "ba9b95d3594a91ea8d567131ad7dd78b9c1518e77129841c1262adf9406dd333",
    ("truncated-exponential", 512, 0): "f134a80057284724af983730996b28023a24e5ac01ad5292f57c95c843cce005",
    ("truncated-exponential", 512, 1): "2e1f09a913c2a5ee4a7a6db14650a556583135fb727f9c3d022b84dcecbc9a65",
    ("truncated-exponential", 512, 2): "d698a128bd4245839fbeed220a3e7ef394253dc27259bf3e3998b866f33caa3f",
    ("truncated-exponential", 4096, 0): "6f2888511770e5dc090fb1d9326e46a80c416c8829a24ac274730c00052bfc77",
    ("truncated-exponential", 4096, 1): "c3f5f57d94bd63ebdc0fe63d361178b7ed1db40482a01427c6be306c830949c4",
    ("truncated-exponential", 4096, 2): "fd0ccdd9b65af089f52b2a7bb5d4468acab4ce6e917df9a07730b67c985b63f1",
    ("beta-like", 64, 0): "35d87d6d84048016381b013a4ce86e55400ec7b783f11a7e5c9a9322cd2c9235",
    ("beta-like", 64, 1): "89a3b05d34c04facf5f4bc5dc2b3da1768bd6c78ff340854b5a7556de0a96ebb",
    ("beta-like", 64, 2): "c4724bb8a801db182f6a0d00dd1dfef9d4ee5d394f4dce676667e67d5c27a8d6",
    ("beta-like", 512, 0): "ae4f00ec2a48d15bf1b34b3ba4f2f4af03440af89f0e6ce669a4ae122d44489c",
    ("beta-like", 512, 1): "205ac65a6f0cde081114924b239f29e5bc89a6dc81b7709234c0ddea76853399",
    ("beta-like", 512, 2): "4c7a98df7a19a6a5674a9faf82b1afbb109f3325e1f995fed090df0e51719ab3",
    ("beta-like", 4096, 0): "8f5f0e032d10bc17c1a04283adfa7c740397e841325c7b96085f78ee63e0a940",
    ("beta-like", 4096, 1): "2346900235709c330e5391fd3f528e8c092c30497d1e894c1d1ea56e0db0fe8c",
    ("beta-like", 4096, 2): "667008debd694fe8cec5fd6ad1c289385a6e0f7deaa7e97fbf1ca6126eec517f",
    ("shifted-power", 64, 0): "3b72c8934be6228bfc206159d05a1786a9a65ed41a57d8d6dc595925c968a5d7",
    ("shifted-power", 64, 1): "135f2fbbe7413bebc2d6bffc5f1d831889696731eb704ae74e17e7ddfd885cfa",
    ("shifted-power", 64, 2): "6bb0f54f7a52f8249bae12f628ce3c071b01d1e96cc998d18d693b30dd92c528",
    ("shifted-power", 512, 0): "b7635bacceed1faecfc607066a82d93af826755d422ef9a528162b295c43c42d",
    ("shifted-power", 512, 1): "8b07ea49188a76be64690d281df9b7912e1f79bb81168a060d945954dfbbb2b4",
    ("shifted-power", 512, 2): "26e9ad9f2212f59c3e07977f0cdd4682e03341d6b7eeda47ec9f204dfb3323cf",
    ("shifted-power", 4096, 0): "934be541eeba42ab0a7c852aab5f717e0d0db955df39c4b02760564b34bbd972",
    ("shifted-power", 4096, 1): "d56d2e5e01f8837a66c71828a1a965003368b19dae2b8ac06808f6be5cbe7923",
    ("shifted-power", 4096, 2): "a5237232300bb78e1fe220d86caa9c14026ea3839439c2935f52fffbb7360d58",
    ("lattice", 400, 0): "b3523586c3c9ea2b019484cc2bd08aabe86a5202683ad4b0745b6d5c47ebcfd5",
}
FROZEN_MODELS = {"truncated-exponential": (1.0,), "beta-like": (2.0,), "shifted-power": (3.0, 1.0)}


def _frozen_sample(name, n, rep):
    if name == "lattice":  # sixteenths: 62 distinct values, heavy ties
        d = sample(make_model("truncated-exponential", (1.0,)), n, seed_for(2024, n, rep))
        return EmpiricalData(np.ceil(d.x * 16.0) / 16.0)
    return sample(make_model(name, FROZEN_MODELS[name]), n, seed_for(2024, n, rep))


@pytest.mark.parametrize("case", sorted(FROZEN_FITS))
def test_fit_path_is_frozen(case):
    fit, info = fit_lse(_frozen_sample(*case), full_output=True)
    fields = [fit.kinks, fit.weights, info["objective_trace"], [info["min_gap"]]]
    text = "|".join(",".join(float.hex(float(v)) for v in f) for f in fields)
    text += f"|{info['iterations']}"
    assert hashlib.sha256(text.encode()).hexdigest() == FROZEN_FITS[case]


@pytest.mark.parametrize("case", [("truncated-exponential", 300, 0), ("beta-like", 300, 1),
                                  ("shifted-power", 300, 2), ("lattice", 300, 0)])
def test_certificate_screen_is_sound(case, monkeypatch):
    # Record the support after every pass of a fit, then screen each state:
    # an interval the screen clears must have an exact gap minimum above the
    # certificate, and a violation it reports must be the full engine's
    # minimum, value and location, bit for bit.
    d = _frozen_sample(*case)
    states = []
    solve = convexlse._solve_nonnegative

    def recording(*args):
        out = solve(*args)
        states.append(out[:2])
        return out

    monkeypatch.setattr(convexlse, "_solve_nonnegative", recording)
    fit_lse(d)
    monkeypatch.undo()

    xn = float(d.x[-1])
    gap_tol = 1e-9 * xn**3
    clear_at = -gap_tol + max(gap_tol, 1e-12 * xn)
    cands, at_data = convexlse._candidate_grid(d)
    vcand = np.asarray(integrated_ecdf(d, cands), dtype=float)
    violations = cleared = 0
    for thetas, w in states[:: max(1, len(states) // 6)] + states[-1:]:
        fit = ConvexLse(thetas, w)
        horizon = max(3.0 * xn, 1.3 * float(fit.kinks[-1]))
        yn = integrated_ecdf_curve(d)
        H = fit.integrated_cdf_curve()
        gap = curve_sub(H, yn)
        keep = convexlse._uncleared_pieces(
            fit._integrated_cdf_sorted(cands, convexlse._powers(cands)) - vcand, at_data, yn, clear_at)
        assert keep[0] and keep[-1]
        for p in np.flatnonzero(~keep):
            assert extrema(gap, yn.x[p], yn.x[p + 1]).min_val >= -gap_tol
            cleared += 1
        got = convexlse._difference_extrema(H, yn, 0.0, horizon, keep)
        if got.min_val < -gap_tol:
            want = extrema(gap, 0.0, horizon)
            assert (got.min_val.hex(), got.min_at.hex()) == (want.min_val.hex(), want.min_at.hex())
            violations += 1
    assert cleared and violations


def _gathered_integrated_cdf(fit, t):
    """The integrated CDF gathered point by point, the formula of the evaluator
    ``ConvexLse.integrated_cdf`` that the sorted scan replaced: the suffix
    column of the first kink above each point, then the tail sum."""
    i = np.searchsorted(fit.kinks, t, side="right")
    s = fit._suffix[:, i]
    tail = s[3] - 3.0 * t * s[2] + 3.0 * t * t * s[1] - t**3 * s[0]
    return t * fit._suffix[2, 0] / 2.0 - fit._suffix[3, 0] / 6.0 + tail / 6.0


@pytest.mark.parametrize("case", sorted(FROZEN_FITS))
def test_sorted_scan_matches_the_gathered_formula_bitwise(case):
    d = _frozen_sample(*case)
    fit = fit_lse(d)
    cands, _ = convexlse._candidate_grid(d)
    for t in (fit.kinks, cands):
        got = fit._integrated_cdf_sorted(t, convexlse._powers(t))
        assert got.tobytes() == _gathered_integrated_cdf(fit, t).tobytes()


@pytest.mark.parametrize("case", sorted(FROZEN_FITS))
def test_fit_is_the_same_without_full_output(case):
    # the objective trace is computed only under full_output; the passes are not
    d = _frozen_sample(*case)
    fit, info = fit_lse(d, full_output=True)
    bare = fit_lse(d)
    assert bare.kinks.tobytes() == fit.kinks.tobytes()
    assert bare.weights.tobytes() == fit.weights.tobytes()
    assert info["iterations"] == len(info["objective_trace"])


def _twice_integrated_density(fit):
    """The integrated CDF as the density's curve integrated twice, the route
    ``ConvexLse.integrated_cdf_curve`` took before it ran the recurrences on
    the suffix-sum columns."""
    return fit.density_curve().antiderivative().antiderivative()


def _same_curve(got, want):
    return got.x.tobytes() == want.x.tobytes() and got.c.tobytes() == want.c.tobytes()


@pytest.mark.parametrize("case", sorted(FROZEN_FITS))
def test_integrated_cdf_curve_matches_the_twice_integrated_density_bitwise(case):
    fit = fit_lse(_frozen_sample(*case))
    assert _same_curve(fit.integrated_cdf_curve(), _twice_integrated_density(fit))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=12, unique=True),
       st.lists(st.floats(1e-6, 4.0), min_size=12, max_size=12))
@example([0.0, 1.5], [0.25] * 12)  # a kink at 0 is the first piece start
@example([0.0], [1.0] * 12)
def test_integrated_cdf_curve_of_any_kinks_matches_bitwise(kinks, weights):
    fit = ConvexLse(np.array(kinks), np.array(weights[:len(kinks)]))
    assert _same_curve(fit.integrated_cdf_curve(), _twice_integrated_density(fit))


@pytest.mark.parametrize("case", [("beta-like", 512, 0), ("lattice", 400, 0)])
def test_sorted_scan_writes_neither_the_suffix_sums_nor_the_powers(case):
    d = _frozen_sample(*case)
    fit = fit_lse(d)
    cands, _ = convexlse._candidate_grid(d)
    powers = convexlse._powers(cands)
    before = [fit._suffix.tobytes()] + [p.tobytes() for p in powers]
    first = fit._integrated_cdf_sorted(cands, powers).tobytes()
    assert fit._integrated_cdf_sorted(cands, powers).tobytes() == first
    assert [fit._suffix.tobytes()] + [p.tobytes() for p in powers] == before


# float.hex of (min_gap, max_abs_gap_at_kinks, tail_min_gap), recorded when the
# kink values were still gathered point by point
FROZEN_REPORTS = {
    ("beta-like", 64, 0): ("0x0.0p+0", "0x1.0000000000000p-53", "-0x1.5b491e9e925c9p-32"),
    ("truncated-exponential", 512, 1): ("-0x1.a1954ae0761e5p-23", "0x1.0000000000000p-50",
                                        "-0x1.077996efdf269p-24"),
    ("shifted-power", 4096, 2): ("-0x1.19eb4c3f44b2bp-34", "0x1.0000000000000p-53",
                                 "-0x1.e5ea724dc59e3p-33"),
    ("lattice", 400, 0): ("-0x1.312d2f4d4dc0fp-22", "0x1.0000000000000p-49",
                          "-0x1.32e97a1c4dbeep-22"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_REPORTS))
def test_characterization_report_is_frozen(case):
    d = _frozen_sample(*case)
    r = characterization_report(fit_lse(d), d)
    got = (r.min_gap, r.max_abs_gap_at_kinks, r.tail_min_gap)
    assert tuple(float.hex(v) for v in got) == FROZEN_REPORTS[case]


# Paths of fit_lse that no sample in these tests reaches, pinned as they behave.
SMALL = EmpiricalData(np.array([1.0, 2.0, 3.0, 5.0]))


def test_singular_gram_is_jittered(monkeypatch):
    # two equal kinks make the Gram matrix exactly singular: the last kink is
    # moved by 1e-9 of itself, its ECDF integral re-read, and the ratio step
    # then drops it
    grams, reads = [], []
    monkeypatch.setattr(convexlse, "gram_matrix",
                        lambda t: grams.append(t.tolist()) or gram_matrix(t))
    monkeypatch.setattr(convexlse, "integrated_ecdf",
                        lambda d, t: reads.append(t) or integrated_ecdf(d, t))
    thetas = np.array([2.5, 2.5])
    v = np.asarray(integrated_ecdf(SMALL, thetas), dtype=float)
    th, w, v_out, G = convexlse._solve_nonnegative(thetas, v, np.zeros(2), SMALL)
    assert grams == [[2.5, 2.5], [2.5, 2.5 * (1.0 + 1e-9)], [2.5]]
    assert reads == [2.5 * (1.0 + 1e-9)]
    assert th.tolist() == [2.5] and v_out.tolist() == [0.5]
    assert w[0].hex() == "0x1.89374bc6a7ef9p-4"  # 0.5 / (2.5^3 / 3) = 0.096
    assert G.tolist() == gram_matrix([2.5]).tolist()
    # three jitters are the limit
    grams.clear()
    monkeypatch.setattr(convexlse, "gram_matrix",
                        lambda t: grams.append(t.tolist()) or np.zeros((len(t), len(t))))
    with pytest.raises(FitError, match="singular generator set"):
        convexlse._solve_nonnegative(thetas, v, np.zeros(2), SMALL)
    assert len(grams) == 4


def test_solve_can_drop_every_kink():
    # a kink below X_(1) has a zero ECDF integral, so its weight solves to 0
    out = convexlse._solve_nonnegative(np.array([0.5]), np.array([0.0]), np.zeros(1), SMALL)
    assert [a.shape for a in out] == [(0,), (0,), (0,), (0, 0)]


def test_duplicate_kink_is_nudged(monkeypatch):
    # a continuum violation reported at an existing kink adds that kink plus
    # 1e-9 X_(n); the solve drops it, and the fit rejoins its own path one pass later
    want, want_info = fit_lse(SMALL, full_output=True)
    solve, asked = convexlse._solve_nonnegative, []
    monkeypatch.setattr(convexlse, "_solve_nonnegative",
                        lambda th, *rest: asked.append(th.tolist()) or solve(th, *rest))
    full = convexlse._difference_extrema
    monkeypatch.setattr(convexlse, "_difference_extrema", lambda H, *rest: (
        Extrema(-1.0, float(H.x[1]), 0.0, 0.0) if len(asked) == 1 else full(H, *rest)))
    fit, info = fit_lse(SMALL, full_output=True)
    assert asked[:2] == [[10.0], [10.0, 10.0 + 1e-9 * 5.0]]
    assert fit.kinks.tobytes() == want.kinks.tobytes()
    assert fit.weights.tobytes() == want.weights.tobytes()
    assert info["iterations"] == want_info["iterations"] + 1


def test_fit_stalls_on_a_duplicate_kink(monkeypatch):
    # a solve that keeps every kink, with weights large enough that the grid is
    # clean, and a violation always at the first kink: the nudge lands on the
    # kink the previous nudge added
    monkeypatch.setattr(convexlse, "_solve_nonnegative",
                        lambda th, v, w, d: (th, np.ones(len(th)), v, gram_matrix(th)))
    monkeypatch.setattr(convexlse, "_difference_extrema",
                        lambda H, *rest: Extrema(-1.0, float(H.x[1]), 0.0, 0.0))
    with pytest.raises(FitError, match="stalled on duplicate kink"):
        fit_lse(SMALL)


def test_fit_without_a_certificate_gives_up(monkeypatch):
    # a solve that drops every kink never lets the grid come clean
    calls = []
    monkeypatch.setattr(convexlse, "_solve_nonnegative", lambda th, v, w, d: calls.append(th) or (
        np.empty(0), np.empty(0), np.empty(0), np.empty((0, 0))))
    with pytest.raises(FitError, match="no certificate after 500 iterations"):
        fit_lse(SMALL)
    assert len(calls) == 500 and all(th.tolist() == [10.0] for th in calls)


def test_nan_weights_make_the_restoration_cycle():
    # the kink at 0.5 solves to a negative weight, but NaN weights are never
    # dropped, so the ratio steps repeat until their cap
    thetas = np.array([0.5, 10.0])
    v = np.asarray(integrated_ecdf(SMALL, thetas), dtype=float)
    assert np.linalg.solve(gram_matrix(thetas), v)[0] < 0.0
    with pytest.raises(FitError, match="nonnegativity restoration cycled"):
        convexlse._solve_nonnegative(thetas, v, np.full(2, np.nan), SMALL)


def test_mass_deficit_aims_past_the_horizon(monkeypatch):
    # one kink at 6 with mass 0.999 clears the gap on [0, 3 X_(n)] = [0, 15],
    # but the gap falls at slope mass - 1 beyond: the next kink is aimed where
    # it undershoots the certificate, horizon + (gap(15) + 2 gap_tol) / (1 - mass)
    c, asked = 0.999 / 18.0, []

    class Stop(Exception):
        pass

    def solve(thetas, v, w, data):
        asked.append(thetas.tolist())
        if len(asked) > 1:
            raise Stop
        t = np.array([6.0])
        return t, np.array([c]), np.asarray(integrated_ecdf(data, t), dtype=float), gram_matrix(t)

    monkeypatch.setattr(convexlse, "_solve_nonnegative", solve)
    with pytest.raises(Stop):
        fit_lse(SMALL)
    mass = c * 18.0
    gap_h = mass * (15.0 - 6.0 / 3.0) - (15.0 - 2.75)  # H and Y_n are lines past 6 and 5
    assert asked[0] == [10.0] and asked[1][0] == 6.0
    assert math.isclose(asked[1][1], 15.0 + (gap_h + 2e-9 * 5.0**3) / (1.0 - mass), rel_tol=1e-12)
