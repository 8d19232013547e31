import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import enns.theory
from enns.theory import (
    SignalProfile,
    folded_normal_cdf,
    folded_normal_pdf,
    mc_first_selection,
    mc_select_over,
    pair_wins,
    prob_first_correct,
    prob_select_over,
)

from _oracles import mc_first_selection_serial, orthant_prob, printed_first_correct, printed_select_over


# --- folded normal -------------------------------------------------------------


def test_folded_cdf_zero_at_origin():
    for mu, sigma in [(0.0, 1.0), (2.5, 0.3), (-4.0, 2.0)]:
        assert folded_normal_cdf(0.0, mu, sigma) == pytest.approx(0.0, abs=1e-15)


def test_folded_cdf_half_normal_identity():
    # mu=0: F(x) = 2 Phi(x) - 1
    assert folded_normal_cdf(1.0, 0.0, 1.0) == pytest.approx(2 * stats.norm.cdf(1.0) - 1, abs=1e-12)


def test_folded_cdf_against_sampling():
    rng = np.random.default_rng(123)
    draws = np.abs(rng.normal(2.0, 1.0, size=1_000_000))
    empirical = np.mean(draws <= 3.0)
    assert abs(folded_normal_cdf(3.0, 2.0, 1.0) - empirical) < 0.002


def test_folded_cdf_rejects_negative_x():
    with pytest.raises(ValueError):
        folded_normal_cdf(-0.1, 0.0, 1.0)


def test_folded_cdf_monotone_in_x():
    xs = np.linspace(0.0, 8.0, 200)
    vals = folded_normal_cdf(xs, 1.3, 0.7)
    assert np.all(np.diff(vals) >= 0)


def test_folded_cdf_keeps_the_shape_of_x():
    # a scalar or a 0-d array gives a float; any other array, one of its shape
    assert type(folded_normal_cdf(1.0, 0.5, 1.0)) is float
    assert type(folded_normal_cdf(np.array(1.0), 0.5, 1.0)) is float
    for x in [np.empty(0), np.full((2, 3), 1.0)]:
        val = folded_normal_cdf(x, 0.5, 1.0)
        assert isinstance(val, np.ndarray) and val.shape == x.shape and val.dtype == np.float64
    assert np.all(folded_normal_cdf(np.full((2, 3), 1.0), 0.5, 1.0) == folded_normal_cdf(1.0, 0.5, 1.0))


def test_folded_pdf_at_origin():
    assert folded_normal_pdf(0.0, 0.0, 1.0) == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-12)


def test_folded_pdf_normalizes():
    total, _ = integrate.quad(lambda x: folded_normal_pdf(x, 1.7, 0.8), 0, np.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_folded_pdf_is_cdf_derivative():
    x, mu, sigma = 1.3, 0.7, 2.0
    h = 1e-6
    fd = (folded_normal_cdf(x + h, mu, sigma) - folded_normal_cdf(x - h, mu, sigma)) / (2 * h)
    assert folded_normal_pdf(x, mu, sigma) == pytest.approx(fd, abs=1e-6)


def test_folded_pdf_matches_quadrature_of_cdf():
    # integral of the pdf recovers CDF increments
    for x in [0.5, 1.0, 2.5]:
        val, _ = integrate.quad(lambda t: folded_normal_pdf(t, 1.1, 0.6), 0, x)
        assert val == pytest.approx(folded_normal_cdf(x, 1.1, 0.6), abs=1e-8)


def test_folded_pdf_large_signal_no_overflow():
    assert np.isfinite(folded_normal_pdf(500.0, 500.0, 1.0))


# --- orthant probability, the printed pairwise form's building block -------------


def test_orthant_independence_at_origin():
    assert orthant_prob(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-10)


def test_orthant_arcsine_identity():
    # L(0, 0, rho) = 1/4 + arcsin(rho) / (2 pi)
    for rho in [1.0 / np.sqrt(2.0), -0.5, 0.3]:
        expected = 0.25 + np.arcsin(rho) / (2 * np.pi)
        assert orthant_prob(0.0, 0.0, rho) == pytest.approx(expected, abs=1e-9)
    assert orthant_prob(0.0, 0.0, 1.0 / np.sqrt(2.0)) == pytest.approx(0.375, abs=1e-9)


def test_orthant_marginalizes_when_a_is_far_left():
    for b in [-1.0, 0.0, 2.0]:
        assert orthant_prob(-10.0, b, 0.4) == pytest.approx(1 - stats.norm.cdf(b), abs=1e-8)


def test_orthant_against_sampling():
    rng = np.random.default_rng(7)
    rho = 0.6
    z1 = rng.standard_normal(1_000_000)
    z2 = rho * z1 + np.sqrt(1 - rho**2) * rng.standard_normal(1_000_000)
    empirical = np.mean((z1 > 0.4) & (z2 > -0.2))
    assert abs(orthant_prob(0.4, -0.2, rho) - empirical) < 0.002


def test_orthant_rejects_degenerate_correlation():
    with pytest.raises(ValueError):
        orthant_prob(0.0, 0.0, 1.0)


# --- pairwise selection probability ----------------------------------------------


def test_select_over_symmetric_is_half():
    for beta, sigma in [(0.0, 1.0), (1.0, 1.0), (3.0, 0.5), (2.0, 2.0)]:
        assert prob_select_over(beta, beta, sigma) == pytest.approx(0.5, abs=1e-8)


def test_select_over_matches_design_simulation():
    analytic = prob_select_over(0.0, 3.0, 1.0)
    mc = mc_select_over(0.0, 3.0, 1.0, reps=100_000, seed=5)
    assert abs(analytic - mc) < 0.01


@pytest.mark.parametrize("case, wins", [((2.0, 1.0, 1.0, 123_457, 11), 30823), ((0.0, -0.5, 2.0, 5000, 3), 2471)])
def test_pair_wins_pins_the_seeded_count(case, wins):
    # counts of the version 0.2.0 simulator, which built each array out of place;
    # 123,457 replications take three chunks, the last one short
    assert pair_wins(*case) == wins
    assert mc_select_over(*case) == wins / case[3]


def test_select_over_monotone_spot_check():
    assert prob_select_over(0.0, 5.0, 1.0) >= prob_select_over(0.0, 1.0, 1.0)


def test_select_over_complementarity():
    for bj, bk, sigma in [(0.0, 1.0, 1.0), (2.0, 3.0, 0.5), (1.5, 0.5, 2.0)]:
        total = prob_select_over(bj, bk, sigma) + prob_select_over(bk, bj, sigma)
        assert total == pytest.approx(1.0, abs=1e-8)


def test_select_over_scale_invariance():
    for bj, bk, sigma in [(1.0, 2.0, 0.5), (0.0, 3.0, 2.0), (2.5, 2.0, 4.0)]:
        a = prob_select_over(bj, bk, sigma)
        b = prob_select_over(bj / sigma, bk / sigma, 1.0)
        assert a == pytest.approx(b, abs=1e-10)


def test_select_over_sign_invariance():
    assert prob_select_over(-2.0, 1.0, 1.0) == pytest.approx(prob_select_over(2.0, 1.0, 1.0), abs=1e-12)


# --- first-correct-selection probability ------------------------------------------


def test_first_correct_single_candidate_is_one():
    assert prob_first_correct(SignalProfile(np.array([2.0]), 1.0, 1)) == pytest.approx(1.0, abs=1e-10)


def test_first_correct_matches_simulation_small():
    profile = SignalProfile(np.array([3.0, 0.0]), 1.0, 1)
    analytic = prob_first_correct(profile)
    mc = mc_first_selection(profile, n=8, reps=100_000, seed=3)
    assert abs(analytic - mc) < 0.01


def test_first_correct_matches_simulation_medium():
    betas = np.zeros(20)
    betas[:3] = 2.0
    profile = SignalProfile(betas, 1.0, 3)
    analytic = prob_first_correct(profile)
    mc = mc_first_selection(profile, n=30, reps=50_000, seed=4)
    assert abs(analytic - mc) < 0.02


def test_first_correct_monotone_in_signal():
    grid = [0.5, 1.0, 2.0, 4.0]
    vals = []
    for b in grid:
        betas = np.zeros(10)
        betas[0] = b
        vals.append(prob_first_correct(SignalProfile(betas, 1.0, 1)))
    assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))


# --- closed forms against the printed forms --------------------------------------

betas_up_to_40 = st.floats(-40.0, 40.0)
sigmas = st.floats(0.05, 10.0)


@settings(deadline=None, max_examples=100)
@given(beta_j=betas_up_to_40, beta_k=betas_up_to_40, sigma=sigmas)
def test_select_over_closed_form_matches_printed_form(beta_j, beta_k, sigma):
    assert abs(prob_select_over(beta_j, beta_k, sigma) - printed_select_over(beta_j, beta_k, sigma)) <= 1e-12
    assert prob_select_over(beta_j, beta_j, sigma) == prob_select_over(beta_j, -beta_j, sigma) == 0.5
    assert abs(printed_select_over(beta_j, beta_j, sigma) - 0.5) <= 1e-12


@st.composite
def support_profiles(draw):
    s = draw(st.integers(1, 10))
    p = draw(st.one_of(st.just(s), st.integers(s + 1, 2000)))
    betas = np.zeros(p)
    betas[:s] = draw(st.lists(betas_up_to_40, min_size=s, max_size=s))
    return SignalProfile(betas, draw(sigmas), s)


@settings(deadline=None, max_examples=30)
@given(profile=support_profiles())
@example(profile=SignalProfile(np.r_[2.0, -2.0, 3.0, 0.5, -3.0, 2.0, np.zeros(300)], 1.5, 6))  # repeated |beta|
def test_first_correct_closed_form_matches_printed_form(profile):
    closed = prob_first_correct(profile)
    assert abs(closed - printed_first_correct(profile)) <= 1e-12
    if profile.p == profile.s:
        assert closed == 1.0


def first_profile(s: int, p: int, beta: float = 2.0) -> SignalProfile:
    betas = np.zeros(p)
    betas[:s] = beta
    return SignalProfile(betas, 1.0, s)


# 40-digit references, computed once with mpmath 1.3 at mp.dps = 40 (and
# again at 60, to the same digits): the pair form (1 + erf((|bk|-|bj|)/(2 sigma))
# erf((|bk|+|bj|)/(2 sigma))) / 2, and 1 - mp.quad of the first-correct
# integrand over [0, inf) split at every quarter sigma up to 16 sigma. The
# pairs are the default verify-theory grid's cases whose value moved when erf
# came from math.erf instead of scipy.special.erf; the first cases are the
# grid's three, with beta 2 on the support and sigma 1.
PAIR_REFERENCES = [
    ((0.0, 1.0, 0.5), "0.8550723132190391050190023139547636995411"),
    ((1.0, 0.0, 0.5), "0.1449276867809608949809976860452363004589"),
    ((2.0, 1.0, 0.5), "0.07865891136481124595328728356404112888865"),
    ((3.0, 2.0, 0.5), "0.07864960352579037462333608775021533008169"),
    ((0.0, 2.0, 1.0), "0.8550723132190391050190023139547636995411"),
    ((2.0, 0.0, 1.0), "0.1449276867809608949809976860452363004589"),
    ((3.0, 1.0, 1.0), "0.08062056901401114051808815373845765577783"),
    ((3.0, 1.0, 2.0), "0.2806871701183579906562763760679150234971"),
]
FIRST_REFERENCES = [
    ((1, 2), "0.8550723132190391050190023139547636995411"),
    ((3, 20), "0.801001954677300589041539868303228300258"),
    ((5, 50), "0.8102394520022134115014662370888986092879"),
]


@pytest.mark.parametrize("case, reference", PAIR_REFERENCES)
def test_select_over_within_two_ulp_of_reference(case, reference):
    ref = float(reference)
    assert abs(prob_select_over(*case) - ref) <= 2 * np.spacing(ref)


@pytest.mark.parametrize("case, reference", FIRST_REFERENCES)
def test_first_correct_within_two_ulp_of_reference(case, reference):
    ref = float(reference)
    assert abs(prob_first_correct(first_profile(*case)) - ref) <= 2 * np.spacing(ref)


@pytest.mark.parametrize(
    "beta, reference",
    [(2.0, "0.01380553012451790780278319555239882857485"), (6.0, "0.9918024970661601629515153353130267675917")],
    ids=["beta2", "beta6"],
)
def test_first_correct_sharp_peak(beta, reference):
    # at p = 100,000 the null maximum's density peaks about 0.2 sigma wide near
    # 4.8 sigma, and F_0^(m-1) raises the rounding of F_0 to the power m - 1:
    # taken as F_0 ** (m - 1) from erf it errs by 1e-13 at beta 2; the printed
    # form's sum of 100,000 log F_j errs by 9e-13 at beta 6 unless each log F_j
    # near 1 comes from erfc; the references are the mpmath integral described
    # above, with beta on the support
    profile = first_profile(2, 100_000, beta)
    closed = prob_first_correct(profile)
    assert abs(closed - printed_first_correct(profile)) <= 1e-13
    assert abs(closed - float(reference)) <= 1e-14


# --- Monte-Carlo oracle ------------------------------------------------------------


def test_mc_overwhelming_signal():
    betas = np.zeros(5)
    betas[0] = 1e6
    profile = SignalProfile(betas, 1.0, 1)
    assert mc_first_selection(profile, n=8, reps=2_000, seed=0) == 1.0


def test_mc_null_signal_is_uniform():
    profile = SignalProfile(np.zeros(10), 1.0, 1)
    freq = mc_first_selection(profile, n=12, reps=20_000, seed=1)
    assert abs(freq - 0.1) < 0.01


def test_mc_agrees_with_analytic_two_candidates():
    profile = SignalProfile(np.array([3.0, 0.0]), 1.0, 1)
    a = prob_first_correct(profile)
    b = mc_first_selection(profile, n=8, reps=100_000, seed=2)
    assert abs(a - b) < 0.01


def test_mc_deterministic():
    profile = SignalProfile(np.array([1.0, 0.0, 0.0]), 1.0, 1)
    a = mc_first_selection(profile, n=6, reps=5_000, seed=9)
    b = mc_first_selection(profile, n=6, reps=5_000, seed=9)
    assert a == b


@pytest.mark.parametrize("seed", range(8))
def test_mc_first_selection_matches_serial_oracle(monkeypatch, seed):
    # 1234 designs of 60 x 50 are five blocks of 208 and a short one of 194
    profile = first_profile(5, 50)
    assert mc_first_selection(profile, n=60, reps=1234, seed=seed) == mc_first_selection_serial(
        profile, n=60, reps=1234, seed=seed, block=208
    )
    # blocks of 1 and of 7 designs (100 reps are 14 blocks of 7 and one of 2),
    # on 1, 2 and 3 threads that switch as often as the interpreter lets them
    profile = first_profile(3, 20)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for designs in (1, 7):
            monkeypatch.setattr(enns.theory, "_BLOCK_BYTES", designs * 8 * 30 * 20)
            for cores in (1, 2, 3):
                monkeypatch.setattr(enns.theory, "usable_cores", lambda: cores)
                assert mc_first_selection(profile, n=30, reps=100, seed=seed) == mc_first_selection_serial(
                    profile, n=30, reps=100, seed=seed, block=designs
                )
    finally:
        sys.setswitchinterval(interval)


def counting_rng(monkeypatch, on_design):
    """Make ``enns.theory.spawn_rng`` hand out generators that call
    ``on_design`` with every block of designs they draw."""
    spawn = enns.theory.spawn_rng

    class Counting:
        def __init__(self, rng):
            self.rng = rng

        def standard_normal(self, size=None, out=None):
            g = self.rng.standard_normal(size, out=out)
            if g.ndim == 3:
                on_design(g)
            return g

    monkeypatch.setattr(enns.theory, "spawn_rng", lambda *key: Counting(spawn(*key)))


def test_mc_first_selection_bounds_the_designs_drawn_ahead_of_their_qr(monkeypatch):
    # blocks of one design whose QR is slower than a draw: at every draw, the
    # blocks drawn but not yet orthonormalized are at most one per pool
    # thread, not the call's 60
    monkeypatch.setattr(enns.theory, "usable_cores", lambda: 2)
    monkeypatch.setattr(enns.theory, "_BLOCK_BYTES", 8 * 30 * 20)
    orthonormal, drawn, finished, ahead = enns.theory._orthonormal_columns, [], [], []

    def slow_qr(g):
        time.sleep(0.005)
        q = orthonormal(g)
        finished.append(g)
        return q

    def on_design(g):
        drawn.append(g)
        ahead.append(len(drawn) - len(finished))

    monkeypatch.setattr(enns.theory, "_orthonormal_columns", slow_qr)
    counting_rng(monkeypatch, on_design)
    profile = first_profile(3, 20)
    assert mc_first_selection(profile, n=30, reps=60, seed=0) == mc_first_selection_serial(
        profile, n=30, reps=60, seed=0, block=1
    )
    assert len(drawn) == len(finished) == 60
    assert max(ahead) <= 2


def test_mc_first_selection_raises_a_failed_block_before_drawing_the_rest(monkeypatch):
    # blocks of one design on three threads; the third block drawn raises in
    # its QR at once and every other QR takes 5 ms: each other thread finishes
    # at most the block it is on, so at most 3 blocks are drawn after the
    # failed one, not the other 97
    monkeypatch.setattr(enns.theory, "usable_cores", lambda: 3)
    monkeypatch.setattr(enns.theory, "_BLOCK_BYTES", 8 * 30 * 20)
    orthonormal, drawn = enns.theory._orthonormal_columns, []
    boom = np.linalg.LinAlgError("QR of the third block failed")

    def failing_qr(g):
        if len(drawn) > 2 and g[0, 0, 0] == drawn[2]:
            raise boom
        time.sleep(0.005)
        return orthonormal(g)

    monkeypatch.setattr(enns.theory, "_orthonormal_columns", failing_qr)
    # a block's first number marks it: the threads draw into reused buffers
    counting_rng(monkeypatch, lambda g: drawn.append(g[0, 0, 0]))
    before = threading.active_count()
    with pytest.raises(np.linalg.LinAlgError) as raised:
        mc_first_selection(first_profile(3, 20), n=30, reps=100, seed=0)
    assert raised.value is boom
    assert len(drawn) <= 3 + 3
    assert threading.active_count() == before


def test_mc_first_selection_interrupted_stops_the_threads(monkeypatch):
    # an interrupt (Ctrl-C) while the calling thread waits stops both threads
    # before their next block, where they would otherwise draw all 1000
    monkeypatch.setattr(enns.theory, "usable_cores", lambda: 2)
    monkeypatch.setattr(enns.theory, "_BLOCK_BYTES", 8 * 30 * 20)
    orthonormal, drawn = enns.theory._orthonormal_columns, []

    def slow_qr(g):
        time.sleep(0.001)
        return orthonormal(g)

    def interrupted(futures, return_when):
        raise KeyboardInterrupt

    monkeypatch.setattr(enns.theory, "_orthonormal_columns", slow_qr)
    monkeypatch.setattr(enns.theory, "wait", interrupted)
    counting_rng(monkeypatch, drawn.append)
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        mc_first_selection(first_profile(3, 20), n=30, reps=1000, seed=0)
    assert len(drawn) <= 4
    assert threading.active_count() == before


def test_mc_first_selection_threads_end_with_the_call(monkeypatch):
    # one pool per call, of one thread per usable core but no more threads than
    # blocks (1234 designs of 60 x 50 are 6 blocks, 300 are 2 and 100 one),
    # and no thread left after the call
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(enns.theory, "ThreadPoolExecutor", Pool)
    before = threading.active_count()
    for cores, reps in ((1, 1234), (2, 1234), (3, 1234), (4, 300), (2, 100)):
        monkeypatch.setattr(enns.theory, "usable_cores", lambda: cores)
        mc_first_selection(first_profile(5, 50), n=60, reps=reps, seed=0)
        assert threading.active_count() == before
    assert pools == [1, 2, 3, 2, 1]


def test_mc_first_selection_peak_does_not_grow_with_reps(monkeypatch):
    # blocks of 50 designs of 30 x 20: on one thread a call of 2000
    # replications peaks where a call of 500 does, and two threads, each with
    # its own block, peak at most twice as high
    profile = first_profile(3, 20)
    monkeypatch.setattr(enns.theory, "_BLOCK_BYTES", 50 * 8 * 30 * 20)
    peaks = {}
    for cores, reps in ((1, 500), (1, 2000), (2, 2000)):
        monkeypatch.setattr(enns.theory, "usable_cores", lambda: cores)
        tracemalloc.start()
        try:
            mc_first_selection(profile, n=30, reps=reps, seed=0)
            peaks[cores, reps] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[1, 2000] - peaks[1, 500]) <= 0.1 * peaks[1, 500]
    assert peaks[2, 2000] <= 2.2 * peaks[1, 500]


def test_pair_wins_holds_five_chunk_arrays():
    # the two columns, the noise, y and one product; the arrays are built in place
    array = enns.theory._PAIR_CHUNK * enns.theory._PAIR_N * 8
    tracemalloc.start()
    try:
        pair_wins(1.0, 2.0, 1.0, reps=enns.theory._PAIR_CHUNK, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * array


# --- profile validation ---------------------------------------------------------------


def test_profile_rejects_nonzero_tail():
    with pytest.raises(ValueError):
        SignalProfile(np.array([1.0, 0.5]), 1.0, 1)


def test_profile_rejects_bad_sigma():
    with pytest.raises(ValueError):
        SignalProfile(np.array([1.0]), 0.0, 1)


def test_nan_sigma_is_rejected():
    for bad in (float("nan"), float("inf")):
        for call in (
            lambda: SignalProfile(np.array([1.0]), bad, 1),
            lambda: folded_normal_cdf(np.array([1.0]), 0.0, bad),
            lambda: folded_normal_pdf(np.array([1.0]), 0.0, bad),
            lambda: prob_select_over(1.0, 0.0, bad),
        ):
            with pytest.raises(ValueError, match="sigma must be positive"):
                call()


def test_mc_requires_enough_rows():
    profile = SignalProfile(np.array([1.0, 0.0, 0.0]), 1.0, 1)
    with pytest.raises(ValueError):
        mc_first_selection(profile, n=2, reps=100, seed=0)


@pytest.mark.parametrize("reps", [0, -1])
def test_mc_rejects_reps_below_one_before_drawing(monkeypatch, reps):
    def no_draws(*args):
        raise AssertionError("drew random numbers")

    monkeypatch.setattr(enns.theory, "spawn_rng", no_draws)
    profile = SignalProfile(np.array([1.0, 0.0]), 1.0, 1)
    with pytest.raises(ValueError, match=f"reps must be positive, got {reps}"):
        mc_first_selection(profile, n=5, reps=reps, seed=0)
    with pytest.raises(ValueError, match=f"reps must be positive, got {reps}"):
        mc_select_over(1.0, 0.5, 1.0, reps=reps, seed=0)


@pytest.mark.parametrize("sigma", [float("nan"), 0.0, -1.0, float("inf")])
def test_pair_probabilities_reject_sigma_before_drawing(monkeypatch, sigma):
    def no_draws(*args):
        raise AssertionError("drew random numbers")

    monkeypatch.setattr(enns.theory, "spawn_rng", no_draws)
    with pytest.raises(ValueError, match="sigma must be positive"):
        prob_select_over(1.0, 0.5, sigma)
    with pytest.raises(ValueError, match="sigma must be positive"):
        mc_select_over(1.0, 0.5, sigma, reps=1000, seed=0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_betas_are_rejected(monkeypatch, bad):
    def no_draws(*args):
        raise AssertionError("drew random numbers")

    monkeypatch.setattr(enns.theory, "spawn_rng", no_draws)
    for call in (
        lambda: SignalProfile(np.array([1.0, bad]), 1.0, 2),
        lambda: SignalProfile(np.array([bad, 0.0]), 1.0, 1),
        lambda: folded_normal_cdf(1.0, bad, 1.0),
        lambda: folded_normal_pdf(1.0, bad, 1.0),
        lambda: prob_select_over(bad, 1.0, 1.0),
        lambda: prob_select_over(1.0, bad, 1.0),
        lambda: mc_select_over(bad, 1.0, 1.0, reps=10, seed=0),
        lambda: mc_select_over(1.0, bad, 1.0, reps=10, seed=0),
    ):
        with pytest.raises(ValueError, match="betas must be finite"):
            call()
