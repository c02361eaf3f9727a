"""Shift recovery: bitwise readout for N = 2^n, semiclassical IQFT for odd N."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from shiftlab import (
    CostLedger,
    GuardError,
    RetryExhaustedError,
    direct_iqft_distribution,
    iqft_success_probability,
    new_instance,
    recover_odd,
    recover_pow2,
    schedule_single,
    schedule_uniform,
    semiclassical_iqft,
)
from shiftlab.kinds import INTERVAL
from shiftlab.pipeline import Pipeline
from shiftlab.recover import candidate_from_sample
from shiftlab.seeds import derive

from conftest import chi_square_p

FLOOR = 4 / math.pi**2  # worst-case single-point rounding mass


# ---------------------------------------------------------------------------
# the reference distribution


def test_direct_distribution_normalizes():
    for s, N, n_q in ((7, 15, 6), (3, 11, 5), (0, 2, 1), (37, 101, 9)):
        probs = direct_iqft_distribution(s, N, n_q)
        assert probs.shape == (1 << n_q,)
        assert abs(probs.sum() - 1.0) < 1e-12


def test_direct_distribution_is_point_mass_when_N_divides():
    # N = 2^{n_q}: theta_j = (s-k)*2^{j-n_q}, so only k = s survives
    for s in range(16):
        probs = direct_iqft_distribution(s, 16, 4)
        assert probs[s] == pytest.approx(1.0, abs=1e-12)
        assert probs.sum() - probs[s] < 1e-12


def test_direct_distribution_guards():
    with pytest.raises(GuardError):
        direct_iqft_distribution(1, 15, 0)
    with pytest.raises(GuardError):
        direct_iqft_distribution(1, 15, 27)


def test_candidate_rounding():
    # s = 7, N = 15, n_q = 6: s*64/15 = 29.87, so k = 30 rounds back to 7
    assert candidate_from_sample(30, 15, 6) == 7
    assert candidate_from_sample(0, 15, 6) == 0
    # top of the range wraps to 0
    assert candidate_from_sample(63, 15, 6) == 0


def test_success_probability_matches_frozen_values():
    assert iqft_success_probability(7, 15, 6) == pytest.approx(0.983095, abs=1e-6)
    assert iqft_success_probability(37, 101, 9) == pytest.approx(0.920946, abs=1e-6)
    assert iqft_success_probability(1234, 4001, 14) == pytest.approx(0.964741, abs=1e-6)


def test_success_probability_above_floor_with_guard_bits():
    for N in (3, 7, 15, 101, 255, 1001, 4001):
        n_q = (N - 1).bit_length() + 2
        for s in {0, 1, N // 2, N - 1, 2 * N // 3}:
            assert iqft_success_probability(s, N, n_q) >= FLOOR


# ---------------------------------------------------------------------------
# the semiclassical sampler


def _chain_distribution(inst, n_q: int) -> np.ndarray:
    """Exact law of the measure-one-qubit-at-a-time chain, by path enumeration.

    Derived elements are free, so each path re-mints its own; probabilities
    come from the referee's _phase_turns with the same correction rule the
    sampler uses.
    """
    N = inst.modulus.N
    out = np.zeros(1 << n_q)
    bits: dict[int, int] = {}

    def walk(j: int, prob: float) -> None:
        if prob == 0.0:
            return
        if j < 0:
            sample = sum(b << (n_q - 1 - t) for t, b in bits.items())
            out[sample] += prob
            return
        corr = Fraction(0)
        for t in range(j + 1, n_q):
            corr -= Fraction(bits[t], 1 << (t - j + 1))
        theta = inst._phase_turns(inst.derive_element(pow(2, j, N)), corr)
        if theta == 0:
            p0 = 1.0
        elif theta == Fraction(1, 2):
            p0 = 0.0
        else:
            p0 = math.cos(math.pi * float(theta)) ** 2
        for b, p in ((0, p0), (1, 1.0 - p0)):
            bits[j] = b
            walk(j - 1, prob * p)
        del bits[j]

    walk(n_q - 1, 1.0)
    return out


def test_chain_law_equals_direct_law():
    for N, s, n_q in ((5, 3, 5), (11, 4, 6), (21, 13, 7)):
        inst = new_instance(N, s=s, seed=2)
        chain = _chain_distribution(inst, n_q)
        direct = direct_iqft_distribution(s, N, n_q)
        assert np.max(np.abs(chain - direct)) < 1e-9


def test_sampler_follows_direct_law_statistically():
    N, s, n_q, trials = 5, 3, 5, 20000
    inst = new_instance(N, s=s, seed=11)
    counts = np.zeros(1 << n_q)
    for _ in range(trials):
        elems = [inst.derive_element(pow(2, j, N)) for j in range(n_q)]
        counts[semiclassical_iqft(elems, inst)] += 1
    expected = direct_iqft_distribution(s, N, n_q) * trials
    # pool thin bins so the chi-square approximation holds
    big = expected >= 10
    cs = list(counts[big]) + [counts[~big].sum()]
    es = list(expected[big]) + [expected[~big].sum()]
    assert chi_square_p(cs, es) > 1e-3


def test_sampler_deterministic_when_N_is_pow2():
    # N = 2: one qubit, exact phase, the sample IS the secret
    for s in (0, 1):
        inst = new_instance(2, s=s, seed=5)
        for _ in range(10):
            assert semiclassical_iqft([inst.derive_element(1)], inst) == s


def test_semiclassical_guards():
    inst = new_instance(15, s=7, seed=0)
    other = new_instance(15, s=7, seed=1)
    with pytest.raises(GuardError):
        semiclassical_iqft([], inst)
    with pytest.raises(GuardError):
        semiclassical_iqft([inst.derive_element(3)], inst)
    with pytest.raises(GuardError):
        semiclassical_iqft([other.derive_element(1)], inst)


# ---------------------------------------------------------------------------
# end-to-end recovery, power-of-two side


def test_recover_pow2_zero_secret():
    inst = new_instance(16, s=0, seed=1)
    assert recover_pow2(inst, schedule_single(4)) == 0


def test_recover_pow2_single_bit_modulus():
    for s in (0, 1):
        inst = new_instance(2, s=s, seed=3)
        assert recover_pow2(inst, schedule_single(2)) == s


def test_recover_pow2_many_runs():
    sched = schedule_uniform(12, 8)
    for seed in range(50):
        inst = new_instance(2**12, seed=seed)
        assert recover_pow2(inst, sched) == inst.reveal_secret()


def test_recover_pow2_ledger_accounts_for_everything():
    inst = new_instance(2**10, seed=7)
    ledger = CostLedger()
    s = recover_pow2(inst, schedule_uniform(10, 6), ledger=ledger)
    assert s == inst.reveal_secret()
    assert ledger.q_queries == inst.q_queries
    assert ledger.c_queries == inst.c_queries > 0
    assert ledger.per_stage and ledger.solver_ops == sum(
        row.solver_ops for row in ledger.per_stage
    )
    ledger.check_consistent()


def test_recover_pow2_levels_share_stage_zero_waves(waves):
    # a recovery's 16 pipeline calls, one per level, carry their stage-0
    # waves over instead of restarting each at one row (51-56 waves when
    # they did)
    for u in range(3):
        waves.clear()
        inst = new_instance(1 << 16, seed=derive(5, u))
        assert recover_pow2(inst, schedule_uniform(16, 8)) == inst.reveal_secret()
        assert 0 < len(waves) <= 16


def test_recover_pow2_deterministic_per_seed():
    def one():
        inst = new_instance(2**10, seed=21)
        return recover_pow2(inst, schedule_uniform(10, 5)), inst.q_queries

    assert one() == one()


def test_recover_pow2_rejects_odd_modulus():
    with pytest.raises(GuardError):
        recover_pow2(new_instance(15, seed=0), schedule_single(4))


# ---------------------------------------------------------------------------
# end-to-end recovery, odd side


def test_recover_odd_known_secrets():
    sched = schedule_uniform(4, 8, routine=INTERVAL)
    inst = new_instance(15, s=7, seed=2)
    assert recover_odd(inst, sched) == 7
    tiny = new_instance(3, s=0, seed=2)
    assert recover_odd(tiny, sched) == 0


def test_recover_odd_random_secrets():
    sched = schedule_uniform(7, 8, routine=INTERVAL)
    for seed in range(5):
        inst = new_instance(101, seed=seed)
        assert recover_odd(inst, sched) == inst.reveal_secret()


def test_recover_odd_ledger_accounts_for_everything():
    inst = new_instance(101, seed=9)
    ledger = CostLedger()
    s = recover_odd(inst, schedule_uniform(7, 8, routine=INTERVAL), ledger=ledger)
    assert s == inst.reveal_secret()
    assert ledger.q_queries == inst.q_queries
    assert ledger.c_queries == inst.c_queries > 0
    ledger.check_consistent()


@pytest.mark.parametrize("recover,N,sched,failing_call", [
    (recover_pow2, 1 << 16, schedule_uniform(16, 8), 30),
    (recover_odd, 10007, schedule_uniform(14, 8, routine=INTERVAL), 200),
], ids=["pow2", "odd"])
def test_failed_element_keeps_its_charges(monkeypatch, recover, N, sched, failing_call):
    # a stage call that gives up partway through an element, with earlier
    # elements charged: every query the run drew is in the caller's ledger,
    # which still checks
    real_run = Pipeline._run
    calls = 0

    def run(self, i, need):
        nonlocal calls
        calls += 1
        if calls == failing_call:
            raise RetryExhaustedError("stage call given up")
        return real_run(self, i, need)

    monkeypatch.setattr(Pipeline, "_run", run)
    inst = new_instance(N, seed=5)
    ledger = CostLedger()
    with pytest.raises(RetryExhaustedError, match="given up"):
        recover(inst, sched, rng=random.Random(1), ledger=ledger)
    assert ledger.q_queries == inst.q_queries > 0
    ledger.check_consistent()


def test_recover_odd_deterministic_per_seed():
    def one():
        inst = new_instance(101, seed=13)
        return recover_odd(inst, schedule_uniform(7, 8, routine=INTERVAL)), inst.q_queries

    assert one() == one()


def test_recover_odd_guards():
    sched = schedule_uniform(4, 8, routine=INTERVAL)
    with pytest.raises(GuardError):
        recover_odd(new_instance(16, seed=0), sched)
