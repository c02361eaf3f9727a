"""Turning target elements into the shift s.

Powers of two give s bit by bit. An element with label (2a+1)*2^j has phase
(2a+1)*(s mod 2^{n-j})/2^{n-j}, so once the low bits of s are known, one
phase correction reduces the measurement to an exact 0-or-1/2 phase whose
outcome is the next bit. The pipeline supplies one element of 2-adic level j
per bit; any odd multiplier works because the correction absorbs it.

Odd N has no bit structure, so recovery goes through the semiclassical
inverse QFT instead: elements with labels 2^0, 2^1, ..., 2^{n_q-1} (mod N)
are measured high level to low, each with a phase correction assembled from
the bits already seen. The resulting integer sample k concentrates near
s*2^{n_q}/N, and rounding k*N/2^{n_q} recovers s with probability well above
the 4/pi^2 single-point floor (GUARD_BITS = 2 extra qubits widen the peak). Labels 2^j
mod N come from running the label-1 pipeline in coordinates rescaled by
2^{-j}: the pipeline's view labels are uniform either way, and an element
whose view label is 1 at scale 2^j has true label 2^j.

Every candidate is classically verified before being returned; sampling
failure just means another attempt with fresh elements, up to
POW2_ATTEMPTS or ODD_ATTEMPTS attempts.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .errors import GuardError, RetryExhaustedError
from .group_arith import ceil_log2
from .instance import HiddenShiftInstance, PhaseElement, classical_verify
# measure_with_correction stays importable here: perfbench's tracer and self-test look it up
from .phase_sim import measure_with_correction  # noqa: F401
# run_pipeline stays importable here: perfbench's tracer and self-test look this name up
from .pipeline import CostLedger, Pipeline, Schedule, run_pipeline  # noqa: F401
from .seeds import derive, label_path

IQFT_DIRECT_CAP = 26          # 2^26 float64 is ~0.5 GiB; plenty for tests
VERIFY_TRIALS = 16
POW2_ATTEMPTS = 8
ODD_ATTEMPTS = 25
GUARD_BITS = 2


def direct_iqft_distribution(s: int, N: int, n_q: int) -> np.ndarray:
    """Exact outcome distribution of the inverse QFT on the product state
    with per-qubit phases s*2^j/N: P(k) = prod_j cos^2(pi*(s*2^j/N - k*2^{j-n_q})).

    This is the reference law the semiclassical sampler must reproduce; the
    two are mathematically identical, so tests compare them to float
    precision rather than statistically.
    """
    if n_q < 1 or n_q > IQFT_DIRECT_CAP:
        raise GuardError(f"need 1 <= n_q <= {IQFT_DIRECT_CAP}, got {n_q}")
    k = np.arange(1 << n_q, dtype=np.float64)
    probs = np.ones(1 << n_q, dtype=np.float64)
    for j in range(n_q):
        theta = (s * pow(2, j, N) % N) / N - k / float(1 << (n_q - j))
        probs *= np.cos(np.pi * theta) ** 2
    return probs


def candidate_from_sample(k: int, N: int, n_q: int) -> int:
    """Round k*N/2^{n_q} to the nearest residue."""
    return ((k * N + (1 << (n_q - 1))) >> n_q) % N


def iqft_success_probability(s: int, N: int, n_q: int) -> float:
    """Exact probability that one IQFT sample rounds back to s."""
    probs = direct_iqft_distribution(s, N, n_q)
    k = np.arange(1 << n_q, dtype=np.int64)
    cand = candidate_from_sample(k, N, n_q)
    return float(probs[cand == s].sum())


def semiclassical_iqft(elems: list[PhaseElement], inst: HiddenShiftInstance) -> int:
    """Sample the inverse QFT by measuring one qubit at a time.

    elems[j] must be the element with true label 2^j (mod N). Qubits are
    measured from j = n_q-1 down to 0; the correction for qubit j is
    -sum_{t>j} b_t / 2^{t-j+1} turns, built from outcomes already measured.
    Qubit j's outcome lands at bit n_q-1-j of the returned sample, which then
    follows the direct_iqft_distribution law exactly.
    """
    n_q = len(elems)
    if n_q < 1:
        raise GuardError("need at least one element")
    N = inst.modulus.N
    for j, e in enumerate(elems):
        if e.instance is not inst:
            raise GuardError("element belongs to a different instance")
        if e.true_label != pow(2, j, N):
            raise GuardError(
                f"element {j} has true label {e.true_label}, expected {pow(2, j, N)}"
            )
    bits: dict[int, int] = {}
    sample = 0
    for j in range(n_q - 1, -1, -1):
        corr = Fraction(0)
        for t in range(j + 1, n_q):
            corr -= Fraction(bits[t], 1 << (t - j + 1))
        bits[j], _ = inst.measure_element(elems[j], corr)
        sample |= bits[j] << (n_q - 1 - j)
    return sample


def _recover(inst, sched, attempt, rng, attempts, ledger) -> int:
    """The attempt loop both readouts share: attempt(element) builds a
    candidate from elements of the recovery's one Pipeline (element(**where)
    asks it for one and merges its ledger), classical_verify checks it, and
    the verifier's queries are charged to the ledger. Returns the first
    verified candidate; `attempts` unverified ones raise RetryExhaustedError.
    """
    if rng is None:
        rng = random.Random(derive(inst.seed, label_path("recover")))
    if ledger is None:
        ledger = CostLedger()
    pipeline = Pipeline(inst, sched, rng)

    def element(**where) -> PhaseElement:
        elem, led = pipeline.element(**where)
        ledger.merge(led)
        return elem

    for _ in range(attempts):
        cand = attempt(element)
        before = inst.c_queries
        verified = classical_verify(inst, cand, VERIFY_TRIALS)
        ledger.c_queries += inst.c_queries - before
        if verified:
            return cand
    raise RetryExhaustedError(f"no verified shift after {attempts} attempts")


def recover_pow2(
    inst: HiddenShiftInstance,
    sched: Schedule,
    *,
    rng: random.Random | None = None,
    ledger: CostLedger | None = None,
) -> int:
    """Recover s for N = 2^n, least significant bit first.

    Bit n-1-j of s comes from one pipeline element of 2-adic level j
    (j = n-1 down to 0), measured with the correction
    -(2a+1)*s_known/2^{n-j} turns, where 2a+1 is the element's odd label
    part and s_known the bits already recovered. Each correction makes the
    measurement exactly deterministic, so a verified answer is exact; an
    unverified one triggers a fresh attempt, up to POW2_ATTEMPTS.
    """
    mod = inst.modulus
    if not mod.is_pow2:
        raise GuardError("recover_pow2 needs N = 2^n")
    n = mod.n

    def attempt(element) -> int:
        s_known = 0
        for j in range(n - 1, -1, -1):
            elem = element(level=j)
            odd_part = elem.label >> j
            corr = -Fraction(odd_part * s_known, 1 << (n - j))
            bit, _ = inst.measure_element(elem, corr)
            s_known |= bit << (n - 1 - j)
        return s_known

    return _recover(inst, sched, attempt, rng, POW2_ATTEMPTS, ledger)


def recover_odd(
    inst: HiddenShiftInstance,
    sched: Schedule,
    *,
    rng: random.Random | None = None,
    ledger: CostLedger | None = None,
) -> int:
    """Recover s for odd N via rescaled label-1 elements and the
    semiclassical inverse QFT.

    Uses n_q = ceil(log2 N) + GUARD_BITS qubits. Element j is the pipeline's
    label-1 element at scale 2^j mod N, giving true label 2^j. One IQFT
    pass yields a candidate, classically verified; each attempt consumes n_q
    pipeline elements and succeeds with constant probability (0.4 at the
    single-point floor, typically 0.8+ with the guard bits), up to
    ODD_ATTEMPTS attempts.
    """
    mod = inst.modulus
    if not mod.is_odd:
        raise GuardError("recover_odd needs odd N >= 3")
    N = mod.N
    n_q = ceil_log2(N) + GUARD_BITS

    def attempt(element) -> int:
        elems = [element(scale=pow(2, j, N)) for j in range(n_q)]
        return candidate_from_sample(semiclassical_iqft(elems, inst), N, n_q)

    return _recover(inst, sched, attempt, rng, ODD_ATTEMPTS, ledger)
