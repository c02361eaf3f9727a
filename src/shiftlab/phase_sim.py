"""Exact phase measurement and tiny-N statevector validators.

Two independent routes to the same physics:

* measure_with_correction works at the label level (the referee computes the
  phase from its secret);
* statevector_generate builds the full three-register state from the
  injective oracles and checks that labels come out exactly uniform and
  phases equal s*l/N, which validates the label-level shortcut;
* statevector_combine_dist enumerates the ancilla measurement of a
  combination step over all 2^k basis vectors, the oracle against which the
  sampled-witness shortcut used by the combination routines is compared.

Validators are deliberately brute-force and size-capped; they exist to catch
modeling bugs, not to be fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GuardError
from .instance import HiddenShiftInstance, PhaseElement
from .kinds import INTERVAL, POW2

STATEVECTOR_N_CAP = 1 << 10
COMBINE_ENUM_K_CAP = 12


@dataclass(frozen=True)
class MeasurementOutcome:
    bit: int
    p_zero: float


def measure_with_correction(elem: PhaseElement, correction: Fraction = 0) -> MeasurementOutcome:
    """Apply a phase correction (in turns) and measure in the Hadamard basis.

    theta = s*l/N + correction (mod 1); P(bit=0) = cos^2(pi*theta). Consumes
    the element; a second use raises.
    """
    bit, p0 = elem.instance.measure_element(elem, correction)
    return MeasurementOutcome(bit, p0)


@dataclass(frozen=True)
class StateReport:
    """Diagnostics from the tiny-N statevector run."""

    label_probs: np.ndarray         # P(l), should be exactly 1/N
    phase_turns: np.ndarray         # measured relative phase per label, in turns
    max_label_dev: float            # max |P(l) - 1/N|
    max_phase_dev: float            # max circular distance to s*l/N


def statevector_generate(inst: HiddenShiftInstance) -> StateReport:
    """Simulate query -> oracle -> measure -> QFT -> measure explicitly.

    Builds (1/sqrt(2N)) sum_x |0,x,f(x)> + |1,x,g(x)> from the keyed
    permutation oracles, conditions on each third-register outcome, applies
    the Z_N Fourier transform on the middle register and accumulates the
    label distribution and the qubit's relative phase for every label.
    """
    N = inst.modulus.N
    if N > STATEVECTOR_N_CAP:
        raise GuardError(f"statevector limited to N <= {STATEVECTOR_N_CAP}, got {N}")

    f = np.array([inst._f(x) for x in range(N)], dtype=np.int64)
    g = np.array([inst._g(x) for x in range(N)], dtype=np.int64)
    finv = np.empty(N, dtype=np.int64)
    ginv = np.empty(N, dtype=np.int64)
    finv[f] = np.arange(N)
    ginv[g] = np.arange(N)

    ell = np.arange(N)
    omega = np.exp(2j * np.pi / N)
    # Third-register outcome y happens with probability |proj|^2 = 2/(2N) = 1/N
    # and leaves (|0, finv[y]> + |1, ginv[y]>)/sqrt(2). After the Z_N QFT on the
    # middle register the conditional amplitudes per label l are
    # a_b(y, l) = chi(x_b(y) * l / N)/sqrt(2N), a normalized state over (b, l).
    probs = np.zeros(N)
    rel = np.empty((N, N), dtype=np.complex128)
    for y in range(N):
        a0 = omega ** ((finv[y] * ell) % N) / np.sqrt(2 * N)
        a1 = omega ** ((ginv[y] * ell) % N) / np.sqrt(2 * N)
        probs += (np.abs(a0) ** 2 + np.abs(a1) ** 2) / N  # P(y) * P(l | y)
        rel[y] = a1 * np.conj(a0)
    phase = (np.angle(rel) / (2 * np.pi)) % 1.0

    s = inst._s
    target = ((s * ell) % N) / N
    dev = np.abs(phase - target[None, :])
    dev = np.minimum(dev, 1.0 - dev)  # circular distance
    max_phase_dev = float(dev.max())
    max_label_dev = float(np.abs(probs - 1.0 / N).max())
    return StateReport(probs, phase[0], max_label_dev, max_phase_dev)


@dataclass(frozen=True)
class CombineDist:
    """Exact ancilla distribution of a combination step at width k."""

    values: tuple[int, ...]                 # distinct ancilla outcomes V
    probs: dict[int, Fraction]              # V -> |preimage| / 2^k
    preimages: dict[int, tuple[int, ...]]   # V -> sorted basis vectors (bitmask ints)


def ancilla_value(j: int, labels: tuple[int, ...], r: int, routine: str, B: int | None = None) -> int:
    """h(j): the ancilla register value for basis vector j (bitmask over labels)."""
    total = 0
    for i, lab in enumerate(labels):
        if (j >> i) & 1:
            total += lab
    if routine == POW2:
        return total % (1 << r)
    if routine == INTERVAL:
        if B is None:
            raise ValueError("INTERVAL needs B")
        return (total << (r - 1)) // B
    raise ValueError(f"unknown routine {routine!r}")


def statevector_combine_dist(
    labels: tuple[int, ...] | list[int],
    r: int,
    routine: str = POW2,
    B: int | None = None,
) -> CombineDist:
    """Enumerate all 2^k basis vectors and group by ancilla value.

    The tensor state sum_j chi(j.l s/N)|j>|h(j)> has equal-magnitude
    amplitudes, so the ancilla outcome V occurs with probability
    |h^{-1}(V)|/2^k and leaves the state supported on the preimage, exactly.
    """
    labels = tuple(int(x) for x in labels)
    k = len(labels)
    if k > COMBINE_ENUM_K_CAP:
        raise GuardError(f"enumeration limited to k <= {COMBINE_ENUM_K_CAP}, got {k}")
    if r < 1:
        raise ValueError("r must be >= 1")
    groups: dict[int, list[int]] = {}
    for j in range(1 << k):
        groups.setdefault(ancilla_value(j, labels, r, routine, B), []).append(j)
    probs = {V: Fraction(len(js), 1 << k) for V, js in groups.items()}
    pre = {V: tuple(js) for V, js in groups.items()}
    return CombineDist(tuple(sorted(groups)), probs, pre)
