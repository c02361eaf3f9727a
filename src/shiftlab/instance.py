"""Problem instances and phase elements.

A HiddenShiftInstance is the referee: it holds the secret shift s, serves
uniformly-labeled phase elements, answers classical oracle queries for
verification, and keeps the query counters. Everything outside this module
treats s as unknown; measurement outcomes are the only channel through which
it leaks, exactly as in the modeled algorithm.

A PhaseElement is one qubit |0> + chi(s*l/N)|1> known by its label l. Elements
are strictly consume-once: measuring or feeding one into a combination uses it
up. An element may carry a scale u, meaning its pool works in rescaled label
coordinates: the stored label is l_view and the underlying label is
l_view * u mod N. Phases are computed from the underlying label, so rescaled
pipelines (odd-N recovery) need no special cases downstream.

Labels come from the instance's own "labels" stream and nothing else reads
that stream, so it is served from a buffer: each refill replays a fixed
number of randrange(N) attempts from one getrandbits call, bit for bit (see
_refill_labels). The label sequence is the one per-query randrange(N) calls
would give; sample_labels serves the same sequence as plain ints.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConsumedElementError, GuardError, TamperError
from .group_arith import Modulus, mul_mod
from .prp import KeyedPermutation
from .seeds import derive, label_path, stream


class _RandomSecret:
    def __repr__(self) -> str:  # pragma: no cover
        return "RANDOM"


RANDOM = _RandomSecret()

# randrange(N) attempts replayed per label-buffer refill. N <= 2^63 - 1 takes
# at most two 32-bit words per attempt, so one refill draws at most 16 KiB of
# stream and buffers at most 2048 labels.
LABEL_BATCH = 2048


@dataclass(eq=False, slots=True)
class PhaseElement:
    """One unmeasured phase element, identified by its (view) label."""

    label: int
    scale: int
    instance: "HiddenShiftInstance"
    uid: int
    consumed: bool = False

    @property
    def true_label(self) -> int:
        return mul_mod(self.label, self.scale, self.instance.modulus)

    def consume(self) -> None:
        if self.consumed:
            raise ConsumedElementError(f"element {self.uid} already consumed")
        self.consumed = True


@dataclass(eq=False)
class HiddenShiftInstance:
    modulus: Modulus
    seed: int
    measurement_mode: bool = False
    q_queries: int = 0
    c_queries: int = 0
    secret_revealed: bool = False
    _s: int = field(default=0, repr=False)
    _s_explicit: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        self._label_rng = stream(self.seed, "labels")
        self._labels: list[int] = []  # filled by _refill_labels, popped from the end
        self._meas_rng = stream(self.seed, "measure")
        self._verify_rng = stream(self.seed, "verify")
        self._prp = KeyedPermutation(self.modulus.N, derive(self.seed, label_path("oracle")))
        self._uid_counter = itertools.count()

    # -- oracles -----------------------------------------------------------

    def _f(self, x: int) -> int:
        return self._prp.apply(x % self.modulus.N)

    def _g(self, x: int) -> int:
        return self._prp.apply((x - self._s) % self.modulus.N)

    # -- element service ----------------------------------------------------

    def sample_element(self, scale: int = 1) -> PhaseElement:
        """One fresh element with uniform label; costs one quantum query.

        The label stream depends only on the seed, never on s. With a scale u
        (a unit mod N), the view label is drawn uniformly and the underlying
        label is view*u mod N; multiplication by a unit is a bijection, so the
        underlying label is uniform too.

        The label is the next randrange(N) of the instance's "labels" stream,
        served from a buffer of replayed draws (_refill_labels).
        """
        labels = self._labels
        while not labels:
            self._refill_labels()
        self.q_queries += 1
        return PhaseElement(labels.pop(), scale, self, next(self._uid_counter))

    def sample_labels(self, n: int) -> list[int]:
        """The labels of the next n sample_element calls, in stream order, as
        plain ints; costs n quantum queries and makes no element."""
        labels = self._labels
        out: list[int] = []
        while len(labels) < n - len(out):
            out += labels[::-1]
            labels.clear()
            self._refill_labels()
        rest = n - len(out)
        if rest:
            out += labels[: -rest - 1 : -1]
            del labels[-rest:]
        self.q_queries += n
        return out

    def _refill_labels(self) -> None:
        """Replay LABEL_BATCH randrange(N) attempts of the labels stream.

        CPython draws randrange(N) as getrandbits(b) with b = N.bit_length(),
        retried while the value is >= N. getrandbits(b) takes w = ceil(b/32)
        words from the Mersenne Twister, lowest word first, and shifts the
        last word right by 32*w - b. One getrandbits(32*w*LABEL_BATCH) call
        yields the same words in the same order, so rebuilding each attempt
        from its w words and dropping the rejected ones gives the per-call
        sequence exactly, and leaves the stream where those calls would.
        """
        N = self.modulus.N
        bits = N.bit_length()
        w = (bits + 31) // 32
        raw = self._label_rng.getrandbits(32 * w * LABEL_BATCH)
        words = np.frombuffer(raw.to_bytes(4 * w * LABEL_BATCH, "little"), dtype="<u4")
        words = words.astype(np.uint64).reshape(LABEL_BATCH, w)
        values = words[:, w - 1] >> np.uint64(32 * w - bits)
        for i in range(w - 2, -1, -1):
            values = (values << np.uint64(32)) | words[:, i]
        # reversed, so pop() from the end serves the draws in stream order
        self._labels.extend(values[values < N][::-1].tolist())

    def derive_element(self, label: int, scale: int = 1) -> PhaseElement:
        """Element produced by a combination step; not a query."""
        return PhaseElement(label % self.modulus.N, scale, self, next(self._uid_counter))

    # -- referee-side measurement -------------------------------------------

    def phase_turns(self, elem: PhaseElement, correction: Fraction | float = 0) -> Fraction | float:
        """theta = s*l/N + correction (mod 1); exact when correction is rational."""
        base = Fraction((self._s * elem.true_label) % self.modulus.N, self.modulus.N)
        if isinstance(correction, Fraction) or isinstance(correction, int):
            return (base + correction) % 1
        return (float(base) + correction) % 1.0

    def measure_element(self, elem: PhaseElement, correction: Fraction | float = 0) -> tuple[int, float]:
        """Hadamard-basis measurement after a phase-gate correction.

        Returns (bit, p0) with p0 = cos^2(pi*theta). Consumes the element.
        Exactly deterministic when theta is 0 or 1/2, so bit-recovery chains
        do not accumulate float noise.
        """
        elem.consume()
        theta = self.phase_turns(elem, correction)
        if isinstance(theta, Fraction):
            if theta == 0:
                p0 = 1.0
            elif theta == Fraction(1, 2):
                p0 = 0.0
            else:
                p0 = math.cos(math.pi * float(theta)) ** 2
        else:
            p0 = math.cos(math.pi * theta) ** 2
        bit = 0 if self._meas_rng.random() < p0 else 1
        return bit, p0

    # -- secret access ------------------------------------------------------

    def reveal_secret(self) -> int:
        """Referee-side disclosure for validation; forbidden in measurement mode."""
        if self.measurement_mode:
            raise TamperError("reveal_secret is disabled on measurement-mode instances")
        self.secret_revealed = True
        return self._s

    # -- serialization ------------------------------------------------------

    def to_descriptor(self) -> dict:
        return {
            "N": self.modulus.N,
            "seed": self.seed,
            "s_present": self._s_explicit,
        }


def new_instance(
    N: int,
    s: int | _RandomSecret = RANDOM,
    seed: int = 0,
    measurement_mode: bool = False,
) -> HiddenShiftInstance:
    """Fresh instance over Z_N. s = RANDOM derives the secret from the seed,
    making {N, seed} a complete description."""
    if N < 2:
        raise GuardError(f"need N >= 2, got {N}")
    modulus = Modulus(N)
    inst = HiddenShiftInstance(modulus, seed, measurement_mode)
    if isinstance(s, _RandomSecret):
        inst._s = derive(seed, label_path("secret")) % N
        inst._s_explicit = False
    else:
        if not 0 <= s < N:
            raise ValueError(f"s = {s} outside [0, {N})")
        inst._s = s
        inst._s_explicit = True
    return inst


def from_descriptor(desc: dict, s: int | None = None) -> HiddenShiftInstance:
    """Rebuild an instance from its JSON descriptor.

    Descriptors of randomly-seeded instances round-trip bare; an instance
    with an explicitly chosen secret needs that secret passed back in.
    """
    if desc.get("s_present"):
        if s is None:
            raise ValueError("descriptor has an explicit secret; pass s=")
        return new_instance(desc["N"], s, desc["seed"])
    return new_instance(desc["N"], RANDOM, desc["seed"])


def classical_verify(inst: HiddenShiftInstance, s_candidate: int, trials: int = 16) -> bool:
    """Randomized check of f(x) == g(x + s_candidate); 2 classical queries per trial.

    The oracles are injective, so a wrong candidate fails every trial; one
    trial already refutes with probability 1. Multiple trials are kept for
    the cost accounting contract.
    """
    ok = True
    N = inst.modulus.N
    for _ in range(trials):
        x = inst._verify_rng.randrange(N)
        inst.c_queries += 2
        if inst._f(x) != inst._g((x + s_candidate) % N):
            ok = False
    return ok
