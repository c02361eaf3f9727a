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
that stream, so it is served from one int64 buffer: each refill replays a
fixed number of randrange(N) attempts from one getrandbits call, bit for
bit (see _refill_labels). Every label is below N <= 2^63 - 1, so int64
holds it. The label sequence is the one per-query randrange(N) calls would
give; sample_labels serves it as int64 views of the buffer, and
peek_labels shows what it will serve next, as the same view, without
serving it.
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


# randrange(N) attempts replayed per label-buffer refill. N <= 2^63 - 1 takes
# at most two 32-bit words per attempt, so one refill draws at most 16 KiB of
# stream, and the int64 buffer never holds more than 2048 labels beyond the
# largest sample_labels or peek_labels request.
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

    def __post_init__(self) -> None:
        self._label_rng = stream(self.seed, "labels")
        # replayed draws in stream order, int64 and read-only; _next is the
        # first one not yet served
        self._labels = np.empty(0, dtype=np.int64)
        self._labels.flags.writeable = False
        self._next = 0
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

        The label is the next label of sample_labels, as an int; that call
        also charges the query.
        """
        return PhaseElement(int(self.sample_labels(1)[0]), scale, self, next(self._uid_counter))

    def sample_labels(self, n: int) -> np.ndarray:
        """The next n randrange(N) draws of the instance's "labels" stream, in
        stream order, as the read-only int64 view of the buffer of replayed
        draws (_refill_labels) that peek_labels(n) would return; costs n
        quantum queries and makes no element. Each label served advances
        q_queries by one, so q_queries is also the stream position of the
        next label."""
        out = self.peek_labels(n)
        self._next += n
        self.q_queries += n
        return out

    def peek_labels(self, n: int) -> np.ndarray:
        """The n labels the next sample_labels(n) would serve, without
        serving them: no query is charged and a later sample_labels or
        sample_element still gets them. They come as a read-only int64 view
        of the buffer, which later refills replace rather than change.
        Refills append behind the labels already buffered, so peeking leaves
        the label sequence unchanged."""
        if len(self._labels) - self._next < n:
            self._refill_labels(n)
        return self._labels[self._next : self._next + n]

    def _refill_labels(self, n: int) -> None:
        """Drop the served labels and replay batches of LABEL_BATCH
        randrange(N) attempts of the labels stream, concatenated in stream
        order into a new int64 buffer, until at least n unserved labels are
        buffered.

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
        parts = [self._labels[self._next :]]
        have = len(parts[0])
        while have < n:
            raw = self._label_rng.getrandbits(32 * w * LABEL_BATCH)
            words = np.frombuffer(raw.to_bytes(4 * w * LABEL_BATCH, "little"), dtype="<u4")
            words = words.astype(np.uint64).reshape(LABEL_BATCH, w)
            values = words[:, w - 1] >> np.uint64(32 * w - bits)
            for i in range(w - 2, -1, -1):
                values = (values << np.uint64(32)) | words[:, i]
            parts.append(values[values < N].view(np.int64))  # below N < 2^63
            have += len(parts[-1])
        self._labels = np.concatenate(parts)
        self._labels.flags.writeable = False
        self._next = 0

    def derive_element(self, label: int, scale: int = 1) -> PhaseElement:
        """Element produced by a combination step; not a query."""
        return PhaseElement(label % self.modulus.N, scale, self, next(self._uid_counter))

    # -- referee-side measurement -------------------------------------------

    def _phase_turns(self, elem: PhaseElement, correction: Fraction = 0) -> Fraction:
        """theta = s*l/N + correction (mod 1), exact: corrections are rational.
        It reads the secret, so only measure_element, which checks the
        element's instance first, calls it."""
        base = Fraction((self._s * elem.true_label) % self.modulus.N, self.modulus.N)
        return (base + correction) % 1

    def measure_element(self, elem: PhaseElement, correction: Fraction = 0) -> tuple[int, float]:
        """Hadamard-basis measurement after a phase-gate correction.

        Returns (bit, p0) with p0 = cos^2(pi*theta). Consumes the element.
        Exactly deterministic when theta is 0 or 1/2, so bit-recovery chains
        do not accumulate float noise. An element of another instance is a
        GuardError and stays unconsumed.
        """
        if elem.instance is not self:
            raise GuardError("element belongs to a different instance")
        elem.consume()
        theta = self._phase_turns(elem, correction)
        if theta == 0:
            p0 = 1.0
        elif theta == Fraction(1, 2):
            p0 = 0.0
        else:
            p0 = math.cos(math.pi * float(theta)) ** 2
        bit = 0 if self._meas_rng.random() < p0 else 1
        return bit, p0

    # -- secret access ------------------------------------------------------

    def reveal_secret(self) -> int:
        """Referee-side disclosure for validation; forbidden in measurement mode."""
        if self.measurement_mode:
            raise TamperError("reveal_secret is disabled on measurement-mode instances")
        self.secret_revealed = True
        return self._s


def new_instance(
    N: int,
    s: int | None = None,
    seed: int = 0,
    measurement_mode: bool = False,
) -> HiddenShiftInstance:
    """Fresh instance over Z_N with secret s; s = None derives the secret
    from the seed, making (N, seed) a complete description."""
    if N < 2:
        raise GuardError(f"need N >= 2, got {N}")
    modulus = Modulus(N)
    inst = HiddenShiftInstance(modulus, seed, measurement_mode)
    if s is None:
        inst._s = derive(seed, label_path("secret")) % N
    else:
        if not 0 <= s < N:
            raise ValueError(f"s = {s} outside [0, {N})")
        inst._s = s
    return inst


def classical_verify(inst: HiddenShiftInstance, s_candidate: int, trials: int = 16) -> bool:
    """Randomized check of f(x) == g(x + s_candidate); 2 classical queries per trial.

    The oracles are injective, so a wrong candidate fails every trial; one
    trial already refutes with probability 1. Multiple trials are kept for
    the cost accounting contract. trials < 1 would accept any candidate
    unchecked, so it is a GuardError.
    """
    if trials < 1:
        raise GuardError(f"need trials >= 1, got {trials}")
    ok = True
    N = inst.modulus.N
    for _ in range(trials):
        x = inst._verify_rng.randrange(N)
        inst.c_queries += 2
        if inst._f(x) != inst._g((x + s_candidate) % N):
            ok = False
    return ok
