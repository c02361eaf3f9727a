"""Instance referee: element service, query accounting, measurement, secrecy."""

from fractions import Fraction

import numpy as np
import pytest

from shiftlab.errors import ConsumedElementError, GuardError, TamperError
from shiftlab.instance import LABEL_BATCH, classical_verify, new_instance
from shiftlab.prp import KeyedPermutation
from shiftlab.seeds import stream

from conftest import chi_square_p


def test_constructor_basic():
    inst = new_instance(16, 5, seed=42)
    assert inst.modulus.n == 4
    assert inst.reveal_secret() == 5


def test_constructor_random_secret_from_seed():
    a = new_instance(15, seed=7)
    b = new_instance(15, seed=7)
    assert a.reveal_secret() == b.reveal_secret()
    assert 0 <= a.reveal_secret() < 15
    assert [a.sample_element().label for _ in range(50)] == [
        b.sample_element().label for _ in range(50)
    ]


def test_constructor_rejects_degenerate():
    with pytest.raises(GuardError):
        new_instance(1, 0, seed=0)


def test_constructor_rejects_bad_secret():
    with pytest.raises(ValueError):
        new_instance(8, 9, seed=0)


def test_prp_is_permutation():
    for N in (2, 7, 16, 255, 1000):
        perm = KeyedPermutation(N, 12345)
        image = {perm.apply(x) for x in range(N)}
        assert image == set(range(N))


def test_label_uniformity_chi_square():
    inst = new_instance(16, 3, seed=11)
    counts = [0] * 16
    for _ in range(10**5):
        counts[inst.sample_element().label] += 1
    assert chi_square_p(counts, [10**5 / 16] * 16) > 0.001


def test_labels_binary_modulus():
    inst = new_instance(2, 1, seed=0)
    assert {inst.sample_element().label for _ in range(64)} == {0, 1}


def test_label_stream_deterministic():
    a = new_instance(1024, 5, seed=99)
    b = new_instance(1024, 700, seed=99)  # secret must not affect labels
    assert [a.sample_element().label for _ in range(200)] == [
        b.sample_element().label for _ in range(200)
    ]


@pytest.mark.parametrize(
    "N", [2, 3, 2**16, 1000003, 2**32, 2**32 + 1, 2**61 - 1, 2**63 - 1]
)
def test_buffered_labels_replay_randrange(N):
    # more draws than one refill's LABEL_BATCH attempts can yield, at mixed
    # scales; the reference is the per-call randrange of the same stream
    inst = new_instance(N, seed=N)
    reference = stream(N, "labels")
    draws = 2 * LABEL_BATCH + 17
    for i in range(draws):
        elem = inst.sample_element(scale=(1, 3, 5)[i % 3])
        assert elem.label == reference.randrange(N), i
        assert elem.scale == (1, 3, 5)[i % 3]
    assert inst.q_queries == draws


@pytest.mark.parametrize("N", [2, 1000003, 2**63 - 1])
def test_sample_labels_serve_the_element_stream(N):
    # batches of every size, across several refills, interleaved with
    # single elements: one label stream, one query per label
    inst = new_instance(N, seed=N)
    reference = stream(N, "labels")
    served = 0
    for n in (1, 12, LABEL_BATCH - 5, 0, 3 * LABEL_BATCH, 7):
        served_labels = inst.sample_labels(n)
        assert served_labels.tolist() == [reference.randrange(N) for _ in range(n)]
        assert served_labels.dtype == np.int64
        assert inst.sample_element().label == reference.randrange(N)
        served += n + 1
        assert inst.q_queries == served


@pytest.mark.parametrize("N", [1000003, 2**61 - 1, 2**16, 2**32 + 1, 2**63 - 1])
def test_peek_labels_shows_what_comes_next(N):
    # one-word, two-word and power-of-two N, up to the largest one int64
    # holds; peeks of every size, some reaching past the buffered labels
    # into the next LABEL_BATCH refill, interleaved with the calls that
    # serve labels: one label stream, and only served labels cost queries.
    # A peek is a read-only int64 view of the one label buffer: a second
    # peek with no refill in between shares its memory
    inst = new_instance(N, seed=N)
    reference = stream(N, "labels")
    ahead: list[int] = []  # reference draws already shown by a peek
    served = 0

    def upcoming(n):
        while len(ahead) < n:
            ahead.append(reference.randrange(N))
        return ahead[:n]

    steps = [(0, 1), (12, 5), (LABEL_BATCH + 40, 0), (3, LABEL_BATCH - 7),
             (2 * LABEL_BATCH, 1), (LABEL_BATCH, 2 * LABEL_BATCH + 3), (7, 7)]
    for peek, take in steps:
        view = inst.peek_labels(peek)
        assert view.dtype == np.int64 and not view.flags.writeable
        assert view.tolist() == upcoming(peek)
        again = inst.peek_labels(peek)
        assert again.tolist() == upcoming(peek)
        assert peek == 0 or np.shares_memory(view, again)
        assert inst.q_queries == served
        assert inst.sample_labels(take).tolist() == upcoming(take)
        del ahead[:take]
        assert inst.sample_element().label == upcoming(1)[0]
        del ahead[:1]
        served += take + 1
        assert inst.q_queries == served


@pytest.mark.parametrize("N", [1000003, 2**63 - 1])
def test_sample_labels_serve_the_peeked_view(N):
    # the served labels are the read-only int64 view that the peek just
    # before showed, not a list of ints, and each costs one query
    inst = new_instance(N, seed=N)
    for n in (5, LABEL_BATCH + 3, 0):
        peeked = inst.peek_labels(n)
        before = inst.q_queries
        served = inst.sample_labels(n)
        assert isinstance(served, np.ndarray) and served.dtype == np.int64
        assert not served.flags.writeable
        assert np.array_equal(served, peeked)
        assert inst.q_queries == before + n


def test_query_counter_advances():
    inst = new_instance(64, 0, seed=1)
    for i in range(10):
        assert inst.q_queries == i
        inst.sample_element()
    assert inst.q_queries == 10
    # derived elements are free
    inst.derive_element(7)
    assert inst.q_queries == 10


def test_classical_verify_true_and_false():
    inst = new_instance(101, 5, seed=3)
    assert classical_verify(inst, 5, trials=10)
    assert not classical_verify(inst, 6, trials=10)


def test_classical_verify_counts_two_per_trial():
    inst = new_instance(101, 5, seed=3)
    before = inst.c_queries
    classical_verify(inst, 5, trials=10)
    assert inst.c_queries == before + 20


@pytest.mark.parametrize("trials", [0, -1])
def test_classical_verify_refuses_fewer_than_one_trial(trials):
    inst = new_instance(101, 5, seed=3)
    with pytest.raises(GuardError):
        classical_verify(inst, 6, trials=trials)
    assert inst.c_queries == 0


def test_reveal_gated_in_measurement_mode():
    inst = new_instance(64, 9, seed=0, measurement_mode=True)
    with pytest.raises(TamperError):
        inst.reveal_secret()
    assert not inst.secret_revealed


def test_measurement_mode_has_no_public_phase_readout():
    # a public phase_turns would read s*l/N off an unmeasured element (9/64
    # for label 1 here) with no query charged and no reveal recorded
    inst = new_instance(64, 9, seed=0, measurement_mode=True)
    assert not hasattr(inst, "phase_turns")
    assert inst.q_queries == 0 and not inst.secret_revealed


def test_reveal_sets_audit_flag():
    inst = new_instance(64, 9, seed=0)
    assert not inst.secret_revealed
    inst.reveal_secret()
    assert inst.secret_revealed


def test_measure_top_label_gives_parity():
    # theta = s * 2^(n-1) / 2^n = s/2: integer iff s even
    for s in range(8):
        inst = new_instance(16, s, seed=s)
        elem = inst.derive_element(8)
        bit, p0 = inst.measure_element(elem)
        assert bit == s % 2
        assert p0 == (1.0 if s % 2 == 0 else 0.0)


def test_measure_quarter_turn_is_fair():
    inst = new_instance(16, 1, seed=4)
    elem = inst.derive_element(4)  # theta = 4/16 = 1/4
    _, p0 = inst.measure_element(elem)
    assert abs(p0 - 0.5) < 1e-12


def test_measure_with_fraction_correction_exact():
    inst = new_instance(16, 5, seed=2)
    elem = inst.derive_element(4)  # theta = 20/16 = 1/4 mod 1
    bit, p0 = inst.measure_element(elem, correction=Fraction(-1, 4))
    assert (bit, p0) == (0, 1.0)


def test_elements_consume_once():
    inst = new_instance(32, 3, seed=6)
    elem = inst.sample_element()
    inst.measure_element(elem)
    with pytest.raises(ConsumedElementError):
        inst.measure_element(elem)


def test_measure_refuses_element_of_another_instance():
    inst, other = new_instance(64, seed=4), new_instance(64, seed=3)
    elem = other.sample_element()
    with pytest.raises(GuardError):
        inst.measure_element(elem)
    assert not elem.consumed
    assert other.measure_element(elem)[0] in (0, 1)


def test_scaled_element_true_label():
    inst = new_instance(15, 4, seed=8)
    elem = inst.derive_element(3, scale=2)
    assert elem.true_label == 6
    # phase follows the true label
    assert inst._phase_turns(elem) == Fraction((4 * 6) % 15, 15)
