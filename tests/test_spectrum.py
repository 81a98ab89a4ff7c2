"""Stage-scheduled bit interleaving and its inverse.

Position conventions: bit positions are 1-based; stage j covers positions
h_{j-1}+1 .. h_j; positions up to floor(s*h_j) copy the y source at the
same global position; the rest of the stage carries
a_1[0] a_2[0] ... a_d[0] a_1[1] ..., restarting from bit 0 of every
coefficient source at each stage boundary.
"""

import random
from fractions import Fraction

import pytest

from certiroot import (
    BitSource,
    InvalidArgument,
    LengthMismatch,
    ScheduleOverflow,
    SourceExhausted,
    StageSchedule,
    default_schedule,
    extract_blocks,
    interleave,
)

rng = random.Random(0xB17)


def rand_bits(r, n):
    return "".join(r.choice("01") for _ in range(n))


# --- BitSource --------------------------------------------------------------


def test_bit_source_basics():
    src = BitSource("101")
    assert [src.bit(i) for i in (1, 2, 3)] == [1, 0, 1]
    assert src.queried == 3
    with pytest.raises(SourceExhausted):
        src.bit(4)
    with pytest.raises(IndexError):
        src.bit(0)


def test_bit_source_from_iterable():
    src = BitSource([1, 0, 1, 1])
    assert src.bit(4) == 1
    assert src.queried == 4
    # True and False are ints, read as 1 and 0, one bit each
    src = BitSource([True, False, True])
    assert len(src) == 3
    assert [src.bit(i) for i in (1, 2, 3)] == [1, 0, 1]
    # floats are not bits, not even 1.0 and 0.0
    for junk in ([1.0, 0.0], [1, 0.0], [2], ["1"], [None]):
        with pytest.raises(InvalidArgument, match="bits must be 0 or 1"):
            BitSource(junk)


def test_bit_source_rejects_junk():
    with pytest.raises(ValueError):
        BitSource("10z")


# --- StageSchedule ----------------------------------------------------------


def test_schedule_validation():
    StageSchedule((2, 4, 16), Fraction(1, 2))
    with pytest.raises(ValueError):
        StageSchedule((3, 9), Fraction(1, 2))  # first boundary must be 2
    with pytest.raises(ValueError):
        StageSchedule((2, 3), Fraction(1, 2))  # 3 < 2^2
    with pytest.raises(ValueError):
        StageSchedule((2, 4, -5), Fraction(1, 2))  # -5 < 2^4
    with pytest.raises(ValueError):
        StageSchedule((2, 4), Fraction(3, 2))  # s out of [0, 1]
    with pytest.raises(ValueError):
        StageSchedule((), Fraction(1, 2))


def test_schedule_growth_is_checked_without_building_the_power(run_limited):
    """2^(2^40) would take 128 GiB: the growth test compares by shifting."""
    proc = run_limited(
        "from certiroot import InvalidArgument, StageSchedule\n"
        "print(StageSchedule((2, 40, 2**40), '1/2').stages[-1])\n"
        "try:\n"
        "    StageSchedule((2, 40, 2**40, 2**40 + 1), '1/2')\n"
        "except InvalidArgument as exc:\n"
        "    print(exc)\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "1099511627776\nstage boundary 1099511627777 < 2^1099511627776\n"


def test_schedule_helpers():
    sched = StageSchedule((2, 4, 16), Fraction(1, 2))
    assert sched.total_length == 16
    assert sched.source_cut(0) == 1
    assert sched.source_cut(1) == 2
    assert sched.source_cut(2) == 8


def test_default_schedule_frozen():
    assert default_schedule(3).stages == (2, 4, 16)
    assert default_schedule(1).stages == (2,)
    assert default_schedule(4).stages == (2, 4, 16, 65536)


def test_default_schedule_overflow():
    with pytest.raises(ScheduleOverflow):
        default_schedule(5)  # next boundary would be 2^65536
    assert default_schedule(5, max_bits=2**65536).stages[-1] == 2**65536
    assert default_schedule(3, max_bits=16).stages == (2, 4, 16)
    for max_bits in (15, 0, -1):
        with pytest.raises(ScheduleOverflow):
            default_schedule(3, max_bits=max_bits)
    with pytest.raises(ValueError):
        default_schedule(0)


# --- interleave: frozen trace -----------------------------------------------


def test_trace_d2_s_half():
    """Stage 1 (positions 1-2): y[1] then a1[0]. Stage 2 (positions 3-4):
    empty y segment, pattern restarts: a1[0], a2[0]."""
    sched = StageSchedule((2, 4), Fraction(1, 2))
    y = BitSource("1111")
    a1, a2 = BitSource("00"), BitSource("01")
    x = interleave(y, [a1, a2], sched, 4)
    assert x == "1000"
    # discriminating data: restart means position 3 repeats a1[0]
    x2 = interleave(BitSource("0000"), [BitSource("11"), BitSource("00")], sched, 4)
    assert x2 == "0110"
    assert x2[2] == "1"  # 0-based x[2] = a1[0]
    assert x2[3] == "0"  # 0-based x[3] = a2[0]


def test_s_one_copies_y():
    sched = StageSchedule((2, 4), 1)
    y = rand_bits(rng, 4)
    x = interleave(BitSource(y), [BitSource("0000")], sched, 4)
    assert x == y
    # one fragment across the stage boundary, not one per stage
    assert extract_blocks(x, sched, 1) == ([(1, y)], [""])


def test_s_zero_pure_coefficient_pattern():
    sched = StageSchedule((2, 4), 0)
    x = interleave(BitSource("0000"), [BitSource("10"), BitSource("01")], sched, 4)
    # each stage restarts: stage 1 = a1[0] a2[0], stage 2 = a1[0] a2[0]
    assert x == "1010"
    # stage 3 (positions 5-16) carries both sources in full
    sched = StageSchedule((2, 4, 16), 0)
    a1, a2 = "101100", "010011"
    x = interleave(BitSource(""), [BitSource(a1), BitSource(a2)], sched, 16)
    assert x == "10" + "10" + "100110100101"
    assert extract_blocks(x, sched, 2) == ([], [a1, a2])


def test_prefix_lengths():
    sched = StageSchedule((2, 4), Fraction(1, 2))
    y = BitSource("1111")
    for n, expected, blocks in [
        (0, "", ([], ["", ""])),
        (1, "1", ([(1, "1")], ["", ""])),
        (2, "10", ([(1, "1")], ["0", ""])),
        (3, "100", ([(1, "1")], ["0", ""])),  # ends mid-stage, before a2[0]
    ]:
        got = interleave(y, [BitSource("00"), BitSource("01")], sched, n)
        assert got == expected
        assert extract_blocks(got, sched, 2) == blocks
    # stage 3 of (2, 4, 16) copies y at 5-8, then a1[0] a2[0] a1[1] from 9
    sched = StageSchedule((2, 4, 16), Fraction(1, 2))
    assert extract_blocks("1001" + "0101" + "011", sched, 2) == (
        [(1, "1"), (5, "0101")], ["01", "1"])


def test_interleave_errors():
    sched = StageSchedule((2, 4), Fraction(1, 2))
    with pytest.raises(LengthMismatch):
        interleave(BitSource("1111"), [BitSource("00")], sched, 5)
    with pytest.raises(LengthMismatch):
        interleave(BitSource("1111"), [BitSource("00")], sched, -1)
    with pytest.raises(ValueError):
        interleave(BitSource("1111"), [], sched, 4)
    with pytest.raises(SourceExhausted):
        interleave(BitSource(""), [BitSource("00")], sched, 4)
    # a2 runs out at position 14, mid-stage: a2[2] is asked for after a1[2]
    y, a1, a2 = BitSource("1" * 16), BitSource("0" * 8), BitSource("00")
    with pytest.raises(SourceExhausted, match="^bit 3 of a 2-bit source$"):
        interleave(y, [a1, a2], StageSchedule((2, 4, 16), Fraction(1, 2)), 16)
    assert (y.queried, a1.queried, a2.queried) == (8, 3, 2)


def test_single_coefficient_round_robin_is_sequential():
    # s=1/4 gives cuts 0, 1, 4: every position of stages 1-3 lands above its
    # stage's cut, so x is three restarted prefixes of the single source:
    # a[0:2], a[0:2], a[0:12]
    sched = StageSchedule((2, 4, 16), Fraction(1, 4))
    bits = "101101100111"
    x = interleave(BitSource("1" * 16), [BitSource(bits)], sched, 16)
    assert x == bits[:2] + bits[:2] + bits[:12]
    _, frags_a = extract_blocks(x, sched, 1)
    assert frags_a[0] == bits


# --- round-trip -------------------------------------------------------------


def test_extract_frozen_trace():
    sched = StageSchedule((2, 4), Fraction(1, 2))
    y_frags, coeffs = extract_blocks("1000", sched, 2)
    assert y_frags == [(1, "1")]
    assert coeffs == ["0", "0"]


def test_round_trip_identity_random():
    """extract_blocks inverts interleave: y fragments match y at their
    positions and coefficient fragments are true prefixes."""
    for _ in range(120):
        n_stages = rng.randint(1, 3)
        stages = [2]
        for _ in range(n_stages - 1):
            stages.append(2 ** stages[-1])
        sched = StageSchedule(tuple(stages), Fraction(rng.randint(0, 8), 8))
        d = rng.randint(1, 5)
        total = sched.total_length
        n = rng.randint(0, total)
        y_bits = rand_bits(rng, total)
        coeff_bits = [rand_bits(rng, total) for _ in range(d)]
        x = interleave(
            BitSource(y_bits), [BitSource(c) for c in coeff_bits], sched, n
        )
        assert len(x) == n
        y_frags, prefixes = extract_blocks(x, sched, d)
        for start, bits in y_frags:
            assert bits == y_bits[start - 1 : start - 1 + len(bits)]
        for i, prefix in enumerate(prefixes):
            assert prefix == coeff_bits[i][: len(prefix)]


def test_extract_errors():
    sched = StageSchedule((2, 4), Fraction(1, 2))
    with pytest.raises(LengthMismatch):
        extract_blocks("10001", sched, 2)
    with pytest.raises(ValueError):
        extract_blocks("10x0", sched, 2)
    with pytest.raises(ValueError):
        extract_blocks("10", sched, 0)


def test_empty_input_round_trip():
    sched = StageSchedule((2, 4), Fraction(1, 2))
    y_frags, coeffs = extract_blocks("", sched, 3)
    assert y_frags == []
    assert coeffs == ["", "", ""]


def test_sources_only_queried_as_needed():
    sched = StageSchedule((2, 4, 16), Fraction(1, 2))
    y = BitSource("1" * 16)
    a1, a2 = BitSource("0" * 16), BitSource("0" * 16)
    interleave(y, [a1, a2], sched, 16)
    # y used at positions 1 and 5..8; coefficient prefixes of length 4 each
    assert y.queried == 8
    assert a1.queried == 4
    assert a2.queried == 4
