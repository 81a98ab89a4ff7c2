"""Bit interleaving of a source sequence with coefficient bit streams.

A constructed point x is a bit string assembled stage by stage. Stage j
covers the 1-based positions (h_{j-1}, h_j] with h_0 = 0. Inside stage j,
positions p <= floor(s * h_j) carry y[p] (the source, indexed by global
position); the remaining positions consume the round-robin pattern over
the d coefficient expansions,

    a_1[0] a_2[0] ... a_d[0] a_1[1] a_2[1] ...

which restarts from bit 0 of every source at each stage boundary, so every
stage embeds a prefix of each coefficient stream on its own. The constant
coefficient a_0 is never an input and so never appears. extract_blocks is
the exact inverse on the consumed bits.

The generator _walk is the one place this position rule lives: it names the
source of every position, interleave gathers along it and extract_blocks
scatters along it, so the two cannot disagree.

Admissible schedules grow fast: h_1 = 2 and h_j >= 2^(h_{j-1}) afterwards;
default_schedule produces the minimal such growth.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidArgument, LengthMismatch, ScheduleOverflow, SourceExhausted, echo
from .polyalg import _as_fraction, _as_int


class BitSource:
    """1-based indexable finite binary sequence.

    Accepts a string of '0'/'1' or any iterable of the ints 0 and 1 (True
    and False count as ints; floats do not). bit(i) raises SourceExhausted
    past the end, so a too-short source is an error rather than silent
    padding. Accesses are recorded in `queried` (highest index asked for),
    which the test oracles use to prove which sources were touched.
    """

    def __init__(self, bits):
        if isinstance(bits, str):
            if set(bits) - {"0", "1"}:
                raise InvalidArgument("bit string may contain only '0' and '1'")
            self._bits = bits
        else:
            vals = list(bits)
            if not all(isinstance(b, int) and b in (0, 1) for b in vals):
                raise InvalidArgument("bits must be 0 or 1")
            self._bits = "".join("1" if b else "0" for b in vals)
        self.queried = 0

    def __len__(self) -> int:
        return len(self._bits)

    def bit(self, i: int) -> int:
        """The i-th bit, 1-based."""
        if i < 1:
            raise IndexError("bit indices are 1-based")
        if i > len(self._bits):
            raise SourceExhausted(f"bit {i} of a {len(self._bits)}-bit source")
        if i > self.queried:
            self.queried = i
        return 1 if self._bits[i - 1] == "1" else 0


class StageSchedule(NamedTuple("StageSchedule", [("stages", tuple), ("s", Fraction)])):
    """Stage boundaries h_1 < h_2 < ... plus the source share s in [0, 1]."""

    __slots__ = ()

    def __new__(cls, stages, s):
        stages = tuple(_as_int(h, "stage boundary") for h in stages)
        if not stages:
            raise InvalidArgument("schedule needs at least one stage")
        if stages[0] != 2:
            raise InvalidArgument("the first stage boundary must be 2")
        for prev, nxt in zip(stages, stages[1:]):
            if nxt >> prev < 1:  # nxt < 2^prev, negative nxt too, without building 2^prev
                raise InvalidArgument(f"stage boundary {echo(nxt)} < 2^{echo(prev)}")
        s = _as_fraction(s)
        if not 0 <= s <= 1:
            raise InvalidArgument("s must lie in [0, 1]")
        return super().__new__(cls, stages, s)

    @classmethod
    def _make(cls, iterable):  # _replace builds through here: validate it too
        return cls(*iterable)

    @property
    def total_length(self) -> int:
        return self.stages[-1]

    def source_cut(self, j: int) -> int:
        """floor(s * h_j): last position of stage j that carries a y bit."""
        return math.floor(self.s * self.stages[j])


def default_schedule(j_max: int, s=Fraction(1, 2), max_bits: int = 2**20) -> StageSchedule:
    """Minimal admissible growth: h_1 = 2, h_j = 2^(h_{j-1}).

    Raises ScheduleOverflow once a boundary would exceed max_bits (the
    configured bit budget — the next boundary after 65536 already needs
    2^65536 bits).
    """
    if j_max < 1:
        raise InvalidArgument("j_max must be >= 1")
    stages = [2]
    for _ in range(j_max - 1):
        if max_bits >> stages[-1] < 1:  # max_bits < 2^h, without building 2^h
            raise ScheduleOverflow(f"2^{stages[-1]} exceeds the {max_bits}-bit budget")
        stages.append(2 ** stages[-1])
    return StageSchedule(stages, s)


def _walk(sched: StageSchedule, d: int, n: int):
    """Yield (position, slot) for positions 1..n of the constructed point.

    slot is None when the position copies y[position], else (i, k): bit k
    (0-based) of a_{i+1}. Inside a stage, the positions up to its source cut
    come first; the rest take a_1[0] a_2[0] ... a_d[0] a_1[1] ... from the
    stage's first coefficient position on, so the pattern restarts at each
    boundary.
    """
    prev = 0
    for j, h in enumerate(sched.stages):
        first = max(sched.source_cut(j), prev) + 1  # first coefficient position
        for pos in range(prev + 1, min(h, n) + 1):
            if pos < first:
                yield pos, None
            else:
                k, i = divmod(pos - first, d)
                yield pos, (i, k)
        prev = h


def interleave(y: BitSource, coeff_bits, sched: StageSchedule, n: int) -> str:
    """Assemble the first n positions of the constructed point.

    Positions up to floor(s*h_j) inside stage j copy y at the same (global,
    1-based) position. The rest of the stage carries the pattern
    a_1[0] a_2[0] ... a_d[0] a_1[1] ..., restarting from bit 0 of every
    source at each stage boundary, so each stage embeds a prefix of every
    coefficient stream on its own.

    coeff_bits lists the d sources a_1..a_d (a_0 is deliberately not an
    input). n must not exceed the last stage boundary (LengthMismatch).
    Raises SourceExhausted when any source runs out.
    """
    d = len(coeff_bits)
    if d < 1:
        raise InvalidArgument("need at least one coefficient source")
    if n < 0 or n > sched.total_length:
        raise LengthMismatch(f"n = {echo(n)} outside [0, {sched.total_length}]")
    return "".join(
        str(y.bit(pos) if slot is None else coeff_bits[slot[0]].bit(slot[1] + 1))
        for pos, slot in _walk(sched, d, n)
    )


def extract_blocks(x: str, sched: StageSchedule, d: int):
    """Invert interleave: recover the y segments and coefficient prefixes.

    Returns (y_fragments, coeff_fragments): y_fragments is a list of
    (start_position, bits) pairs, one per maximal run of source positions
    inside x; coeff_fragments is a list of d strings, the longest prefix of
    each a_i recoverable from x. Stages repeat coefficient prefixes, so a
    bit seen in an earlier stage is simply confirmed by later ones (the
    precondition — x came from interleave — makes them agree). Raises
    LengthMismatch when x is longer than the schedule covers.
    """
    if d < 1:
        raise InvalidArgument("d must be >= 1")
    n = len(x)
    if n > sched.total_length:
        raise LengthMismatch(f"{n} bits exceed the schedule's {sched.total_length}")
    if set(x) - {"0", "1"}:
        raise InvalidArgument("bit string may contain only '0' and '1'")
    runs: list[tuple[int, list[str]]] = []
    coeffs: list[list[str]] = [[] for _ in range(d)]
    for pos, slot in _walk(sched, d, n):
        bit = x[pos - 1]
        if slot is None:
            if runs and runs[-1][0] + len(runs[-1][1]) == pos:
                runs[-1][1].append(bit)
            else:
                runs.append((pos, [bit]))
        else:
            i, k = slot
            if k == len(coeffs[i]):
                coeffs[i].append(bit)
    return [(start, "".join(bits)) for start, bits in runs], ["".join(c) for c in coeffs]
