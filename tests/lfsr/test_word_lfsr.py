"""Tests for the word-oriented LFSR (paper Figure 1(b) machinery)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2 import poly_from_string, primitive_polynomial
from repro.gf2m import GF2m
from repro.lfsr import WordLFSR, word_lfsr_period

F = GF2m(poly_from_string("1+z+z^4"))
PAPER_G = (1, 2, 2)

elements = st.integers(min_value=0, max_value=15)


class TestConstruction:
    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            WordLFSR(F, (1,), seed=())

    def test_zero_a0_rejected(self):
        with pytest.raises(ValueError):
            WordLFSR(F, (0, 2, 2), seed=(0, 1))

    def test_zero_ak_rejected(self):
        with pytest.raises(ValueError):
            WordLFSR(F, (1, 2, 0), seed=(0, 1))

    def test_coefficient_out_of_field(self):
        with pytest.raises(ValueError):
            WordLFSR(F, (1, 16, 2), seed=(0, 1))

    def test_seed_wrong_length(self):
        with pytest.raises(ValueError):
            WordLFSR(F, PAPER_G, seed=(0,))

    def test_seed_out_of_field(self):
        with pytest.raises(ValueError):
            WordLFSR(F, PAPER_G, seed=(0, 99))

    def test_properties(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        assert lfsr.k == 2
        assert lfsr.field is F
        assert lfsr.coeffs == PAPER_G
        assert lfsr.state == (0, 1)

    def test_repr_shows_generator(self):
        assert "1 + 2x + 2x^2" in repr(WordLFSR(F, PAPER_G, seed=(0, 1)))


class TestPaperTrace:
    """Figure 1(b): the WOM stream starts 0, 1, 2, 6, ..."""

    def test_figure_1b_prefix(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        assert lfsr.sequence(4) == [0, 1, 2, 6]

    def test_recurrence_multipliers(self):
        # s[t+2] = 2*s[t+1] + 2*s[t]: multiplier of s[t] is a_2/a_0 = 2.
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        assert lfsr.recurrence_multipliers == (2, 2)

    def test_generator_irreducible(self):
        assert WordLFSR(F, PAPER_G, seed=(0, 1)).generator_is_irreducible()

    def test_period_255(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        assert lfsr.predicted_period() == 255
        assert lfsr.period() == 255

    def test_ring_closure(self):
        """After exactly 255 steps the state returns to Init -- the
        pseudo-ring property the whole paper is built on."""
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        lfsr.run(255)
        assert lfsr.state == (0, 1)

    def test_no_early_closure(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        for _ in range(254):
            lfsr.step()
            assert lfsr.state != (0, 1)


class TestRecurrence:
    @given(elements, elements)
    def test_stream_satisfies_recurrence(self, s0, s1):
        lfsr = WordLFSR(F, PAPER_G, seed=(s0, s1))
        seq = lfsr.sequence(30)
        for t in range(len(seq) - 2):
            expected = F.add(F.mul(2, seq[t + 1]), F.mul(2, seq[t]))
            assert seq[t + 2] == expected

    def test_non_monic_a0(self):
        # g = 3 + x: s[t+1] = 3^{-1} * ... wait k=1: s[t+1] = (a_1/a_0)*s[t]
        lfsr = WordLFSR(F, (3, 1), seed=(1,))
        c = F.inv(3)
        assert lfsr.sequence(3) == [1, c, F.mul(c, c)]

    @given(elements, elements)
    def test_linearity_of_streams(self, a, b):
        """Streams from seeds a, b, a^b satisfy stream(a)^stream(b)=stream(a^b)."""
        sa = WordLFSR(F, PAPER_G, seed=(a, 1)).sequence(20)
        sb = WordLFSR(F, PAPER_G, seed=(b, 1)).sequence(20)
        sxor = WordLFSR(F, PAPER_G, seed=(a ^ b, 0)).sequence(20)
        assert [x ^ y for x, y in zip(sa, sb, strict=True)] == sxor

    def test_zero_seed_fixed(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 0))
        assert lfsr.sequence(5) == [0] * 5
        assert lfsr.period() == 0


#: Fields for the table-stepping check: GF(2), the paper's GF(16), a
#: GF(16) from a non-primitive modulus (its tables hang off a searched
#: generator, not z), GF(2^8), and GF(2^17) and GF(2^20), which are past
#: table mode and step by carry-less multiplies.
STEP_FIELDS = {
    "GF(2)": GF2m(primitive_polynomial(1)),
    "GF(16)": F,
    "GF(16) non-primitive": GF2m(poly_from_string("1+z+z^2+z^3+z^4")),
    "GF(2^8)": GF2m(primitive_polynomial(8)),
    "GF(2^17)": GF2m(primitive_polynomial(17)),
    "GF(2^20)": GF2m(primitive_polynomial(20)),
}


def _reference_stream(field, coeffs, seed, count):
    """``count`` words of the recurrence, by validated field.mul/add."""
    k = len(coeffs) - 1
    inv_a0 = field.inv(coeffs[0])
    mult = [field.mul(inv_a0, coeffs[k - j]) for j in range(k)]
    state, out = list(seed), []
    for _ in range(count):
        out.append(state[0])
        word = 0
        for j in range(k):
            word = field.add(word, field.mul(mult[j], state[j]))
        state = state[1:] + [word]
    return out


@st.composite
def _automata(draw):
    name = draw(st.sampled_from(sorted(STEP_FIELDS)))
    field = STEP_FIELDS[name]
    k = draw(st.integers(1, 5))
    words = st.integers(0, field.size - 1)
    nonzero = st.integers(1, field.size - 1)
    coeffs = (draw(nonzero),) + tuple(draw(words) for _ in range(k - 1)) \
        + (draw(nonzero),)
    seed = tuple(draw(words) for _ in range(k))
    return name, coeffs, seed


class TestTableStepping:
    def test_fields_cover_both_stepping_paths(self):
        with_tables = {name for name, field in STEP_FIELDS.items()
                       if field.log_tables() is not None}
        assert with_tables == {"GF(2)", "GF(16)", "GF(16) non-primitive",
                               "GF(2^8)"}

    @settings(max_examples=120, deadline=None)
    @given(_automata(), st.integers(0, 40))
    def test_sequence_equals_the_reference_recurrence(self, automaton,
                                                      count):
        name, coeffs, seed = automaton
        field = STEP_FIELDS[name]
        lfsr = WordLFSR(field, coeffs, seed=seed)
        assert lfsr.sequence(count) == \
            _reference_stream(field, coeffs, seed, count)
        # A copy steps on from the same window, by the same tables.
        copy = lfsr.copy()
        assert copy.sequence(5) == lfsr.sequence(5)


class TestPeriods:
    def test_predicted_matches_measured_various_generators(self):
        for g in [(1, 1, 1), (1, 2, 2), (3, 1, 1), (1, 0, 1, 1)]:
            lfsr = WordLFSR(F, g, seed=(1,) + (0,) * (len(g) - 2))
            predicted = lfsr.predicted_period()
            measured = lfsr.period()
            # Measured divides predicted (equal when the seed is generic).
            assert predicted % measured == 0

    def test_word_lfsr_period_helper(self):
        assert word_lfsr_period(F, PAPER_G) == 255

    def test_gf8_field(self):
        f8 = GF2m(primitive_polynomial(3))
        lfsr = WordLFSR(f8, (1, 1, 1), seed=(0, 1))
        assert lfsr.predicted_period() == lfsr.period()


class TestUtilities:
    def test_reset(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        lfsr.run(10)
        lfsr.reset()
        assert lfsr.state == (0, 1)

    def test_copy_independent(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        clone = lfsr.copy()
        lfsr.run(5)
        assert clone.state == (0, 1)

    def test_next_word_does_not_advance(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        assert lfsr.next_word() == 2
        assert lfsr.state == (0, 1)

    def test_negative_sequence_rejected(self):
        with pytest.raises(ValueError):
            WordLFSR(F, PAPER_G, seed=(0, 1)).sequence(-2)

    def test_period_preserves_state(self):
        lfsr = WordLFSR(F, PAPER_G, seed=(0, 1))
        lfsr.run(7)
        before = lfsr.state
        lfsr.period()
        assert lfsr.state == before
