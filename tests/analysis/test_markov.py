"""Tests for the Markov detection model and its Monte-Carlo validator."""

import pytest

from repro.analysis import DetectionMarkovChain, monte_carlo_detection
from repro.faults import StuckAtFault
from repro.prt import PiIteration, random_trajectory


class TestChainBasics:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            DetectionMarkovChain(1.5)
        with pytest.raises(ValueError):
            DetectionMarkovChain(0.5, p_propagation=-0.1)

    def test_p_detect(self):
        chain = DetectionMarkovChain(0.5, 0.8)
        assert chain.p_detect == 0.4

    def test_transition_matrix_rows_sum_to_one(self):
        matrix = DetectionMarkovChain(0.3).transition_matrix()
        assert [sum(row) for row in matrix] == [1.0, 1.0]

    def test_geometric_formula(self):
        chain = DetectionMarkovChain(0.5)
        for t in range(6):
            assert chain.detection_probability(t) == pytest.approx(
                1 - 0.5**t
            )

    def test_zero_iterations(self):
        assert DetectionMarkovChain(0.5).detection_probability(0) == 0.0

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValueError):
            DetectionMarkovChain(0.5).detection_probability(-1)

    def test_certain_detection(self):
        assert DetectionMarkovChain(1.0).detection_probability(1) == 1.0

    def test_never_detects(self):
        chain = DetectionMarkovChain(0.0)
        assert chain.detection_probability(100) == 0.0
        assert chain.expected_iterations() == float("inf")

    def test_expected_iterations(self):
        assert DetectionMarkovChain(0.25).expected_iterations() == 4.0

    def test_curve_monotone(self):
        curve = DetectionMarkovChain(0.3).detection_curve(10)
        assert curve == sorted(curve)
        assert len(curve) == 10

    def test_iterations_for_confidence(self):
        chain = DetectionMarkovChain(0.5)
        assert chain.iterations_for_confidence(0.99) == 7  # 1 - 2^-7 > 0.99

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            DetectionMarkovChain(0.5).iterations_for_confidence(1.0)
        with pytest.raises(ValueError):
            DetectionMarkovChain(0.0).iterations_for_confidence(0.9)

    def test_confidence_certain(self):
        assert DetectionMarkovChain(1.0).iterations_for_confidence(0.999) == 1


class TestMonteCarlo:
    def make_curve(self, trials=60, max_iterations=5):
        return monte_carlo_detection(
            lambda rng: StuckAtFault(rng.randrange(14), rng.randrange(2)),
            lambda rng: PiIteration(
                generator=(1, 0, 1, 1), seed=(0, 0, 1),
                trajectory=random_trajectory(14, seed=rng.randrange(10**6)),
            ),
            n=14, max_iterations=max_iterations, trials=trials,
        )

    def test_curve_monotone_and_bounded(self):
        curve = self.make_curve()
        assert all(0.0 <= p <= 1.0 for p in curve)
        assert curve == sorted(curve)

    def test_reproducible(self):
        assert self.make_curve() == self.make_curve()

    def test_detection_improves_with_iterations(self):
        curve = self.make_curve(trials=80)
        assert curve[-1] > curve[0] or curve[0] == 1.0

    def test_chain_model_bounds_simulation(self):
        """E6's claim: the geometric model tracks the empirical curve
        (per-iteration detection probability ~ p_activation ~ 1/2)."""
        curve = self.make_curve(trials=100, max_iterations=6)
        chain = DetectionMarkovChain(p_activation=0.5, p_propagation=1.0)
        model = chain.detection_curve(6)
        # Same shape: within a generous tolerance at each point.
        for emp, mod in zip(curve, model, strict=False):
            assert abs(emp - mod) < 0.25

    def test_trials_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_detection(
                lambda rng: StuckAtFault(0, 0),
                lambda rng: PiIteration(seed=(0, 1)),
                n=9, max_iterations=2, trials=0,
            )
