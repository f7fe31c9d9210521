"""Markov-chain model of π-test fault detection (claim C2).

The paper states: "Applying Markov chain analysis it was shown that π-test
iteration has a high resolution for most memory faults."  The companion
reference [2] is not available, so we derive the natural model and
validate it against Monte-Carlo fault simulation (experiment E6).

Model.  Track one injected fault across a sequence of π-iterations with
randomized test data (random seeds/trajectories).  Per iteration:

* the fault *activates* with probability ``p_activation`` (its cell's
  fault-free background value differs from the faulty one -- e.g. ~1/2
  for a stuck-at bit under a balanced background);
* an activated error *propagates* to the compared signature with
  probability ``p_propagation`` (the recurrence is linear and invertible,
  so propagation fails only through cancellation/aliasing, which for an
  m-bit window behaves like ~``1 - 2^-km``).

This yields a two-state absorbing chain (undetected -> detected) with
per-iteration detection probability ``p = p_activation * p_propagation``:

* ``P(detected within t) = 1 - (1 - p)^t`` -- geometric convergence,
* expected iterations to detection ``1/p``.

The "high resolution" claim corresponds to ``p`` close to 1; the claim-C3
counterpart is that a *deterministic* 3-iteration TDB replaces the random
tail by construction.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass

__all__ = ["DetectionMarkovChain", "monte_carlo_detection", "fit_detection_chain"]


@dataclass(frozen=True)
class DetectionMarkovChain:
    """Absorbing two-state chain: undetected -> detected.

    >>> chain = DetectionMarkovChain(p_activation=0.5, p_propagation=1.0)
    >>> round(chain.detection_probability(3), 3)
    0.875
    >>> chain.expected_iterations()
    2.0
    """

    p_activation: float
    p_propagation: float = 1.0

    def __post_init__(self) -> None:
        for name, p in (("p_activation", self.p_activation),
                        ("p_propagation", self.p_propagation)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")

    @property
    def p_detect(self) -> float:
        """Per-iteration detection probability."""
        return self.p_activation * self.p_propagation

    def transition_matrix(self) -> tuple[tuple[float, float], ...]:
        """The 2x2 chain matrix over states (undetected, detected), as
        row tuples.

        >>> DetectionMarkovChain(0.25).transition_matrix()
        ((0.75, 0.25), (0.0, 1.0))
        """
        p = self.p_detect
        return ((1.0 - p, p), (0.0, 1.0))

    def detection_probability(self, iterations: int) -> float:
        """``P(detected within t iterations)``, the closed form
        ``1 - (1 - p)^t`` of the matrix power's (undetected, detected)
        entry.

        >>> DetectionMarkovChain(1.0).detection_probability(1)
        1.0
        """
        if iterations < 0:
            raise ValueError("iteration count must be non-negative")
        return 1.0 - (1.0 - self.p_detect) ** iterations

    def detection_curve(self, max_iterations: int) -> list[float]:
        """``[P(detected within 1), ..., P(detected within t_max)]``."""
        return [self.detection_probability(t) for t in range(1, max_iterations + 1)]

    def expected_iterations(self) -> float:
        """Mean iterations to absorption, ``1 / p`` (inf when p = 0)."""
        if self.p_detect == 0.0:
            return float("inf")
        return 1.0 / self.p_detect

    def iterations_for_confidence(self, confidence: float) -> int:
        """Smallest t with ``P(detected within t) >= confidence``."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        if self.p_detect == 0.0:
            raise ValueError("chain never detects (p = 0)")
        if self.p_detect == 1.0:
            return 1
        t = 1
        while self.detection_probability(t) < confidence:
            t += 1
        return t


def fit_detection_chain(curve: list[float]) -> DetectionMarkovChain:
    """Fit the per-iteration detection probability to an empirical curve.

    Least-squares over the geometric family ``P(t) = 1 - (1 - p)^t``
    (a golden-section search over ``p`` in [0, 1]), returning the fitted
    chain.  Used to read the effective resolution out of a Monte-Carlo
    campaign.

    >>> chain = fit_detection_chain([0.5, 0.75, 0.875])
    >>> round(chain.p_detect, 3)
    0.5
    """
    if not curve:
        raise ValueError("need a non-empty detection curve")
    for value in curve:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"curve value {value} is not a probability")

    def loss(p: float) -> float:
        return sum((1.0 - (1.0 - p) ** t - value) ** 2
                   for t, value in enumerate(curve, start=1))

    return DetectionMarkovChain(p_activation=_golden_section_min(loss),
                                p_propagation=1.0)


def _golden_section_min(loss: Callable[[float], float]) -> float:
    """Minimizer of a unimodal ``loss`` on [0, 1] by golden-section
    search, to within 1e-10.

    >>> round(_golden_section_min(lambda p: (p - 0.3) ** 2), 6)
    0.3
    """
    shrink = (5 ** 0.5 - 1) / 2  # 1 / golden ratio
    lo, hi = 0.0, 1.0
    left, right = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f_left, f_right = loss(left), loss(right)
    while hi - lo > 1e-10:
        if f_left < f_right:
            hi, right, f_right = right, left, f_left
            left = hi - shrink * (hi - lo)
            f_left = loss(left)
        else:
            lo, left, f_left = left, right, f_right
            right = lo + shrink * (hi - lo)
            f_right = loss(right)
    return (lo + hi) / 2


def monte_carlo_detection(fault_factory, iteration_factory, n: int,
                          max_iterations: int, trials: int,
                          m: int = 1, seed: int = 0) -> list[float]:
    """Empirical detection curve to validate the chain model against.

    Per trial: build a fresh RAM and fault, then run up to
    ``max_iterations`` independent randomized π-iterations
    (``iteration_factory(rng)`` must return a fresh
    :class:`~repro.prt.pi_test.PiIteration`-like object per call).
    Returns ``curve[t-1] = fraction of trials detected within t``.

    >>> from repro.faults import StuckAtFault
    >>> from repro.prt import PiIteration, random_trajectory
    >>> curve = monte_carlo_detection(
    ...     lambda rng: StuckAtFault(rng.randrange(12), rng.randrange(2)),
    ...     lambda rng: PiIteration(
    ...         generator=(1, 0, 1, 1),
    ...         seed=(0, 0, 1),
    ...         trajectory=random_trajectory(12, seed=rng.randrange(10**6))),
    ...     n=12, max_iterations=4, trials=30)
    >>> 0 <= curve[0] <= curve[-1] <= 1
    True
    """
    from repro.faults.injector import FaultInjector
    from repro.memory.ram import SinglePortRAM

    if trials < 1:
        raise ValueError("need at least one trial")
    rng = random.Random(seed)
    detected_at = [0] * (max_iterations + 1)
    for _ in range(trials):
        ram = SinglePortRAM(n, m=m)
        fault = fault_factory(rng)
        injector = FaultInjector([fault])
        injector.install(ram)
        for t in range(1, max_iterations + 1):
            iteration = iteration_factory(rng)
            if not iteration.run(ram).passed:
                detected_at[t] += 1
                break
        injector.remove(ram)
    curve = []
    cumulative = 0
    for t in range(1, max_iterations + 1):
        cumulative += detected_at[t]
        curve.append(cumulative / trials)
    return curve
