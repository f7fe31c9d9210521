"""Fault-universe generators for coverage campaigns.

A *fault universe* is the set of fault instances a coverage experiment
injects one at a time (single-fault assumption, as in the paper and in
van de Goor's coverage tables).  The generators below enumerate the
canonical universes for a memory of ``n`` cells by ``m`` bits:

* :func:`single_cell_universe` -- SAF/TF per bit, SOF/DRF per cell;
* :func:`coupling_universe` -- CFin/CFid/CFst over ordered cell pairs
  (all adjacent pairs plus a seeded random sample of distant pairs, so the
  universe stays linear in n);
* :func:`decoder_universe` -- the four AF types over a sample of addresses;
* :func:`intra_word_universe` -- intra-word coupling for WOMs (claim C7);
* :func:`bridging_universe` -- wired-AND/OR bridges between adjacent cells;
* :func:`standard_universe` -- the union used by the headline experiments
  (E3, E9); :func:`standard_universe_spec` is its recipe, built without
  enumerating any fault.

Every generator is deterministic (seeded sampling), which is what makes
process sharding cheap: a universe built here carries a
:class:`UniverseSpec` -- a tiny picklable *recipe* naming the generator
and its arguments -- and :func:`materialize_spec` re-enumerates the
identical fault list anywhere (in particular inside the worker processes
of :mod:`repro.sim.pool`), so shards travel as ``(spec, index range)``
instead of pickled fault objects.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache

from repro.faults.base import BitLocation, Fault
from repro.faults.bridging import BridgingFault
from repro.faults.coupling import (
    IdempotentCouplingFault,
    InversionCouplingFault,
    StateCouplingFault,
)
from repro.faults.decoder_faults import (
    af_multi_access,
    af_no_access,
    af_shared_cell,
    af_unreached_cell,
)
from repro.faults.npsf import StaticNPSF
from repro.faults.retention import DataRetentionFault
from repro.faults.stuck_at import StuckAtFault
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.transition import TransitionFault

__all__ = [
    "FaultUniverse",
    "UniverseSpec",
    "materialize_spec",
    "single_cell_universe",
    "coupling_universe",
    "decoder_universe",
    "intra_word_universe",
    "bridging_universe",
    "npsf_universe",
    "standard_universe",
    "standard_universe_spec",
]


@dataclass(frozen=True)
class UniverseSpec:
    """A picklable recipe that re-enumerates a fault universe anywhere.

    ``generator`` names a registered universe generator (or one of the
    combinators ``"union"`` / ``"sample"``), ``kwargs`` holds its
    arguments as a sorted tuple of pairs (hashable, so specs key caches),
    and ``parts`` holds the child specs of a combinator.  Because every
    generator is seeded-deterministic, ``spec.build()`` produces the
    *identical* fault sequence in any process -- the contract the
    process-sharded campaign engines rely on when they ship a
    ``(spec, index range)`` shard instead of pickled fault objects.

    >>> spec = single_cell_universe(8, classes=("SAF",)).spec
    >>> spec.generator, dict(spec.kwargs)["n"]
    ('single_cell', 8)
    >>> [f.name for f in spec.build()] == [
    ...     f.name for f in single_cell_universe(8, classes=("SAF",))]
    True
    """

    generator: str
    kwargs: tuple[tuple[str, object], ...] = ()
    parts: tuple["UniverseSpec", ...] = ()

    @classmethod
    def call(cls, generator: str, **kwargs) -> "UniverseSpec":
        """Spec for one generator call; kwargs are sorted for stable hashing."""
        return cls(generator, kwargs=tuple(sorted(kwargs.items())))

    def build(self) -> "FaultUniverse":
        """Enumerate the universe this spec describes."""
        if self.generator == "union":
            faults: list[Fault] = []
            for part in self.parts:
                faults.extend(part.build())
            return FaultUniverse(faults, spec=self)
        if self.generator == "sample":
            return self.parts[0].build().sample(**dict(self.kwargs))
        try:
            generate = _SPEC_GENERATORS[self.generator]
        except KeyError:
            raise ValueError(
                f"unknown universe generator {self.generator!r} "
                f"(known: {sorted(_SPEC_GENERATORS)})"
            ) from None
        return generate(**dict(self.kwargs))

    def __repr__(self) -> str:
        pieces = [f"{k}={v!r}" for k, v in self.kwargs]
        if self.parts:
            pieces.append("[" + ", ".join(repr(p) for p in self.parts) + "]")
        return f"UniverseSpec({self.generator!r}, {', '.join(pieces)})"


@lru_cache(maxsize=8)
def materialize_spec(spec: UniverseSpec) -> tuple[Fault, ...]:
    """Enumerate a spec's faults, cached per process.

    This is the worker-side entry point of spec-based sharding: each pool
    worker materializes a campaign's universe once and serves every shard
    of it from the cache, so the faults never travel over the task pipe.
    """
    return tuple(spec.build())


def _union_spec(left: UniverseSpec | None,
                right: UniverseSpec | None) -> UniverseSpec | None:
    """Spec of a concatenation -- None when either side is untracked."""
    if left is None or right is None:
        return None
    parts = (left.parts if left.generator == "union" else (left,)) + \
        (right.parts if right.generator == "union" else (right,))
    return UniverseSpec("union", parts=parts)


class FaultUniverse:
    """An ordered collection of faults with per-class queries.

    ``spec``, when not None, is the :class:`UniverseSpec` that rebuilds
    this exact universe in another process; universes assembled from
    generator outputs (including via ``+`` and seeded :meth:`sample`)
    keep their specs automatically.

    >>> universe = single_cell_universe(4, classes=("SAF",))
    >>> len(universe)
    8
    >>> sorted(universe.counts())
    ['SAF']
    """

    def __init__(self, faults: list[Fault], spec: UniverseSpec | None = None):
        self._faults = list(faults)
        self.spec = spec

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._faults)

    def __getitem__(self, index: int) -> Fault:
        return self._faults[index]

    def by_class(self, fault_class: str) -> list[Fault]:
        """All faults of one class tag (e.g. ``"SAF"``)."""
        return [f for f in self._faults if f.fault_class == fault_class]

    def classes(self) -> list[str]:
        """Distinct class tags, sorted."""
        return sorted({f.fault_class for f in self._faults})

    def counts(self) -> dict[str, int]:
        """``{class_tag: number_of_faults}``."""
        out: dict[str, int] = {}
        for fault in self._faults:
            out[fault.fault_class] = out.get(fault.fault_class, 0) + 1
        return out

    def sample(self, k: int, rng: random.Random | None = None) -> FaultUniverse:
        """A reproducible random subset of ``k`` faults.

        With the default ``rng`` (seed 0) the subset is a pure function
        of the universe, so a spec-carrying universe keeps a spec; a
        caller-supplied ``rng`` has unknown state and drops it.
        """
        spec = None
        if rng is None:
            rng = random.Random(0)
            if self.spec is not None:
                spec = UniverseSpec("sample", kwargs=(("k", k),),
                                    parts=(self.spec,))
        if k >= len(self._faults):
            return FaultUniverse(self._faults, spec=spec)
        return FaultUniverse(rng.sample(self._faults, k), spec=spec)

    def __add__(self, other: FaultUniverse) -> FaultUniverse:
        return FaultUniverse(self._faults + other._faults,
                             spec=_union_spec(self.spec, other.spec))

    def __repr__(self) -> str:
        inner = ", ".join(f"{c}:{k}" for c, k in sorted(self.counts().items()))
        return f"FaultUniverse({len(self._faults)} faults; {inner})"


def _normalize_classes(classes) -> tuple[str, ...]:
    """Class filters as a hashable tuple (the shape ``UniverseSpec`` keys).

    A bare string would silently pass every membership test as a
    substring probe and, tuple()'d, yield an empty universe -- wrap it
    into the intended one-element filter instead.
    """
    if isinstance(classes, str):
        return (classes,)
    return tuple(classes)


def single_cell_universe(
    n: int, m: int = 1,
    classes: tuple[str, ...] = ("SAF", "TF", "SOF", "DRF"),
    retention: int = 64,
) -> FaultUniverse:
    """All single-cell faults of the requested classes.

    SAF and TF enumerate every bit of every cell (2 polarities each);
    SOF and DRF are one per cell.

    >>> len(single_cell_universe(8, m=1))   # 16 SAF + 16 TF + 8 SOF + 8 DRF
    48
    """
    classes = _normalize_classes(classes)
    faults: list[Fault] = []
    for cell in range(n):
        for bit in range(m):
            if "SAF" in classes:
                faults.append(StuckAtFault(cell, 0, bit=bit))
                faults.append(StuckAtFault(cell, 1, bit=bit))
            if "TF" in classes:
                faults.append(TransitionFault(cell, rising=True, bit=bit))
                faults.append(TransitionFault(cell, rising=False, bit=bit))
        if "SOF" in classes:
            faults.append(StuckOpenFault(cell))
        if "DRF" in classes:
            faults.append(DataRetentionFault(cell, retention=retention))
    return FaultUniverse(faults, spec=UniverseSpec.call(
        "single_cell", n=n, m=m, classes=classes, retention=retention))


def _cell_pairs(n: int, extra_random: int, rng: random.Random) -> list[tuple[int, int]]:
    """Ordered aggressor/victim cell pairs: all adjacent + random sample."""
    pairs = []
    for i in range(n - 1):
        pairs.append((i, i + 1))
        pairs.append((i + 1, i))
    seen = set(pairs)
    attempts = 0
    while len(pairs) - 2 * (n - 1) < extra_random and attempts < 50 * extra_random:
        attempts += 1
        a = rng.randrange(n)
        v = rng.randrange(n)
        if a == v or (a, v) in seen:
            continue
        seen.add((a, v))
        pairs.append((a, v))
    return pairs


def coupling_universe(
    n: int, m: int = 1,
    classes: tuple[str, ...] = ("CFin", "CFid", "CFst"),
    extra_random_pairs: int = 0,
    seed: int = 0,
) -> FaultUniverse:
    """Two-cell coupling faults over adjacent (plus sampled) cell pairs.

    For ``m > 1`` the coupled bits are chosen pseudo-randomly per pair so
    word-oriented campaigns exercise all bit positions without exploding
    the universe size.
    """
    if n < 2:
        raise ValueError("coupling faults need at least two cells")
    classes = _normalize_classes(classes)
    rng = random.Random(seed)
    faults: list[Fault] = []
    for a_cell, v_cell in _cell_pairs(n, extra_random_pairs, rng):
        a_bit = rng.randrange(m) if m > 1 else 0
        v_bit = rng.randrange(m) if m > 1 else 0
        aggressor = BitLocation(a_cell, a_bit)
        victim = BitLocation(v_cell, v_bit)
        if "CFin" in classes:
            faults.append(InversionCouplingFault(aggressor, victim, rising=True))
            faults.append(InversionCouplingFault(aggressor, victim, rising=False))
        if "CFid" in classes:
            for rising in (True, False):
                for force_to in (0, 1):
                    faults.append(
                        IdempotentCouplingFault(aggressor, victim, rising, force_to)
                    )
        if "CFst" in classes:
            for state in (0, 1):
                for force_to in (0, 1):
                    faults.append(
                        StateCouplingFault(aggressor, victim, state, force_to)
                    )
    return FaultUniverse(faults, spec=UniverseSpec.call(
        "coupling", n=n, m=m, classes=classes,
        extra_random_pairs=extra_random_pairs, seed=seed))


def decoder_universe(n: int, max_addresses: int = 8, seed: int = 0) -> FaultUniverse:
    """The four AF types over a sample of addresses.

    >>> universe = decoder_universe(16, max_addresses=4)
    >>> universe.counts()
    {'AF': 16}
    """
    if n < 2:
        raise ValueError("decoder faults need at least two addresses")
    rng = random.Random(seed)
    addresses = list(range(n))
    if n > max_addresses:
        addresses = sorted(rng.sample(addresses, max_addresses))
    faults: list[Fault] = []
    for addr in addresses:
        other = (addr + 1) % n
        faults.append(af_no_access(addr))
        faults.append(af_unreached_cell(addr, other))
        faults.append(af_multi_access(addr, (other,)))
        faults.append(af_shared_cell(addr, other))
    return FaultUniverse(faults, spec=UniverseSpec.call(
        "decoder", n=n, max_addresses=max_addresses, seed=seed))


def intra_word_universe(
    n: int, m: int,
    classes: tuple[str, ...] = ("CFin", "CFid", "CFst"),
    max_cells: int = 8, seed: int = 0,
) -> FaultUniverse:
    """Intra-word coupling faults: aggressor/victim bits of the same word.

    This is the fault class the paper's claim C7 addresses with parallel /
    random bit-slice trajectories.  Adjacent bit pairs of each sampled cell
    are enumerated in both directions.
    """
    if m < 2:
        raise ValueError("intra-word faults need word width m >= 2")
    classes = _normalize_classes(classes)
    rng = random.Random(seed)
    cells = list(range(n))
    if n > max_cells:
        cells = sorted(rng.sample(cells, max_cells))
    faults: list[Fault] = []
    for cell in cells:
        bit_pairs = [(b, b + 1) for b in range(m - 1)]
        bit_pairs += [(b + 1, b) for b in range(m - 1)]
        for a_bit, v_bit in bit_pairs:
            aggressor = BitLocation(cell, a_bit)
            victim = BitLocation(cell, v_bit)
            if "CFin" in classes:
                faults.append(InversionCouplingFault(aggressor, victim, rising=True))
                faults.append(
                    InversionCouplingFault(aggressor, victim, rising=False)
                )
            if "CFid" in classes:
                for rising in (True, False):
                    for force_to in (0, 1):
                        faults.append(
                            IdempotentCouplingFault(
                                aggressor, victim, rising, force_to
                            )
                        )
            if "CFst" in classes:
                for state in (0, 1):
                    for force_to in (0, 1):
                        faults.append(
                            StateCouplingFault(aggressor, victim, state, force_to)
                        )
    return FaultUniverse(faults, spec=UniverseSpec.call(
        "intra_word", n=n, m=m, classes=classes, max_cells=max_cells,
        seed=seed))


def bridging_universe(n: int) -> FaultUniverse:
    """Wired-AND and wired-OR bridges between all adjacent cell pairs."""
    if n < 2:
        raise ValueError("bridging faults need at least two cells")
    faults: list[Fault] = []
    for i in range(n - 1):
        faults.append(BridgingFault(i, i + 1, kind="and"))
        faults.append(BridgingFault(i, i + 1, kind="or"))
    return FaultUniverse(faults, spec=UniverseSpec.call("bridging", n=n))


def npsf_universe(n: int, max_victims: int = 8, seed: int = 0) -> FaultUniverse:
    """Static NPSFs over linear (address-adjacent) neighbourhoods.

    For each sampled victim cell ``v`` with interior neighbours
    ``(v-1, v+1)``, enumerate all four neighbourhood patterns forcing the
    victim to the value that contradicts the pattern-implied deceptive
    state (both force polarities).

    >>> npsf_universe(8, max_victims=2).counts()
    {'NPSF': 16}
    """
    if n < 3:
        raise ValueError("NPSF needs at least three cells")
    rng = random.Random(seed)
    victims = list(range(1, n - 1))
    if len(victims) > max_victims:
        victims = sorted(rng.sample(victims, max_victims))
    faults: list[Fault] = []
    for victim in victims:
        neighbors = (victim - 1, victim + 1)
        for p0 in (0, 1):
            for p1 in (0, 1):
                for force_to in (0, 1):
                    faults.append(
                        StaticNPSF(victim=victim, neighbors=neighbors,
                                   pattern=(p0, p1), force_to=force_to)
                    )
    return FaultUniverse(faults, spec=UniverseSpec.call(
        "npsf", n=n, max_victims=max_victims, seed=seed))


def standard_universe_spec(n: int, m: int = 1, seed: int = 0) -> UniverseSpec:
    """The :class:`UniverseSpec` of :func:`standard_universe`, built
    without enumerating a single fault.

    It is the union recipe the generators record when the universe is
    assembled, so it equals ``standard_universe(n, m, seed).spec`` (and
    has the same ``repr``, which is what cache keys hash).  Nothing is
    validated here: an impossible geometry (``n < 2``) only fails when
    the spec is built.

    >>> spec = standard_universe_spec(8)
    >>> [part.generator for part in spec.parts]
    ['single_cell', 'coupling', 'bridging', 'decoder']
    >>> spec == standard_universe(8).spec
    True
    """
    parts = (
        UniverseSpec.call("single_cell", n=n, m=m,
                          classes=("SAF", "TF", "SOF"), retention=64),
        UniverseSpec.call("coupling", n=n, m=m,
                          classes=("CFin", "CFid", "CFst"),
                          extra_random_pairs=0, seed=seed),
        UniverseSpec.call("bridging", n=n),
        UniverseSpec.call("decoder", n=n, max_addresses=8, seed=seed),
    )
    if m > 1:
        parts += (UniverseSpec.call("intra_word", n=n, m=m,
                                    classes=("CFin", "CFid", "CFst"),
                                    max_cells=8, seed=seed),)
    return UniverseSpec("union", parts=parts)


def standard_universe(n: int, m: int = 1, seed: int = 0) -> FaultUniverse:
    """The union universe used by the headline experiments (E3, E9).

    Single-cell SAF/TF (every bit), SOF, coupling faults over adjacent
    pairs, bridges, and the four decoder-fault types, plus intra-word
    coupling when ``m > 1``.  DRF is excluded by default because
    detecting it requires explicit pause elements (both March and PRT
    need the same added delay; see E3's notes).  This is
    ``standard_universe_spec(n, m, seed).build()``: callers that only
    need the recipe (cache keys, request resolution) should take
    :func:`standard_universe_spec` and skip the enumeration.

    >>> universe = standard_universe(8)
    >>> universe.spec == standard_universe_spec(8)
    True
    """
    return standard_universe_spec(n, m, seed).build()


# Spec-resolvable generators (see UniverseSpec).  standard_universe is
# omitted on purpose: it already decomposes into a union spec of these.
_SPEC_GENERATORS = {
    "single_cell": single_cell_universe,
    "coupling": coupling_universe,
    "decoder": decoder_universe,
    "intra_word": intra_word_universe,
    "bridging": bridging_universe,
    "npsf": npsf_universe,
}
