"""Seeded request lists for the three benchmark workloads.

The seed fixes every request; the program under test only ever sees the
generated :class:`~repro.analysis.request.CampaignRequest` objects (or
their JSON bodies).  Each request class ``(test, m)`` of a library
workload draws its ``n`` from a seeded permutation of a narrow band.  In
``cold-batched`` the band is wide enough that no two requests of one
class in a run share a geometry: resolve, compile, verify and the
universe build all run cold.  Every stream is endless, so a faster
program never runs out of requests.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass

from repro.analysis.request import CampaignRequest
from repro.faults.universe import UniverseSpec, standard_universe

#: cold-batched: tests x (m, n band).  The bands are picked so a
#: bit-oriented and a word-oriented request cost about the same.
COLD_TESTS = ("march-c", "prt3", "dual-schedule", "quad-schedule")
COLD_GEOMETRIES = ((1, range(480, 544, 2)), (8, range(144, 208, 2)))

#: default-sharded: the default engine on 2 shared-pool workers.  The
#: per-fault replay costs about n^2, so at this small n only a band of
#: four keeps a class within about +-10% of its mean; the stream moves
#: to a new universe seed after each round through the bands.
SHARDED_TESTS = ("march-c", "prt3", "dual-schedule")
SHARDED_GEOMETRIES = ((1, range(40, 44)), (4, range(26, 30)))
SHARDED_WORKERS = 2

#: serve-mixed: a hot set larger than the server's memory cache, plus
#: one unique cold request in every block of ``BLOCK`` requests.
HOT_TESTS = ("march-c", "prt3", "dual-schedule", "mats+")
HOT_SET = 16
SERVER_CACHE_SIZE = 6
MISS_TESTS = ("march-c", "prt3", "dual-schedule")
SMALL_BAND = range(24, 40)
BLOCK = 5

#: Requests per full cycle of a library workload's classes.
CYCLE = {"cold-batched": len(COLD_TESTS) * len(COLD_GEOMETRIES),
         "default-sharded": len(SHARDED_TESTS) * len(SHARDED_GEOMETRIES)}


@dataclass(frozen=True)
class Item:
    """One generated request and the class it belongs to."""

    index: int
    kind: str  #: "cold" (computed) or "hit" (served from a cache)
    request: CampaignRequest


def _class_permutations(rng: random.Random, tests, geometries) -> dict:
    return {(test, m): rng.sample(list(band), len(band))
            for test in tests for m, band in geometries}


def _rounds(seed: int, tests, geometries, make) -> Iterator[Item]:
    """Endless stream: cycle test x geometry; class ``(test, m)`` takes
    the next ``n`` of a seeded permutation of its band.

    Round 0 uses each ``n`` once with the default universe.  A later
    round ``r`` draws a fresh permutation and reseeds the default
    universe with ``r``: the request keys and fault sets are new, the
    geometries repeat, so the compiled stream of a geometry is reused.
    """
    rng = random.Random(seed)
    shift = rng.randrange(len(tests))
    order = tests[shift:] + tests[:shift]
    depth = min(len(band) for _, band in geometries)
    index = 0
    for rnd in itertools.count():
        perms = _class_permutations(rng, tests, geometries)
        for j in range(depth):
            for test in order:
                for m, _ in geometries:
                    n = perms[(test, m)][j]
                    universe = (None if rnd == 0
                                else standard_universe(n, m, seed=rnd).spec)
                    yield Item(index, "cold", make(test, n, m, universe))
                    index += 1


def _cold_batched_request(test, n, m, universe=None) -> CampaignRequest:
    return CampaignRequest(test=test, n=n, m=m, universe=universe,
                           engine="batched")


def _default_sharded_request(test, n, m, universe=None) -> CampaignRequest:
    return CampaignRequest(test=test, n=n, m=m, universe=universe,
                           workers=SHARDED_WORKERS)


LIBRARY = {
    "cold-batched": (COLD_TESTS, COLD_GEOMETRIES, _cold_batched_request),
    "default-sharded": (SHARDED_TESTS, SHARDED_GEOMETRIES,
                        _default_sharded_request),
}


def geometry_band(workload: str, m: int) -> range:
    """The ``n`` band of a workload's requests with word width ``m``."""
    if workload == "serve-mixed":
        return SMALL_BAND
    _, geometries, _ = LIBRARY[workload]
    return dict(geometries)[m]


def library_stream(workload: str, seed: int) -> Iterator[Item]:
    """The endless request stream of a library workload."""
    tests, geometries, make = LIBRARY[workload]
    return _rounds(seed, tests, geometries, make)


def library_warmup(workload: str, count: int) -> list[CampaignRequest]:
    """Requests of the first classes with ``n`` just above their band,
    so warming up leaves every request of the stream cold."""
    tests, geometries, make = LIBRARY[workload]
    classes = [(test, m, band) for test in tests for m, band in geometries]
    return [make(test, band[-1] + band.step * (1 + i), m)
            for i, (test, m, band) in enumerate(classes[:count])]


def library_pairs(workload: str, seed: int,
                  count: int) -> list[tuple[CampaignRequest, CampaignRequest]]:
    """``count`` pairs of cold requests for the traced run, cycling
    through the classes.  A pair is one class at two neighbouring ``n``
    of its band, so both members cost about the same and neither has
    run before."""
    tests, geometries, make = LIBRARY[workload]
    rng = random.Random(seed)
    slots = {(test, m): rng.sample(range(len(band) // 2), len(band) // 2)
             for test in tests for m, band in geometries}
    classes = [(test, m, band) for test in tests for m, band in geometries]
    pairs = []
    for k in range(count):
        test, m, band = classes[k % len(classes)]
        i = 2 * slots[(test, m)][k // len(classes)]
        pairs.append((make(test, band[i], m), make(test, band[i + 1], m)))
    return pairs


def hot_set(seed: int) -> list[CampaignRequest]:
    """The serve-mixed hot set: small batched requests, unique keys."""
    rng = random.Random(seed)
    ns = rng.sample(list(SMALL_BAND), HOT_SET)
    return [CampaignRequest(test=HOT_TESTS[i % len(HOT_TESTS)], n=n,
                            engine="batched")
            for i, n in enumerate(ns)]


def _reseeded(spec: UniverseSpec, seed: int) -> UniverseSpec:
    """``spec`` with every generator ``seed`` argument replaced."""
    kwargs = tuple((k, seed if k == "seed" else v) for k, v in spec.kwargs)
    parts = tuple(_reseeded(part, seed) for part in spec.parts)
    return UniverseSpec(spec.generator, kwargs=kwargs, parts=parts)


def serve_mixed(seed: int):
    """Endless serve-mixed stream: per block of ``BLOCK`` requests, one
    unique cold request at a seeded slot and hot-set repeats elsewhere.

    A cold request is made unique by its universe seed, so its cost does
    not grow with the number of requests already sent.
    """
    rng = random.Random(seed + 1)
    hot = hot_set(seed)
    specs = {n: standard_universe(n, 1).spec for n in SMALL_BAND}
    index = 0
    for block in itertools.count():
        slot = rng.randrange(BLOCK)
        for position in range(BLOCK):
            if position == slot:
                test = MISS_TESTS[block % len(MISS_TESTS)]
                n = rng.choice(SMALL_BAND)
                spec = _reseeded(specs[n], block + 1)
                request = CampaignRequest(test=test, n=n, universe=spec,
                                          engine="batched")
                yield Item(index, "cold", request)
            else:
                yield Item(index, "hit", hot[rng.randrange(len(hot))])
            index += 1


def serve_pairs(seed: int,
                count: int) -> list[tuple[Item, CampaignRequest]]:
    """The first ``count`` serve-mixed requests, each with a twin for the
    traced run: a hit is its own twin, and a cold request's twin has the
    same test and ``n`` with another universe seed."""
    pairs = []
    for item in itertools.islice(serve_mixed(seed), count):
        twin = item.request
        if item.kind == "cold":
            twin = twin.replace(
                universe=_reseeded(twin.universe, 1_000_000 + item.index))
        pairs.append((item, twin))
    return pairs
