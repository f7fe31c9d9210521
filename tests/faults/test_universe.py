"""Tests for fault-universe generators."""

import pytest

from repro.faults import (
    FaultInjector,
    coupling_universe,
    decoder_universe,
    intra_word_universe,
    single_cell_universe,
    standard_universe,
    standard_universe_spec,
)
from repro.faults.universe import UniverseSpec, bridging_universe
from repro.memory import SinglePortRAM


class TestSingleCellUniverse:
    def test_counts_bom(self):
        universe = single_cell_universe(8, m=1)
        counts = universe.counts()
        assert counts == {"SAF": 16, "TF": 16, "SOF": 8, "DRF": 8}

    def test_counts_wom(self):
        universe = single_cell_universe(4, m=4, classes=("SAF", "TF"))
        assert universe.counts() == {"SAF": 32, "TF": 32}

    def test_class_filter(self):
        universe = single_cell_universe(4, classes=("SOF",))
        assert universe.classes() == ["SOF"]

    def test_by_class(self):
        universe = single_cell_universe(4)
        assert len(universe.by_class("SAF")) == 8
        assert universe.by_class("BF") == []

    def test_indexing_iteration(self):
        universe = single_cell_universe(2, classes=("SAF",))
        assert len(list(universe)) == len(universe) == 4
        assert universe[0].fault_class == "SAF"


class TestCouplingUniverse:
    def test_adjacent_pairs_both_directions(self):
        universe = coupling_universe(4, classes=("CFin",))
        # 3 adjacent pairs x 2 directions x 2 polarities
        assert len(universe) == 12

    def test_full_classes(self):
        universe = coupling_universe(4)
        counts = universe.counts()
        # per ordered pair: 2 CFin + 4 CFid + 4 CFst
        assert counts["CFin"] == 12
        assert counts["CFid"] == 24
        assert counts["CFst"] == 24

    def test_extra_random_pairs(self):
        base = coupling_universe(8, classes=("CFin",))
        extended = coupling_universe(8, classes=("CFin",), extra_random_pairs=5)
        assert len(extended) == len(base) + 5 * 2

    def test_deterministic_by_seed(self):
        a = coupling_universe(8, m=4, seed=7)
        b = coupling_universe(8, m=4, seed=7)
        assert [f.name for f in a] == [f.name for f in b]

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            coupling_universe(1)


class TestDecoderUniverse:
    def test_four_types_per_address(self):
        universe = decoder_universe(16, max_addresses=4)
        assert len(universe) == 16
        subtypes = {f.subtype for f in universe}
        assert subtypes == {"AF-A", "AF-B", "AF-C", "AF-D"}

    def test_covers_all_when_small(self):
        universe = decoder_universe(4, max_addresses=8)
        assert len(universe) == 16

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            decoder_universe(1)


class TestIntraWordUniverse:
    def test_requires_wom(self):
        with pytest.raises(ValueError):
            intra_word_universe(8, m=1)

    def test_all_intra_word(self):
        universe = intra_word_universe(4, m=4)
        for fault in universe:
            assert fault.is_intra_word

    def test_counts(self):
        universe = intra_word_universe(2, m=2, classes=("CFin",))
        # 2 cells x 2 directed bit pairs x 2 polarities
        assert len(universe) == 8


class TestBridgingUniverse:
    def test_counts(self):
        assert len(bridging_universe(5)) == 8  # 4 pairs x 2 kinds

    def test_too_small(self):
        with pytest.raises(ValueError):
            bridging_universe(1)


class TestStandardUniverse:
    def test_bom_composition(self):
        universe = standard_universe(8)
        classes = set(universe.classes())
        assert classes == {"SAF", "TF", "SOF", "CFin", "CFid", "CFst", "BF", "AF"}

    def test_wom_adds_intra_word(self):
        universe = standard_universe(8, m=4)
        assert len(universe.by_class("CFin")) > len(
            standard_universe(8).by_class("CFin")
        )

    def test_every_fault_installs_cleanly(self):
        """Each universe fault can be injected and removed on a real RAM."""
        universe = standard_universe(8, m=2)
        for fault in universe:
            ram = SinglePortRAM(8, m=2)
            injector = FaultInjector([fault])
            injector.install(ram)
            ram.write(0, 1)
            ram.read(0)
            injector.remove(ram)
            assert ram.decoder.is_healthy

    def test_sample_reproducible(self):
        universe = standard_universe(16)
        a = universe.sample(10)
        b = universe.sample(10)
        assert [f.name for f in a] == [f.name for f in b]
        assert len(a) == 10

    def test_sample_larger_than_universe(self):
        universe = single_cell_universe(2, classes=("SOF",))
        assert len(universe.sample(100)) == len(universe)

    def test_union_repr(self):
        assert "SAF" in repr(standard_universe(4))


def _composed_standard_universe(n, m, seed):
    """The standard universe assembled from its generators with ``+``:
    the specs and names ``standard_universe_spec`` must reproduce."""
    universe = single_cell_universe(n, m, classes=("SAF", "TF", "SOF"))
    universe += coupling_universe(n, m, seed=seed)
    universe += bridging_universe(n)
    universe += decoder_universe(n, seed=seed)
    if m > 1:
        universe += intra_word_universe(n, m, seed=seed)
    return universe


class TestStandardUniverseSpec:
    """The recipe is built without enumerating, and describes exactly the
    universe the generators enumerate -- repr included, because cache
    keys hash it."""

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("m", [1, 4, 8])
    @pytest.mark.parametrize("n", [2, 3, 8, 64])
    def test_spec_matches_the_enumerated_universe(self, n, m, seed):
        spec = standard_universe_spec(n, m, seed)
        composed = _composed_standard_universe(n, m, seed)
        for other in (standard_universe(n, m, seed).spec, composed.spec):
            assert spec == other
            assert repr(spec) == repr(other)
        assert [f.name for f in spec.build()] == \
            [f.name for f in composed]

    def test_spec_does_not_enumerate(self, monkeypatch):
        def forbidden(self):
            raise AssertionError("standard_universe_spec built a universe")

        monkeypatch.setattr(UniverseSpec, "build", forbidden)
        spec = standard_universe_spec(4096, 8, 1)
        assert [part.generator for part in spec.parts][-1] == "intra_word"

    def test_impossible_geometry_fails_at_build(self):
        spec = standard_universe_spec(1)
        with pytest.raises(ValueError, match="at least two cells"):
            spec.build()


class TestUniverseSpec:
    """The picklable recipes process sharding ships instead of faults."""

    def test_generators_attach_specs(self):
        from repro.faults import npsf_universe

        for universe in (single_cell_universe(8), coupling_universe(8),
                         decoder_universe(8), bridging_universe(8),
                         npsf_universe(8), intra_word_universe(4, 4),
                         standard_universe(8)):
            assert universe.spec is not None
            rebuilt = universe.spec.build()
            assert [f.name for f in rebuilt] == [f.name for f in universe]

    def test_spec_survives_union_and_sample(self):
        universe = (standard_universe(16) + bridging_universe(16)).sample(40)
        assert universe.spec is not None
        assert [f.name for f in universe.spec.build()] == \
            [f.name for f in universe]

    def test_caller_rng_drops_spec(self):
        import random

        universe = standard_universe(8).sample(5, rng=random.Random(7))
        assert universe.spec is None

    def test_hand_built_universe_has_no_spec(self):
        from repro.faults import FaultUniverse, StuckAtFault

        assert FaultUniverse([StuckAtFault(0, 1)]).spec is None

    def test_spec_pickle_roundtrip(self):
        import pickle

        spec = standard_universe(16).spec
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert [f.name for f in clone.build()] == \
            [f.name for f in standard_universe(16)]

    def test_materialize_spec_cached(self):
        from repro.faults import materialize_spec

        spec = single_cell_universe(8).spec
        assert materialize_spec(spec) is materialize_spec(spec)
        assert [f.name for f in materialize_spec(spec)] == \
            [f.name for f in single_cell_universe(8)]

    def test_unknown_generator_rejected(self):
        from repro.faults import UniverseSpec

        with pytest.raises(ValueError, match="unknown universe generator"):
            UniverseSpec.call("bogus", n=4).build()

    def test_bare_string_classes_means_one_class(self):
        # A bare string must behave as a one-element filter, not be
        # tuple()'d into characters (which would yield an empty universe).
        assert single_cell_universe(8, classes="SAF").counts() == \
            single_cell_universe(8, classes=("SAF",)).counts()
        assert coupling_universe(8, classes="CFin").counts() == \
            coupling_universe(8, classes=("CFin",)).counts()
        assert intra_word_universe(4, 4, classes="CFid").counts() == \
            intra_word_universe(4, 4, classes=("CFid",)).counts()
