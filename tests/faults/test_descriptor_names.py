"""Names read from descriptor rows equal the names of the built faults.

A cold campaign names the faults it missed with
:meth:`FaultUniverse.name_of`, which formats the name from the
``(maker, VectorSemantics)`` row when the fault was never built.  Each
fault class has one formatter (``format_name``) that its ``name``
property and the row path both call; these tests pin that the row path
feeds it the same fields the constructor would, for every maker, every
generator, unions and samples, at word widths 1, 4 and 8, and on lazy,
partly built and eager universes alike.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultUniverse,
    UniverseSpec,
    descriptor_table,
    fault_from_descriptor,
    standard_universe_spec,
)
from repro.faults import universe as universe_module

CELL_CLASSES = ("SAF", "TF", "SOF", "DRF")
PAIR_CLASSES = ("CFin", "CFid", "CFst")
MAKERS = {"SAF", "TF", "SOF", "DRF", "CFin", "CFid", "CFst", "BF", "NPSF",
          "AF-A", "AF-B", "AF-C", "AF-D"}

_widths = st.sampled_from((1, 4, 8))
_seeds = st.integers(0, 40)


def _classes(names):
    return st.lists(st.sampled_from(names), unique=True, min_size=1,
                    max_size=len(names)).map(tuple)


_leaves = st.one_of(
    st.builds(lambda n, m, c, r: UniverseSpec.call(
        "single_cell", n=n, m=m, classes=c, retention=r),
        st.integers(1, 6), _widths, _classes(CELL_CLASSES),
        st.integers(1, 80)),
    st.builds(lambda n, m, c, x, s: UniverseSpec.call(
        "coupling", n=n, m=m, classes=c, extra_random_pairs=x, seed=s),
        st.integers(2, 6), _widths, _classes(PAIR_CLASSES),
        st.integers(0, 4), _seeds),
    st.builds(lambda n, a, s: UniverseSpec.call(
        "decoder", n=n, max_addresses=a, seed=s),
        st.integers(2, 12), st.integers(1, 6), _seeds),
    st.builds(lambda n, m, c, k, s: UniverseSpec.call(
        "intra_word", n=n, m=m, classes=c, max_cells=k, seed=s),
        st.integers(1, 4), st.sampled_from((4, 8)), _classes(PAIR_CLASSES),
        st.integers(1, 3), _seeds),
    st.builds(lambda n: UniverseSpec.call("bridging", n=n),
              st.integers(2, 8)),
    st.builds(lambda n, v, s: UniverseSpec.call(
        "npsf", n=n, max_victims=v, seed=s),
        st.integers(3, 10), st.integers(1, 4), _seeds),
    st.builds(standard_universe_spec, st.integers(2, 6), _widths, _seeds),
)
_unions = st.lists(_leaves, min_size=1, max_size=3).map(
    lambda parts: UniverseSpec("union", parts=tuple(parts)))
_samples = st.builds(
    lambda parent, k: UniverseSpec("sample", kwargs=(("k", k),),
                                   parts=(parent,)),
    st.one_of(_leaves, _unions), st.integers(0, 60))
specs = st.one_of(_leaves, _unions, _samples)


def _built_names(spec):
    return [fault_from_descriptor(*row).name
            for row in descriptor_table(spec).rows]


def _row_names(universe):
    return [universe.name_of(index) for index in range(len(universe))]


@settings(max_examples=100, deadline=None)
@given(spec=specs, built=st.lists(st.integers(0, 300), max_size=20))
def test_row_names_equal_built_names(spec, built):
    expected = _built_names(spec)
    lazy = FaultUniverse.from_spec(spec)
    partly = FaultUniverse.from_spec(spec)
    for index in built:
        if index < len(partly):
            _ = partly[index]
    eager = spec.build()
    # Naming from rows builds nothing.
    with mock.patch.object(universe_module, "fault_from_descriptor",
                           side_effect=AssertionError("built a fault")):
        assert _row_names(lazy) == expected
        assert _row_names(partly) == expected
    assert _row_names(eager) == expected
    assert _row_names(FaultUniverse(list(eager))) == expected


@settings(max_examples=40, deadline=None)
@given(spec=specs, other=_leaves, k=st.integers(0, 40))
def test_sampled_and_joined_lazy_universes_name_like_built_ones(spec,
                                                                other, k):
    lazy = FaultUniverse.from_spec(spec)
    for derived in (lazy.sample(k), lazy + FaultUniverse.from_spec(other)):
        assert _row_names(derived) == [fault.name for fault in derived]


def test_every_maker_is_named_at_every_width():
    for m in (1, 4, 8):
        spec = UniverseSpec("union", parts=(
            UniverseSpec.call("single_cell", n=3, m=m, classes=CELL_CLASSES,
                              retention=9),
            UniverseSpec.call("coupling", n=3, m=m, classes=PAIR_CLASSES,
                              extra_random_pairs=1, seed=3),
            UniverseSpec.call("bridging", n=3),
            UniverseSpec.call("decoder", n=3, max_addresses=3, seed=0),
            UniverseSpec.call("npsf", n=4, max_victims=2, seed=0),
        ))
        rows = descriptor_table(spec).rows
        assert {maker for maker, _semantics in rows} == MAKERS
        assert _row_names(FaultUniverse.from_spec(spec)) == \
            _built_names(spec)
