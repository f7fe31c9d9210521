"""Deferred GF(2^m) multiplies: packed lanes == scalar replays, lane by lane.

The packed executor does not multiply at every ``"ra"``: it keeps, per
accumulator id, one raw XOR sum per multiplier table, and applies each
table once when a ``"wa"`` flushes the accumulator (multiplication by a
constant is GF(2)-linear, so the sum of products is the product of the
sum).  The scalar executors multiply at every read.  These hand-built
streams hit the shapes where the two could part ways:

* two distinct tables feeding one accumulator between flushes, plus a
  repeated table whose raw sums must add up;
* multiplier-1 (``None``) reads mixed in with table reads;
* two accumulator ids interleaved;
* an ``"ra"`` and a ``"wa"`` on the same accumulator in one cycle group
  (the ``"wa"`` sees the accumulator as of the cycle start);
* an accumulator left unflushed at the end.

Every lane carries one fault (stuck-at, transition and coupling lanes,
so corrupted reads feed the accumulators), and must match the dedicated
scalar replay of its fault: final memory image, detection verdict,
executed count and captured signature values.
"""

import pytest

from repro.faults import (
    FaultInjector,
    coupling_universe,
    intra_word_universe,
    single_cell_universe,
)
from repro.gf2 import primitive_polynomial
from repro.gf2m import GF2m
from repro.memory import MultiPortRAM, PackedMemoryArray, SinglePortRAM
from repro.sim import build_lane_model, partition_universe

N = 4

# Tables: 0 and 1 are multiply-by-constant tables; ``None`` is 1.
FLAT_OPS = (
    ("w", 0, 0, 3, None, 0),
    ("w", 0, 1, 5, None, 0),
    ("w", 0, 2, 9, None, 0),
    ("ra", 0, 0, 0, 3, 0),     # acc0 += T0 * read(0)
    ("ra", 0, 1, None, 5, 1),  # acc1 += read(1): ids interleave
    ("ra", 0, 2, 1, 9, 0),     # acc0 += T1 * read(2): a second table
    ("ra", 0, 1, None, 5, 0),  # acc0 += read(1): multiplier 1 mixed in
    ("ra", 0, 2, 0, 9, 0),     # acc0 += T0 * read(2): T0's sum grows
    ("ra", 0, 0, 1, 3, 1),     # acc1 += T1 * read(0)
    ("wa", 0, 3, 6, None, 0),  # flush acc0
    ("r", 0, 3, None, 6, 0),
    ("ra", 0, 3, 0, 6, 0),     # acc0 refills after its flush
    ("wa", 0, 0, 1, None, 1),  # flush acc1
    ("r", 0, 0, None, 1, 0),
    ("ra", 0, 0, 1, 1, 1),
    ("wa", 0, 1, 4, None, 0),  # flush acc0 again
    ("s", 0, 1, None, 4, 0),
    ("ra", 0, 1, 0, 4, 1),     # acc1 is never flushed again
    ("s", 0, 0, None, 1, 0),
)

GROUPED_OPS = (
    ("w", 0, 0, 3, None, 0),
    ("w", 0, 1, 5, None, 0),
    ("grp", 0, 0, 2, None, 0),
    ("ra", 0, 0, 0, 3, 0),     # acc0 += T0 * read(0)
    ("ra", 1, 1, 1, 5, 0),     # acc0 += T1 * read(1), same cycle
    ("grp", 0, 0, 2, None, 0),
    ("ra", 0, 1, None, 5, 0),  # counts for later cycles only ...
    ("wa", 1, 2, 9, None, 0),  # ... this flush sees the cycle start
    ("grp", 0, 0, 2, None, 0),
    ("ra", 0, 2, 0, 9, 1),     # acc1 += T0 * read(2)
    ("ra", 1, 0, None, 3, 0),  # acc0 += read(0)
    ("grp", 0, 0, 2, None, 0),
    ("wa", 0, 3, 6, None, 0),  # flush acc0
    ("r", 1, 2, None, 9, 0),
    ("grp", 0, 0, 2, None, 0),
    ("s", 0, 3, None, 6, 0),
    ("ra", 1, 3, 1, 6, 1),     # acc1 is never flushed
    ("s", 0, 2, None, 9, 0),
)


def _tables(m):
    field = GF2m(primitive_polynomial(m))
    return tuple(tuple(field.mul(constant, x) for x in range(1 << m))
                 for constant in (2, 0b1011))


def _universe(m):
    return single_cell_universe(N, m=m, classes=("SAF", "TF")) \
        + intra_word_universe(N, m, classes=("CFin", "CFid"), max_cells=2) \
        + coupling_universe(N, m, classes=("CFin", "CFid"))


def _lane_value(column, lane, lanes, m):
    return sum(((column >> (bit * lanes + lane)) & 1) << bit
               for bit in range(m))


@pytest.mark.parametrize("m", [4, 8])
@pytest.mark.parametrize("ops, make_ram", [
    (FLAT_OPS, lambda m: SinglePortRAM(N, m=m)),
    (GROUPED_OPS, lambda m: MultiPortRAM(N, m=m, ports=2)),
], ids=["flat", "grouped"])
def test_every_lane_matches_its_scalar_replay(ops, make_ram, m):
    tables = _tables(m)
    classes, fallback = partition_universe(_universe(m), n=N, m=m)
    assert not fallback
    assert {"stuck", "transition", "coupling"} <= set(classes)
    for kind, group in classes.items():
        lanes = len(group)
        model = build_lane_model(kind, [sem for _, _, sem in group])
        packed = PackedMemoryArray(N, lanes=lanes, m=m)
        model.install(packed)
        captured = []
        detected, executed = packed.apply_stream(
            ops, tables=tables, model=model,
            stop_when_all_detected=False, captured=captured)
        for lane, (_, fault, _) in enumerate(group):
            ram = make_ram(m)
            FaultInjector([fault]).install(ram)
            mismatches, values = [], []
            scalar_executed = ram.apply_stream(
                ops, tables=tables, mismatches=mismatches, captured=values)
            label = f"{kind}: {fault.name}"
            assert packed.dump_lane(lane) == ram.dump(), label
            assert bool((detected >> lane) & 1) == bool(mismatches), label
            assert executed == scalar_executed, label
            assert [_lane_value(column, lane, lanes, m)
                    for column in captured] == values, label


def _images(ops, tables, m):
    classes, _ = partition_universe(_universe(m), n=N, m=m)
    images = []
    for kind, group in sorted(classes.items()):
        model = build_lane_model(kind, [sem for _, _, sem in group])
        packed = PackedMemoryArray(N, lanes=len(group), m=m)
        model.install(packed)
        packed.apply_stream(ops, tables=tables, model=model,
                            stop_when_all_detected=False)
        images.extend(packed.dump_lane(lane) for lane in range(len(group)))
    return images


@pytest.mark.parametrize("ops", [FLAT_OPS, GROUPED_OPS],
                         ids=["flat", "grouped"])
def test_the_tables_reach_the_memory_images(ops):
    # Guard against a vacuous pass: with both tables swapped for the
    # identity, some lane must end with a different image, so corrupted
    # reads do get multiplied and flushed into memory.
    m = 4
    identity = tuple(range(1 << m))
    assert _images(ops, _tables(m), m) != _images(ops, (identity,) * 2, m)
