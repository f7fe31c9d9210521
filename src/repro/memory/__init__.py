"""Behavioural RAM simulator.

Models the memories the paper tests:

* bit-oriented (BOM, cell width m = 1) and word-oriented (WOM, m > 1)
  arrays -- :class:`repro.memory.array.MemoryArray`,
* an explicit address-decoder stage -- :class:`repro.memory.decoder
  .AddressDecoder` -- so address-decoder faults (AFs) can be injected
  between logical addresses and physical cells,
* single-, dual- and quad-port RAM front-ends with per-cycle conflict
  semantics -- :mod:`repro.memory.ram` and :mod:`repro.memory.multiport`,
* an operation trace and cycle/operation accounting used by the
  time-complexity experiments (claim C4: 3n single-port vs 2n dual-port),
* a bit-plane backend -- :class:`repro.memory.packed.PackedMemoryArray` --
  that replays one compiled stream against hundreds of faulty memory
  copies at once (lane *k* of every word models fault-site *k*), used by
  the batched campaign engine :mod:`repro.sim.batched`.

Fault injection plugs in through the :class:`repro.memory.behavior
.CellBehavior` interface; the perfect memory uses
:class:`repro.memory.behavior.TransparentBehavior`, and
:class:`repro.faults.injector.FaultInjector` substitutes faulty semantics
without the test engines noticing.
"""

from repro.memory.array import MemoryArray
from repro.memory.behavior import CellBehavior, TransparentBehavior
from repro.memory.decoder import AddressDecoder
from repro.memory.packed import LaneFaultModel, PackedMemoryArray
from repro.memory.scrambler import AddressScrambler
from repro.memory.trace import Operation, OperationTrace
from repro.memory.ram import SinglePortRAM, RamStats
from repro.memory.multiport import (
    DualPortRAM,
    QuadPortRAM,
    MultiPortRAM,
    PortOp,
    PortConflictError,
)

__all__ = [
    "MemoryArray",
    "CellBehavior",
    "TransparentBehavior",
    "AddressDecoder",
    "AddressScrambler",
    "LaneFaultModel",
    "PackedMemoryArray",
    "Operation",
    "OperationTrace",
    "SinglePortRAM",
    "RamStats",
    "DualPortRAM",
    "QuadPortRAM",
    "MultiPortRAM",
    "PortOp",
    "PortConflictError",
]
