"""Memory fault models (van de Goor's classical taxonomy).

The paper evaluates pseudo-ring testing against the standard functional
fault models for RAM [van de Goor, *Testing Semiconductor Memories*, 1998]:

==========  =============================================================
class       behaviour
==========  =============================================================
``SAF``     stuck-at: a cell (or bit) permanently holds 0 or 1
``TF``      transition: a cell cannot make a 0->1 (TF-up) or 1->0
            (TF-down) transition
``SOF``     stuck-open: the cell is disconnected; reads return the sense
            amplifier's previous value, writes are lost
``DRF``     data retention: the cell decays after going unaccessed for a
            retention interval
``CFin``    inversion coupling: a transition in the aggressor inverts the
            victim
``CFid``    idempotent coupling: a transition in the aggressor forces the
            victim to a fixed value
``CFst``    state coupling: while the aggressor holds a given state, the
            victim is forced to a fixed value
``BF``      bridging: two cells are resistively shorted (wired-AND /
            wired-OR)
``AF``      address-decoder faults, four types: an address reaching no
            cell, a cell reached by no address, an address reaching
            several cells, a cell reached by several addresses
``NPSF``    (static) neighbourhood pattern sensitive: the victim is
            forced while its neighbourhood holds a specific pattern
``IWCF``    intra-word coupling (WOM only): aggressor and victim are bits
            of the *same* word -- the paper's claim C7 targets
==========  =============================================================

All faults are *active behavioural wrappers*: they intercept reads/writes
through :class:`repro.faults.injector.FaultInjector` (a
:class:`~repro.memory.behavior.CellBehavior`), so they interact with test
sequences exactly as silicon defects would -- coupling faults fire on actual
transitions, decoder faults rewire the address map, and so on.
"""

from repro.faults.base import Fault, BitLocation, VectorSemantics
from repro.faults.injector import FaultInjector
from repro.faults.stuck_at import StuckAtFault
from repro.faults.transition import TransitionFault
from repro.faults.stuck_open import StuckOpenFault
from repro.faults.retention import DataRetentionFault
from repro.faults.coupling import (
    InversionCouplingFault,
    IdempotentCouplingFault,
    StateCouplingFault,
)
from repro.faults.bridging import BridgingFault
from repro.faults.decoder_faults import (
    AddressDecoderFault,
    af_no_access,
    af_unreached_cell,
    af_multi_access,
    af_shared_cell,
)
from repro.faults.npsf import StaticNPSF
from repro.faults.linked import (
    LinkedFault,
    linked_cfin_pair,
    linked_cfid_pair,
    linked_universe,
)
from repro.faults.universe import (
    DescriptorTable,
    FaultUniverse,
    UniverseSpec,
    descriptor_table,
    fault_from_descriptor,
    materialize_spec,
    single_cell_universe,
    coupling_universe,
    decoder_universe,
    intra_word_universe,
    bridging_universe,
    npsf_universe,
    standard_universe,
    standard_universe_spec,
)

__all__ = [
    "Fault",
    "BitLocation",
    "VectorSemantics",
    "FaultInjector",
    "StuckAtFault",
    "TransitionFault",
    "StuckOpenFault",
    "DataRetentionFault",
    "InversionCouplingFault",
    "IdempotentCouplingFault",
    "StateCouplingFault",
    "BridgingFault",
    "AddressDecoderFault",
    "af_no_access",
    "af_unreached_cell",
    "af_multi_access",
    "af_shared_cell",
    "StaticNPSF",
    "LinkedFault",
    "linked_cfin_pair",
    "linked_cfid_pair",
    "linked_universe",
    "FaultUniverse",
    "UniverseSpec",
    "DescriptorTable",
    "descriptor_table",
    "fault_from_descriptor",
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
