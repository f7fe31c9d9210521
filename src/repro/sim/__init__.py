"""Compile-once stimulus IR and batched fault-campaign engine.

Every coverage number in this library comes from single-fault-injection
campaigns: inject a fault, run the complete test, record detection,
repeat for thousands of faults.  Interpreted per-fault execution costs

    O(|universe| * test_length * C_interp)

where ``C_interp`` is the (large) constant of walking March elements /
stepping LFSRs in Python for every single memory operation.  This
subsystem splits that work into a *compile* phase and a *replay* phase:

1. **IR** (:mod:`repro.sim.ir`) -- an :class:`OpStream` of flat
   ``(kind, port, addr, value, expected, idle)`` records: the exact
   operation sequence a test issues, with all fault-independent values
   (addresses, data backgrounds, recurrence multipliers, expected reads)
   precomputed.  π-test sweeps stay *semantically exact* through
   accumulator ops (``"ra"``/``"wa"``) that recompute write data from the
   actual -- possibly corrupted -- reads, so fault propagation through
   the pseudo-ring matches the interpreted engine bit for bit.

2. **Compilers** (:mod:`repro.sim.compilers`) --
   :func:`compile_march`, :func:`compile_schedule`,
   :func:`compile_pi_iteration`: one O(test_length) lowering per test.

3. **Campaign engine** (:mod:`repro.sim.campaign`) --
   :func:`run_campaign` replays one stream against a whole fault
   universe with a cached fault-free reference pass, early abort at the
   first detecting read, chunked execution and an opt-in ``workers=N``
   multiprocessing fan-out.  Replay cost is

       O(compile) + O(|universe| * mean_detection_prefix)

   and the mean detection prefix of a strong test is a small fraction of
   its length (most faults are caught in the first march element or
   sweep), which is where the measured multi-x campaign speedup comes
   from.

4. **Bit-packed engine** (:mod:`repro.sim.batched`) --
   :func:`run_campaign_batched` goes one step further for the fault
   classes whose effect is pure mask algebra (stuck-at, transition,
   CFin/CFid): it packs one fault per lane of a
   :class:`~repro.memory.packed.PackedMemoryArray` and replays the
   stream **once per class**, so hundreds of single-cell faults cost one
   pass.  Non-vectorizable faults fall back to :func:`run_campaign`
   per fault; verdicts are identical on every path.

5. **Process sharding** (:mod:`repro.sim.pool`) -- both campaign
   engines accept ``workers=N``: a persistent :class:`WorkerPool` runs
   fixed contiguous shards of at most 128 faults (a few per worker on
   small universes), and the compiled stream rides inside every shard
   task, unpickled once per worker and content digest.  Universes
   carrying a :class:`~repro.faults.universe.UniverseSpec` travel as
   ``(spec, index range)``; workers enumerate their faults locally.
   The batched engine runs its lane passes in-process and hands only
   its scalar remainder to the pool.  Verdicts are byte-identical on
   every path, and environments that cannot fork degrade to
   single-process execution.

The legacy entry points -- :func:`repro.march.engine.run_march`,
:meth:`repro.prt.schedule.PiTestSchedule.run`,
:func:`repro.analysis.coverage.run_coverage` and the CLI ``coverage`` /
``compare`` commands -- are thin adapters over this kernel and produce
byte-identical results (equivalence-tested in ``tests/sim``).

>>> from repro.faults import single_cell_universe
>>> from repro.march.library import MARCH_C_MINUS
>>> from repro.sim import compile_march, run_campaign
>>> stream = compile_march(MARCH_C_MINUS, 16)
>>> run_campaign(stream, single_cell_universe(16, classes=("SAF", "TF"))).detection_ratio
1.0
"""

from repro.sim.ir import Op, OpStream, Segment, OP_KINDS, GROUPABLE_KINDS
from repro.sim.diagnostics import CODES, Diagnostic, StreamError
from repro.sim.verify import StreamReport, verify, verify_or_raise
from repro.sim.compilers import (
    cached_dual_port_stream,
    cached_march_stream,
    cached_multi_schedule_stream,
    cached_pi_iteration_stream,
    cached_quad_port_stream,
    cached_schedule_stream,
    compile_dual_port_pi,
    compile_march,
    compile_multi_schedule,
    compile_pi_iteration,
    compile_quad_port_pi,
    compile_schedule,
)
from repro.sim.replay import (
    replay_detect,
    replay_dual_port_iteration,
    replay_iteration,
    replay_march,
    replay_multi_schedule,
    replay_quad_port_iteration,
    replay_schedule,
)
from repro.sim.campaign import (
    CampaignResult,
    partition_table,
    partition_universe,
    run_campaign,
)
from repro.sim.batched import (
    build_lane_model,
    register_lane_model,
    run_campaign_batched,
)
from repro.sim.pool import (
    PoolUnavailable,
    WorkerPool,
    shared_pool,
    shutdown_shared_pools,
)

__all__ = [
    "Op",
    "OpStream",
    "Segment",
    "OP_KINDS",
    "GROUPABLE_KINDS",
    "CODES",
    "Diagnostic",
    "StreamError",
    "StreamReport",
    "verify",
    "verify_or_raise",
    "compile_march",
    "compile_pi_iteration",
    "compile_schedule",
    "compile_dual_port_pi",
    "compile_quad_port_pi",
    "compile_multi_schedule",
    "cached_march_stream",
    "cached_pi_iteration_stream",
    "cached_schedule_stream",
    "cached_dual_port_stream",
    "cached_quad_port_stream",
    "cached_multi_schedule_stream",
    "replay_detect",
    "replay_iteration",
    "replay_march",
    "replay_schedule",
    "replay_dual_port_iteration",
    "replay_quad_port_iteration",
    "replay_multi_schedule",
    "CampaignResult",
    "run_campaign",
    "run_campaign_batched",
    "partition_universe",
    "partition_table",
    "build_lane_model",
    "register_lane_model",
    "PoolUnavailable",
    "WorkerPool",
    "shared_pool",
    "shutdown_shared_pools",
]
