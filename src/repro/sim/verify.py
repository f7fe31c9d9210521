"""Static stream verification: prove well-formedness without executing.

:func:`verify` is the cheap oracle-side filter in front of every
campaign: it walks an :class:`~repro.sim.ir.OpStream` *once* and proves
(or refutes) the contracts replay would otherwise discover mid-campaign
-- and flags the semantic dead weight replay would never notice at all.
Nothing is executed; a verdict on a million-record stream costs one
linear pass, which is what makes the check affordable inside a
test-synthesis search loop (see ROADMAP: ``repro.synth``) and in front
of the result cache of :func:`repro.analysis.request.execute_request`.

Two passes, one walk:

**Structural verifier** (``E``-codes, :data:`~repro.sim.diagnostics
.ERROR`): the cycle-group contract (member count vs ``ports``, distinct
ports, no nested groups/idles, double-write conflicts -- shared with
:class:`~repro.sim.ir.OpStream` construction via
:func:`~repro.sim.ir.iter_construction_diagnostics`), operand domains
(addresses vs ``n``, data/masks vs the ``m``-bit word, table references
and GF(2^m) table shape, accumulator ids, idle counts), accumulator
discipline (every ``"ra"`` contribution must reach a *later-cycle*
``"wa"`` flush -- a ``"wa"`` consumes its accumulator as of the start of
its own cycle, so a same-cycle group mate does not count), and segment
bounds.

**Dataflow pass** (``W``-codes, :data:`~repro.sim.diagnostics.WARNING`):
forward abstract interpretation over the per-cell access order (group
reads precede group writes -- the multi-port read-before-write rule)
tracking written/read state per cell:

* *dead writes* -- a cell overwritten before any read senses the value;
* *uninitialized reads* -- a cell read before the stream ever writes it
  (legal: memories power up; but a synthesized test gains nothing);
* *dead idles* -- an ``"i"`` record with no written-then-read-later cell
  spanning it can never satisfy a retention window;
* *constant accumulator folds* -- a ``"wa"`` with no ``"ra"``
  contribution since the previous flush writes a provably constant
  value;
* *unused tables* -- ``tables`` entries no ``"ra"`` record references.

>>> from repro.sim.ir import OpStream
>>> stream = OpStream(source="demo", name="demo", n=2, m=1,
...                   ops=(("w", 0, 0, 1, None, 0),
...                        ("r", 0, 0, None, 1, 0)),
...                   info=((0, 0), (0, 1)))
>>> verify(stream).ok
True
>>> bad = OpStream(source="demo", name="demo", n=2, m=1,
...                ops=(("r", 0, 5, None, 0, 0),), info=((0, 0),))
>>> [d.code for d in verify(bad).errors]
['E201']
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.sim.diagnostics import CODES, ERROR, Diagnostic, StreamError
from repro.sim.ir import GROUPABLE_KINDS, iter_construction_diagnostics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (ir is runtime-safe)
    from repro.sim.ir import Op, OpStream

__all__ = ["StreamReport", "verify", "verify_or_raise"]

_READ_KINDS = ("r", "s", "ra")
_WRITE_KINDS = ("w", "wa")


@dataclass(frozen=True)
class StreamReport:
    """The verdict of one :func:`verify` run.

    ``diagnostics`` is ordered by op index (stream-level findings
    first); :attr:`ok` means *no error-severity finding* -- warnings
    (dead weight) never fail a stream.
    """

    diagnostics: tuple[Diagnostic, ...]

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity != ERROR)

    @property
    def ok(self) -> bool:
        return not any(d.severity == ERROR for d in self.diagnostics)

    def codes(self) -> set[str]:
        """The distinct diagnostic codes present (for tests/tools)."""
        return {d.code for d in self.diagnostics}

    def raise_on_error(self) -> None:
        """Raise :class:`StreamError` carrying the error diagnostics."""
        errors = self.errors
        if errors:
            raise StreamError(errors)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):  # type: ignore[no-untyped-def]
        return iter(self.diagnostics)


def _d(code: str, index: int | None, message: str) -> Diagnostic:
    severity, _ = CODES[code]
    return Diagnostic(code=code, severity=severity, index=index,
                      message=message)


class _Walk:
    """Accumulated facts from the single pass over the records."""

    def __init__(self) -> None:
        self.diagnostics: list[Diagnostic] = []
        #: cell -> access events [(op_index, "r"|"w"), ...] in temporal
        #: order (group reads appended before group writes).
        self.cell_events: dict[int, list[tuple[int, str]]] = {}
        #: acc id -> [("ra"|"wa", cycle, op_index), ...] in walk order.
        self.acc_events: dict[int, list[tuple[str, int, int]]] = {}
        #: idle records as (op_index, idle_cycles).
        self.idles: list[tuple[int, int]] = []
        self.used_tables: set[int] = set()


def verify(stream: "OpStream", *, dataflow: bool = True) -> StreamReport:
    """Statically verify one stream; never executes a single operation.

    Parameters
    ----------
    stream:
        The :class:`~repro.sim.ir.OpStream` (or any object carrying the
        same ``ops/info/tables/segments/n/m/ports`` attributes -- the
        tests feed raw streams that bypass construction validation).
    dataflow:
        Include the ``W``-code dataflow pass.  ``False`` runs the
        error-only structural pass -- the fast gate
        :func:`~repro.analysis.request.execute_request` uses.  It keeps
        no per-cell access events, and it checks the operand domains
        with a column screen (one column per operand and kind, tested
        by type set and ``min``/``max``); only when the screen cannot
        prove a stream clean does the per-record walk run, so the
        diagnostics are exactly the walk's.  The group, segment and
        accumulator checks stay ordered walks either way; the
        construction checks are skipped for a stream whose construction
        already passed its current ``ops``, ``info`` and ``ports``.
    """
    diagnostics = _construction_diagnostics(stream)
    if dataflow or diagnostics or not _operands_screen_clean(stream):
        walk = _walk_records(stream, cells=dataflow)
    else:
        # The screen proved every operand domain clean, so the ordered
        # walk has nothing left to find but the accumulator events.
        walk = _Walk()
        walk.acc_events = _accumulator_events(stream.ops)
    diagnostics.extend(walk.diagnostics)
    diagnostics.extend(_table_diagnostics(stream))
    diagnostics.extend(_segment_diagnostics(stream))
    diagnostics.extend(_accumulator_diagnostics(walk, dataflow=dataflow))
    if dataflow:
        diagnostics.extend(_dataflow_diagnostics(stream, walk))
    diagnostics.sort(key=lambda d: (-1 if d.index is None else d.index,
                                    d.code))
    return StreamReport(diagnostics=tuple(diagnostics))


def verify_or_raise(stream: "OpStream") -> None:
    """Error-only verification that raises :class:`StreamError`.

    The deep-pass hook behind the compilers' ``verify=True`` option.
    """
    verify(stream, dataflow=False).raise_on_error()


# -- the walk ---------------------------------------------------------------


def _construction_diagnostics(stream: "OpStream") -> list[Diagnostic]:
    """E001-E003 and E101-E107, unless :class:`~repro.sim.ir.OpStream`
    construction already passed these very ``ops``, ``info`` and
    ``ports`` objects (it records them): the checks are a function of
    those three alone, so a freshly compiled stream is not walked for
    them twice."""
    passed = getattr(stream, "__dict__", {}).get("_constructed_from")
    if passed is not None and passed[0] is stream.ops \
            and passed[1] is stream.info and passed[2] is stream.ports:
        return []
    return list(iter_construction_diagnostics(
        stream.ops, stream.info, stream.ports))


def _walk_records(stream: "OpStream", *, cells: bool = True) -> _Walk:
    """One pass: operand domains, cycle numbering, access/acc events.

    ``cells=False`` skips the per-cell access events, which only the
    dataflow pass reads.
    """
    walk = _Walk()
    ops = stream.ops
    n = stream.n if isinstance(stream.n, int) and stream.n >= 1 else None
    m = stream.m if isinstance(stream.m, int) and stream.m >= 1 else None
    ports = stream.ports if isinstance(stream.ports, int) else 1
    tables_len = len(stream.tables)
    index, total, cycle = 0, len(ops), 0
    while index < total:
        record = ops[index]
        kind = record[0]
        if kind == "grp":
            count = record[3]
            if not isinstance(count, int) or count < 1:
                index += 1  # malformed marker (E101): treat as flat
                continue
            stop = min(index + 1 + count, total)
            reads: list[tuple[int, Op]] = []
            writes: list[tuple[int, Op]] = []
            for member in range(index + 1, stop):
                rec = ops[member]
                if rec[0] not in GROUPABLE_KINDS:
                    continue  # E104 already reported
                _record_domain(walk, rec, member, n, m, tables_len)
                _acc_event(walk, rec, member, cycle)
                if rec[0] in _READ_KINDS:
                    reads.append((member, rec))
                else:
                    writes.append((member, rec))
            # Read-before-write: the group's reads all sense pre-cycle
            # state, so they precede every member write temporally.
            if cells:
                for member, rec in itertools.chain(reads, writes):
                    _cell_event(walk, rec, member, n)
            cycle += 1
            index = max(stop, index + 1)
            continue
        if kind == "i":
            _record_domain(walk, rec=record, index=index, n=n, m=m,
                           tables_len=tables_len)
            idle = record[5]
            if isinstance(idle, int) and idle >= 0:
                walk.idles.append((index, idle))
                cycle += idle
            index += 1
            continue
        if kind in GROUPABLE_KINDS:
            _record_domain(walk, record, index, n, m, tables_len)
            port = record[1]
            if not isinstance(port, int) or not 0 <= port < ports:
                walk.diagnostics.append(_d(
                    "E105", index,
                    f"op {index}: port {port} out of range [0, {ports})"))
            _acc_event(walk, record, index, cycle)
            if cells:
                _cell_event(walk, record, index, n)
            cycle += 1
            index += 1
            continue
        index += 1  # unknown kind: E003 already reported
    return walk


def _ints_within(values: list[Any], low: int,
                 high: int | None = None) -> bool:
    """True when every value is a plain int in ``[low, high]`` (no upper
    bound for ``high=None``).  A bool fails: the screen only has to be
    sure, and the per-record walk judges the rest."""
    if not values:
        return True
    if not set(map(type, values)) <= {int}:
        return False
    return min(values) >= low and (high is None or max(values) <= high)


def _operands_screen_clean(stream: "OpStream") -> bool:
    """Column screen of the per-record domain checks of a stream whose
    construction diagnostics are clean.

    True proves that :func:`_walk_records` would report nothing: no
    address outside the array (E201), no value or mask wider than the
    word (E202), no table reference past ``tables`` (E203), no bad
    accumulator id (E205), no bad idle count (E206) and no port out of
    range (E105; group members are the construction check's, so every
    access record's port is in range when the flat ones are).  Each
    operand is gathered per kind into a column and tested with a
    type-set and ``min``/``max``.  False only means "not proven": the
    walk then runs and reports exactly what it always did.
    """
    n, m, ports = stream.n, stream.m, stream.ports
    if not (type(n) is int and n >= 1 and type(m) is int and m >= 1
            and type(ports) is int):
        return False
    ops = stream.ops
    mask = (1 << m) - 1
    access = [rec for rec in ops if rec[0] != "grp" and rec[0] != "i"]
    ra = [rec for rec in access if rec[0] == "ra"]
    wa = [rec for rec in access if rec[0] == "wa"]
    return (
        _ints_within([rec[2] for rec in access], 0, n - 1)
        and _ints_within([rec[1] for rec in access], 0, ports - 1)
        and _ints_within([rec[3] for rec in access if rec[0] == "w"],
                         0, mask)
        and _ints_within([rec[4] for rec in access
                          if rec[0] == "r" or rec[0] == "s"], 0, mask)
        and _ints_within([rec[3] for rec in ra if rec[3] is not None],
                         0, len(stream.tables) - 1)
        and _ints_within([rec[4] for rec in ra], 0, mask)
        and _ints_within([rec[3] for rec in wa], 0, mask)
        and _ints_within([rec[4] for rec in wa if rec[4] is not None],
                         0, mask)
        and _ints_within([rec[5] for rec in ra] + [rec[5] for rec in wa], 0)
        and _ints_within([rec[5] for rec in ops if rec[0] == "i"], 0)
    )


def _accumulator_events(ops: tuple["Op", ...]
                        ) -> dict[int, list[tuple[str, int, int]]]:
    """The walk's ``acc_events`` alone, for a stream that passed the
    construction checks and :func:`_operands_screen_clean`: well-formed
    groups, valid idle counts and accumulator ids."""
    events: dict[int, list[tuple[str, int, int]]] = {}
    if not any(rec[0] == "ra" or rec[0] == "wa" for rec in ops):
        return events
    index, total, cycle = 0, len(ops), 0
    while index < total:
        record = ops[index]
        kind = record[0]
        if kind == "grp":
            stop = index + 1 + record[3]
            for member in range(index + 1, stop):
                rec = ops[member]
                if rec[0] == "ra" or rec[0] == "wa":
                    events.setdefault(rec[5], []).append(
                        (rec[0], cycle, member))
            index = stop
            cycle += 1
            continue
        if kind == "i":
            cycle += record[5]
        else:
            if kind == "ra" or kind == "wa":
                events.setdefault(record[5], []).append(
                    (kind, cycle, index))
            cycle += 1
        index += 1
    return events


def _record_domain(walk: _Walk, rec: "Op", index: int, n: int | None,
                   m: int | None, tables_len: int) -> None:
    """Operand-domain checks for one record (E201/E202/E203/E205/E206)."""
    kind = rec[0]
    mask = None if m is None else (1 << m) - 1

    def fits(value: object) -> bool:
        return mask is None or (isinstance(value, int)
                                and 0 <= value <= mask)

    if kind in GROUPABLE_KINDS and n is not None:
        addr = rec[2]
        if not isinstance(addr, int) or not 0 <= addr < n:
            walk.diagnostics.append(_d(
                "E201", index,
                f"op {index}: address {addr!r} outside the {n}-cell array"))
    if kind == "w" and not fits(rec[3]):
        walk.diagnostics.append(_d(
            "E202", index,
            f"op {index}: write value {rec[3]!r} does not fit "
            f"{m}-bit words"))
    if kind in ("r", "s") and not fits(rec[4]):
        walk.diagnostics.append(_d(
            "E202", index,
            f"op {index}: expected read value {rec[4]!r} does not fit "
            f"{m}-bit words"))
    if kind == "ra":
        ref = rec[3]
        if ref is not None and (not isinstance(ref, int)
                                or not 0 <= ref < tables_len):
            walk.diagnostics.append(_d(
                "E203", index,
                f"op {index}: table reference {ref!r} out of range "
                f"({tables_len} table(s) attached)"))
        if not fits(rec[4]):
            walk.diagnostics.append(_d(
                "E202", index,
                f"op {index}: decode mask {rec[4]!r} does not fit "
                f"{m}-bit words"))
    if kind == "wa":
        if not fits(rec[3]):
            walk.diagnostics.append(_d(
                "E202", index,
                f"op {index}: encode mask {rec[3]!r} does not fit "
                f"{m}-bit words"))
        if rec[4] is not None and not fits(rec[4]):
            walk.diagnostics.append(_d(
                "E202", index,
                f"op {index}: expected stored value {rec[4]!r} does not "
                f"fit {m}-bit words"))
    if kind in ("ra", "wa"):
        acc = rec[5]
        if not isinstance(acc, int) or acc < 0:
            walk.diagnostics.append(_d(
                "E205", index,
                f"op {index}: accumulator id {acc!r} must be a "
                f"non-negative int"))
    if kind == "i":
        idle = rec[5]
        if not isinstance(idle, int) or idle < 0:
            walk.diagnostics.append(_d(
                "E206", index,
                f"op {index}: idle cycle count {idle!r} must be a "
                f"non-negative int"))


def _acc_event(walk: _Walk, rec: "Op", index: int, cycle: int) -> None:
    kind = rec[0]
    if kind == "ra":
        ref = rec[3]
        if isinstance(ref, int) and not isinstance(ref, bool):
            walk.used_tables.add(ref)
    if kind in ("ra", "wa"):
        acc = rec[5]
        if isinstance(acc, int) and acc >= 0:
            walk.acc_events.setdefault(acc, []).append((kind, cycle, index))


def _cell_event(walk: _Walk, rec: "Op", index: int, n: int | None) -> None:
    addr = rec[2]
    if n is None or not isinstance(addr, int) or not 0 <= addr < n:
        return  # out-of-range access already reported (E201)
    access = "r" if rec[0] in _READ_KINDS else "w"
    walk.cell_events.setdefault(addr, []).append((index, access))


# -- post-walk checks -------------------------------------------------------


def _table_diagnostics(stream: "OpStream") -> list[Diagnostic]:
    """E204: every attached table must be a full GF(2^m) value map."""
    out: list[Diagnostic] = []
    m = stream.m if isinstance(stream.m, int) and stream.m >= 1 else None
    if m is None:
        return out
    size, mask = 1 << m, (1 << m) - 1
    for table_index, table in enumerate(stream.tables):
        if not isinstance(table, (tuple, list)):
            out.append(_d("E204", None,
                          f"table {table_index}: expected a value tuple, "
                          f"got {type(table).__name__}"))
            continue
        if len(table) != size:
            out.append(_d("E204", None,
                          f"table {table_index}: {len(table)} entries "
                          f"cannot map the {size} values of a {m}-bit "
                          f"word"))
            continue
        bad = next((v for v in table
                    if not isinstance(v, int) or not 0 <= v <= mask), None)
        if bad is not None:
            out.append(_d("E204", None,
                          f"table {table_index}: entry {bad!r} does not "
                          f"fit {m}-bit words"))
    return out


def _segment_diagnostics(stream: "OpStream") -> list[Diagnostic]:
    """E301: segment slices must lie inside the op records."""
    out: list[Diagnostic] = []
    total = len(stream.ops)
    for segment in stream.segments:
        start, stop = segment.start, segment.stop
        valid = (isinstance(start, int) and isinstance(stop, int)
                 and 0 <= start <= stop <= total)
        if not valid:
            out.append(_d(
                "E301", None,
                f"segment {segment.label!r}[{segment.index}]: bounds "
                f"[{start}, {stop}) outside the {total}-record stream"))
    return out


def _accumulator_diagnostics(walk: _Walk, *,
                             dataflow: bool) -> list[Diagnostic]:
    """E207 (unflushed contributions) and W404 (constant folds).

    A ``"wa"`` consumes its accumulator *as of the start of its cycle*
    and ``"ra"`` contributions become visible to later cycles only, so a
    contribution counts toward a flush iff the flush happens in a
    strictly later cycle.
    """
    out: list[Diagnostic] = []
    for acc_id, events in sorted(walk.acc_events.items()):
        wa_cycles = [cycle for kind, cycle, _ in events if kind == "wa"]
        last_flush = max(wa_cycles, default=None)
        unflushed = [(cycle, index) for kind, cycle, index in events
                     if kind == "ra"
                     and (last_flush is None or cycle >= last_flush)]
        if unflushed:
            first = min(index for _, index in unflushed)
            out.append(_d(
                "E207", first,
                f"op {first}: accumulator {acc_id} receives "
                f"{len(unflushed)} contribution(s) that no later-cycle "
                f"'wa' ever flushes"))
        if not dataflow:
            continue
        ra_cycles = sorted(cycle for kind, cycle, _ in events
                           if kind == "ra")
        previous: int | None = None
        for kind, cycle, index in events:
            if kind != "wa":
                continue
            lower = -1 if previous is None else previous
            contributions = (bisect_left(ra_cycles, cycle)
                             - bisect_left(ra_cycles, lower))
            if contributions == 0:
                since = ("stream start" if previous is None
                         else f"the flush at cycle {previous}")
                out.append(_d(
                    "W404", index,
                    f"op {index}: 'wa' flushes accumulator {acc_id} "
                    f"with no contribution since {since} (provably "
                    f"constant)"))
            previous = cycle
    return out


def _dataflow_diagnostics(stream: "OpStream", walk: _Walk) -> list[Diagnostic]:
    """W401/W402/W403/W405: the per-cell forward dataflow findings."""
    out: list[Diagnostic] = []
    #: (write_index, read_index) retention windows for the idle check.
    windows: list[tuple[int, int]] = []
    for cell, events in sorted(walk.cell_events.items()):
        uninitialized = list(itertools.takewhile(
            lambda event: event[1] == "r", events))
        if uninitialized:
            first_index = uninitialized[0][0]
            out.append(_d(
                "W402", first_index,
                f"op {first_index}: cell {cell} is read before the "
                f"stream ever writes it ({len(uninitialized)} "
                f"uninitialized read(s))"))
        live_write: int | None = None
        for (index, access), (next_index, next_access) in \
                itertools.pairwise(events):
            if access == "w" and next_access == "w":
                out.append(_d(
                    "W401", index,
                    f"op {index}: write to cell {cell} is overwritten "
                    f"at op {next_index} before any read"))
        for index, access in events:
            if access == "w":
                live_write = index
            elif live_write is not None:
                windows.append((live_write, index))
    for index, idle in walk.idles:
        if idle > 0 and any(a < index < b for a, b in windows):
            continue
        out.append(_d(
            "W403", index,
            f"op {index}: idle of {idle} cycle(s) spans no "
            f"written-then-read cell (cannot satisfy any retention "
            f"window)"))
    for table_index in range(len(stream.tables)):
        if table_index not in walk.used_tables:
            out.append(_d(
                "W405", None,
                f"table {table_index} is never referenced by any 'ra' "
                f"record"))
    return out
