"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``selftest``   run a PRT schedule on a simulated memory (optionally with
               an injected fault) and report the verdict,
``march``      run a March test given in formal notation,
``coverage``   single-fault-injection coverage campaign for one test,
``verify``     statically verify a test's compiled stream (no execution),
``compare``    the March-vs-PRT comparison table (experiment E9),
``overhead``   the BIST hardware-overhead sweep (experiment E5).

Examples
--------
::

    python -m repro selftest --n 255 --m 4 --schedule standard
    python -m repro selftest --n 28 --inject SAF:5:1
    python -m repro march --notation "{c(w0); u(r0,w1); d(r1,w0)}" --n 64
    python -m repro coverage --n 28 --test prt3
    python -m repro coverage --n 64 --scheme dual-port
    python -m repro verify --n 64 --test march-c
    python -m repro verify --n 64 --scheme quad-port --json
    python -m repro coverage --n 64 --scheme quad-port --workers 2
    python -m repro coverage --n 64 --scheme dual-schedule
    python -m repro compare --n 28
    python -m repro overhead --ports 2
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import (
    CampaignRequest,
    RequestError,
    compare_tests,
    execute_request,
    resolve_campaign,
)
from repro.analysis.coverage import ENGINES
from repro.analysis.request import MAX_WORKERS
from repro.analysis.request import build_field as _build_field
from repro.faults import (
    DataRetentionFault,
    FaultInjector,
    StuckAtFault,
    StuckOpenFault,
    TransitionFault,
)
from repro.gf2m import GF2m
from repro.march import parse_march, run_march
from repro.memory import SinglePortRAM
from repro.prt import (
    BistOverheadModel,
    extended_schedule,
    standard_schedule,
)

__all__ = ["main"]


def _parse_fault(spec: str):
    """Parse ``CLASS:args`` fault specs, e.g. ``SAF:5:1`` (cell 5 stuck at
    1), ``TF:3:up``, ``SOF:7``, ``DRF:2:100``."""
    parts = spec.split(":")
    kind = parts[0].upper()
    try:
        if kind == "SAF":
            return StuckAtFault(int(parts[1]), int(parts[2]))
        if kind == "TF":
            return TransitionFault(int(parts[1]), rising=parts[2] == "up")
        if kind == "SOF":
            return StuckOpenFault(int(parts[1]))
        if kind == "DRF":
            return DataRetentionFault(int(parts[1]), retention=int(parts[2]))
    except (IndexError, ValueError) as exc:
        raise argparse.ArgumentTypeError(
            f"bad fault spec {spec!r}: {exc}") from exc
    raise argparse.ArgumentTypeError(
        f"unknown fault class {kind!r} (use SAF/TF/SOF/DRF)"
    )


def _schedule_for(args, n: int):
    field = _build_field(args.m, args.poly)
    builder = standard_schedule if args.schedule == "standard" else extended_schedule
    return builder(field=field, n=n, verify=not args.pure,
                   **({"pause_between": args.pause} if args.pause else {}))


def _cmd_selftest(args) -> int:
    ram = SinglePortRAM(args.n, m=args.m)
    injector = None
    if args.inject:
        injector = FaultInjector([_parse_fault(args.inject)])
        injector.install(ram)
        print(f"injected: {injector.faults[0].name}")
    schedule = _schedule_for(args, args.n)
    result = schedule.run(ram)
    print(f"schedule : {schedule.name} ({len(schedule)} iterations, "
          f"{'pure' if args.pure else 'verifying'})")
    print(f"memory   : {args.n} cells x {args.m} bit(s)")
    print(f"operations: {result.operations}")
    for index, it_result in enumerate(result.iteration_results):
        status = "PASS" if it_result.passed else "FAIL"
        print(f"  iteration {index}: {status}  Fin={it_result.final_state} "
              f"Fin*={it_result.expected_final} "
              f"verify_mismatches={it_result.verify_mismatches}")
    verdict = "MEMORY OK" if result.passed else "FAULT DETECTED"
    print(f"verdict  : {verdict}")
    if injector is not None:
        injector.remove(ram)
    return 0 if result.passed == (args.inject is None) else 1


def _cmd_march(args) -> int:
    test = parse_march(args.notation, name="cli")
    ram = SinglePortRAM(args.n, m=args.m)
    injector = None
    if args.inject:
        injector = FaultInjector([_parse_fault(args.inject)])
        injector.install(ram)
        print(f"injected: {injector.faults[0].name}")
    result = run_march(test, ram)
    print(f"test      : {test}   ({test.ops_per_cell}n)")
    print(f"operations: {result.operations}")
    print(f"verdict   : {'MEMORY OK' if result.passed else 'FAULT DETECTED'}")
    for background, element, addr, expected, actual in result.failures[:10]:
        print(f"  bg={background:#x} element={element} addr={addr} "
              f"expected={expected} read={actual}")
    if injector is not None:
        injector.remove(ram)
    return 0 if result.passed == (args.inject is None) else 1


def _coverage_request(args) -> CampaignRequest:
    """The canonical request for a ``coverage`` invocation.

    ``--scheme`` (when not ``single``) and ``--test`` are both just
    selectors on the shared request surface; all further validation --
    odd-``n`` quad schemes, bad polynomials -- happens in
    :func:`~repro.analysis.request.resolve_campaign`, the same resolver
    behind ``run_coverage(request)`` and the :mod:`repro.server` API.
    """
    if args.interpreted and args.engine not in ("auto", "interpreted"):
        raise SystemExit(
            "error: --interpreted conflicts with --engine "
            f"{args.engine!r}; use --engine interpreted"
        )
    engine = "interpreted" if args.interpreted else args.engine
    selector = args.test if args.scheme == "single" else args.scheme
    return CampaignRequest(
        test=selector, n=args.n, m=args.m, engine=engine,
        workers=args.workers, pure=args.pure, poly=args.poly,
    )


def _resolve_or_exit(request: CampaignRequest):
    """Resolve, translating :class:`RequestError` to CLI conventions.

    The quad-scheme geometry error keeps its historical ``--n`` wording
    and ``SystemExit``; everything else prints ``error: ...`` to stderr
    and exits 2 (the same code argparse uses for bad flag values).
    """
    try:
        return resolve_campaign(request)
    except RequestError as exc:
        if "even n >= 6" in str(exc):
            raise SystemExit(
                f"error: --scheme {request.test} needs an even --n >= 6 "
                f"(two concurrent half-array automata), got {request.n}"
            ) from None
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _cmd_coverage(args) -> int:
    request = _coverage_request(args)
    resolved = _resolve_or_exit(request)
    outcome = execute_request(request)
    if args.json:
        from repro.server.schemas import coverage_response

        print(json.dumps(coverage_response(request, outcome), indent=2))
        return 0
    report = outcome.report
    print(f"test    : {resolved.test_name}")
    if args.scheme != "single":
        ports = resolved.runner.ports
        if args.scheme.endswith("-schedule"):
            cycles = resolved.compile().replay_cycles
            print(f"scheme  : {args.scheme} ({ports} ports, "
                  f"{cycles} cycles per schedule)")
        else:
            cycles = 2 * args.n + 2 if ports == 2 else args.n + 2
            print(f"scheme  : {args.scheme} ({ports} ports, "
                  f"{cycles} cycles per pass)")
    print(f"universe: {resolved.build_universe()!r}")
    print(f"{'class':>6} {'detected':>9} {'total':>6} {'coverage':>9}")
    for fault_class, detected, total, ratio in report.rows():
        print(f"{fault_class:>6} {detected:>9} {total:>6} {ratio:>9.1%}")
    print(f"overall : {report.overall:.1%}")
    return 0


def _cmd_verify(args) -> int:
    """Statically verify the compiled stream of one test selector.

    Exit code 0 when the stream carries no error-severity diagnostic
    (warnings -- dataflow dead weight -- are reported but never fail),
    1 otherwise.
    """
    from repro.sim.verify import verify

    selector = args.test if args.scheme == "single" else args.scheme
    request = CampaignRequest(test=selector, n=args.n, m=args.m,
                              pure=args.pure, poly=args.poly)
    resolved = _resolve_or_exit(request)
    stream = resolved.compile()
    report = verify(stream, dataflow=not args.no_dataflow)
    if args.json:
        from repro.server.schemas import verify_response

        print(json.dumps(verify_response(request, stream, report), indent=2))
        return 0 if report.ok else 1
    errors, warnings = report.errors, report.warnings
    print(f"stream  : {stream.name} ({stream.source}, n={stream.n}, "
          f"m={stream.m}, ports={stream.ports}, {len(stream)} records)")
    print(f"digest  : {stream.digest()}")
    verdict = "OK" if report.ok else "REJECTED"
    print(f"verdict : {verdict} ({len(errors)} error(s), "
          f"{len(warnings)} warning(s))")
    for diagnostic in report.diagnostics:
        print(f"  {diagnostic.severity:>7} {diagnostic}")
    return 0 if report.ok else 1


_COMPARE_TESTS = ("prt3", "prt5", "mats+", "march-c", "march-b")


def _cmd_compare(args) -> int:
    requests = [
        CampaignRequest(test=test, n=args.n, m=args.m,
                        workers=args.workers, poly=args.poly)
        for test in _COMPARE_TESTS
    ]
    for request in requests:
        _resolve_or_exit(request)
    rows = compare_tests(requests)
    if args.json:
        from repro.server.schemas import compare_response

        print(json.dumps(compare_response(requests, rows), indent=2))
        return 0
    classes = rows[0].report.classes
    header = f"{'test':>10} {'ops/cell':>9} {'overall':>8}"
    for c in classes:
        header += f" {c:>5}"
    print(header)
    for row in rows:
        line = f"{row.name:>10} {row.ops_per_cell:>9.1f} {row.overall:>8.1%}"
        for c in classes:
            line += f" {row.coverage(c):>5.0%}"
        print(line)
    return 0


def _cmd_overhead(args) -> int:
    field = _build_field(args.m, args.poly) or GF2m(0b11)
    generator = (1, 2, 2) if field.m >= 2 else (1, 1, 1)
    model = BistOverheadModel(field, generator, ports=args.ports)
    print(f"field GF(2^{field.m}), {args.ports} port(s)")
    print(f"{'capacity':>10} {'ratio':>12} {'< 2^-20':>8}")
    for log2n in range(10, 31, 2):
        ratio = model.overhead_ratio(1 << log2n)
        print(f"  2^{log2n:<6} {ratio:>12.3e} "
              f"{'yes' if ratio < 2**-20 else 'no':>8}")
    crossover = model.crossover_capacity()
    print(f"crossover: n = 2^{crossover.bit_length() - 1}")
    return 0


def _add_memory_args(parser, default_n=255, default_m=1):
    parser.add_argument("--n", type=int, default=default_n,
                        help="number of cells")
    parser.add_argument("--m", type=int, default=default_m,
                        help="bits per cell (1 = bit-oriented)")
    parser.add_argument("--poly", type=str, default=None,
                        help='field modulus, e.g. "1+z+z^4" (default: '
                             "tabulated primitive polynomial)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pseudo-ring RAM self-test (DATE 2005 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("selftest", help="run a PRT schedule")
    _add_memory_args(p)
    p.add_argument("--schedule", choices=("standard", "extended"),
                   default="standard")
    p.add_argument("--pure", action="store_true",
                   help="paper-exact signature-only mode (no verification)")
    p.add_argument("--pause", type=int, default=0,
                   help="idle cycles between iterations (retention testing)")
    p.add_argument("--inject", type=str, default=None,
                   help="fault spec, e.g. SAF:5:1, TF:3:up, SOF:7, DRF:2:100")
    p.set_defaults(func=_cmd_selftest)

    p = sub.add_parser("march", help="run a March test from notation")
    _add_memory_args(p, default_n=64)
    p.add_argument("--notation", type=str, required=True,
                   help='e.g. "{c(w0); u(r0,w1); d(r1,w0)}"')
    p.add_argument("--inject", type=str, default=None)
    p.set_defaults(func=_cmd_march)

    p = sub.add_parser("coverage", help="fault-coverage campaign")
    _add_memory_args(p, default_n=28)
    p.add_argument("--test",
                   choices=("prt3", "prt5", "mats+", "march-c", "march-b"),
                   default="prt3")
    p.add_argument("--scheme",
                   choices=("single", "dual-port", "quad-port",
                            "dual-schedule", "quad-schedule"),
                   default="single",
                   help="port scheme: single (default; runs --test on a "
                        "single-port RAM), dual-port (Figure 2 π-iteration "
                        "on a 2-port RAM, 2n cycles), quad-port (the "
                        "multi-LFSR DSE scheme on a 4-port RAM, n cycles), "
                        "or dual-schedule/quad-schedule (three chained "
                        "iterations with transparent verification riding "
                        "the write cycles' idle ports and a port-parallel "
                        "read-back; --pure drops the verification); the "
                        "port schemes replace --test, and the default "
                        "batched engine replays them as lane-parallel "
                        "cycle groups")
    p.add_argument("--pure", action="store_true")
    p.add_argument("--workers", type=int, default=0,
                   help="shard the campaign over N worker processes "
                        f"(0 = serial, at most {MAX_WORKERS}); on the "
                        "batched engine (the default) "
                        "every lane pass runs in-process and the pool "
                        "takes only the scalar remainder, so a fully "
                        "vectorizable universe never starts the pool")
    p.add_argument("--engine", choices=ENGINES, default="auto",
                   help="campaign engine: auto (batched when the test "
                        "compiles, which every --test and --scheme does; "
                        "interpreted otherwise), "
                        "interpreted (legacy per-fault loop), compiled "
                        "(per-fault stream replay), batched (bit-packed "
                        "lane-parallel fault classes, bit- and "
                        "word-oriented alike; fastest on universes "
                        "dominated by single-cell or coupling faults)")
    p.add_argument("--interpreted", action="store_true",
                   help="deprecated alias for --engine interpreted")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable result (same schema "
                        "as the repro.server POST /coverage response)")
    p.set_defaults(func=_cmd_coverage)

    p = sub.add_parser("verify", help="statically verify a compiled stream")
    _add_memory_args(p, default_n=28)
    p.add_argument("--test",
                   choices=("prt3", "prt5", "mats+", "march-c", "march-b"),
                   default="prt3")
    p.add_argument("--scheme",
                   choices=("single", "dual-port", "quad-port",
                            "dual-schedule", "quad-schedule"),
                   default="single",
                   help="port scheme selector (same surface as coverage)")
    p.add_argument("--pure", action="store_true")
    p.add_argument("--no-dataflow", action="store_true",
                   help="skip the dataflow warnings (errors only)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable report (same schema "
                        "as the repro.server POST /verify response)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare", help="March vs PRT table (E9)")
    _add_memory_args(p, default_n=28)
    p.add_argument("--workers", type=int, default=0,
                   help="shard each campaign over N worker processes "
                        f"(0 = serial, at most {MAX_WORKERS}); all rows "
                        "reuse one persistent pool")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable table (same schema "
                        "as the repro.server POST /compare response)")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("overhead", help="BIST overhead sweep (E5)")
    _add_memory_args(p, default_m=4)
    p.add_argument("--ports", type=int, default=2)
    p.set_defaults(func=_cmd_overhead)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
