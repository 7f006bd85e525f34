"""Command-line front end.

Subcommands: roundtrip (push one file through a scheme end to end), verify
(exhaustive decode check over D), tradeoff (CSV of the known curve), and
converse (generate and check a lower-bound certificate). Exit codes: 0 all
checks passed, 1 a verification or certificate check failed, 2 usage or
configuration error, a failed write, or standard output closed early. main may
be called any number of times in one process; the parser is built on the first call.
The converse and tradeoff subcommands import the proof half (the converse package
and the tradeoff module) when they run, so roundtrip and verify never load it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import os
import random
import stat
import sys

from .errors import CachewrightError, SymbolOutOfByteRange
from .field import join_bytes
from .model import NetworkConfig, validate_demand
from .verify import SCHEMES, run_verification

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _parse_demand(text: str, k: int) -> tuple[int, ...]:
    try:
        demand = tuple(int(t) for t in text.split(","))
    except ValueError as exc:
        raise CachewrightError(f"demand {text!r} is not comma-separated integers") from exc
    if len(demand) != k:
        raise CachewrightError(f"demand {text!r} does not list {k} file indices")
    return demand


def _open(path: str, mode: str, **kwargs):
    """open(), with a failure turned into a CachewrightError naming the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise CachewrightError(f"cannot open {path}: {exc.strerror or exc}") from None


@contextlib.contextmanager
def _output(path: str | None, mode: str, **kwargs):
    """path opened before the work, so that a bad path fails at once, but not truncated; None
    for no path. A regular file is cut to what the work wrote once the work is done or raises
    after writing. If the work raises, a file this call created is removed."""
    if not path:
        yield None
        return
    created = not os.path.lexists(path)
    fh = _open(path, mode, opener=lambda p, f: os.open(p, f & ~os.O_TRUNC, 0o666), **kwargs)
    regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)  # not a device, pipe or FIFO
    try:
        with fh:
            try:
                yield fh
            except BaseException:
                if regular and fh.tell():
                    fh.truncate()
                raise
            if regular:
                fh.truncate()
    except BaseException:
        if created:
            os.unlink(path)
        raise


def _filler(matching: bytes, index: int) -> bytes:
    return random.Random(f"cachewright-filler-{index}").randbytes(len(matching))


def cmd_roundtrip(args) -> int:
    cfg = NetworkConfig(args.n, args.k, args.prime)
    demand = _parse_demand(args.demand, args.k)
    user = args.user
    if not 1 <= user <= args.k:
        raise CachewrightError(f"--user {user} outside [1, {args.k}]")
    if not args.out:
        raise CachewrightError("--out must name a file for the decoded bytes")
    with _open(args.input, "rb") as fh:
        payload = fh.read()
    wanted = demand[user - 1]
    with _output(args.out, "wb") as out:
        blobs = [payload if n == wanted else _filler(payload, n) for n in range(1, args.n + 1)]
        scheme = SCHEMES[args.scheme]
        library = [scheme.split(b, cfg) for b in blobs]
        cache = scheme.place(library, cfg, users=(user,))[0]
        # Scheme.deliver and Scheme.decode each compile the pattern; one compile serves both
        d = validate_demand(demand, cfg)
        delivery, decoder = scheme.serving(cfg, scheme.pattern(d, cfg))
        packets = scheme.send(cfg, delivery, library, d)
        memory, rate = scheme.point(cfg, cache, packets.values())
        try:
            pieces = scheme.recover(cfg, decoder(user), cache, d, packets)
            decoded = join_bytes(pieces)[:len(payload)]
        except SymbolOutOfByteRange as exc:  # a wrong decode, not a usage error
            decoded, reason = None, str(exc)
        else:
            out.write(decoded)
            reason = "decoded bytes differ from input"
    print(f"M = {memory}")
    print(f"R = {rate}")
    if decoded != payload:
        print(f"roundtrip FAILED: {reason}", file=sys.stderr)
        return EXIT_FAIL
    print(f"roundtrip OK: user {user} recovered file {wanted} "
          f"({len(payload)} bytes)")
    return EXIT_OK


def cmd_verify(args) -> int:
    NetworkConfig(args.n, args.k, args.prime)  # a bad N, K or prime reports itself first
    if args.k > 8 and not args.force:
        raise CachewrightError(
            f"K = {args.k} is above the K <= 8 enumeration guard; pass --force to run anyway")
    if args.jobs < 1:
        raise CachewrightError(f"--jobs {args.jobs} is below 1")
    with _output(args.out, "w", encoding="utf-8") as out:
        report = run_verification(args.n, args.k, args.scheme, jobs=args.jobs, p=args.prime)
        text = report.to_json()
        if out:
            out.write(text + "\n")
    print(text)
    return EXIT_OK if report.ok else EXIT_FAIL


def cmd_tradeoff(args) -> int:
    from .tradeoff import assemble_known_curve, csv_lines

    with _output(args.out, "w", encoding="utf-8", newline="") as out:
        curve = assemble_known_curve(args.n, args.k)
        (out or sys.stdout).writelines(csv_lines(curve, args.samples))
    return EXIT_OK


def cmd_converse(args) -> int:
    from .converse.certificate import check_certificate, serialize_certificate
    from .converse.tightness import FAMILIES, tightness_check

    keys = (*(f.theorem for f in FAMILIES), "auto")
    if args.theorem not in keys:
        raise CachewrightError(f"--theorem {args.theorem} is not one of {', '.join(keys)}")
    chosen = [f for f in FAMILIES if args.theorem == f.theorem
              or args.theorem == "auto" and f.in_range(args.n, args.k)]
    if not chosen:
        raise CachewrightError(f"({args.n}, {args.k}) fits neither bound family")
    if args.dump and len(chosen) > 1:
        picks = " or ".join(f"--theorem {f.theorem}" for f in chosen)
        raise CachewrightError(f"({args.n}, {args.k}) fits both bound families, which certify "
                               f"the same line; --dump writes one, so pick it with {picks}")

    ok = True
    with _output(args.dump, "w", encoding="utf-8", newline="") as out:
        for family in chosen:
            cert = family.certificate(args.n, args.k)
            report = check_certificate(cert)
            tight = tightness_check(args.n, args.k)
            entry = next(e for e in tight.entries if e.case == family.case)
            print(f"{cert.target_text()} {report.verdict}; "
                  f"tight at M={entry.memory}: bound {entry.bound_rate} vs "
                  f"achievable {entry.achievable_rate}; axioms={report.axiom_count}")
            if not report.ok:
                print(f"  reason: {report.reason}", file=sys.stderr)
                ok = False
            if out:
                out.write(serialize_certificate(cert))
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cachewright",
        description="Coded-caching schemes, tradeoff curves, and converse certificates")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scheme=False):
        p.add_argument("--n", type=int, required=True, help="number of files")
        p.add_argument("--k", type=int, required=True, help="number of users")
        p.add_argument("--prime", type=int, default=None,
                       help="field modulus (default: auto)")
        if scheme:
            p.add_argument("--scheme", choices=tuple(SCHEMES), default="new")

    p = sub.add_parser("roundtrip", help="split, place, deliver, decode one file")
    common(p, scheme=True)
    p.add_argument("input", help="path of the file to push through the scheme")
    p.add_argument("--demand", required=True, help="comma-separated file indices")
    p.add_argument("--user", type=int, default=1, help="which user decodes")
    p.add_argument("--out", required=True, help="where to write the decoded bytes")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("verify", help="decode every demand in D, every user")
    common(p, scheme=True)
    p.add_argument("--jobs", type=int, default=1, help="parallel workers (default: 1)")
    p.add_argument("--out", default=None, help="also write the JSON report here")
    p.add_argument("--force", action="store_true",
                   help="lift the K <= 8 enumeration guard")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tradeoff", help="emit the known rate-memory curve as CSV")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=33)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_tradeoff)

    p = sub.add_parser("converse", help="generate and check a lower-bound certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--theorem", default="auto",
                   help="2: many-files bound, 4: few-files bound, auto: each that applies")
    p.add_argument("--dump", default=None, help="write the certificate text here")
    p.set_defaults(func=cmd_converse)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every main call reuses. argparse keeps no state between parse_args
    calls, and each cmd_* looks up FAMILIES, SCHEMES, run_verification and _filler
    when it runs, so replacing one of them later still takes effect. The parser reads
    nothing from the proof half: cmd_converse checks the --theorem key."""
    return build_parser()


def _buffered_stdout() -> None:
    """Reopen the interpreter's stdout buffered if python -u left its text layer writing
    straight to the raw file. That layer drops the short count a write returns when the
    reader leaves mid-write, so nothing fails; a buffered writer writes the rest, which
    raises BrokenPipeError. A redirected sys.stdout (StringIO, capsys) is left alone."""
    out = sys.stdout
    if out is sys.__stdout__ and isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = open(out.fileno(), "w", encoding=out.encoding, errors=out.errors,
                          closefd=False)


def main(argv=None) -> int:
    _buffered_stdout()
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except CachewrightError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a failed write (a full disk), or stdout closed early (`| head -1`)
        try:
            sys.stdout.flush()
        except OSError:
            # what stdout still buffers goes to devnull, so the interpreter's final flush
            # raises nothing (Python's signal docs)
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
