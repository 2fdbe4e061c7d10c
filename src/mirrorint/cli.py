"""Batch command-line front end: constants, certify, sieve, sweep.

Machine-readable output first: single-document commands print one JSON
object, streaming commands print JSONL, and a human table sits behind
--table. Diagnostics and progress go to stderr only, so stdout pipes clean.

Exit codes: 0 pass, 1 mathematical violation found, 2 usage error,
3 environment/IO error (130 when a sieve is interrupted by SIGINT or SIGTERM;
its --out file is flushed and its checkpoint written first). A document's
status sets its exit code: pass and degenerate exit 0, violation exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import signal
import sys
import threading
from fractions import Fraction
from typing import Callable

from .congruences import SWEEPS, _sweep_rows
from .constants import (
    DegenerateCase,
    omega,
    t_conjectured,
    theta,
    u_conjectured,
    xi,
)
from .series import (
    CANONICAL_KINDS,
    KIND_QLN,
    KIND_QN,
    _int_str_digits,
    canonical_parts,
    exp_quotient,
    first_nonintegral,
)
from .sieve import (
    TARGET_H,
    TARGETS,
    CheckpointError,
    SieveCheckpoint,
    SieveRun,
    canonical_json,
)

FORMAT_VERSION = 1

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERRUPT = 130


# The exit code of each status a single-document command can report.
_EXIT = {"pass": EXIT_PASS, "degenerate": EXIT_PASS, "violation": EXIT_VIOLATION}


def _flags(args, *skip) -> dict:
    # The command's flags as parsed, less those named in `skip`.
    return {
        name: value
        for name, value in vars(args).items()
        if name not in ("command", "func", *skip)
    }


def _emit(args, status: str, payload: dict) -> int:
    """Print the command's document, as JSON or in the --table layout, and
    return the exit code its status sets. Its params are the command's
    flags less --table."""
    doc = {
        "format_version": FORMAT_VERSION,
        "command": args.command,
        "params": _flags(args, "table"),
        "status": status,
        "payload": payload,
    }
    if not args.table:
        print(canonical_json(doc))
    else:
        print(f"command : {args.command}")
        print(f"status  : {status}")
        for part in (doc["params"], payload):
            for key in sorted(part):
                print(f"  {key:<10} {part[key]}")
    return _EXIT[status]


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {text!r}")


def _add_constants(add):
    add("--which", required=True, choices=("theta", "xi", "omega", "t", "u"))
    add("--N", type=int, required=True)
    add("--k", type=int, default=1)
    add("--table", action="store_true")
    return _cmd_constants


def _add_certify(add):
    add("--map", required=True, choices=CANONICAL_KINDS)
    add("--N", type=int, required=True)
    add("--k", type=int, default=1)
    add("--L", type=int, default=None)
    add(
        "--order",
        type=int,
        default=25,
        help="truncation order (default: 25); a pass is a certificate only "
        "up to this order",
    )
    add(
        "--root",
        default="auto",
        help="'auto' for the prescribed root, or an explicit positive integer",
    )
    add(
        "--root-scale",
        type=int,
        default=1,
        help="extra integer factor applied to the root (use to probe maximality)",
    )
    add("--table", action="store_true")
    return _cmd_certify


def _add_sieve(add):
    add("--p", type=int, required=True)
    add("--max", type=int, required=True)
    add("--target", choices=TARGETS, default=TARGET_H)
    add("--out", default="-", help="JSONL destination ('-' = stdout)")
    add(
        "--checkpoint",
        default=None,
        help="checkpoint path; loaded when present, written on exit/interrupt",
    )
    add("--progress", action="store_true")
    return _cmd_sieve


def _add_sweep(add):
    # One grid flag per parameter named in congruences.SWEEPS, --p a csv of
    # primes and every other an int. Flags absent from the command line stay
    # unset, so the check's defaults apply (and an explicit 0 is kept).
    unset = argparse.SUPPRESS
    add("--check", required=True, choices=tuple(SWEEPS), default=unset)
    grid_params = dict.fromkeys(
        name for spec in SWEEPS.values() for name in (*spec.defaults, *spec.required)
    )
    for name in grid_params:
        add(f"--{name}", type=_csv_ints if name == "p" else int, default=unset)
    add("--which", default=unset)
    add("--out", default="-")
    return _cmd_sweep


# Each subcommand: its line in the top-level help, and what declares its flags.
_COMMANDS = {
    "constants": ("theta / xi / omega / t / u values", _add_constants),
    "certify": ("integrality certificate for a root of a canonical map", _add_certify),
    "sieve": ("stream N with positive valuation of H_N or H_N - 1", _add_sieve),
    "sweep": ("grid-run a congruence check, JSONL out", _add_sweep),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser with every subcommand and its flags. It parses only what
    _parse_plain leaves: help and every malformed command line."""
    parser = argparse.ArgumentParser(
        prog="mirrorint",
        description="exact verification of harmonic-valuation and "
        "mirror-map integrality statements",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=add_flags(p.add_argument))
    return parser


def _parse_plain(argv: list[str]) -> argparse.Namespace | None:
    """argparse's Namespace for a well-formed argv, read from the declarations:
    a command, then distinct exact flags, each valued one followed by a value
    not starting with "-" that passes its type and choices. None for any other
    argv (help, usage errors, abbreviations, --flag=value, values like "-1")."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = {}
    func = _COMMANDS[argv[0]][1](lambda flag, **spec: flags.setdefault(flag, spec))
    # argparse's order: command, the defaults, func, then the flags with none.
    values = {"command": argv[0]}
    for flag, spec in flags.items():
        default = spec.get("default", False if "action" in spec else None)
        if default is not argparse.SUPPRESS:
            values[flag[2:].replace("-", "_")] = default
    values["func"] = func
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = flags.pop(flag, None)
        switch = spec is not None and "action" in spec
        text = "" if switch else next(tokens, "-")
        if spec is None or text.startswith("-"):
            return None
        try:
            value = switch or spec.get("type", str)(text)
        except (TypeError, ValueError, argparse.ArgumentTypeError):
            return None
        if value not in spec.get("choices", (value,)):
            return None
        values[flag[2:].replace("-", "_")] = value
    if any(spec.get("required") for spec in flags.values()):
        return None
    return argparse.Namespace(**values)


def _cmd_constants(args) -> int:
    if args.k != 1 and args.which != "t":
        raise ValueError(f"{args.which} takes no k; only t reads it")
    try:
        if args.which == "theta":
            payload = {"value": str(theta(args.N))}
        elif args.which in ("xi", "omega"):
            b = (xi if args.which == "xi" else omega)(args.N)
            payload = {"value": str(b.product), "breakdown": b.to_json()}
        else:
            value, integral = (
                t_conjectured(args.N, args.k) if args.which == "t" else u_conjectured(args.N)
            )
            payload = {"value": str(value), "integral": integral}
    except DegenerateCase as exc:
        return _emit(args, "degenerate", {"reason": str(exc)})
    return _emit(args, "pass", payload)


def _auto_root(map_kind: str, N: int, k: int, L: int | None) -> Fraction:
    fact_k = Fraction(math.factorial(N)) ** k
    if map_kind == KIND_QLN:
        # canonical_parts has already rejected a qLN without L.
        if L == N:
            return xi(N).product * fact_k
        if L > N:
            raise ValueError("no prescribed root for L > N; pass --root explicitly")
        return fact_k / theta(L)
    if map_kind == KIND_QN:
        return omega(N).product * fact_k * k * N
    return omega(N).product * fact_k


def _cmd_certify(args) -> int:
    order = args.order
    if order < 1:
        raise ValueError("--order must be positive")
    if args.root_scale < 1:
        raise ValueError("--root-scale must be a positive integer")
    G, F, d = canonical_parts(args.map, args.N, args.k, L=args.L, order=order)
    # F[0] = 1, so log q = G/(d·F) vanishes to the order exactly when G does.
    if not any(G):
        payload = {"reason": "the map reduces to z: every root is trivially integral"}
        return _emit(args, "degenerate", payload)

    if args.root == "auto":
        base = _auto_root(args.map, args.N, args.k, args.L)
        if base.denominator != 1 or base <= 0:
            payload = {
                "reason": "prescribed root is not a positive integer",
                "root": str(base),
            }
            return _emit(args, "violation", payload)
        root = int(base)
    else:
        try:
            root = int(args.root)
        except ValueError as exc:
            raise ValueError("--root must be 'auto' or an integer") from exc
        if root < 1:
            raise ValueError("--root must be positive")
    root *= args.root_scale

    # Dwork's criterion decides on residues mod p^e; the exact stream of
    # exp(G/(d·V·F)) runs only to a violation's witness, to print it.
    index = first_nonintegral(G, F, d * root)
    if index is None:
        return _emit(args, "pass", {"root": str(root), "certified_to_order": order})
    witness = next(itertools.islice(exp_quotient(G, F, d * root), index, None))
    if witness.denominator == 1:
        raise RuntimeError(
            f"Dwork's criterion and the exact stream disagree at index {index}"
        )
    payload = {
        "root": str(root),
        "witness_index": index,
        "witness_coefficient": str(witness),
    }
    return _emit(args, "violation", payload)


@contextlib.contextmanager
def _stop_on_signals(run):
    """SIGINT and SIGTERM ask ``run`` to stop at its next index boundary
    instead of raising wherever the interpreter happens to be, so the
    checkpoint written afterwards matches the records already streamed.
    Handlers can only be set from the main thread; elsewhere the signals
    keep their current handling."""
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {
        sig: signal.signal(sig, lambda signum, frame: run.stop())
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _open_out(path: str, checkpoint: SieveCheckpoint | None = None):
    """--out, '-' for stdout. A sieve resuming with an existing file cuts
    it back to the checkpoint's offset and appends; a new file, or a
    checkpoint whose records went to stdout, starts empty."""
    if path == "-":
        return sys.stdout
    offset = checkpoint.out_offset if checkpoint else None
    if offset is None or not os.path.exists(path):
        return open(path, "w", encoding="utf-8")
    if os.path.getsize(path) < offset:
        raise CheckpointError(
            f"{path} is shorter than the {offset} bytes the checkpoint recorded"
        )
    os.truncate(path, offset)
    return open(path, "a", encoding="utf-8")


def _write_atomic(path: str, text: str) -> None:
    """Replace the file at `path` by one holding `text`. The text goes to a
    temporary file beside it first, which os.replace then renames over it,
    so a write that fails or is killed midway leaves the old file whole."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _cmd_sieve(args) -> int:
    checkpoint = None
    if args.checkpoint and os.path.exists(args.checkpoint):
        with open(args.checkpoint, "r", encoding="utf-8") as fh:
            checkpoint = SieveCheckpoint.load(fh.read())
    elif args.checkpoint and not os.path.isdir(os.path.dirname(args.checkpoint) or "."):
        raise CheckpointError(f"no directory for the checkpoint {args.checkpoint}")
    run = SieveRun(args.p, args.max, target=args.target, checkpoint=checkpoint)
    out = _open_out(args.out, checkpoint)
    conjecture_hits = 0
    emitted = 0
    try:
        with _stop_on_signals(run):
            for record in run:
                out.write(record.to_line() + "\n")
                emitted += 1
                if record.v_at_least:
                    conjecture_hits += 1
                    print(
                        f"CONJECTURE-LEVEL HIT: v_{args.p}(H_{record.N}"
                        f"{' - 1' if record.target != TARGET_H else ''}) >= {record.v}",
                        file=sys.stderr,
                    )
                if args.progress and emitted % 50 == 0:
                    print(f"... {emitted} records, N={record.N}", file=sys.stderr)
        out.flush()
        offset = None if out is sys.stdout else out.tell()
    finally:
        if out is not sys.stdout:
            out.close()
    if args.checkpoint:
        cp = run.checkpoint()._replace(out_offset=offset)
        _write_atomic(args.checkpoint, cp.dump() + "\n")
    if run.stopped:
        print(f"interrupted at N={run.last_N}; checkpoint saved", file=sys.stderr)
        return EXIT_INTERRUPT
    print(
        f"sieve complete: p={args.p} target={args.target} N<={args.max}, "
        f"{emitted} records",
        file=sys.stderr,
    )
    return EXIT_VIOLATION if conjecture_hits else EXIT_PASS


_SWEEP_CHUNK_ROWS = 256


def _row_formats(check: str, keys: list[str]) -> dict[int, str]:
    """The %-template of `check`'s sweep rows of each length, `which` quoted
    in it. A row with fewer values than keys lacks the leading ones."""
    head = f'{{"check":"{check}","holds":%s,"margin":%s,"params":{{'
    slots = {key: '"%s"' if key == "which" else "%s" for key in keys}
    return {
        2 + n: head + ",".join(f'"{key}":{slots[key]}' for key in keys[len(keys) - n:]) + "}}"
        for n in range(len(keys) + 1)
    }


def _row_writer(check: str) -> Callable[[tuple], str]:
    """The function that writes a row tuple of `check` as its JSONL line:
    the bytes canonical_json writes for the row's sweep() dict. Ints go
    into the template as they are; holds, coeff-c's capped and the "inf"
    and None margins as their JSON words. `which` is a variant name from
    SWEEPS, which needs no escapes."""
    keys = SWEEPS[check].keys.split()
    formats = _row_formats(check, keys)
    words = ("false", "true")
    margins = {"inf": '"inf"', None: "null"}

    def line(row: tuple) -> str:
        # The values are unpacked into the argument tuple, which is then
        # built at its exact size. tuple(map(...)) would size its result by
        # a guess and shrink it, which leaves one more tuple of the row's
        # length on the interpreter's free list per row, about 0.3 MB of
        # resident memory over a sweep.
        margin = row[1]
        return formats[len(row)] % (words[row[0]], margins.get(margin, margin), *row[2:])

    if "capped" not in keys:
        return line

    def line_with_capped(row: tuple) -> str:
        # coeff-c's capped is the one boolean among a row's values.
        return line((*row[:2], *(words[x] if x.__class__ is bool else x for x in row[2:])))

    return line_with_capped


def _cmd_sweep(args) -> int:
    rows = _sweep_rows(args.check, **_flags(args, "check", "out"))
    # Run the first grid point before --out is opened, so that a failed
    # precondition (vp3-probe's, say) leaves an existing file untouched.
    first = list(itertools.islice(rows, 1))
    out = _open_out(args.out)
    write = _row_writer(args.check)
    failures = 0
    total = 0
    # Rows go out in chunks: each write can be a syscall (PYTHONUNBUFFERED).
    chunk: list[str] = []
    try:
        for row in itertools.chain(first, rows):
            chunk.append(write(row))
            total += 1
            if not row[0]:
                failures += 1
            if len(chunk) == _SWEEP_CHUNK_ROWS:
                out.write("\n".join(chunk) + "\n")
                chunk.clear()
    finally:
        # The pending rows are written even when a later row raised.
        if chunk:
            out.write("\n".join(chunk) + "\n")
        out.flush()
        if out is not sys.stdout:
            out.close()
    print(f"sweep {args.check}: {total} tuples, {failures} failures", file=sys.stderr)
    return EXIT_VIOLATION if failures else EXIT_PASS


def main(argv: list[str] | None = None) -> int:
    # Exact values can have more digits than the default limit of 4300
    # allows (u_N at N = 2000 has more), so it is lifted while a command runs.
    with _int_str_digits(0):
        return _run(argv)


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_plain(argv) or _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (CheckpointError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
