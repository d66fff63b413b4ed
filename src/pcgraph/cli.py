"""Command-line front end: generate instances, classify one, or sweep a family.

Exit codes: `classify` maps the trichotomy to 0 (pancyclic), 10 (proper
degenerate set), 11 (the exceptional K5), 2 for precondition or input
violations, and 1 for an InternalError, a falsified guarantee, echoing the
instance on stderr.  `gen` and `sweep` exit 1 on parameter errors, unwritable
output paths or failed sweep invariants; a failed `gen` leaves an existing
--out file as it was.  The environment variable PCG_SEED, when set,
overrides --seed and must then be an integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import families
from .core import ColoredCompleteGraph, dumps_instance, loads_instance
from .errors import InternalError, InvalidInstance, PCGraphError, PreconditionViolated
from .sweep import ORACLE_LEVELS, SweepConfig, run_sweep
from .trichotomy import TrichotomyTag, classify

CLASSIFY_EXIT = {
    TrichotomyTag.PANCYCLIC: 0,
    TrichotomyTag.PROPER_DEGENERATE: 10,
    TrichotomyTag.EXCEPTIONAL_K5: 11,
}


def _effective_seed(seed: int) -> int:
    env = os.environ.get("PCG_SEED")
    if env is None:
        return seed
    try:
        return int(env)
    except ValueError:
        raise PreconditionViolated("PCG_SEED", f"not an integer: {env!r}") from None


def _fail(exc: Exception) -> int:
    """Report an input, parameter or output error on stderr; exit code 1."""
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 1


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--family", required=True, choices=families.FAMILIES, help="instance family"
    )
    parser.add_argument("--n", type=int, default=0, help="vertex count")
    parser.add_argument("--k", type=int, default=0, help="color budget (randomNoMono)")
    parser.add_argument(
        "--seed", type=int, default=0, help="base seed; PCG_SEED overrides"
    )
    parser.add_argument(
        "--count", type=int, default=1, help="instances to emit (sample size for exhaustive n >= 6)"
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    sink = sys.stdout
    tmp = None
    try:
        for flag, path, family in (
            ("--cert-out", args.cert_out, "randomDegenerate"),
            ("--parts-out", args.parts_out, "gallai"),
        ):
            if path is not None and (args.family != family or args.count != 1):
                raise PreconditionViolated(flag, f"needs --family {family} --count 1")
        seed = _effective_seed(args.seed)
        spec = families.GenSpec(args.family, args.n, args.k, seed, args.count)
        if args.out:
            if os.path.exists(args.out) and not os.path.isfile(args.out):
                # a device or pipe (/dev/null, /dev/stdout) is written in
                # place; replacing it would destroy it
                sink = open(args.out, "w")
            else:
                # written beside the file --out names and renamed onto it
                # only on success, so a failed run leaves it as it was
                target = os.path.realpath(args.out)
                head, tail = os.path.split(target)
                sink = open(os.path.join(head, f".{tail}.{os.getpid()}.tmp"), "x")
                tmp = sink.name
        wrote = 0
        extras = {}
        if args.cert_out is not None:
            g, f = families.random_degenerate(
                spec.n, families.random_fibers(spec.n, seed), seed
            )
            stream = [g]
            extras[args.cert_out] = {"S": list(range(g.n)), "f": {str(v): c for v, c in sorted(f.items())}}
        elif args.parts_out is not None:
            g, parts = families.gallai_coloring(spec.n, seed)
            stream = [g]
            extras[args.parts_out] = {"parts": parts}
        else:
            stream = families.generate(spec)
        for g in stream:
            sink.write(dumps_instance(g) + "\n")
            wrote += 1
        for path, payload in extras.items():
            with open(path, "w") as fh:
                json.dump(payload, fh, sort_keys=True)
        if tmp is not None:
            sink.close()
            os.replace(tmp, target)
            tmp = None
        print(f"wrote {wrote} instance(s)", file=sys.stderr)
        return 0
    except (OSError, PCGraphError) as exc:
        return _fail(exc)
    finally:
        if sink is not sys.stdout:
            sink.close()
        if tmp is not None:
            os.remove(tmp)


def _read_instance(path: str) -> ColoredCompleteGraph:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return loads_instance(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise InvalidInstance(f"not UTF-8: {exc.reason} at byte {exc.start}") from None


def _cmd_classify(args: argparse.Namespace) -> int:
    try:
        result = classify(_read_instance(args.instance))
    except InternalError as exc:
        # falsification alarm: echo the offending instance for inspection
        print(f"error: InternalError: {exc}", file=sys.stderr)
        if exc.instance is not None:
            print(dumps_instance(exc.instance), file=sys.stderr)
        return 1
    except (OSError, PCGraphError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(result.to_json())
    return CLASSIFY_EXIT[result.tag]


def _cmd_sweep(args: argparse.Namespace) -> int:
    start = time.monotonic()
    try:
        config = SweepConfig(
            family=args.family,
            n=args.n,
            k=args.k,
            count=args.count,
            seed=_effective_seed(args.seed),
            oracle=args.oracle,
            workers=args.workers,
            dump_dir=args.dump_dir,
        )
        report = run_sweep(config)
    except (OSError, PCGraphError) as exc:
        return _fail(exc)
    elapsed = time.monotonic() - start
    text = report.to_json()
    # printed before --out is written, so an unwritable path loses no report
    print(text)
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _fail(exc)
    print(
        f"processed {report.processed} in {elapsed:.2f}s "
        f"({'clean' if report.clean else 'VIOLATIONS FOUND'})",
        file=sys.stderr,
    )
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcg",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write instance JSON (one line per instance)")
    _add_family_arguments(gen)
    gen.add_argument("--out", help="output path (default: stdout)")
    gen.add_argument("--cert-out", help="write the planted witness (randomDegenerate)")
    gen.add_argument("--parts-out", help="write the top-level partition (gallai)")
    gen.set_defaults(func=_cmd_gen)

    cls = sub.add_parser("classify", help="classify one instance file")
    cls.add_argument("instance", help="path to instance JSON")
    cls.set_defaults(func=_cmd_classify)

    swp = sub.add_parser("sweep", help="classify a family and cross-check invariants")
    _add_family_arguments(swp)
    swp.add_argument("--oracle", choices=ORACLE_LEVELS, default="off")
    swp.add_argument("--workers", type=int, default=1)
    swp.add_argument("--out", help="also write the report JSON here")
    swp.add_argument("--dump-dir", help="directory for falsification dumps")
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
