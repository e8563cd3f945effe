"""Command-line front end: analyze request files, run built-in examples."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from .catalog import EXAMPLES, example_request
from .errors import NumericError, ValidationError
from .report import parse_request, render, run

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text",
                     help="output format (default: text)")
    sub.add_argument("--direction", choices=("cause", "effect", "both"),
                     help="override the request's direction")
    sub.add_argument("--mechanisms",
                     help='override mechanisms: "all" or e.g. "0;0,1" '
                          "(semicolon-separated unit lists)")
    sub.add_argument("--tolerance", type=float, help="override the numeric tolerance")
    sub.add_argument("--out", type=Path, help="write output to a file instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mechphi",
        description="Mechanism integrated information for classical causal "
                    "networks and small unitary qubit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze a JSON request file")
    analyze.add_argument("file", type=Path)
    _add_common_flags(analyze)

    example = sub.add_parser("example", help="run a built-in example system")
    example.add_argument("name")
    _add_common_flags(example)

    sub.add_parser("list-examples", help="list built-in example systems")

    validate = sub.add_parser("validate", help="check a request file without running it")
    validate.add_argument("file", type=Path)
    return parser


def _emit(text: str, out: Optional[Path]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _load_file(path: Path) -> bytes:
    try:
        return path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _analyze(source, args) -> None:
    request = parse_request(
        source,
        tolerance=args.tolerance,
        direction=args.direction,
        mechanisms=args.mechanisms,
    )
    _emit(render(run(request), args.format), args.out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            _analyze(_load_file(args.file), args)
        elif args.command == "example":
            _analyze(example_request(args.name), args)
        elif args.command == "list-examples":
            width = max(len(name) for name in EXAMPLES)
            for name, entry in EXAMPLES.items():
                sys.stdout.write(f"{name.ljust(width)}  {entry['description']}\n")
        elif args.command == "validate":
            request = parse_request(_load_file(args.file))
            sys.stdout.write(
                f"OK: {request.backend} request, direction={request.direction}, "
                f"tolerance={request.tolerance:g}\n"
            )
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except Exception as exc:  # last resort: one line, never a traceback
        message = " ".join(str(exc).split())
        sys.stderr.write(f"internal error: {type(exc).__name__}: {message}\n")
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
