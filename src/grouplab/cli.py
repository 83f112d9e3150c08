"""Command-line front end: inspect fixtures, print series and algebras, run checks."""

import argparse
import sys
from pathlib import Path

from ._version import __version__
from .checks import run_checks
from .corpus import corpus_fixture
from .errors import GroupLabError
from .fixtures import _realized, parse_fixture
from .groups import build_group
from .liering import build_dl
from .series import (
    derived_series,
    dimension_series,
    lower_central_series,
    structure_predicates,
)


def _load(path: str):
    try:
        text = Path(path).read_text("utf-8")
    except (OSError, UnicodeDecodeError) as exc:  # an unreadable input, not a fault
        raise GroupLabError(str(exc)) from exc
    return parse_fixture(text)


def _cmd_info(args) -> int:
    """List the file's entries; each group is built alone, and those that fail are reported last."""
    fx = _load(args.file)
    failed = []
    for entry in fx.groups:
        try:
            G = _realized("group", entry.name, build_group, entry.presentation)
        except GroupLabError as exc:
            failed.append(str(exc))
            continue
        gens = ", ".join(G.generator_names)
        print(
            f"group {entry.name}: backend {entry.backend}, order {G.order}, "
            f"exponent {G.exponent()}, generators {gens}"
        )
    for entry in fx.auts:
        print(f"aut {entry.name}: acts on {entry.group}")
    for entry in fx.actions:
        print(
            f"action {entry.name}: on {entry.group} generated by "
            + (", ".join(entry.auts) if entry.auts else "nothing (trivial)")
        )
    for req in fx.checks:
        tail = "".join(f" {k}={v}" for k, v in req.params)
        print(f"check {req.check} on {req.target}{tail}")
    for message in failed:
        print(f"error: {message}", file=sys.stderr)
    return 2 if failed else 0


def _named_group(args):
    """The group named by --group, built alone; None, once reported, if the file has none."""
    for entry in _load(args.file).groups:
        if entry.name == args.group:
            return _realized("group", entry.name, build_group, entry.presentation)
    print(f"no group named {args.group!r} in {args.file}", file=sys.stderr)
    return None


def _cmd_series(args) -> int:
    G = _named_group(args)
    if G is None:
        return 2
    profile = structure_predicates(G)
    print(f"group {args.group}: order {G.order}, exponent {profile.exponent}")
    print(f"lower central series orders:   {lower_central_series(G).orders()}")
    print(f"derived series orders:         {derived_series(G).orders()}")
    if profile.p_group is not None:
        series = dimension_series(G)
        print(f"p-dimension series orders:     {series.orders()}")
    else:
        print("p-dimension series:            (only defined for p-groups)")
    print(
        f"nilpotent: {profile.is_nilpotent}"
        + (
            f" (class {profile.nilpotency_class})"
            if profile.is_nilpotent
            else ""
        )
    )
    print(
        f"solvable: {profile.is_solvable}"
        + (
            f" (derived length {profile.derived_length})"
            if profile.is_solvable
            else ""
        )
    )
    return 0


def _cmd_liering(args) -> int:
    G = _named_group(args)
    if G is None:
        return 2
    L = build_dl(G)
    print(f"graded algebra of {args.group} over F_{L.p}")
    print(f"component dims: {list(L.dims)} (total {L.total_dim})")
    print(f"nilpotency class: {L.nilpotency_class()}")
    for (i, j), table in L.sc.items():
        di, dj, _ = table.shape
        for a in range(di):
            for b in range(dj):
                vec = table[a, b]
                if vec.any():
                    coeffs = " + ".join(
                        (f"{c}*" if c != 1 else "") + f"e{i + j}_{k + 1}"
                        for k, c in enumerate(vec)
                        if c
                    )
                    print(f"[e{i}_{a + 1}, e{j}_{b + 1}] = {coeffs}")
    return 0


def _run_and_report(fx, args) -> int:
    report = run_checks(fx, args.select, timings=args.timings)
    sys.stdout.write(report.to_table())
    if args.report:
        try:
            Path(args.report).write_text(report.to_json(), encoding="utf-8")
        except OSError as exc:
            raise GroupLabError(str(exc)) from exc
        print(f"wrote {args.report}")
    return 1 if report.has_failures else 0


def _cmd_check(args) -> int:
    return _run_and_report(_load(args.file), args)


def _cmd_corpus(args) -> int:
    return _run_and_report(corpus_fixture(), args)


def _add_run_flags(sub) -> None:
    sub.add_argument("--select", action="append", default=None,
                     help="check names, comma-separated or repeated (default: all)")
    sub.add_argument("--report", metavar="OUT", default=None,
                     help="write the machine-readable report to this path")
    sub.add_argument("--timings", action="store_true",
                     help="record real elapsed times (reports stop being "
                          "byte-reproducible)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="grouplab",
        description="Finite groups, their graded Lie rings, and lemma checks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("info", help="list the contents of a fixture file")
    sub.add_argument("file")
    sub.set_defaults(fn=_cmd_info)

    sub = commands.add_parser("series", help="print the series of one group")
    sub.add_argument("file")
    sub.add_argument("--group", required=True)
    sub.set_defaults(fn=_cmd_series)

    sub = commands.add_parser("liering", help="print the graded algebra of one group")
    sub.add_argument("file")
    sub.add_argument("--group", required=True)
    sub.set_defaults(fn=_cmd_liering)

    sub = commands.add_parser("check", help="run checks against a fixture file")
    sub.add_argument("file")
    _add_run_flags(sub)
    sub.set_defaults(fn=_cmd_check)

    sub = commands.add_parser("corpus", help="run checks against the bundled corpus")
    _add_run_flags(sub)
    sub.set_defaults(fn=_cmd_corpus)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GroupLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
