"""Command-line front end.

Subcommands:
    list        algebras, forms, and structures with parameter domains
    verify      axiom + curvature + label verification (exit 1 on failures)
    extend      para-Sasakian extension checks (exit 1 on nonzero residuals)
    report      full run (verify + extend), writes a json/markdown document
    check-file  validate an external catalog document

Exit codes: 0 clean, 1 mathematical discrepancies/failures, 2 usage errors
(including a path that cannot be read or written), 3 infrastructure errors
(expression-size guard, sampling exhaustion, and any other exception, which
is reported on one line as ``internal error: <Type>: <message>``).
Published-value mismatches that pass all axioms are reported but only flip
the exit code under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from .catalog import Catalog, CatalogFormatError, builtin_catalog, load_catalog
from .expressions import ExpressionBlowupError, format_expr
from .sampling import SamplingError
from .verify import RunConfig, render_report, verify_all

EXIT_OK = 0
EXIT_DISCREPANCY = 1
EXIT_USAGE = 2
EXIT_INFRASTRUCTURE = 3


class UsageError(ValueError):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parakahler",
        description=(
            "Exact verification of the builtin catalog of para-Kahler "
            "structures on four-dimensional Lie algebras and of their "
            "five-dimensional para-Sasakian central extensions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0, help="sampling seed")
        p.add_argument("--samples", type=int, default=20, help="parameter samples per entry")
        p.add_argument("--format", dest="fmt", choices=("json", "markdown"), default="json")
        p.add_argument("--catalog", default=None, help="path to an external catalog document")
        p.add_argument("--filter", dest="entry_filter", default=None, help="glob on structure ids")
        p.add_argument("--strict", action="store_true", help="treat published-value mismatches as failures")
        p.add_argument("--out", default=None, help="write the rendered report to this path")

    sub.add_parser("list", help="list algebras, forms, and structures")
    for name, help_text in (
        ("verify", "run axiom and curvature verification"),
        ("extend", "verify the para-Sasakian extension identities"),
        ("report", "full verification run, written as a document"),
    ):
        common(sub.add_parser(name, help=help_text))
    check = sub.add_parser("check-file", help="validate an external catalog document")
    check.add_argument("path", help="catalog JSON file")
    return parser


def _load(path: Optional[str]) -> Catalog:
    """The catalog document at ``path``, or the builtin catalog.  Text that is not
    JSON in UTF-8, holds a number longer than the interpreter's digit limit, or
    nests deeper than the JSON decoder can recurse, is a catalog error."""
    if not path:
        return builtin_catalog()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            document = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CatalogFormatError("$", str(exc)) from exc
        except ValueError as exc:  # int() refused a number past the digit limit
            raise CatalogFormatError("$", "a number has too many digits to read") from exc
        except RecursionError as exc:  # arrays or objects nested past the stack
            raise CatalogFormatError("$", "the JSON nests too deeply to read") from exc
    return load_catalog(document)


def _config(args) -> RunConfig:
    if args.samples < 1:
        raise UsageError("--samples must be at least 1")
    return RunConfig(
        seed=args.seed,
        samples=args.samples,
        strict=args.strict,
        entry_filter=args.entry_filter,
    )


def _check_out(args) -> None:
    """Refuse an ``--out`` path that cannot be written, before the run and
    without opening it, so that an existing report survives a failed run."""
    path = args.out
    if path and (
        os.path.isdir(path)
        or not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK)
    ):
        raise UsageError(
            f"cannot write --out {path}: it is a directory, or its directory "
            "is missing or not writable"
        )


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_list(args) -> int:
    catalog = builtin_catalog()
    print(f"{len(catalog.algebras)} algebras, {len(catalog.entries)} structures")
    for name in catalog.algebras:
        algebra = catalog.algebras[name]
        domains = ", ".join(
            f"{pname} ({_domain_text(dom)})" for pname, dom in algebra.params
        ) or "none"
        forms = [fid for (alg, fid) in catalog.forms if alg == name]
        entries = [e for e in catalog.entries if e.algebra == name]
        print(f"- {name}: dim {algebra.dim}; parameters: {domains}")
        for fid in forms:
            form = catalog.forms[(name, fid)]
            body = " + ".join(
                f"({format_expr(v)})*e{i}^e{j}" for i, j, v in form.terms()
            )
            ids = [e.entry_id for e in entries if e.form == fid]
            print(f"    {fid}: {body}  [{len(ids)} structures]")
            for sid in ids:
                print(f"        {sid}")
    return EXIT_OK


def _domain_text(dom) -> str:
    if dom.kind == "free":
        return "free"
    if dom.kind == "positive":
        return "> 0"
    # the interval ``ParamDomain.admits`` accepts: lo <= x < hi
    lo = "(-inf" if dom.lo is None else f"[{dom.lo}"
    hi = "+inf" if dom.hi is None else str(dom.hi)
    text = f"in {lo}, {hi})"
    if dom.excluded:
        text += ", excluding " + ", ".join(str(v) for v in dom.excluded)
    return text


def _exit_code(report: dict, strict: bool) -> int:
    summary = report["summary"]
    if summary["failures"] or not summary["gates_ok"]:
        return EXIT_DISCREPANCY
    if summary.get("sasakian_failures"):
        return EXIT_DISCREPANCY
    if strict and summary["discrepancies"]:
        return EXIT_DISCREPANCY
    return EXIT_OK


def _cmd_run(args) -> int:
    """``verify``, ``extend`` and ``report``: a report is the rendered document;
    the other two print one line per finding and write it only with ``--out``."""
    _check_out(args)
    catalog = _load(args.catalog)
    config = _config(args)
    if config.entry_filter is not None and not catalog.select(config.entry_filter):
        raise UsageError(f"--filter {config.entry_filter!r} matches no structure id")
    report = verify_all(catalog, config, include_extensions=args.command != "verify")
    if args.out or args.command == "report":
        _emit(args, render_report(report, args.fmt))
    if args.command == "report":
        return _exit_code(report, config.strict)
    for f in report["entries"]:
        status = f["status"]
        marker = {"ok": "ok", "discrepancy": "DISCREPANCY", "failure": "FAILURE"}[status]
        detail = ""
        if status != "ok":
            label = f["label"]
            bad_axioms = [k for k, v in f["axioms"].items() if not v["ok"]]
            if bad_axioms:
                detail = f" axiom={','.join(bad_axioms)}"
            elif f["metric"]["symmetric"] and label["computed"] is None:
                # a metric without curvature: verify_entry found the form degenerate
                detail = " degenerate-form"
            elif not label["match"]:
                detail = f" label {label['expected']}->{label['computed']}"
            elif f["ric_comparison"]["residuals"]:
                detail = " ric-differs"
        print(f"{marker:12s} {f['id']}{detail}")
    for f in report.get("sasakian", ()):
        print(f"{'ok' if f['status'] == 'ok' else 'FAILURE':12s} sasakian {f['id']}")
    s = report["summary"]
    print(
        f"verified {s['total']} structures: {s['ok']} clean, "
        f"{s['discrepancies']} documented discrepancies, {s['failures']} failures"
    )
    if "sasakian" in report:
        print(
            f"extensions: {s['sasakian_ok']} clean, {s['sasakian_failures']} failures"
        )
    return _exit_code(report, config.strict)


def _cmd_check_file(args) -> int:
    catalog = _load(args.path)
    print(
        f"OK: {len(catalog.algebras)} algebras, "
        f"{len(catalog.entries)} structures, "
        f"{len(catalog.forms)} forms"
    )
    return EXIT_OK


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command in ("verify", "extend", "report"):
            return _cmd_run(args)
        if args.command == "check-file":
            return _cmd_check_file(args)
        return EXIT_USAGE
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CatalogFormatError as exc:
        print(f"catalog error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # a missing file, a directory, no permission
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ExpressionBlowupError, SamplingError) as exc:
        print(f"infrastructure error: {exc}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE
    except Exception as exc:  # a bug, not a finding: never exit 1 for it
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INFRASTRUCTURE


if __name__ == "__main__":
    sys.exit(main())
