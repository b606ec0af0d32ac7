"""Command line interface.

Subcommands: gram-space, enumerate, factor, two-squares, table, verify.
Exit codes: 0 success, 2 input error, 3 solver failure (path budget or
iteration budget exhausted, or a start system too large to track), 4
verification failure.  Reports are emitted
as JSON with sorted keys, so runs with equal seeds produce byte-identical
files.
"""

import argparse
import json
import re
import sys

from . import __version__
from .biform import BinaryForm, TermPoly, rational_from_json
from .binary_sos import enumerate_rank_two, enumerate_two_squares, rep_forms, roots
from .cones import enumerate_cone
from .enumerator import enumerate_rank
from .errors import (
    DimensionMismatch,
    IterationBudgetExceeded,
    MinsosError,
    PathFailureBudgetExceeded,
    SystemTooLarge,
)
from .factorization import SymMatrixPoly, factor, factor_residual
from .gram import (
    Representation,
    basis_from_json,
    build_gram_space,
    gram_residual,
    verify_representation,
)
from .sampling import distinct_seeds, random_positive_form
from .surfaces import CONE_RNC, cone_rnc, scroll, veronese

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4

SOLVER_ERRORS = (PathFailureBudgetExceeded, IterationBudgetExceeded, SystemTooLarge)

# a result verifies when its residual is at most VERIFY_TOL times
# max(1, largest coefficient of the input)
VERIFY_TOL = 1e-8

DEFAULT_TABLE_SURFACES = "cone_rnc(4),scroll(2,2),scroll(3,1)"

# commas inside scroll(d,e) are not list separators
_LIST_SPLIT = re.compile(r",(?![^(]*\))")

_SURFACE_RE = re.compile(
    r"^\s*(?:(scroll)\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)"
    r"|(cone_rnc)\s*\(\s*(\d+)\s*\)"
    r"|(veronese))\s*$"
)


def parse_surface(text):
    m = _SURFACE_RE.match(text)
    if not m:
        raise ValueError(
            "cannot parse surface %r; use scroll(d,e), cone_rnc(d), or veronese"
            % text
        )
    if m.group(1):
        return scroll(int(m.group(2)), int(m.group(3)))
    if m.group(4):
        return cone_rnc(int(m.group(5)))
    return veronese()


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def form_from_json(data):
    """A form from its JSON: TermPoly (nvars, or the older degST) or binary form."""
    if "nvars" in data or "degST" in data:
        return TermPoly.from_json(data)
    if "deg" in data or "coeffs" in data:
        return BinaryForm.from_json(data)
    raise ValueError("unrecognized form JSON")


def load_form(path):
    """Read a form file: sparse form or binary form JSON, coefficients as stored."""
    return form_from_json(load_json(path))


def write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def emit(args, payload):
    if getattr(args, "json_out", None):
        write_json(args.json_out, payload)
        print("report written to %s" % args.json_out)


def _verified(residual, max_coeff):
    return residual <= VERIFY_TOL * max(1.0, float(abs(max_coeff)))


def _worst_residual(report):
    """The largest re-verification residual of a count report, or None."""
    residuals = [entry.get("verify_residual") for entry in report.entries]
    return max((r for r in residuals if r is not None), default=None)


def _entries_verified(report, form):
    """Whether every re-verified entry of a count report is within bound."""
    worst = _worst_residual(report)
    return worst is None or _verified(worst, form.max_abs_coeff())


def _fmt_theta(theta):
    return "(" + ", ".join("%+.10g" % float(v) for v in theta) + ")"


# -- commands ---------------------------------------------------------------


def cmd_gram_space(args):
    spec = parse_surface(args.surface)
    form = load_form(args.form)
    space = build_gram_space(form, spec)
    print("surface: %s" % spec)
    print("basis size N = %d, family dimension k = %d" % (space.size, space.kdim))
    print("basis: " + ", ".join(space.basis.label(i) for i in range(space.size)))
    emit(
        args,
        {"kind": "gramSpace", "surface": str(spec), "space": space.to_json()},
    )
    return EXIT_OK


def _enumerate(form, spec, seed):
    """Count report of the rank-3 Gram matrices of a form: the apex reduction
    on cones, the homotopy over the Gram space otherwise."""
    if spec.kind == CONE_RNC:
        return enumerate_cone(form, spec)
    return enumerate_rank(build_gram_space(form, spec), rank=3, seed=seed)


def cmd_enumerate(args):
    spec = parse_surface(args.surface)
    form = load_form(args.form)
    report = _enumerate(form, spec, args.seed)
    solutions_json = report.solution_set.to_json() if report.solution_set else None
    for line in report.summary_lines():
        print(line)
    for entry in report.entries:
        tag = "psd" if entry["psd"] else "indefinite"
        resid = entry.get("verify_residual")
        resid_txt = "" if resid is None else "  residual %.3e" % resid
        print(
            "%-10s theta = %s  inertia %s%s"
            % (tag, _fmt_theta(entry["theta"]), tuple(entry["inertia"]), resid_txt)
        )
    payload = {
        "kind": "enumeration",
        "surface": str(spec),
        "seed": args.seed,
        "rank": 3,
        "form": form.to_json(),
        "report": report.to_json(),
        "solutions": solutions_json,
    }
    emit(args, payload)
    if not _entries_verified(report, form):
        print("FAIL: residual above bound", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_factor(args):
    data = load_json(args.matrix)
    A = SymMatrixPoly.from_json(data)
    result = factor(A)
    print(
        "factored %d x %d matrix, degree pattern %s, %d columns, rank %d"
        % (A.n, A.n, result.heights, result.ncols, result.rank)
    )
    print("residual %.3e (bound %.1e relative)" % (result.residual, VERIFY_TOL))
    info = result.info
    if info["route"] == "branch":
        print("route: branch (root separation %.3e, class residual %.3e)"
              % (info["rootSeparation"], info["classResidual"]))
    elif info["route"] == "gram":
        print("route: gram (%d feasibility rounds)" % info["feasIterations"])
    else:
        print("route: " + info["route"])
    if result.warning:
        print("warning: " + result.warning)
    for i, row in enumerate(result.rows()):
        parts = []
        for entry in row:
            coeffs = ", ".join("%.6g" % complex(c).real for c in entry.coeffs)
            parts.append("[" + coeffs + "]")
        print("row %d: %s" % (i, "  ".join(parts)))
    payload = {
        "kind": "factorization",
        "matrix": A.to_json(),
        "result": result.to_json(),
    }
    emit(args, payload)
    if not _verified(result.residual, A.max_abs_coeff()):
        print("FAIL: residual above bound", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_two_squares(args):
    form = load_form(args.form)
    if not isinstance(form, BinaryForm):
        raise ValueError("two-squares expects a binary form JSON (deg + coeffs)")
    rm = roots(form)
    reps = enumerate_two_squares(form, rm)
    census = enumerate_rank_two(rm)
    print(
        "%d inequivalent two-squares representations (census: %s)"
        % (len(reps), census.counts)
    )
    rep_payload = []
    worst = 0.0
    for idx, rep in enumerate(reps):
        p, q = rep_forms(rep)
        resid = verify_representation(form, rep)
        worst = max(worst, resid)
        print(
            "rep %d: p = %s  q = %s  residual %.3e"
            % (
                idx,
                ["%.10g" % complex(c).real for c in p.coeffs],
                ["%.10g" % complex(c).real for c in q.coeffs],
                resid,
            )
        )
        rep_payload.append(
            {
                "representation": rep.to_json(),
                "p": [complex(c).real for c in p.coeffs],
                "q": [complex(c).real for c in q.coeffs],
                "residual": resid,
            }
        )
    payload = {
        "kind": "twoSquares",
        "form": form.to_json(),
        "count": len(reps),
        "representations": rep_payload,
        "census": census.to_json(),
    }
    emit(args, payload)
    if not _verified(worst, form.max_abs_coeff()):
        print("FAIL: residual above bound", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_table(args):
    names = [p for p in _LIST_SPLIT.split(args.surfaces) if p.strip()]
    specs = [parse_surface(p) for p in names]
    seeds = distinct_seeds(args.seed, 2 * len(specs))
    rows = []
    status = EXIT_OK
    for i, spec in enumerate(specs):
        form_seed, enum_seed = seeds[2 * i], seeds[2 * i + 1]
        form = random_positive_form(spec, seed=form_seed)
        report = _enumerate(form, spec, enum_seed)
        expected = report.expected
        got = report.counts
        flags = []
        if expected is not None:
            for key in ("psd", "real", "complex"):
                if got[key] != expected[key]:
                    flags.append("%s=%d (expected %d)" % (key, got[key], expected[key]))
        line = "%-14s psd %-4d real %-4d complex %-5d" % (
            str(spec),
            got["psd"],
            got["real"],
            got["complex"],
        )
        line += "  OK" if not flags else "  MISMATCH: " + "; ".join(flags)
        if flags:
            status = EXIT_VERIFY
        print(line)
        verified = _entries_verified(report, form)
        if not verified:
            print("FAIL: %s residual above bound" % spec, file=sys.stderr)
            status = EXIT_VERIFY
        if report.warning:
            print("  warning: " + report.warning)
        rows.append(
            {
                "surface": str(spec),
                "formSeed": form_seed,
                "enumSeed": enum_seed,
                "counts": dict(got),
                "expected": dict(expected) if expected else None,
                "deviations": flags,
                "warning": report.warning,
                "worstResidual": _worst_residual(report),
                "verified": verified,
            }
        )
    payload = {"kind": "table", "seed": args.seed, "rows": rows}
    emit(args, payload)
    return status


def _verify_squares(form, items, max_squares):
    """Failed indices among (label, index, representation JSON, psd) items.

    Each representation must verify against form within VERIFY_TOL, hold at
    most max_squares squares, and have only positive signs when psd.
    """
    failures = []
    for label, idx, rep_json, psd in items:
        rep = Representation.from_json(rep_json)
        resid = float(verify_representation(form, rep))
        ok = (
            _verified(resid, form.max_abs_coeff())
            and rep.nforms <= max_squares
            and not (psd and any(s != 1 for s in rep.signs))
        )
        print(
            "%s %d: residual %.3e, %d of at most %d squares  %s"
            % (label, idx, resid, rep.nforms, max_squares, "PASS" if ok else "FAIL")
        )
        if not ok:
            failures.append(idx)
    if not items:
        print("certificate holds no representations to verify")
    return failures


def _verify_enumeration(data):
    items = [
        ("entry", idx, entry["representation"], entry.get("psd"))
        for idx, entry in enumerate(data["report"]["entries"])
        if entry.get("representation") is not None
    ]
    return _verify_squares(form_from_json(data["form"]), items, int(data["rank"]))


def _verify_two_squares(data):
    items = [
        ("rep", idx, item["representation"], True)
        for idx, item in enumerate(data["representations"])
    ]
    return _verify_squares(form_from_json(data["form"]), items, 2)


def _verify_factorization(data):
    """The residual of the columns, and at most n+1 of them unless the
    result carries factor's rank-reduction warning."""
    A = SymMatrixPoly.from_json(data["matrix"])
    result = data["result"]
    columns = [[BinaryForm.from_json(f) for f in col] for col in result["columns"]]
    resid = factor_residual(A, columns)
    ok = _verified(resid, A.max_abs_coeff())
    print("factorization residual %.3e  %s" % (resid, "PASS" if ok else "FAIL"))
    if result.get("warning") is None and len(columns) > A.n + 1:
        print("%d columns, at most %d allowed  FAIL" % (len(columns), A.n + 1))
        ok = False
    return [] if ok else [0]


def _verify_gram_space(data):
    """Exact residuals of G0 and of every G0 + K_i: each must be zero."""
    space = data["space"]
    form = form_from_json(space["form"])
    basis = basis_from_json(space)
    n = len(basis)

    def matrix(rows):
        if len(rows) != n or any(len(row) != n for row in rows):
            raise DimensionMismatch("a Gram matrix is not %d x %d" % (n, n))
        return [[rational_from_json(v) for v in row] for row in rows]

    G0 = matrix(space["G0"])
    points = [("G0", G0)]
    for i, rows in enumerate(space["kernel"]):
        shifted = [[g + x for g, x in zip(rg, rk)] for rg, rk in zip(G0, matrix(rows))]
        points.append(("G0 + K%d" % i, shifted))
    failures = []
    for idx, (name, G) in enumerate(points):
        resid = gram_residual(form, basis, G)
        print("%s: residual %s  %s" % (name, resid, "PASS" if resid == 0 else "FAIL"))
        if resid != 0:
            failures.append(idx)
    return failures


_VERIFIERS = {
    "enumeration": _verify_enumeration,
    "twoSquares": _verify_two_squares,
    "factorization": _verify_factorization,
    "gramSpace": _verify_gram_space,
}


def cmd_verify(args):
    data = load_json(args.certificate)
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind not in _VERIFIERS:
        raise ValueError("certificate kind %r is not verifiable" % (kind,))
    try:
        failures = _VERIFIERS[kind](data)
    except (TypeError, AttributeError) as exc:
        # a number where the layout holds a list, or a list where it holds an object
        raise ValueError("malformed certificate: %s" % exc) from exc
    if failures:
        print("verification FAILED (%d item(s))" % len(failures), file=sys.stderr)
        return EXIT_VERIFY
    print("verification passed")
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def _add_json_out(p):
    p.add_argument("--json-out", metavar="PATH", help="write the full JSON report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="minsos",
        description="Low-rank sum-of-squares certificates on surfaces of minimal degree.",
    )
    parser.add_argument("--version", action="version", version="minsos " + __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gram-space", help="build and print the Gram family of a form")
    p.add_argument("form", help="form JSON file")
    p.add_argument("--surface", required=True, help="scroll(d,e), cone_rnc(d), veronese")
    _add_json_out(p)
    p.set_defaults(func=cmd_gram_space)

    p = sub.add_parser("enumerate", help="enumerate rank-3 Gram matrices of a form")
    p.add_argument("form", help="form JSON file")
    p.add_argument("--surface", required=True, help="scroll(d,e), cone_rnc(d), veronese")
    p.add_argument("--seed", type=int, default=0, help="master seed (uint64)")
    _add_json_out(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("factor", help="factor a psd matrix polynomial as B B^T")
    p.add_argument("matrix", help="symmetric matrix JSON file")
    _add_json_out(p)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("two-squares", help="all two-squares representations of a binary form")
    p.add_argument("form", help="binary form JSON file")
    _add_json_out(p)
    p.set_defaults(func=cmd_two_squares)

    p = sub.add_parser("table", help="reproduce the representation-count table")
    p.add_argument(
        "--surfaces",
        default=DEFAULT_TABLE_SURFACES,
        help="comma-separated surface list (veronese is opt-in; default: %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, help="master seed (uint64)")
    _add_json_out(p)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="re-verify an emitted certificate file")
    p.add_argument(
        "certificate", help="JSON report from enumerate/factor/two-squares/gram-space"
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SOLVER_ERRORS as exc:
        print("solver failure: %s" % exc, file=sys.stderr)
        return EXIT_SOLVER
    except MinsosError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
