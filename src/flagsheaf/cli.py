"""Command-line front end.

Subcommands
-----------
flags     betti / gtable / verify          (Schubert tables)
sheaf     stalk / sections / delta         (windowed sheaf queries)
pipeline  crosscheck / hom / certificate / pair / spectrum
numerics  randomized matrix-lemma trials

Exit codes: 0 success, 1 configuration error, 2 verification failure,
3 margin violation.  Exact rationals are passed and printed as "p/q"
strings; JSON output is byte-stable for a fixed configuration and
seed.  FLAGSHEAF_OUTDIR sets the default directory for --out paths.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .flag_schubert import (
    FlagType,
    all_flag_types,
    betti,
    g_space,
    verify_free_decomposition,
)
from .lie_numerics import NonConvergenceError, run_trials
from .pipeline import (
    DEFAULT_ACTION_WINDOW,
    DEFAULT_D_GRID,
    DEFAULT_DEGREE_WINDOW,
    MarginError,
    OrbitParams,
    certificate,
    crosscheck_stalks,
    model_jump,
    h_graded,
    jump_spectrum,
    normalization_shift,
    pair_hom,
    required_stalk_box,
    build_cone_model,
    resolve_window,
)
from .root_system import CenterClass, IntegrityError, cartan
from .sheaf_complex import (
    UMinusOpen,
    UOpen,
    build_standard_complex,
    sections_complex,
    stalk_complex,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFICATION = 2
EXIT_MARGIN = 3


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise ConfigError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r} ({exc})")


def _coords(text: str | None, n: int, flag: str) -> tuple[Fraction, ...]:
    if text is None:
        raise ConfigError(f"{flag} is required ({n - 1} rationals)")
    parts = [p for p in text.split(",") if p.strip() != ""]
    if len(parts) != n - 1:
        raise ConfigError(
            f"expected {n - 1} comma-separated rationals, got {text!r}"
        )
    return tuple(_fraction(p) for p in parts)


def _subset(text: str) -> tuple[int, ...]:
    if text.strip() == "":
        return ()
    try:
        return tuple(sorted({int(p) for p in text.split(",")}))
    except ValueError:
        raise ConfigError(f"not a comma list of indices: {text!r}")


def _lattice_window(text: str | None, n: int):
    """Window syntax: 'lo:hi' for all coordinates or comma list of
    per-coordinate lo:hi pairs."""
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) == 1:
        parts = parts * (n - 1)
    if len(parts) != n - 1:
        raise ConfigError(f"window needs 1 or {n - 1} ranges, got {text!r}")
    box = []
    for part in parts:
        try:
            lo, hi = part.split(":")
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise ConfigError(f"bad window range {part!r}")
        if lo > hi:
            raise ConfigError(f"empty window range {part!r}")
        box.append((lo, hi))
    return tuple(box)


def _pair_window(text: str | None, default, cast):
    if text is None:
        return default
    try:
        lo, hi = text.split(":")
        lo, hi = cast(lo), cast(hi)
    except ValueError:
        raise ConfigError(f"bad window {text!r}, expected lo:hi")
    if lo > hi:
        raise ConfigError(f"empty window {text!r}")
    return (lo, hi)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _check_n(n: int) -> int:
    if n < 2:
        raise ConfigError(f"rank parameter must be >= 2, got {n}")
    return n


def _emit(payload: dict, args) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif fmt == "csv":
        text = _to_csv(payload)
    else:
        text = _pretty(payload)
    out = getattr(args, "out", None)
    if out:
        outdir = os.environ.get("FLAGSHEAF_OUTDIR", ".")
        path = out if os.path.isabs(out) else os.path.join(outdir, out)
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = _csv_rows(payload)
    writer.writerow(["key", "degree", "dim"])
    writer.writerows(rows)
    return buf.getvalue()


def _csv_rows(payload, prefix="") -> list:
    rows = []
    if isinstance(payload, dict):
        if payload and all(
            isinstance(v, int) and _is_int_key(k) for k, v in payload.items()
        ):
            for k in sorted(payload, key=int):
                rows.append([prefix, int(k), payload[k]])
        else:
            for k in payload:
                sub = f"{prefix}/{k}" if prefix else str(k)
                rows.extend(_csv_rows(payload[k], sub))
    return rows


def _is_int_key(k) -> bool:
    try:
        int(k)
        return True
    except (TypeError, ValueError):
        return False


def _pretty(payload: dict) -> str:
    lines = []

    def walk(node, depth):
        pad = "  " * depth
        if isinstance(node, dict):
            for k in node:
                v = node[k]
                if isinstance(v, (dict, list)) and v:
                    lines.append(f"{pad}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}{k}: {v}")
        elif isinstance(node, list):
            for item in node:
                if isinstance(item, (dict, list)):
                    walk(item, depth + 1)
                    lines.append("")
                else:
                    lines.append(f"{pad}- {item}")

    walk(payload, 0)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_flags(args) -> int:
    n = _check_n(args.n)
    if args.action == "betti":
        tables = {}
        targets = (
            [FlagType(n, _subset(args.i))]
            if args.i is not None
            else all_flag_types(n)
        )
        for ft in targets:
            key = ",".join(map(str, ft.indices))
            tables[key] = betti(ft).to_json()
        _emit({"n": n, "betti": tables}, args)
        return EXIT_OK
    if args.action == "gtable":
        tables = {}
        for ft in all_flag_types(n):
            key = ",".join(map(str, ft.indices))
            tables[key] = g_space(ft).to_json()
        _emit({"n": n, "g": tables}, args)
        return EXIT_OK
    # verify
    failures = []
    for ft in all_flag_types(n):
        report = verify_free_decomposition(ft)
        if not report.ok:
            failures.append(
                {
                    "i": ",".join(map(str, ft.indices)),
                    "mismatch": report.first_mismatch,
                }
            )
    _emit({"n": n, "failures": failures, "ok": not failures}, args)
    return EXIT_OK if not failures else EXIT_VERIFICATION


def _cmd_sheaf(args) -> int:
    n = _check_n(args.n)
    z = CenterClass(n, args.z)
    window = _lattice_window(args.window, n)
    if args.action == "stalk":
        p = cartan(n, _coords(args.point, n, "--point"))
        required = required_stalk_box(p)
        window = resolve_window(window, required, f"stalk at {p}")
        model = build_cone_model(n, z, window)
        dims = stalk_complex(model, z, p).cohomology()
        _emit(
            {
                "n": n,
                "z": z.residue,
                "point": [str(c) for c in p.coords],
                "window": [list(b) for b in window],
                "margin_certified": True,
                "stalk": dims.to_json(),
            },
            args,
        )
        return EXIT_OK
    if args.action == "sections":
        x = cartan(n, _coords(args.point, n, "--point"))
        u = UMinusOpen(x) if args.u_kind == "uminus" else UOpen(x)
        if window is None:
            raise ConfigError("sections require an explicit --window")
        model = build_standard_complex(n, window)
        dims = sections_complex(model, z, u).cohomology()
        _emit(
            {
                "n": n,
                "z": z.residue,
                "u_kind": args.u_kind,
                "x": [str(c) for c in x.coords],
                "window": [list(b) for b in window],
                "sections": dims.to_json(),
            },
            args,
        )
        return EXIT_OK
    # delta
    m = cartan(n, _coords(args.m, n, "--m"))
    idx = _subset(args.i)
    dims = model_jump(
        n, z, idx, m, eps=_fraction(args.eps), window=window
    )
    _emit(
        {
            "n": n,
            "z": z.residue,
            "i": ",".join(map(str, idx)),
            "m": [str(c) for c in m.coords],
            "margin_certified": True,
            "delta": dims.to_json(),
        },
        args,
    )
    return EXIT_OK


def _crosscheck_task(task):
    n, z, samples, seed, window = task
    return crosscheck_stalks(
        n, CenterClass(n, z), samples, seed=seed, window=window
    )


def _cmd_pipeline(args) -> int:
    n = _check_n(args.n)
    lam = _fraction(args.lam)
    params = OrbitParams(n, lam)
    degree_window = _pair_window(
        args.degree_window, DEFAULT_DEGREE_WINDOW, int
    )
    action_window = _pair_window(
        args.action_window, DEFAULT_ACTION_WINDOW, Fraction
    )
    d_grid = (
        tuple(_fraction(d) for d in args.d_grid.split(","))
        if args.d_grid
        else DEFAULT_D_GRID
    )
    if args.action == "crosscheck":
        if args.samples < 0:
            raise ConfigError("sample count must be nonnegative")
        residues = (
            range(n) if args.z == "all" else [int(args.z)]
        )
        tasks = [
            (n, z, args.samples, args.seed, _lattice_window(args.window, n))
            for z in residues
        ]
        if args.jobs > 1 and len(tasks) > 1:
            # order-preserving map keeps output deterministic
            import multiprocessing

            with multiprocessing.Pool(min(args.jobs, len(tasks))) as pool:
                reports = pool.map(_crosscheck_task, tasks)
        else:
            reports = [_crosscheck_task(t) for t in tasks]
        payload = {
            "n": n,
            "seed": args.seed,
            "reports": [r.to_json() for r in reports],
            "ok": all(r.ok for r in reports),
        }
        _emit(payload, args)
        return EXIT_OK if payload["ok"] else EXIT_VERIFICATION
    if args.action == "hom":
        rec = h_graded(
            params, _subset(args.i), _fraction(args.d),
            degree_window, action_window,
        )
        _emit(
            {
                "n": n,
                "lambda": str(lam),
                "i": ",".join(map(str, rec.indices)),
                "d": str(rec.d),
                "normalization_shift": normalization_shift(n),
                "h_graded": rec.graded.to_json(),
                "elements": [e.to_json() for e in rec.elements],
            },
            args,
        )
        return EXIT_OK
    if args.action == "certificate":
        report = certificate(
            params, d_grid, degree_window, action_window
        )
        _emit(report.to_json(), args)
        return EXIT_OK if report.verdict in (True, None) else EXIT_VERIFICATION
    if args.action == "pair":
        d = _fraction(args.d)
        dims = pair_hom(
            params, args.side_a, args.side_b, d,
            degree_window, action_window, char_two=args.char2,
        )
        _emit(
            {
                "n": n,
                "lambda": str(lam),
                "sides": [args.side_a, args.side_b],
                "d": str(d),
                "char2": args.char2,
                "pair_hom": dims.to_json(),
            },
            args,
        )
        return EXIT_OK
    # spectrum
    window = _pair_window(
        args.action_window, (Fraction(0), Fraction(3)), Fraction
    )
    idx = _subset(args.i)
    values = jump_spectrum(
        params, idx, action_window=window, degree_window=degree_window,
    )
    _emit(
        {
            "n": n,
            "lambda": str(lam),
            "i": ",".join(map(str, idx)),
            "window": [str(window[0]), str(window[1])],
            "spectrum": [str(v) for v in values],
        },
        args,
    )
    return EXIT_OK


def _cmd_numerics(args) -> int:
    n = _check_n(args.n)
    if args.trials < 0:
        raise ConfigError("trial count must be nonnegative")
    payload = {"n": n, "seed": args.seed, "trials": args.trials}
    if args.trials == 0:
        payload["warning"] = "no trials requested; vacuous pass"
        payload["lemmas"] = []
        _emit(payload, args)
        return EXIT_OK
    stats = run_trials(n, args.trials, seed=args.seed, corrupt=args.corrupt)
    payload["lemmas"] = [s.to_json() for s in stats]
    failures = sum(s.failures for s in stats)
    payload["failures"] = failures
    _emit(payload, args)
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> _Parser:
    parser = _Parser(prog="flagsheaf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, required=True)
        p.add_argument(
            "--format", choices=("json", "csv", "pretty"), default="json"
        )
        p.add_argument("--out", default=None)

    p_flags = sub.add_parser("flags", help="Schubert tables")
    p_flags.add_argument("action", choices=("betti", "gtable", "verify"))
    common(p_flags)
    p_flags.add_argument("--i", default=None, help="single subset, comma list")

    p_sheaf = sub.add_parser("sheaf", help="windowed sheaf queries")
    p_sheaf.add_argument("action", choices=("stalk", "sections", "delta"))
    common(p_sheaf)
    p_sheaf.add_argument("--z", type=int, default=0)
    p_sheaf.add_argument("--point", default=None, help="rational coords p/q")
    p_sheaf.add_argument("--u-kind", choices=("uopen", "uminus"),
                         default="uopen", dest="u_kind")
    p_sheaf.add_argument("--i", default="")
    p_sheaf.add_argument("--m", default=None)
    p_sheaf.add_argument("--eps", default="1/2")
    p_sheaf.add_argument("--window", default=None)

    p_pipe = sub.add_parser("pipeline", help="cross-checks and certificates")
    p_pipe.add_argument(
        "action",
        choices=("crosscheck", "hom", "certificate", "pair", "spectrum"),
    )
    common(p_pipe)
    p_pipe.add_argument("--lambda", dest="lam", default="1")
    p_pipe.add_argument("--z", default="all")
    p_pipe.add_argument("--seed", type=int, default=0)
    p_pipe.add_argument("--samples", type=int, default=100)
    p_pipe.add_argument("--i", default="")
    p_pipe.add_argument("--d", default="0")
    p_pipe.add_argument("--d-grid", dest="d_grid", default=None)
    p_pipe.add_argument("--degree-window", dest="degree_window", default=None)
    p_pipe.add_argument("--action-window", dest="action_window", default=None)
    p_pipe.add_argument("--window", default=None)
    p_pipe.add_argument("--jobs", type=_positive_int, default=1)
    p_pipe.add_argument("--side-a", dest="side_a", default="diagonal")
    p_pipe.add_argument("--side-b", dest="side_b", default="diagonal")
    p_pipe.add_argument("--char2", action="store_true")

    p_num = sub.add_parser("numerics", help="matrix lemma trials")
    common(p_num)
    p_num.add_argument("--trials", type=int, default=1000)
    p_num.add_argument("--seed", type=int, default=0)
    p_num.add_argument(
        "--corrupt", action="store_true",
        help="inject one corrupted fixture (exercises the failure path)",
    )
    return parser


# commands whose reports hold no graded table, so csv would carry only
# its header; refused before any work runs
_NO_GRADED_TABLE = {("flags", "verify"), ("pipeline", "crosscheck"),
                    ("pipeline", "spectrum"), ("numerics", None)}

_VALUE_FLAGS = {
    "--point", "--m", "--d", "--lambda", "--eps", "--window",
    "--degree-window", "--action-window", "--d-grid",
}


def _merge_negative_values(argv: list[str]) -> list[str]:
    """Join '--flag -5/2' into '--flag=-5/2' so rational values with a
    leading minus survive argparse."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if (
            tok in _VALUE_FLAGS
            and nxt is not None
            and nxt.startswith("-")
            and len(nxt) > 1
            and (nxt[1].isdigit() or nxt[1] == ".")
        ):
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _merge_negative_values(list(argv))
    try:
        args = parser.parse_args(argv)
        command = (args.command, getattr(args, "action", None))
        if args.format == "csv" and command in _NO_GRADED_TABLE:
            raise ConfigError(
                "this report holds no graded table for csv; "
                "use --format json or pretty"
            )
        if args.command == "flags":
            return _cmd_flags(args)
        if args.command == "sheaf":
            return _cmd_sheaf(args)
        if args.command == "pipeline":
            return _cmd_pipeline(args)
        return _cmd_numerics(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MarginError as exc:
        print(f"margin violation: {exc}", file=sys.stderr)
        return EXIT_MARGIN
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrityError, NonConvergenceError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
