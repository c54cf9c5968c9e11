"""Command-line front end.

Subcommands
-----------
flags     betti / gtable / verify          (Schubert tables)
sheaf     stalk / sections / delta         (windowed sheaf queries)
pipeline  crosscheck / hom / certificate / pair / spectrum
numerics  randomized matrix-lemma trials

Options follow the action, and each action accepts only the options it
reads.  Exit codes: 0 success, 1 configuration error, 2 verification
failure, 3 margin violation.  Exact rationals are passed and printed as
"p/q" strings; JSON output is byte-stable for a fixed configuration and
seed.  FLAGSHEAF_OUTDIR sets the default directory for --out paths.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import json
import os
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .flag_schubert import (
    FlagType,
    all_flag_types,
    betti,
    g_space,
    verify_free_decomposition,
)
from .pipeline import (
    DEFAULT_ACTION_WINDOW,
    DEFAULT_D_GRID,
    DEFAULT_DEGREE_WINDOW,
    DEFAULT_SPECTRUM_WINDOW,
    MarginError,
    OrbitParams,
    TermListing,
    certificate,
    crosscheck_stalks,
    model_jump,
    h_graded,
    jump_spectrum,
    normalization_shift,
    pair_hom,
    required_stalk_box,
    cone_blocks,
    resolve_window,
)
from .root_system import (CenterClass, IntegrityError, NonConvergenceError,
                          cartan)
from .sheaf_complex import (
    UMinusOpen,
    UOpen,
    sections_bound,
    stalk_bound,
    walk_cohomology,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFICATION = 2
EXIT_MARGIN = 3


class ConfigError(argparse.ArgumentTypeError):
    """Exit code 1; argparse reports it when an option's type raises it."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise ConfigError(message)


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r} ({exc})")


def _d_grid(text: str) -> tuple[Fraction, ...]:
    if not text:  # an empty --d-grid keeps the default grid
        return DEFAULT_D_GRID
    return tuple(_fraction(d) for d in text.split(","))


def _coords(text: str, n: int) -> tuple[Fraction, ...]:
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


def _pair_window(cast):
    """Type function for a 'lo:hi' window with ``cast`` endpoints."""

    def parse(text: str):
        try:
            lo, hi = text.split(":")
            lo, hi = cast(lo), cast(hi)
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad window {text!r}, expected lo:hi")
        if lo > hi:
            raise ConfigError(f"empty window {text!r}")
        return (lo, hi)

    return parse


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
    return tuple(map(_pair_window(int), parts))


def _int_at_least(low: int):
    """Type function for an int option of least value ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ConfigError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse: "invalid int value: 'x'"
    return parse


def _residue_or_all(text: str) -> int | str:
    try:
        return text if text == "all" else int(text)
    except ValueError:
        raise ConfigError(f"expected 'all' or an integer, got {text!r}")


def _join(indices) -> str:
    return ",".join(map(str, indices))


# exact type -> text; other scalars, and subclasses, take json.dumps
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
           bool: {True: "true", False: "false"}.get,
           type(None): {None: "null"}.get}
_FLUSH = 1 << 16  # characters of pending chunks joined into one write


def _write_json(payload, put) -> None:
    """``json.dumps(payload, sort_keys=True, indent=2)`` and a newline,
    byte for byte, put as chunks in one walk:

    - leaves of a type in ``_LEAVES`` are printed from that table;
    - a container's heads (separators, with the key for a dict) and
      their format are built once per (key tuple or length, depth): a
      container of leaves is one chunk through the format, any other
      puts each head and then its value;
    - a node that carries ``json_text`` (a Novikov term listing) puts
      ``node.json_text(pad)``, its text at the indent ``pad``;
    - keys must be ``str``: any other key raises ``TypeError`` (``json``
      would convert some of them)."""
    shapes = {}  # (keys or length, depth) -> (sorted keys, heads, format)

    def walk(node, depth: int) -> None:
        leaf = _LEAVES.get(type(node))
        if leaf is not None:
            return put(leaf(node))
        pad = "\n" + "  " * depth
        if type(node) not in (list, tuple, dict):
            carried = getattr(node, "json_text", None)
            if carried is not None:
                return put(carried(pad))
            if isinstance(node, (str, int, float)):
                return put(json.dumps(node))
        if isinstance(node, (list, tuple)):
            ends, key = "[]", (len(node), depth)
        elif isinstance(node, dict):
            ends, key = "{}", (tuple(node), depth)
        else:
            raise TypeError(f"Object of type {type(node).__name__} "
                            "is not JSON serializable")
        if not node:
            return put(ends)
        shape = shapes.get(key)
        if shape is None:
            if ends == "{}":  # a non-str key raises TypeError here
                order = sorted(key[0])
                heads = [f"{pad}  {encode_basestring_ascii(k)}: "
                         for k in order]
            else:
                order, heads = None, [pad + "  "] * key[0]
            heads = [ends[0] + heads[0]] + ["," + h for h in heads[1:]]
            form = "%s".join(h.replace("%", "%%") for h in heads)
            shape = shapes[key] = order, heads, form + "%s" + pad + ends[1]
        order, heads, form = shape
        values = node if order is None else list(map(node.__getitem__, order))
        leaves = list(map(_LEAVES.get, map(type, values)))
        if None not in leaves:
            return put(form % tuple([f(v) for f, v in zip(leaves, values)]))
        for head, value, leaf in zip(heads, values, leaves):
            if leaf is None:
                put(head)
                walk(value, depth + 1)
            else:
                put(head + leaf(value))
        put(pad + ends[1])

    walk(payload, 0)
    put("\n")


def _json_text(payload) -> str:
    """The join of ``_write_json``'s chunks, without the final newline."""
    chunks = []
    _write_json(payload, chunks.append)
    return "".join(chunks)[:-1]


def _emit(payload: dict, args, ok: bool = True) -> int:
    """Write the report as it is rendered, in joins of ``_FLUSH`` or more
    characters; the exit code says whether its check passed."""
    render = {"json": _write_json, "csv": _write_csv,
              "pretty": _write_pretty}[args.format]
    pending, size = [], 0

    def put(chunk: str) -> None:
        nonlocal size
        pending.append(chunk)
        size += len(chunk)
        if size >= _FLUSH:
            write("".join(pending))
            pending.clear()
            size = 0

    with _report_target(args.out) as write:
        render(payload, put)
        write("".join(pending))
    return EXIT_OK if ok else EXIT_VERIFICATION


@contextlib.contextmanager
def _report_target(out: str | None):
    """``write`` of stdout, or of the ``--out`` file.  A plain file, or a
    new one, is replaced whole: through a temporary file beside it, which
    a failed write removes.  Any other path (a link, a device, a
    directory) is opened in place."""
    if not out:
        yield sys.stdout.write
        return
    outdir = os.environ.get("FLAGSHEAF_OUTDIR", ".")
    path = out if os.path.isabs(out) else os.path.join(outdir, out)
    try:
        plain = stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:
        plain = not path.endswith(os.sep)
    tmp = f"{path}.{os.getpid()}.tmp" if plain else None
    try:
        with open(tmp or path, "x" if plain else "w") as fh:
            yield fh.write
        if plain:
            os.replace(tmp, path)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}")
    finally:
        if plain and os.path.lexists(tmp):
            os.remove(tmp)


def _write_csv(payload: dict, put) -> None:
    """The graded tables as one chunk: they are small, so csv stays whole."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["key", "degree", "dim"])
    writer.writerows(_csv_rows(payload))
    put(buf.getvalue())


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


def _write_pretty(payload: dict, put) -> None:
    """One line per key or list item; a term listing is expanded to its
    term dicts when its key is reached, and dropped once written."""

    def walk(node, depth):
        pad = "  " * depth
        if isinstance(node, dict):
            for k in node:
                v = node[k]
                v = v.expand() if isinstance(v, TermListing) else v
                if isinstance(v, (dict, list)) and v:
                    put(f"{pad}{k}:\n")
                    walk(v, depth + 1)
                else:
                    put(f"{pad}{k}: {v}\n")
        elif isinstance(node, list):
            for item in node:
                if isinstance(item, (dict, list)):
                    walk(item, depth + 1)
                    put("\n")
                else:
                    put(f"{pad}- {item}\n")

    walk(payload, 0)


# ---------------------------------------------------------------------------
# handlers, one per (command, action); each reads only its leaf's options


def _flags_betti(args) -> int:
    targets = (
        [FlagType(args.n, args.i)]
        if args.i is not None
        else all_flag_types(args.n)
    )
    tables = {_join(ft.indices): betti(ft).to_json() for ft in targets}
    return _emit({"n": args.n, "betti": tables}, args)


def _flags_gtable(args) -> int:
    tables = {
        _join(ft.indices): g_space(ft).to_json()
        for ft in all_flag_types(args.n)
    }
    return _emit({"n": args.n, "g": tables}, args)


def _flags_verify(args) -> int:
    failures = []
    for ft in all_flag_types(args.n):
        report = verify_free_decomposition(ft)
        if not report.ok:
            failures.append(
                {"i": _join(ft.indices), "mismatch": report.first_mismatch}
            )
    payload = {"n": args.n, "failures": failures, "ok": not failures}
    return _emit(payload, args, ok=not failures)


def _sheaf_stalk(args) -> int:
    n, z = args.n, CenterClass(args.n, args.z)
    p = cartan(n, _coords(args.point, n))
    window = resolve_window(
        _lattice_window(args.window, n), required_stalk_box(p),
        f"stalk at {p}",
    )
    dims = walk_cohomology(n, z, window, stalk_bound(n, p),
                           masks=cone_blocks(n)[1])
    return _emit(
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


def _sheaf_sections(args) -> int:
    n, z = args.n, CenterClass(args.n, args.z)
    window = _lattice_window(args.window, n)
    x = cartan(n, _coords(args.point, n))
    u = UMinusOpen(x) if args.u_kind == "uminus" else UOpen(x)
    dims = walk_cohomology(n, z, window, sections_bound(n, u))
    return _emit(
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


def _sheaf_delta(args) -> int:
    n, z = args.n, CenterClass(args.n, args.z)
    window = _lattice_window(args.window, n)
    m = cartan(n, _coords(args.m, n))
    dims = model_jump(n, z, args.i, m, window=window)
    return _emit(
        {
            "n": n,
            "z": z.residue,
            "i": _join(args.i),
            "m": [str(c) for c in m.coords],
            "margin_certified": True,
            "delta": dims.to_json(),
        },
        args,
    )


def _crosscheck_task(n, samples, seed, window, z):
    return crosscheck_stalks(
        n, CenterClass(n, z), samples, seed=seed, window=window
    )


def _pipeline_crosscheck(args) -> int:
    n = args.n
    residues = range(n) if args.z == "all" else [args.z]
    window = _lattice_window(args.window, n)
    task = functools.partial(
        _crosscheck_task, n, args.samples, args.seed, window
    )
    if args.jobs > 1 and len(residues) > 1:
        # order-preserving map keeps output deterministic
        import multiprocessing

        with multiprocessing.Pool(min(args.jobs, len(residues))) as pool:
            reports = pool.map(task, residues)
    else:
        reports = [task(z) for z in residues]
    payload = {
        "n": n,
        "seed": args.seed,
        "reports": [r.to_json() for r in reports],
        "ok": all(r.ok for r in reports),
    }
    return _emit(payload, args, payload["ok"])


def _pipeline_hom(args) -> int:
    rec = h_graded(
        OrbitParams(args.n, args.lam), args.i, args.d,
        args.degree_window, args.action_window,
    )
    return _emit(
        {
            "n": args.n,
            "lambda": str(args.lam),
            "i": _join(rec.indices),
            "d": str(rec.d),
            "normalization_shift": normalization_shift(args.n),
            "h_graded": rec.graded.to_json(),
            "elements": rec.listing(),
        },
        args,
    )


def _pipeline_certificate(args) -> int:
    report = certificate(
        OrbitParams(args.n, args.lam), args.d_grid,
        args.degree_window, args.action_window,
    )
    return _emit(report.to_json(), args)


def _pipeline_pair(args) -> int:
    dims = pair_hom(
        OrbitParams(args.n, args.lam), args.side_a, args.side_b, args.d,
        args.degree_window, args.action_window, char_two=args.char2,
    )
    return _emit(
        {
            "n": args.n,
            "lambda": str(args.lam),
            "sides": [args.side_a, args.side_b],
            "d": str(args.d),
            "char2": args.char2,
            "pair_hom": dims.to_json(),
        },
        args,
    )


def _pipeline_spectrum(args) -> int:
    values = jump_spectrum(
        OrbitParams(args.n, args.lam), args.i,
        action_window=args.action_window, degree_window=args.degree_window,
    )
    return _emit(
        {
            "n": args.n,
            "lambda": str(args.lam),
            "i": _join(args.i),
            "window": [str(w) for w in args.action_window],
            "spectrum": [str(v) for v in values],
        },
        args,
    )


def run_trials(*args, **kwargs):
    """``lie_numerics.run_trials``: only ``numerics`` loads numpy."""
    from .lie_numerics import run_trials
    return run_trials(*args, **kwargs)


def _numerics(args) -> int:
    stats = run_trials(
        args.n, args.trials, seed=args.seed, corrupt=args.corrupt
    )
    failures = sum(s.failures for s in stats)
    return _emit(
        {
            "n": args.n,
            "seed": args.seed,
            "trials": args.trials,
            "lemmas": [s.to_json() for s in stats],
            "failures": failures,
        },
        args,
        failures == 0,
    )


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> _Parser:
    """One leaf parser per (command, action), with exactly the options
    its ``run`` handler reads; built once per process, on first use."""
    parser = _Parser(prog="flagsheaf", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    commands = parser.add_subparsers(dest="command", required=True)

    def actions(command, help):
        return commands.add_parser(command, help=help).add_subparsers(
            dest="action", required=True
        )

    def leaf(group, name, run, graded=True, **kwargs):
        # csv flattens graded tables, so reports without one omit it
        formats = ("json", "csv", "pretty") if graded else ("json", "pretty")
        p = group.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("--n", type=_int_at_least(2), required=True)
        p.add_argument("--format", choices=formats, default="json")
        p.add_argument("--out", default=None)
        p.set_defaults(run=run)
        return p

    flags = actions("flags", "Schubert tables")
    leaf(flags, "betti", _flags_betti).add_argument(
        "--i", type=_subset, default=None, help="single subset, comma list"
    )
    leaf(flags, "gtable", _flags_gtable)
    leaf(flags, "verify", _flags_verify, graded=False)

    sheaf = actions("sheaf", "windowed sheaf queries")
    stalk = leaf(sheaf, "stalk", _sheaf_stalk)
    sections = leaf(sheaf, "sections", _sheaf_sections)
    delta = leaf(sheaf, "delta", _sheaf_delta)
    for p in (stalk, sections, delta):
        p.add_argument("--z", type=int, default=0)
        p.add_argument("--window", required=p is sections)
    for p in (stalk, sections):
        p.add_argument("--point", required=True, help="rational coords p/q")
    sections.add_argument("--u-kind", choices=("uopen", "uminus"),
                          default="uopen")
    delta.add_argument("--i", type=_subset, default=())
    delta.add_argument("--m", required=True)

    pipeline = actions("pipeline", "cross-checks and certificates")
    crosscheck = leaf(pipeline, "crosscheck", _pipeline_crosscheck,
                      graded=False)
    crosscheck.add_argument("--z", type=_residue_or_all, default="all")
    crosscheck.add_argument("--seed", type=_int_at_least(0), default=0)
    crosscheck.add_argument("--samples", type=_int_at_least(1), default=100)
    crosscheck.add_argument("--window", default=None)
    crosscheck.add_argument("--jobs", type=_int_at_least(1), default=1)

    def orbit(name, run, graded=True, action_window=DEFAULT_ACTION_WINDOW):
        # the orbit of scale --lambda and the windows of its Novikov module
        p = leaf(pipeline, name, run, graded)
        p.add_argument("--lambda", dest="lam", type=_fraction,
                       default=Fraction(1))
        p.add_argument("--degree-window", type=_pair_window(int),
                       default=DEFAULT_DEGREE_WINDOW)
        p.add_argument("--action-window", type=_pair_window(Fraction),
                       default=action_window)
        return p

    hom = orbit("hom", _pipeline_hom)
    hom.add_argument("--i", type=_subset, default=())
    hom.add_argument("--d", type=_fraction, default=Fraction(0))
    orbit("certificate", _pipeline_certificate).add_argument(
        "--d-grid", type=_d_grid, default=DEFAULT_D_GRID
    )
    pair = orbit("pair", _pipeline_pair)
    pair.add_argument("--d", type=_fraction, default=Fraction(0))
    pair.add_argument("--side-a", default="diagonal")
    pair.add_argument("--side-b", default="diagonal")
    pair.add_argument("--char2", action="store_true")
    orbit(
        "spectrum", _pipeline_spectrum, graded=False,
        action_window=DEFAULT_SPECTRUM_WINDOW,
    ).add_argument("--i", type=_subset, default=())

    numerics = leaf(commands, "numerics", _numerics, graded=False,
                    help="matrix lemma trials")
    numerics.add_argument("--trials", type=_int_at_least(1), default=1000)
    numerics.add_argument("--seed", type=_int_at_least(0), default=0)
    numerics.add_argument(
        "--corrupt", action="store_true",
        help="inject one corrupted fixture (exercises the failure path)",
    )
    return parser


_VALUE_FLAGS = {
    "--point", "--m", "--d", "--lambda", "--window",
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
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _build_parser().parse_args(_merge_negative_values(list(argv)))
        return args.run(args)
    except MarginError as exc:  # a ValueError, so caught first
        print(f"margin violation: {exc}", file=sys.stderr)
        return EXIT_MARGIN
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrityError, NonConvergenceError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
