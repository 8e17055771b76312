"""Command-line front end.

Subcommands: enumerate, zeta, trace, verify, continue, report.

Exit codes are a stable contract: 0 success, 2 input parse/schema error,
3 non-loxodromic generator or word, 4 evaluation outside the convergence
region, 5 verification failure, 6 graded-parity violation, 7 grid point
at or too close to a catalogued singularity, 1 any other workbench error.
A failing check raises a WorkbenchError, whose class carries its code as
exit_code; a suite that fails returns 5. Commands are deterministic
given (inputs, config, seed); repeated runs emit byte-identical output.

The parser is the one schema of the options: each flag declares its
type, count, choices and default. A --config INI file has one section
per subcommand, whose values pass their flags' own checks and then
become that subcommand's defaults, so flags given on the command line
win.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from pathlib import Path

from .errors import AtSingularity, SchemaError, WorkbenchError
from .names import SUITE_NAMES, ZETA_KINDS, source_is_incomplete

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# layers
#
# A command loads only the modules it runs: main binds the package names
# the command calls into this module's namespace before running it, and
# the command calls them from here.  So `cli.log_zeta` is the name a test
# or a tracer replaces, and a name bound already is kept.

_LAYERS = {
    "enumerate": (),  # a cache hit runs no layer; a miss binds _WALK itself
    "zeta": ("parse_length_spectrum", "parse_gamma_rep", "ZetaRequest", "log_zeta"),
    "trace": (
        "parse_length_spectrum", "parse_gamma_rep", "parse_eigenvalue_spectrum",
        "dirac_geometric_side", "dirac_spectral_side", "heat_geometric_side",
        "heat_spectral_side",
    ),
    "verify": ("run_suite",),
    "continue": (
        "parse_eigenvalue_spectrum", "singularity_catalog", "log_zeta_by_path",
        "continued_super_logderiv",  # not called here; wrapped by name in perfbench/tracing.py
    ),
    "report": ("run_all",),
}

# what an enumerate cache miss runs
_WALK = (
    "EnumerationConfig", "enumerate_spectrum", "parse_group_presentation",
    "serialize_length_spectrum",
)


def _bind(names) -> None:
    package = sys.modules[__package__]
    for name in names:
        if name not in globals():
            globals()[name] = getattr(package, name)


def __getattr__(name: str):
    """A layer name looked up from outside before a command bound it."""
    if name not in _WALK and not any(name in names for names in _LAYERS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((name,))
    return globals()[name]


# ---------------------------------------------------------------------------
# plumbing


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # also an int literal past Python's digit limit
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(columns: tuple[str, ...], rows: list[dict]) -> str:
    """CSV of the rows under the header columns.  A column name_re or
    name_im holds the real or imaginary half of the row's pair `name`; a
    field the row lacks is left blank."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row, column) for column in columns))
    return "\n".join(lines) + "\n"


def _cell(row: dict, column: str) -> str:
    name, _, half = column.rpartition("_")
    if half in ("re", "im"):
        value = row[name][half == "im"] if name in row else ""
    else:
        value = row.get(column, "")
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _chi(args):
    if getattr(args, "chi", None):
        return parse_gamma_rep(_read_json(args.chi))
    return None


def _s_grid(args) -> list[complex]:
    start = complex(args.s_start[0], args.s_start[1])
    if args.s_stop is None:
        stop = start
    else:
        stop = complex(args.s_stop[0], args.s_stop[1])
    count = args.s_count
    if count < 1:
        raise SchemaError("s-count must be at least 1")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _finite(text: str) -> float:
    """A float option's value, which must be finite: nan, inf and values
    that overflow to inf, such as 1e999, are refused."""
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


_finite.__name__ = "finite float"  # argparse and config errors: "invalid finite float value"


class _Repeat(argparse.Action):
    """append, except that the first flag replaces the default list (the
    flag's own or the config file's) instead of adding to it."""

    def __call__(self, parser, namespace, value, option_string=None):
        items = getattr(namespace, self.dest)
        setattr(namespace, self.dest, ([] if items is self.default else items) + [value])


def _config_defaults(parser: argparse.ArgumentParser, args) -> None:
    """Make the values of the config file's section for args.command that
    command's defaults, so that flags given on the command line win.

    Each value passes its flag's own checks: type, count (nargs, or one or
    more for a repeatable flag; several values are split at commas and
    spaces) and choices; a switch takes configparser's boolean words.  A
    value that fails, or a key that names no option, is a SchemaError.
    """
    import configparser  # here, not at module level: only --config reads a file

    ini = configparser.ConfigParser()
    if not ini.read(args.config):
        raise SchemaError(f"config file not found or unreadable: {args.config}")
    if not ini.has_section(args.command):
        return
    # argparse has no public accessor for a parser's actions
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    command = commands.choices[args.command]
    options = {a.dest: a for a in command._actions if a.option_strings and a.dest != "help"}
    defaults = {}
    for key, raw in ini.items(args.command):
        action = options.get(key.replace("-", "_"))
        if action is None:
            raise SchemaError(
                f"config key {key!r} is not an option of command {args.command!r}"
            )
        if action.required:  # argparse would still demand the flag
            raise SchemaError(
                f"config key {key!r}: {action.option_strings[0]} is required "
                "on the command line"
            )
        defaults[action.dest] = _config_value(action, key, raw, ini.BOOLEAN_STATES)
    command.set_defaults(**defaults)


def _config_value(action: argparse.Action, key: str, raw: str, booleans: dict):
    if action.nargs == 0:  # a switch
        if raw.lower() not in booleans:
            raise SchemaError(
                f"config key {key!r}: {raw!r} is not a boolean "
                "(1/yes/true/on or 0/no/false/off)"
            )
        return booleans[raw.lower()]
    many = action.nargs is not None or isinstance(action, _Repeat)
    parts = raw.replace(",", " ").split() if many else [raw]
    if not parts or (action.nargs and len(parts) != action.nargs):
        raise SchemaError(
            f"config key {key!r} takes {action.nargs or 'one or more'} values, "
            f"got {len(parts)}"
        )
    values = []
    for part in parts:
        if action.type is not None:
            try:
                part = action.type(part)
            except ValueError:
                raise SchemaError(
                    f"config key {key!r}: invalid {action.type.__name__} value: {part!r}"
                ) from None
        if action.choices is not None and part not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise SchemaError(
                f"config key {key!r}: invalid choice: {part!r} (choose from {choices})"
            )
        values.append(part)
    return values if many else values[0]


# ---------------------------------------------------------------------------
# commands


_NO_GENERATORS = "warning: presentation has no generators; spectrum is empty\n"


def _as_read(value):
    """A decoded document with each int the number reader takes replaced by
    the float it makes of it, so 2 and 2.0 give one cache key, as do -0 and
    0.0.  Bools and ints past the float range stay as written: the reader
    refuses them, and a hit would skip that refusal."""
    if isinstance(value, dict):
        return {key: _as_read(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_as_read(item) for item in value]
    if type(value) is int and -sys.float_info.max <= value <= sys.float_info.max:
        return float(value)
    return value


def cmd_enumerate(args) -> int:
    from . import cache  # a module, not a layer name: its load and store are replaced on it

    if args.max_word_length < 1:
        raise SchemaError(f"--max-word-length must be at least 1, got {args.max_word_length}")
    if not args.cutoff > 0:
        raise SchemaError(f"--cutoff must be positive, got {args.cutoff!r}")
    raw = _read_json(args.presentation)
    key = cache.cache_key(
        {
            "op": "enumerate",
            # bump it when the entry or the document changes, or when the
            # checks on a presentation or config change: a hit skips them
            "version": 7,
            "presentation": _as_read(raw),
            "max_word_length": args.max_word_length,
            "cutoff": args.cutoff,
        }
    )
    # only a walk that passed every check stores its entry, and the key
    # holds all of the walk's input, so a hit may skip parsing and walking.
    # An entry is the summary as one line of JSON, then the document, which
    # a hit copies without decoding it
    entry = cache.load(key)
    if entry is not None:
        if not raw["generators"]:
            sys.stderr.write(_NO_GENERATORS)
        line, _, text = entry.partition("\n")
        summary = json.loads(line)
    else:
        _bind(_WALK)
        presentation = parse_group_presentation(raw)
        if not presentation.generators:
            sys.stderr.write(_NO_GENERATORS)
        config = EnumerationConfig(
            max_word_length=args.max_word_length, length_cutoff=args.cutoff
        )
        spectrum = enumerate_spectrum(presentation, config)
        text = serialize_length_spectrum(spectrum)
        summary = {
            "classes": len(spectrum.length),
            "min_length": min(spectrum.length, default=None),
            "max_length": max(spectrum.length, default=None),
            "source": spectrum.source,
        }
        try:
            cache.store(key, json.dumps(summary, sort_keys=True) + "\n" + text)
        except OSError as exc:
            sys.stderr.write(f"warning: cannot write the cache entry: {exc}\n")

    if args.output:
        _emit(text, args.output)
    shortest, longest = summary["min_length"], summary["max_length"]
    lines = [
        f"classes: {summary['classes']}",
        f"min length: {'n/a' if shortest is None else format(shortest, '.12g')}",
        f"max length: {'n/a' if longest is None else format(longest, '.12g')}",
        f"complete up to cutoff: {'no' if source_is_incomplete(summary['source']) else 'yes'}",
        f"cache key: {key}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_zeta(args) -> int:
    if args.s_start is None:
        raise SchemaError("--s-start is required (two numbers: re im)")
    spectrum = parse_length_spectrum(_read_json(args.spectrum))
    chi = _chi(args)
    grid = _s_grid(args)
    rows = []
    for s in grid:
        request = ZetaRequest(
            s=s,
            k=args.sigma,
            spectrum=spectrum,
            kind=args.kind,
            chi=chi,
            growth_constant=args.growth,
        )
        result = log_zeta(request)
        value = cmath.exp(result.value)
        rows.append(
            {
                "s": _pair(s),
                "log": _pair(result.value),
                "value": _pair(value),
                "tail_bound": result.tail_bound,
                "terms_used": result.terms_used,
            }
        )
    if args.format == "csv":
        columns = ("s_re", "s_im", "log_re", "log_im", "value_re", "value_im",
                   "tail_bound", "terms_used")
        _emit(_csv_text(columns, rows), args.output)
    else:
        _emit(_json_text({"kind": args.kind, "rows": rows}), args.output)
    return 0


def cmd_trace(args) -> int:
    spectrum = parse_length_spectrum(_read_json(args.spectrum))
    chi = _chi(args)
    eigen = None
    if args.order == "first" and args.dirac:
        eigen = parse_eigenvalue_spectrum(_read_json(args.dirac), kind="dirac")
    if args.order == "second" and args.laplace:
        eigen = parse_eigenvalue_spectrum(_read_json(args.laplace), kind="laplace")
    if args.order == "second" and args.volume is not None:
        spectrum = spectrum.with_volume(args.volume)
    rows = []
    for t in args.t:
        if args.order == "first":
            geo = dirac_geometric_side(t, spectrum, args.sigma, chi)
            spec_side = dirac_spectral_side(t, eigen) if eigen else None
        else:
            geo = heat_geometric_side(t, spectrum, args.sigma, chi)
            spec_side = heat_spectral_side(t, eigen) if eigen else None
        row = {"t": t, "geometric": _pair(geo)}
        if spec_side is not None:
            row["spectral"] = _pair(spec_side)
            row["diagnostic_gap"] = abs(geo - spec_side)
        rows.append(row)
    if args.format == "csv":
        columns = ("t", "geometric_re", "geometric_im", "spectral_re", "spectral_im",
                   "diagnostic_gap")
        _emit(_csv_text(columns, rows), args.output)
    else:
        _emit(_json_text({"order": args.order, "rows": rows}), args.output)
    return 0


def cmd_verify(args) -> int:
    report = run_suite(
        args.suite, seed=args.seed, inject_parity_violation=args.inject_parity_violation
    )
    _emit(_json_text(report), args.output)
    return 0 if report["pass"] else 5


def cmd_continue(args) -> int:
    dirac = parse_eigenvalue_spectrum(_read_json(args.dirac), kind="dirac")
    laplace = None
    if args.laplace:
        laplace = parse_eigenvalue_spectrum(_read_json(args.laplace), kind="laplace")
    catalog = singularity_catalog(dirac, laplace)

    want_grid = args.s_start is not None
    want_catalog = args.catalog or not want_grid

    payload = {}
    if want_catalog:
        payload["catalog"] = [
            {
                "zeta_kind": rec.zeta_kind,
                "location": _pair(rec.location),
                "order": rec.order,
            }
            for rec in catalog
        ]
    rows = []
    if want_grid:
        if not args.radius > 0:
            raise SchemaError("radius must be positive")
        import numpy as np  # loaded with the continuation layer

        super_records = [r for r in catalog if r.zeta_kind == "super"]
        grid = np.array(_s_grid(args))
        on_pole = np.abs(grid[:, None] - np.array([r.location for r in super_records])) < 1e-9
        # the points before the first one on a pole go first, so the first
        # point that fails names the refusal, as one point at a time would
        stop = int(np.argmax(on_pole.any(axis=1))) if on_pole.any() else len(grid)
        logs, windings = log_zeta_by_path(
            grid[:stop], catalog=super_records, detour_radius=args.radius,
            detour_side=args.detour, return_winding=True,
        )
        if stop < len(grid):
            raise AtSingularity(
                f"grid point {complex(grid[stop])} lies on a catalogued singularity",
                location=super_records[int(np.argmax(on_pole[stop]))].location,
            )
        for s, log_value, winding in zip(grid.tolist(), logs.tolist(), windings.tolist()):
            value = cmath.exp(log_value)
            rows.append(
                {
                    "s": _pair(s),
                    "log": _pair(log_value),
                    "abs": abs(value),
                    "arg": cmath.phase(value),
                    "winding": winding,
                }
            )
        payload["rows"] = rows

    if args.format == "csv" and want_grid:
        _emit(_csv_text(("s_re", "s_im", "abs", "arg"), rows), args.output)
    elif args.format == "csv":
        columns = ("zeta_kind", "location_re", "location_im", "order")
        _emit(_csv_text(columns, payload["catalog"]), args.output)
    else:
        _emit(_json_text(payload), args.output)
    return 0


def cmd_report(args) -> int:
    reports = run_all(seed=args.seed)
    payload = {
        "reports": reports,
        "all_pass": all(r["pass"] for r in reports),
        "note": (
            "trace-side equality for a genuine compact quotient needs full "
            "spectral data and is reported only as a diagnostic gap by the "
            "trace subcommand"
        ),
    }
    _emit(_json_text(payload), args.output)
    for r in reports:
        status = "PASS" if r["pass"] else "FAIL"
        sys.stderr.write(
            f"{r['suite']}: {status} (cases={r['cases']}, max_gap={r['max_gap']:.3e})\n"
        )
    return 0 if payload["all_pass"] else 5


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeta-workbench",
        description=(
            "Geodesic zeta functions of hyperbolic 3-manifold data: class-sum "
            "evaluation, trace-side diagnostics, spectral continuation, and "
            "self-verification suites."
        ),
    )
    parser.add_argument(
        "--config",
        default=None,
        help="INI file with one section per subcommand; flags win over file values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="walk a matrix group and emit its length spectrum")
    p.add_argument("--presentation", required=True, help="presentation JSON path")
    p.add_argument("--max-word-length", type=int, default=6)
    p.add_argument("--cutoff", type=_finite, default=5.0, help="length cutoff")
    p.add_argument("--output", default=None, help="write spectrum JSON here")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("zeta", help="evaluate log zeta on an s-grid")
    p.add_argument("--spectrum", required=True, help="length-spectrum JSON path")
    p.add_argument("--kind", choices=ZETA_KINDS, default="selberg")
    p.add_argument("--sigma", type=_finite, required=True, help="weight k of the twist")
    p.add_argument("--chi", default=None, help="flat-bundle representation JSON path")
    p.add_argument("--s-start", type=_finite, nargs=2, default=None, metavar=("RE", "IM"))
    p.add_argument("--s-stop", type=_finite, nargs=2, default=None, metavar=("RE", "IM"))
    p.add_argument("--s-count", type=int, default=1)
    p.add_argument("--growth", type=_finite, default=None, help="exponential growth rate of the length count")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("trace", help="geometric trace sides on a t-grid, with optional spectral diagnostics")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--sigma", type=_finite, required=True)
    p.add_argument("--chi", default=None)
    p.add_argument("--order", choices=("first", "second"), default="first")
    p.add_argument("--t", type=_finite, action=_Repeat, default=[1.0], help="repeatable heat time")
    p.add_argument("--dirac", default=None, help="first-order eigenvalue JSON for the spectral side")
    p.add_argument("--laplace", default=None, help="second-order eigenvalue JSON for the spectral side")
    p.add_argument("--volume", type=_finite, default=None, help="override the spectrum volume")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify", help="run one verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--inject-parity-violation",
        action="store_true",
        help="negative control: feed the parity suite an invalid spectrum pair",
    )
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("continue", help="singularity catalog and path-continued values from eigenvalue data")
    p.add_argument("--dirac", required=True, help="first-order eigenvalue JSON path")
    p.add_argument("--laplace", default=None, help="optional independent second-order eigenvalues")
    p.add_argument("--catalog", action="store_true")
    p.add_argument("--s-start", type=_finite, nargs=2, default=None, metavar=("RE", "IM"))
    p.add_argument("--s-stop", type=_finite, nargs=2, default=None, metavar=("RE", "IM"))
    p.add_argument("--s-count", type=int, default=1)
    p.add_argument("--radius", type=_finite, default=0.1, help="detour radius around singularities")
    p.add_argument("--detour", choices=("above", "below"), default="above")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_continue)

    p = sub.add_parser("report", help="run every verification suite and summarize")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _config_defaults(parser, args)
            args = parser.parse_args(argv)
        _bind(_LAYERS[args.command])
        return args.func(args)
    except WorkbenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
