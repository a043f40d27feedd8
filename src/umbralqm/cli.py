"""Command line front end.

Tabulates basic polynomials, discrete exponentials and trigonometric
functions, infinite-well spectra/wavefunctions and energy bounds as CSV or
JSON. Data goes to stdout or --out; diagnostics go to stderr. Exit codes:
0 success, 2 validation error or an unwritable --out, 1 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain, product

from . import __version__
from .correspondences import SummationStatus, basic_polynomial_column
from .functions import (
    DomainError,
    WaveSpec,
    _power,
    amplitude_growth,
    closed_form_status,
    umbral_exp_column,
    umbral_exp_series_column,
    umbral_trig_column,
)
from .operators import Correspondence, InvalidDeltaError, Kind
from .schrodinger import (
    ELECTRON_MASS_KG,
    PLANCK_LENGTH_M,
    PLANCK_TIME_S,
    PROTON_MASS_KG,
    NonPhysicalStateError,
    PhysicalUnits,
    WindowTooSmallError,
    _well_column,
    energy_bounds,
    infinite_well_spectrum,
)

_KINDS = {kind.value: kind for kind in Kind}
_CORR_CHOICES = (*_KINDS, "all")
_FORMAT_CHOICES = ("csv", "json")

_DEFAULTS = {
    "sigma": 1.0,
    "corr": "all",
    "format": "csv",
    "out": None,
    "window": "-10:10",
    "tol": 1e-10,
}

_CONTINUOUS = {"sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh}


class ConfigError(ValueError):
    pass


class Table:
    """A named table of ordered (name, values) columns.

    The columns may be given as a function that returns them: it runs on the
    first read of `columns`, so a table that is never written is never built.
    """

    def __init__(self, name: str, columns):
        self.name = name
        self._columns = columns

    @property
    def columns(self) -> list:
        if callable(self._columns):
            self._columns = self._columns()
        return self._columns


@dataclass
class RunConfig:
    sigma: float
    corr: str
    kinds: list
    fmt: str
    out: str | None
    window: tuple[int, int]
    tol: float


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ConfigError(f"window must look like MIN:MAX, got {text!r}") from exc
    if lo > hi:
        raise ConfigError("window minimum exceeds maximum")
    return lo, hi


def _positive(name: str, value) -> float:
    try:
        value = float(value)
    except ValueError as exc:
        raise ConfigError(f"bad numeric configuration value: {exc}") from exc
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be positive and finite, got {value!r}")
    return value


def _load_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                key = key.strip()
                if key not in _DEFAULTS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    merged = dict(_DEFAULTS)
    env_path = os.environ.get("UMBRALQM_CONFIG")
    if env_path:
        merged.update(_load_config_file(env_path))
    for key in _DEFAULTS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag

    sigma, tol = (_positive(name, merged[name]) for name in ("sigma", "tol"))
    if sigma < sys.float_info.min:
        raise ConfigError(
            "sigma must be at least the smallest normal double "
            f"{sys.float_info.min!r}, got {sigma!r}"
        )
    corr = str(merged["corr"])
    if corr not in _CORR_CHOICES:
        raise ConfigError(f"corr must be one of {_CORR_CHOICES}")
    fmt = str(merged["format"])
    if fmt not in _FORMAT_CHOICES:
        raise ConfigError(f"format must be one of {_FORMAT_CHOICES}")
    kinds = list(_KINDS.values()) if corr == "all" else [_KINDS[corr]]
    window = _parse_window(str(merged["window"]))
    return RunConfig(sigma, corr, kinds, fmt, merged["out"], window, tol)


# ---------------------------------------------------------------------------
# table formatting
# ---------------------------------------------------------------------------


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_CHUNK_ROWS = 4096
# `%` specs that spell a cell of exactly this type as format_cell does
_SPECS = {float: "%.17g", int: "%d", str: "%s"}
_BOOL_WORDS = ("false", "true")


def _column_spelling(values):
    """(spec, convert): `spec % convert(cell)` is format_cell(cell) for every cell of the column.

    A column of one type in _SPECS passes its cells as they are; a bool
    column is spelled by lookup; any other type, or a mix, goes through
    format_cell cell by cell.
    """
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    if kind in _SPECS:
        return _SPECS[kind], None
    return "%s", _BOOL_WORDS.__getitem__ if kind is bool else format_cell


def write_csv(table: Table, stream) -> None:
    """Header, then one string per chunk of rows from a row template of column specs."""
    names = [name for name, _ in table.columns]
    stream.write(",".join(names) + "\n")
    spellings = [_column_spelling(vals) for _, vals in table.columns]
    template = ",".join(spec for spec, _ in spellings) + "\n"
    length = len(table.columns[0][1]) if table.columns else 0
    for start in range(0, length, _CHUNK_ROWS):
        cells = []
        for (_, vals), (_, convert) in zip(table.columns, spellings):
            part = vals[start : start + _CHUNK_ROWS]
            cells.append(part if convert is None else list(map(convert, part)))
        stream.write(template * len(cells[0]) % tuple(chain.from_iterable(zip(*cells))))


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _tables_to_json(command: str, cfg: RunConfig, tables: list[Table]) -> dict:
    return {
        "meta": {
            "command": command,
            "version": __version__,
            "config": {
                "sigma": cfg.sigma,
                "corr": cfg.corr,
                "format": cfg.fmt,
                "window": list(cfg.window),
                "tol": cfg.tol,
                "out": cfg.out,
            },
        },
        "data": {
            "tables": [
                {
                    "name": t.name,
                    "columns": {name: [_json_value(v) for v in vals] for name, vals in t.columns},
                }
                for t in tables
            ]
        },
    }


def _write(path: str | None, writer) -> None:
    """writer(stream) on the file at path, or on stdout without one; an unopenable path is a usage error."""
    if not path:
        writer(sys.stdout)
        return
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
    with handle:
        writer(handle)


def _claim(paths: list[str]) -> None:
    """Open every path for writing without truncating it; on a failure remove the files this call created."""
    created = []
    try:
        for path in paths:
            try:
                open(path, "x", encoding="utf-8").close()
                created.append(path)
            except FileExistsError:
                open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        for made in created:
            os.remove(made)
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def emit(command: str, cfg: RunConfig, tables: list[Table], multi_table: bool = False) -> int:
    """One JSON document, one CSV file per table, or the first table as CSV plus a note naming the rest."""
    if cfg.fmt == "json":
        text = json.dumps(_tables_to_json(command, cfg, tables), indent=2) + "\n"
        _write(cfg.out, lambda stream: stream.write(text))
    elif cfg.out and (multi_table or len(tables) > 1):
        paths = [f"{cfg.out}_{table.name}.csv" for table in tables]
        _claim(paths)
        for path, table in zip(paths, tables):
            _write(path, partial(write_csv, table))
    else:
        _write(cfg.out, partial(write_csv, tables[0]))
        if len(tables) > 1:
            omitted = ", ".join(t.name for t in tables[1:])
            print(
                f"note: tables omitted on csv stdout ({omitted}); pass --out BASE or --format json",
                file=sys.stderr,
            )
    return 0


def _columns(names: str, rows) -> list:
    """Columns with the space-separated names, filled from an iterable of rows."""
    columns = [(column, []) for column in names.split()]
    appends = [values.append for _, values in columns]
    for row in rows:
        for append, cell in zip(appends, row):
            append(cell)
    return columns


def _axis(sigma: float, lo: int, hi: int) -> tuple[list[int], list]:
    """The lattice indices lo..hi, and the m and x = m sigma columns over them."""
    ms = list(range(lo, hi + 1))
    return ms, [("m", ms), ("x", [m * sigma for m in ms])]


def _continuous(fn, x: float) -> float:
    """fn(x) for exp, sin, cos, sinh or cosh; past the double range the inf of fn's sign."""
    try:
        return fn(x)
    except OverflowError:
        return math.copysign(math.inf, x) if fn is math.sinh else math.inf


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{what} must be a comma-separated integer list") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_polys(cfg: RunConfig, args: argparse.Namespace) -> int:
    degrees = _parse_int_list(args.n, "--n")
    if not degrees:
        raise ConfigError("--n must list at least one degree")
    if any(n < 0 for n in degrees):
        raise ConfigError("polynomial degrees must be >= 0")
    ms, columns = _axis(cfg.sigma, *cfg.window)
    for n in degrees:
        columns.append((f"continuous_n{n}", [_power(m * cfg.sigma, n) for m in ms]))
    for kind in cfg.kinds:
        c = Correspondence(kind, cfg.sigma)
        columns += [(f"{kind.value}_n{n}", list(basic_polynomial_column(c, n, ms))) for n in degrees]
    return emit("polys", cfg, [Table("basic_polynomials", columns)])


def cmd_exp(cfg: RunConfig, args: argparse.Namespace) -> int:
    k = args.k
    if not math.isfinite(k):
        raise ConfigError(f"--k must be finite, got {k!r}")
    with_series = not args.no_series
    # the right kind's m < 0 branch diverges iff |k sigma| >= 1, read as the series reads it
    diverges = closed_form_status(Correspondence(Kind.RIGHT, cfg.sigma), k, -1) is SummationStatus.DIVERGED
    if diverges and with_series:
        raise ConfigError(
            f"|k sigma| = {abs(k) * cfg.sigma:g} >= 1: the series diverges; "
            "pass --no-series for closed forms only"
        )
    if not with_series:
        print("note: series columns disabled, emitting closed forms only", file=sys.stderr)
    ms, columns = _axis(cfg.sigma, *cfg.window)
    columns.append(("continuous", [_continuous(math.exp, k * m * cfg.sigma) for m in ms]))
    for kind in cfg.kinds:
        c = Correspondence(kind, cfg.sigma)
        name = kind.value
        columns.append((f"{name}_closed", list(umbral_exp_column(c, k, ms))))
        if with_series:
            rows = ((value, status.value) for value, status in umbral_exp_series_column(c, k, ms, cfg.tol))
            columns += _columns(f"{name}_series {name}_status", rows)
    return emit("exp", cfg, [Table("exponential", columns)])


def cmd_trig(cfg: RunConfig, args: argparse.Namespace) -> int:
    which = args.which
    wave_of, given = (WaveSpec.from_points, args.l) if args.l is not None else (WaveSpec.from_momentum, args.k)
    waves = [wave_of(Correspondence(kind, cfg.sigma), given) for kind in cfg.kinds]
    ms, samples = _axis(cfg.sigma, *cfg.window)
    continuous = _CONTINUOUS[which]
    for wave in waves:
        c, k = wave.correspondence, wave.k
        samples.append((f"{c.kind.value}_{which}", list(umbral_trig_column(c, k, ms, which))))
        samples.append((f"{c.kind.value}_continuous", [_continuous(continuous, k * m * cfg.sigma) for m in ms]))
    rows = (
        (w.correspondence.kind.value, w.k, w.k * cfg.sigma, w.wavelength, w.points_per_wavelength, w.is_minimal,
         None if w.correspondence.kind is Kind.SYMMETRIC else amplitude_growth(w.points_per_wavelength, 1))
        for w in waves
    )
    names = "correspondence k k_sigma lambda points_per_wavelength is_minimal amplitude_factor_per_period"
    parameters = Table("wave_parameters", partial(_columns, names, rows))
    return emit("trig", cfg, [Table("samples", samples), parameters], multi_table=True)


def cmd_well(cfg: RunConfig, args: argparse.Namespace) -> int:
    M = args.points
    if M < 2:
        raise ConfigError("--points must be >= 2")
    levels = _parse_int_list(args.levels, "--levels") if args.levels else []
    for n in levels:
        if not 1 <= n <= M - 1:
            raise ConfigError(f"level {n} outside [1, {M - 1}]")

    spectra = [infinite_well_spectrum(Correspondence(kind, cfg.sigma), M) for kind in cfg.kinds]
    ns = spectra[0].n

    def stacked(field: str) -> list:
        return list(chain.from_iterable(getattr(sp, field) for sp in spectra))

    columns = [
        ("correspondence", list(chain.from_iterable([sp.kind.value] * len(ns) for sp in spectra))),
        ("n", list(ns) * len(spectra)),
        ("k", stacked("momentum")),
        *((field, stacked(field)) for field in ("energy", "physical", "convergent")),
        ("degenerate_with", [M - n for n in ns] * len(spectra)),
        ("energy_continuous", [_power(n * math.pi / (M * cfg.sigma), 2) for n in ns] * len(spectra)),
    ]
    tables = [Table("spectrum", columns)]
    axis = _axis(cfg.sigma, 0, M)[1] if levels else []
    for kind, n in product(cfg.kinds, levels):
        try:  # the level is checked here; the samples are computed only if the table is written
            psi = _well_column(Correspondence(kind, cfg.sigma), M, n)
        except DomainError:
            note = f"note: skipping {kind.value} level {n}: momentum beyond the k sigma = 1 convergence boundary"
            print(note, file=sys.stderr)
            continue
        tables.append(Table(f"wavefunction_{kind.value}_n{n}", lambda psi=psi: [*axis, ("psi", list(psi))]))
    return emit("well", cfg, tables, multi_table=True)


def cmd_bounds(cfg: RunConfig, args: argparse.Namespace) -> int:
    _positive("--sigma-m", args.sigma_m)
    _positive("--tau-s", args.tau_s)
    if args.particle == "custom":
        if args.mass is None:
            raise ConfigError("--particle custom requires a positive --mass in kg")
        particles = [("custom", _positive("--mass", args.mass))]
    else:
        known = (("electron", ELECTRON_MASS_KG), ("proton", PROTON_MASS_KG))
        particles = [(name, mass) for name, mass in known if args.particle in (name, "both")]
    rows = (
        (name, mass, b.e_max_time_ev, b.e_max_space_ev, b.binding_ev)
        for name, mass in particles
        for b in [energy_bounds(PhysicalUnits(mass=mass, sigma_m=args.sigma_m, tau_s=args.tau_s))]
    )
    table = Table("bounds", _columns("particle mass_kg e_max_time_ev e_max_space_ev e_binding_ev", rows))
    return emit("bounds", cfg, [table])


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------


def cmd_check(cfg: RunConfig, args: argparse.Namespace) -> int:
    from .invariants import cli_checks

    failures = 0
    for name, check in cli_checks(cfg.sigma):
        detail = check()
        if detail is None:
            print(f"ok   {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umbralqm",
        description="Tabulate lattice quantum mechanics data as CSV or JSON.",
        allow_abbrev=False,
    )
    parser.add_argument("--version", action="version", version=f"umbralqm {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--sigma", type=float, help="lattice spacing (default 1)")
    common.add_argument("--corr", choices=_CORR_CHOICES, help="correspondence selection")
    common.add_argument("--format", choices=_FORMAT_CHOICES, help="output format")
    common.add_argument("--out", help="output path (base path for multi-table csv)")
    common.add_argument("--window", help="lattice index window MIN:MAX (use --window=-10:10)")
    common.add_argument("--tol", type=float, help="series tolerance (default 1e-10)")

    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, parents=[common], allow_abbrev=False)  # no flag prefixes

    p = add("polys", help="basic polynomial values")
    p.add_argument("--n", default="1,2,3", help="comma-separated degrees")
    p.set_defaults(func=cmd_polys)

    p = add("exp", help="discrete exponential")
    p.add_argument("--k", type=float, required=True, help="momentum")
    p.add_argument("--no-series", action="store_true", help="emit closed forms only")
    p.set_defaults(func=cmd_exp)

    p = add("trig", help="discrete trigonometric functions")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=float, help="momentum")
    group.add_argument("--l", type=float, help="points per wavelength")
    p.add_argument("--which", choices=tuple(_CONTINUOUS), default="sin")
    p.set_defaults(func=cmd_trig)

    p = add("well", help="infinite-well spectrum and wavefunctions")
    p.add_argument("--points", type=int, required=True, help="lattice points M in the well")
    p.add_argument("--levels", help="comma-separated levels for wavefunction tables")
    p.set_defaults(func=cmd_well)

    p = add("bounds", help="lattice energy upper limits")
    p.add_argument("--particle", choices=("electron", "proton", "custom", "both"), default="both")
    p.add_argument("--mass", type=float, help="mass in kg for --particle custom")
    p.add_argument("--sigma-m", type=float, default=PLANCK_LENGTH_M, help="lattice length in meters")
    p.add_argument("--tau-s", type=float, default=PLANCK_TIME_S, help="time step in seconds")
    p.set_defaults(func=cmd_bounds)

    p = add("check", help="run the invariant self-checks")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = resolve_config(args)
        return args.func(cfg, args)
    except (
        ConfigError,
        DomainError,
        NonPhysicalStateError,
        WindowTooSmallError,
        InvalidDeltaError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # pragma: no cover
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
