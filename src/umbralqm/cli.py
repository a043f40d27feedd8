"""Command line front end.

Tabulates basic polynomials, discrete exponentials and trigonometric
functions, infinite-well spectra/wavefunctions and energy bounds as CSV or
JSON. Data goes to stdout or --out; diagnostics go to stderr. Exit codes:
0 success, 2 validation error or an unwritable --out, 1 internal error.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import math
import os
import sys
from functools import partial
from itertools import chain, product, repeat
from typing import NamedTuple

# The modules a table is computed from load with the CLI: the benchmark's span tracer (bench/spans.py)
# looks each one up in sys.modules. Only cmd_check loads one lazily, invariants (about 1.3 ms).
from . import __version__
from .correspondences import _BLOCK, SummationStatus, _blocks, basic_polynomial_column, exponential_series_column
from .functions import (
    DomainError,
    WaveSpec,
    _power_pass,
    amplitude_growth,
    closed_form_status,
    umbral_exp_column,
    umbral_trig_column,
)
from .operators import Correspondence, Kind
from .schrodinger import (
    ELECTRON_MASS_KG,
    PLANCK_LENGTH_M,
    PLANCK_TIME_S,
    PROTON_MASS_KG,
    NonPhysicalStateError,
    PhysicalUnits,
    _well_column,
    _well_levels,
    energy_bounds,
)

_CORR_CHOICES = (*(kind.value for kind in Kind), "all")
_FORMAT_CHOICES = ("csv", "json")

_DEFAULTS = {
    "sigma": 1.0,
    "corr": "all",
    "format": "csv",
    "window": "-10:10",
    "tol": 1e-10,
    "out": None,
}

_CONTINUOUS = {"sin": math.sin, "cos": math.cos, "sinh": math.sinh, "cosh": math.cosh}


class ConfigError(ValueError):
    pass


class Table:
    """A named table of ordered (name, values) columns over `rows` rows.

    part(rows) returns the columns over one range of rows, so a row that is
    never written is never computed; columns is part over every row.
    """

    def __init__(self, name: str, part, rows: int):
        self.name, self.part, self.rows = name, part, rows

    @property
    def columns(self) -> list:
        return self.part(range(self.rows))


def list_table(name: str, columns: list) -> Table:
    """The table of (name, list) columns, whose part slices the lists."""
    rows = len(columns[0][1]) if columns else 0
    return Table(name, lambda r: [(column, values[r.start : r.stop]) for column, values in columns], rows)


class RunConfig(NamedTuple):
    """One run: the keys of _DEFAULTS, validated, in order; meta.config echoes them."""

    sigma: float
    corr: str
    format: str
    window: tuple[int, int]
    tol: float
    out: str | None

    @property
    def corrs(self) -> list:
        """The run's correspondences at sigma: every kind for corr "all", else the one named."""
        return [Correspondence(kind, self.sigma) for kind in Kind if self.corr in (kind.value, "all")]


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def _double(what: str, value: int) -> int:
    """value, refused where float() cannot convert it: past the double range it has no x = m sigma."""
    try:
        float(value)
    except OverflowError:
        raise ConfigError(f"{what} must convert to a double") from None
    return value


def _parse_window(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split(":")
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise ConfigError(f"window must look like MIN:MAX, got {text!r}") from exc
    if lo > hi:
        raise ConfigError("window minimum exceeds maximum")
    return _double("window ends", lo), _double("window ends", hi)


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
    return RunConfig(sigma, corr, fmt, _parse_window(str(merged["window"])), tol, merged["out"])


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


# `%` specs that spell a cell of exactly this type as format_cell does
_SPECS = {float: "%.17g", int: "%d", str: "%s"}
_BOOL_WORDS = ("false", "true")


def _column_spelling(values):
    """(spec, convert): `spec % convert(cell)` is format_cell(cell) for every cell of the column.

    A range, or a column of one type in _SPECS, passes its cells as they are;
    a bool column is spelled by lookup; any other type, or a mix, goes
    through format_cell cell by cell.
    """
    if isinstance(values, range):
        return "%d", None
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    if kind in _SPECS:
        return _SPECS[kind], None
    return "%s", _BOOL_WORDS.__getitem__ if kind is bool else format_cell


def _csv_rows(table: Table, rows: range) -> str:
    """The CSV lines of one range of rows, from a row template of the column specs over those rows."""
    columns = table.part(rows)
    spellings = [_column_spelling(values) for _, values in columns]
    template = ",".join(spec for spec, _ in spellings) + "\n"
    cells = [vals if conv is None else list(map(conv, vals)) for (_, vals), (_, conv) in zip(columns, spellings)]
    return template * len(rows) % tuple(chain.from_iterable(zip(*cells)))


def _header(table: Table) -> str:
    return ",".join(name for name, _ in table.part(range(0))) + "\n"


def _pieces(table: Table) -> list:
    """The functions that build the table's CSV text in order: its header, then one per kernel block of rows."""
    return [partial(_header, table), *(partial(_csv_rows, table, rows) for rows in _blocks(range(table.rows)))]


def _json_value(v):
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


def _tables_to_json(command: str, cfg: RunConfig, tables: list[Table]) -> dict:
    return {
        "meta": {"command": command, "version": __version__, "config": cfg._asdict()},
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


def _claim(paths) -> None:
    """Open every path but None for writing without truncating it; on a failure remove the files this call created."""
    created = []
    try:
        for path in filter(None, paths):
            try:
                open(path, "x", encoding="utf-8").close()
                created.append(path)
            except FileExistsError:
                open(path, "a", encoding="utf-8").close()
    except OSError as exc:
        for made in created:
            os.remove(made)
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _workers(rows: int) -> int:
    """Processes that write `rows` CSV rows: one per CPU this process may run on, at most one per whole block.

    One where os.fork is missing, and in a process that runs other threads,
    whose locks a forked child could inherit held.
    """
    threading = sys.modules.get("threading")
    if not hasattr(os, "fork") or (threading is not None and threading.active_count() > 1):
        return 1
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else (os.cpu_count() or 1)
    return max(1, min(cpus, rows // _BLOCK))


def _say(stream, text: str = "") -> None:
    """Write text to stream, sys.stdout or sys.stderr, and flush it.

    A stderr that fails is ignored: a diagnostic that cannot be shown does not
    change the exit code. A stdout that fails raises.
    """
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        if stream is not sys.stderr:
            raise


def _take_turns(pieces: list, mine, turn_in: int, turn_out: int) -> int:
    """Build and append each (path, first, build) piece j with mine(j), in order; a first piece truncates.

    A piece with no path goes to sys.stdout. A piece that follows another
    process's waits for the turn token on turn_in; the token goes on to
    turn_out after a piece that another process follows. Each piece is built
    before its turn. One that fails raises on its turn, after every piece
    before it is written, and hands the turn on to no one: each other process
    then reads EOF for its next turn and stops.
    """
    for j in filter(mine, range(len(pieces))):
        path, first, build = pieces[j]
        try:
            text = build()
        except Exception as exc:  # raised on this piece's turn
            text = exc
        if j and not mine(j - 1) and not os.read(turn_in, 1):
            return 0  # the ring ended before this turn; the process that ended it reported why
        if isinstance(text, Exception):
            raise text
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w" if first else "a", encoding="utf-8") as handle:
                handle.write(text)
        if j + 1 < len(pieces) and not mine(j + 1):
            os.write(turn_out, b".")
    return 0


def _write_pieces(pieces: list, rows: int) -> int:
    """Each (path, first, build) piece, in order, by _workers(rows) processes; the worst exit code.

    Piece j is built by process j mod W and appended on its turn, which goes
    round a ring of pipes. A process whose piece fails prints the line main
    prints for it and ends the ring: the pieces before it are written and none
    after. With W = 1 this process takes every turn on a ring of one pipe.
    """
    workers = _workers(rows)
    _say(sys.stdout)
    _say(sys.stderr)
    ring = [os.pipe() for _ in range(workers)]  # process i reads its turns from ring[i] and hands them to ring[i + 1]
    held = list(chain.from_iterable(ring))
    children, codes = [], []

    def close_all_but(*keep):
        for fd in [fd for fd in held if fd not in keep]:
            held.remove(fd)
            os.close(fd)

    try:
        for i in range(1, workers):
            try:
                pid = os.fork()
            except OSError:  # no process to spare: fewer workers
                break
            if pid == 0:  # a child never returns into its caller
                code = 1
                try:
                    ends = ring[i][0], ring[(i + 1) % workers][1]
                    close_all_but(*ends)
                    code = _exit_code(partial(_take_turns, pieces, lambda j: j % workers == i, *ends))
                finally:
                    os._exit(code)
            children.append(pid)
        # the parent takes process 0's turns and those of every process that did not fork
        forked = len(children) + 1
        ends = ring[forked % workers][0], ring[1 % workers][1]
        close_all_but(*ends)
        codes.append(_exit_code(partial(_take_turns, pieces, lambda j: not 0 < j % workers < forked, *ends)))
    finally:
        close_all_but()  # before the waits: a process that stopped then ends the ring with EOF, not a hang
        for pid in children:
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status < 0:  # killed: its pieces and every later one are unwritten
                _say(sys.stderr, f"internal error: a writer process was killed by signal {-status}\n")
                status = 1
            codes.append(status)
    return max(codes)


def emit(command: str, cfg: RunConfig, tables: list[Table], multi_table: bool = False) -> int:
    """One JSON document, a CSV --out file per table, or the first table's CSV on stdout and a note naming the rest.

    Each is a list of (path, first, build) pieces for _write_pieces, no path meaning stdout. JSON and
    stdout are written by this process alone (rows = 0): a forked child cannot write into a stand-in for it.
    """
    out, omitted, rows = cfg.out or None, "", 0  # an empty --out is stdout
    if cfg.format == "json":
        import json  # only here: it costs every other run start-up time

        text = json.dumps(_tables_to_json(command, cfg, tables), indent=2) + "\n"
        paths, texts = [out], [[lambda: text]]
    elif out:
        paths = [f"{out}_{table.name}.csv" for table in tables] if multi_table else [out]
        texts, rows = [_pieces(table) for table in tables], sum(table.rows for table in tables)
    else:
        paths, texts, omitted = [None], [_pieces(tables[0])], ", ".join(t.name for t in tables[1:])
    _claim(paths)
    pieces = [(path, j == 0, build) for path, builds in zip(paths, texts) for j, build in enumerate(builds)]
    code = _write_pieces(pieces, rows)
    if omitted and code == 0:
        _say(sys.stderr, f"note: tables omitted on csv stdout ({omitted}); pass --out BASE or --format json\n")
    return code


def _columns(names: str, rows) -> list:
    """Columns with the space-separated names, filled from an iterable of rows."""
    columns = [(column, []) for column in names.split()]
    appends = [values.append for _, values in columns]
    for row in rows:
        for append, cell in zip(appends, row):
            append(cell)
    return columns


def _axis(sigma: float, ms: range) -> list:
    """The m and x = m sigma columns over the lattice indices ms."""
    return [("m", ms), ("x", [m * sigma for m in ms])]


def _window_table(name: str, cfg: RunConfig, columns) -> Table:
    """The table over the points of cfg.window: the _axis columns, then columns(ms, xs) over a range ms of them.

    xs is the x column over ms, for columns that are functions of x.
    """
    points = range(cfg.window[0], cfg.window[1] + 1)

    def part(rows: range) -> list:
        ms = points[rows.start : rows.stop]
        axis = _axis(cfg.sigma, ms)
        return axis + columns(ms, axis[1][1])

    return Table(name, part, len(points))


def _continuous(fn, x: float) -> float:
    """fn(x) for exp, sin, cos, sinh or cosh; past the double range the inf of fn's sign."""
    try:
        return fn(x)
    except OverflowError:
        return math.copysign(math.inf, x) if fn is math.sinh else math.inf


def _parse_int_list(text: str, what: str) -> list[int]:
    """The integers of a comma-separated list, a repeated one kept at its first place."""
    try:
        return list(dict.fromkeys(int(part) for part in text.split(",") if part.strip() != ""))
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
    corrs = cfg.corrs

    def columns(ms: range, xs: list) -> list:
        columns = [(f"continuous_n{n}", _power_pass(xs, repeat(n))) for n in degrees]
        columns += [(f"{c.kind.value}_n{n}", list(basic_polynomial_column(c, n, ms))) for c in corrs for n in degrees]
        return columns

    return emit("polys", cfg, [_window_table("basic_polynomials", cfg, columns)])


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
        _say(sys.stderr, "note: series columns disabled, emitting closed forms only\n")
    corrs = cfg.corrs
    for c in corrs:  # a 0 base (k sigma = -1 right, 1 left) to a negative power fails at an end of the window
        list(umbral_exp_column(c, k, cfg.window))

    def columns(ms: range, xs: list) -> list:
        columns = [("continuous", [_continuous(math.exp, k * m * cfg.sigma) for m in ms])]
        for c in corrs:
            name = c.kind.value
            columns.append((f"{name}_closed", list(umbral_exp_column(c, k, ms))))
            if with_series:
                rows = ((value, status.value) for value, status in exponential_series_column(c, k, ms, cfg.tol))
                columns += _columns(f"{name}_series {name}_status", rows)
        return columns

    return emit("exp", cfg, [_window_table("exponential", cfg, columns)])


def cmd_trig(cfg: RunConfig, args: argparse.Namespace) -> int:
    which = args.which
    wave_of, given = (WaveSpec.from_points, args.l) if args.l is not None else (WaveSpec.from_momentum, args.k)
    waves = [wave_of(c, given) for c in cfg.corrs]
    for wave in waves:  # the domain (sinh and cosh refuse the k sigma = 1 wave), checked before any output
        umbral_trig_column(wave.correspondence, wave.k, (), which)
    continuous = _CONTINUOUS[which]

    def samples(ms: range, xs: list) -> list:
        columns = []
        for wave in waves:
            c, k = wave.correspondence, wave.k
            columns.append((f"{c.kind.value}_{which}", list(umbral_trig_column(c, k, ms, which))))
            columns.append((f"{c.kind.value}_continuous", [_continuous(continuous, k * m * cfg.sigma) for m in ms]))
        return columns

    rows = (
        (w.correspondence.kind.value, w.k, w.k * cfg.sigma, w.wavelength, w.points_per_wavelength, w.is_minimal,
         None if w.correspondence.kind is Kind.SYMMETRIC else amplitude_growth(w.points_per_wavelength, 1))
        for w in waves
    )
    names = "correspondence k k_sigma lambda points_per_wavelength is_minimal amplitude_factor_per_period"
    parameters = list_table("wave_parameters", _columns(names, rows))
    return emit("trig", cfg, [_window_table("samples", cfg, samples), parameters], multi_table=True)


def cmd_well(cfg: RunConfig, args: argparse.Namespace) -> int:
    M = args.points
    if M < 2:
        raise ConfigError("--points must be >= 2")
    _double("--points", M)
    levels = _parse_int_list(args.levels, "--levels") if args.levels else []
    for n in levels:
        if not 1 <= n <= M - 1:
            raise ConfigError(f"level {n} outside [1, {M - 1}]")

    corrs = cfg.corrs
    half, width = M // 2, M * cfg.sigma
    names = "correspondence n k energy physical convergent degenerate_with energy_continuous"

    def spectrum(rows: range) -> list:  # row i is level i % half + 1 of correspondence i // half
        columns = [(name, []) for name in names.split()]
        for block, c in enumerate(corrs):
            ns = range(max(rows.start - block * half, 0) + 1, min(rows.stop - block * half, half) + 1)
            degenerate_with = range(M - ns.start, M - ns.stop, -1)
            energy_continuous = _power_pass([n * math.pi / width for n in ns], repeat(2))
            spec = _well_levels(c, M, ns)
            values = (
                [c.kind.value] * len(ns), ns, spec.momentum, spec.energy, spec.physical, spec.convergent,
                degenerate_with, energy_continuous,
            )
            for (_, column), part in zip(columns, values):
                column.extend(part)
        return columns

    def samples(psi, rows: range) -> list:  # row i is the point m = i
        return [*_axis(cfg.sigma, rows), ("psi", list(psi(rows)))]

    tables = [Table("spectrum", spectrum, half * len(corrs))]
    for c, n in product(corrs, levels):
        try:  # the level is checked here; the samples are computed only if the table is written
            psi = _well_column(c, M, n)
        except DomainError:
            note = f"note: skipping {c.kind.value} level {n}: momentum beyond the k sigma = 1 convergence boundary\n"
            _say(sys.stderr, note)
            continue
        tables.append(Table(f"wavefunction_{c.kind.value}_n{n}", partial(samples, psi), M + 1))
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
    table = list_table("bounds", _columns("particle mass_kg e_max_time_ev e_max_space_ev e_binding_ev", rows))
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
    common.add_argument("--window", help="lattice index window MIN:MAX (use --window=-10:10)")
    common.add_argument("--tol", type=float, help="series tolerance (default 1e-10)")
    common.add_argument("--out", help="output path (base path for multi-table csv)")

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


def _exit_code(run) -> int:
    """run(), or the exit code of the exception it raises, after printing that exception's stderr line."""
    try:
        return run()
    except (ConfigError, DomainError, NonPhysicalStateError) as exc:  # what a user's input can raise
        _say(sys.stderr, f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:
        _say(sys.stderr, f"internal error: {exc}\n")
        return 1


def main(argv=None) -> int:
    for name in ("stdout", "stderr"):  # one closed when the process started is None: make it a null sink
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, "w", encoding="utf-8"))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _exit_code(lambda: args.func(resolve_config(args), args))


def console_main() -> None:
    """The `umbralqm` script: main(), then the exit handlers, the stream flushes and os._exit.

    This skips the interpreter's teardown (module clean-up and a last garbage
    collection, about 6 ms a run), which the CLI does not need: every file it
    writes is closed by its with block, _write_pieces reaps every writer it
    forks, and it starts no thread. A stdout that cannot be flushed turns
    exit code 0 into 1, as a failed write does in main.
    """
    code = main()
    atexit._run_exitfuncs()  # what coverage and other tools register to save their data at exit
    if code == 0:
        code = _exit_code(partial(_say, sys.stdout)) or 0
    else:  # the run has said why it failed; the rows it wrote still go out where they can
        with contextlib.suppress(OSError):
            _say(sys.stdout)
    _say(sys.stderr)
    os._exit(code)


if __name__ == "__main__":
    console_main()
