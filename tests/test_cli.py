"""Command line behavior: formats, exit codes, configuration, emitted data."""

import contextlib
import hashlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
from importlib import resources
from itertools import chain
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from csv_reader import read_csv, write_csv
from umbralqm import cli, invariants
from umbralqm.cli import _CHUNK_ROWS, format_cell, list_table, main
from umbralqm.functions import DiscreteFunction, DomainError
from umbralqm.operators import Kind
from umbralqm.schrodinger import EnergyBounds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def columns_of(csv_text):
    table = read_csv(io.StringIO(csv_text))
    return {name: values for name, values in table.columns}


def load_schema():
    path = resources.files("umbralqm") / "schemas" / "output.schema.json"
    return json.loads(path.read_text())


# any double, with the ones that break arithmetic drawn often
EXTREMES = [math.nan, math.inf, -math.inf, 5e-324, -1e-310, 1e-170, 1e300, -1e300, 0.0, -0.0]
NUMBERS = st.sampled_from(EXTREMES) | st.floats()


@st.composite
def cli_argvs(draw):
    """One subcommand with random numeric options on windows of at most 5 points."""
    command = draw(st.sampled_from(("polys", "exp", "trig", "well", "bounds", "check")))

    def number(flag):
        return f"--{flag}={draw(NUMBERS)!r}"

    argv = [command, *(number(flag) for flag in ("sigma", "tol") if draw(st.booleans()))]
    lo = draw(st.integers(-60, 60))
    argv += [f"--window={lo}:{lo + draw(st.integers(0, 4))}"]
    argv += ["--corr", draw(st.sampled_from(("right", "left", "symmetric", "all")))]
    if command == "polys":
        argv += ["--n", ",".join(map(str, draw(st.lists(st.integers(0, 64), min_size=1, max_size=3))))]
    elif command == "exp":
        argv += [number("k"), *(["--no-series"] if draw(st.booleans()) else [])]
    elif command == "trig":
        argv += [number(draw(st.sampled_from(("k", "l"))))]
        argv += ["--which", draw(st.sampled_from(("sin", "cos", "sinh", "cosh")))]
    elif command == "well":
        argv += ["--points", str(draw(st.integers(0, 64)))]
        argv += ["--levels", ",".join(map(str, draw(st.lists(st.integers(0, 64), max_size=3))))]
    elif command == "bounds":
        argv += ["--particle", draw(st.sampled_from(("electron", "proton", "custom", "both")))]
        argv += [number(flag) for flag in ("mass", "sigma-m", "tau-s") if draw(st.booleans())]
    return argv


@settings(max_examples=150)
@example(["bounds", "--sigma-m=1e-170"])  # sigma^2 underflowed: a division by zero
@example(["well", "--points=8", "--sigma=1e-300"])  # k^2 overflowed in the spectrum
@example(["trig", "--l=4", "--sigma=107", "--corr=symmetric", "--window=0:1"])  # asin(k sigma) near 1
@example(["trig", "--k=1e-170", "--sigma=1e-140", "--window=0:1"])  # lambda/sigma overflowed: inf points
@given(argv=cli_argvs())
def test_random_and_non_finite_numbers_exit_0_or_2(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "internal error" not in err.getvalue(), argv


def reference_csv(table):
    """The CSV spelled cell by cell: header, then format_cell of each value joined by commas."""
    rows = len(table.columns[0][1]) if table.columns else 0
    lines = [",".join(name for name, _ in table.columns)]
    lines += [",".join(format_cell(values[i]) for _, values in table.columns) for i in range(rows)]
    return "".join(line + "\n" for line in lines)


CELL_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300]) | st.floats()
CELL_INTS = st.integers() | st.integers(-(2**80), 2**80)
# cell pools of one type, and the mixes that no single `%` spec spells
COLUMN_POOLS = st.sampled_from(
    [
        CELL_FLOATS,
        CELL_INTS,
        st.booleans(),
        st.sampled_from(["", "100%", "%d%s"]) | st.text(),
        st.none() | CELL_INTS,
        st.none() | CELL_FLOATS,
        CELL_INTS | CELL_FLOATS,
        CELL_INTS | st.booleans(),
    ]
).flatmap(lambda cells: st.lists(cells, min_size=1, max_size=6))


@settings(max_examples=200)
@given(
    rows=st.sampled_from([0, 1, 2, 7, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 3]),
    pools=st.lists(COLUMN_POOLS, max_size=5),
)
def test_csv_writer_spells_every_cell_as_format_cell(rows, pools):
    columns = [(f"c{j}", [pool[i % len(pool)] for i in range(rows)]) for j, pool in enumerate(pools)]
    table = list_table("t", columns)
    out = io.StringIO()
    write_csv(table, out)
    # lists of lines, so that a failure reports the first bad row without diffing the whole text
    assert out.getvalue().split("\n") == reference_csv(table).split("\n")


@pytest.mark.parametrize("tail", [[None], [True, False], [0.5], ["x"]], ids=["none", "bools", "float", "str"])
def test_csv_chunks_spell_a_column_whose_cell_types_change_between_chunks(tail):
    # the first chunk holds only ints, and so is spelled by "%d"; the last holds the tail
    ints = list(range(-5, _CHUNK_ROWS - 5))
    table = list_table("t", [("c", ints + tail), ("d", [True] * _CHUNK_ROWS + [None] * len(tail))])
    out = io.StringIO()
    write_csv(table, out)
    assert out.getvalue() == reference_csv(table)


# sha256 of every file each argv writes, as a writer that spelled cell by cell
# wrote them; the trig tables hold signed inf, -0, empty cells and bools, exp
# holds status strings
PINNED_CSV = [
    (
        ["well", "--points", "2000", "--levels", "1,3", "--sigma", "0.3", "--out", "well"],
        {
            "well_spectrum.csv": "1ea2a98c99e2a2ae6307cb0567dcba4d4adef9b76a001a9f785057cdb7b68488",
            "well_wavefunction_left_n1.csv": "62dbd5143cf6ee7f5e386536377d7bc42334b1fc5c3edbe9632054fc2a085c7e",
            "well_wavefunction_left_n3.csv": "1bbcebc08e993316cbe10229253634c918f4152701720cc097ca28e1695f970b",
            "well_wavefunction_right_n1.csv": "11ee9b53128f8bda22fcd944813a695f986bb275c2c2337834070a88c3c42e52",
            "well_wavefunction_right_n3.csv": "c795f5ce4c18173206459acc52d4ac6f8aa66da7a4c01c2e78af1d001c4f4bf0",
            "well_wavefunction_symmetric_n1.csv": "ee8a5577d73c24dbd33f10b0b6a8dddd8e8274e6b055fd8dd5423d07fd2315ff",
            "well_wavefunction_symmetric_n3.csv": "cb66e53d6aabb74645cdd2e5d42a91f709abf335049af6f4f76d6029b0e803a5",
        },
    ),
    (
        ["polys", "--n", "0,2,7", "--sigma", "0.2", "--window=-500:500", "--out", "polys.csv"],
        {
            "polys.csv": "d3af9816ebf3ae97e118f735495c890c0068a3f006cdddb7f54eda60b214e204",
        },
    ),
    (
        ["trig", "--l", "8", "--window=-3000:3000", "--out", "trig"],
        {
            "trig_samples.csv": "3fccc8681cd0f0d8495f831e5ee98a5cdee26ddc37787376deb0a300c98b3c9f",
            "trig_wave_parameters.csv": "04b414f01a0363234e6a447afccc365888e984b2060fedddcf958114efe498cc",
        },
    ),
    (
        ["exp", "--k", "2", "--sigma", "0.1", "--window=-20:20", "--out", "exp.csv"],
        {
            "exp.csv": "5c075b6c312b5ab163da87ba448682eaa586f50175126789a14107fdf7e04f38",
        },
    ),
    (
        ["bounds", "--out", "bounds.csv"],
        {
            "bounds.csv": "017546af7b9c215fc0118d72c9cfafb8d4c37f74b1312c7be51da915c6ff1099",
        },
    ),
]


@pytest.mark.parametrize("argv,digests", PINNED_CSV, ids=[argv[0] for argv, _ in PINNED_CSV])
def test_csv_output_bytes_are_pinned(capsys, tmp_path, argv, digests):
    code, _, err = run(capsys, *argv[:-1], str(tmp_path / argv[-1]))
    assert code == 0, err
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()} == digests


# sha256 of stdout and of the files each argv writes, run in an empty working
# directory (a JSON document records --out as given), and its exact stderr:
# JSON on stdout and to a file, a single CSV table on stdout, a multi-table
# command on CSV stdout with its note, and a multi-table command that has one table
PINNED_STREAMS = [
    (
        ["exp", "--k", "2", "--sigma", "0.1", "--window=-20:20", "--format", "json"],
        "5e67b55f6b14fe58dc95e2d0323cdf584a1134d15c477296f32bc69d2d04fc6e",
        "",
        {},
    ),
    (
        ["well", "--points", "16", "--levels", "1,15", "--format", "json"],
        "0662a7ea7a8f5441e5867e35c408f62b6fa75bd07c7ecb6218cf6ec42582af9e",
        "",
        {},
    ),
    (
        ["polys", "--n", "2", "--window=-3:3"],
        "fd742894afa964b8d98ac837e8266a2a7e2415165d9bb71c778e2f442d9b33b8",
        "",
        {},
    ),
    (
        ["trig", "--l", "8", "--window=-3:3"],
        "33c0f75268c6299b1bc429c331a94d324c18b90cb87b071277bc1bacaee876b8",
        "note: tables omitted on csv stdout (wave_parameters); pass --out BASE or --format json\n",
        {},
    ),
    (
        ["exp", "--k", "0.5", "--format", "json", "--out", "e.json"],
        hashlib.sha256(b"").hexdigest(),
        "",
        {"e.json": "b56176d2cb62c3e12c78eb55544f364d27588e2d185e0d7faa3b1fc066e4c38b"},
    ),
    (
        ["well", "--points", "6", "--out", "base"],
        hashlib.sha256(b"").hexdigest(),
        "",
        {"base_spectrum.csv": "e607a8fd4745a672a813c53bbcdcdfff0ca0ea40d5a635a6819f14e8343e1885"},
    ),
    # the past-the-range rules: right/left wavefunctions whose envelope nears
    # 1e135-1e150, with the levels past k sigma = 1 skipped by name, and
    # basic polynomial columns whose running products overflow and underflow
    (
        ["well", "--points", "1000", "--levels", "1,249,499,501,751", "--format", "json"],
        "d91214e470381d2af56a28ded4db6d3e09b24c7e3a240ea28d29f0df41ae3108",
        "".join(
            f"note: skipping {kind} level {n}: momentum beyond the k sigma = 1 convergence boundary\n"
            for kind in ("right", "left")
            for n in (499, 501)
        ),
        {},
    ),
    (
        ["polys", "--n", "3,90", "--sigma", "1e150", "--window=-50:50"],
        "1a9e4d7adc1bace140b3c452dbd910d3f40362dafd55dbff430dba288bb68406",
        "",
        {},
    ),
    (
        ["polys", "--n", "0,2,7,40", "--sigma", "1e-200", "--window=-300:300"],
        "7cbd096142557375a9d13c087b01078194ebc204623f3fae3da3b51cb491bb52",
        "",
        {},
    ),
    # a well on csv stdout: the spectrum, a note per level past k sigma = 1, and the omitted tables named
    (
        ["well", "--points", "16", "--levels", "1,5,15"],
        "7863a70d52c12d3a34682f8853d1cfa4d28c1f2f605a2ec2c46abd106b1186ab",
        "note: skipping right level 5: momentum beyond the k sigma = 1 convergence boundary\n"
        "note: skipping left level 5: momentum beyond the k sigma = 1 convergence boundary\n"
        "note: tables omitted on csv stdout (wavefunction_right_n1, wavefunction_right_n15, "
        "wavefunction_left_n1, wavefunction_left_n15, wavefunction_symmetric_n1, wavefunction_symmetric_n5, "
        "wavefunction_symmetric_n15); pass --out BASE or --format json\n",
        {},
    ),
    # the series engine's heavy strata, pinned from the per-cell engine before
    # the columns walked: right near k sigma = 1 (long sums toward m = 0), left
    # with long sums, and a symmetric window far out where N = |m|
    (
        ["exp", "--k", "1", "--sigma", "0.9", "--window=-105:-82", "--format", "json"],
        "89e197e96af65df263e164533cfc9d9f7dd6017b42f27db8c33328d618e4cfa7",
        "",
        {},
    ),
    (
        ["exp", "--k", "2", "--sigma", "0.475", "--window=125:148", "--format", "json"],
        "e7cc898072f88204ef68106b31faea4775840f400f487511f0c8ae68b54ccb82",
        "",
        {},
    ),
    (
        ["exp", "--k", "0.25", "--sigma", "0.8", "--window=940:963", "--format", "json"],
        "657c93c517d114aceb548a9a424da7d54cb4c0a2a8b02bd2111ceb0fe3005c98",
        "",
        {},
    ),
]


@pytest.mark.parametrize(
    "argv,stdout_digest,stderr,digests", PINNED_STREAMS, ids=[" ".join(argv) for argv, *_ in PINNED_STREAMS]
)
def test_stdout_and_json_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv, stdout_digest, stderr, digests):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    assert err == stderr
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()} == digests


# one command per output shape, with the path it opens first for a given --out
UNWRITABLE_OUT = [
    (["polys", "--n", "1", "--window=0:2"], ""),
    (["well", "--points", "8", "--levels", "1"], "_spectrum.csv"),
    (["bounds", "--format", "json"], ""),
]


@pytest.mark.parametrize("argv,suffix", UNWRITABLE_OUT, ids=[argv[0] for argv, _ in UNWRITABLE_OUT])
@pytest.mark.parametrize("blocker", ["missing directory", "existing directory"])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv, suffix, blocker):
    if blocker == "missing directory":
        base = tmp_path / "missing" / "out"
    else:
        base = tmp_path / "out"
        (tmp_path / f"out{suffix}").mkdir()
    code, out, err = run(capsys, *argv, "--out", str(base))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {base}{suffix}: ")
    assert "internal error" not in err


# refused by a kernel's domain, checked before any output
REFUSED = [
    (["exp", "--k", "1", "--no-series", "--window=-3:3"], "error: closed form is 0 raised to a negative power"),
    (["trig", "--l", "4", "--which", "sinh", "--corr", "symmetric"], "error: sinh/cosh require |k sigma| < 1"),
]


@pytest.mark.parametrize("out", [None, "o.csv"], ids=["stdout", "out"])
@pytest.mark.parametrize("argv,line", REFUSED, ids=[argv[0] for argv, _ in REFUSED])
def test_a_refused_table_writes_nothing(capsys, tmp_path, monkeypatch, argv, line, out):
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv, *(["--out", out] if out else []))
    assert (code, stdout) == (2, "")
    assert err.splitlines()[-1] == line
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existing", [False, True])
def test_multi_table_out_that_fails_writes_nothing(capsys, tmp_path, existing):
    # the third of four tables cannot be opened; the first two must not be written either
    (tmp_path / "w_wavefunction_left_n1.csv").mkdir()
    if existing:
        (tmp_path / "w_spectrum.csv").write_bytes(b"kept\n")
    code, out, err = run(capsys, "well", "--points", "8", "--levels", "1", "--out", str(tmp_path / "w"))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path / 'w_wavefunction_left_n1.csv'}: ")
    left = {p.name for p in tmp_path.iterdir()}
    assert left == {"w_wavefunction_left_n1.csv", *(["w_spectrum.csv"] if existing else [])}
    if existing:
        assert (tmp_path / "w_spectrum.csv").read_bytes() == b"kept\n"


def cpus(monkeypatch, count):
    """Let this process run on `count` CPUs, as cli._workers reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def deadline():
    """Fail a test that hangs, rather than stall the run: SIGALRM raises, and again each second after."""

    def expired(signum, frame):
        signal.alarm(1)
        raise TimeoutError("the test hung")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(30)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def test_workers_are_one_per_cpu_and_at_most_one_per_chunk(monkeypatch):
    rows = [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, 2 * _CHUNK_ROWS - 1, 2 * _CHUNK_ROWS, 3 * _CHUNK_ROWS, 10**6]
    cpus(monkeypatch, 3)
    assert [cli._workers(n) for n in rows] == [1, 1, 1, 1, 1, 2, 3, 3]
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # cpu_count where affinity is missing
    assert [cli._workers(n) for n in rows] == [1, 1, 1, 1, 1, 2, 3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._workers(10**6) == 1


def test_one_worker_without_fork_or_beside_another_thread(monkeypatch):
    cpus(monkeypatch, 4)
    rows = 4 * _CHUNK_ROWS
    assert cli._workers(rows) == 4
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert cli._workers(rows) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert cli._workers(rows) == 4
    monkeypatch.delattr(os, "fork", raising=False)
    assert cli._workers(rows) == 1


PARALLEL_OUT = [
    pytest.param(["well", "--points", "2000", "--levels", "1,2,3"], id="well"),
    pytest.param(["trig", "--l", "12"], id="trig"),
    pytest.param(["polys", "--n", "2,7", "--sigma", "0.2", "--window=-9000:9000"], id="polys-single-file"),
    # wavefunction tables of _CHUNK_ROWS - 1 and _CHUNK_ROWS rows; a spectrum of _CHUNK_ROWS
    # rows beside one of 2 _CHUNK_ROWS + 1
    pytest.param(["well", "--points", str(_CHUNK_ROWS - 2), "--levels", "1"], id="well-chunk-minus-1"),
    pytest.param(["well", "--points", str(_CHUNK_ROWS - 1), "--levels", "1"], id="well-chunk"),
    pytest.param(
        ["well", "--points", str(2 * _CHUNK_ROWS), "--corr", "symmetric", "--levels", "1"], id="well-2-chunks-plus-1"
    ),
    pytest.param(["trig", "--l", "12", "--corr", "symmetric", "--window=-5000:5000"], id="trig-one-row-table"),
    pytest.param(["well", "--points", "9000", "--levels", "1,3000"], id="well-skipped-level"),
    # a series over three chunks, each begun by a fresh binary split; closed forms only, with a note
    pytest.param(["exp", "--k", "0.5", "--corr", "right", "--window=-100:9000"], id="exp-series"),
    pytest.param(["exp", "--k", "0.5", "--no-series", "--window=-9000:9000"], id="exp-no-series"),
]
needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="one writer without os.fork")


@needs_fork
@pytest.mark.parametrize("argv", PARALLEL_OUT)
def test_parallel_out_writes_the_serial_bytes(capfd, tmp_path, monkeypatch, deadline, argv):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    me, files, streams = os.getpid(), {}, {}
    for workers in (1, 2, 4):
        cpus(monkeypatch, workers)
        forks.clear()
        base = tmp_path / str(workers) / "o"
        base.parent.mkdir()
        code = main([*argv, "--out", str(base)])
        if os.getpid() != me:  # a worker that returned into its caller
            os._exit(99)
        assert code == 0
        assert_no_child_left()
        files[workers] = {path.name: path.read_bytes() for path in base.parent.iterdir()}
        streams[workers] = capfd.readouterr()
        rows = sum(text.count(b"\n") - 1 for text in files[workers].values())
        assert len(forks) == max(1, min(workers, rows // _CHUNK_ROWS)) - 1
    assert streams[1].out == "" and streams[2] == streams[4] == streams[1]
    assert all(files[1].values())
    assert files[2] == files[1] and files[4] == files[1]


# each argv, and the --out file (of base "o") that holds its first table
FIRST_TABLE_FILE = [
    (["polys", "--n", "2,7", "--window=-9000:9000"], "o"),  # five chunks
    (["exp", "--k", "0.5", "--window=-20:20"], "o"),
    (["trig", "--l", "12", "--window=-30:30"], "o_samples.csv"),
    (["well", "--points", "8", "--levels", "1"], "o_spectrum.csv"),
    (["bounds"], "o"),
]


@needs_fork
@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("argv, first", FIRST_TABLE_FILE, ids=[argv[0] for argv, _ in FIRST_TABLE_FILE])
def test_stdout_and_out_give_the_same_bytes(capfd, tmp_path, monkeypatch, deadline, workers, argv, first):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    cpus(monkeypatch, workers)
    me = os.getpid()
    for fmt in ("csv", "json"):
        base = tmp_path / fmt / "o"
        base.parent.mkdir()
        assert main([*argv, "--format", fmt]) == 0
        assert forks == []  # stdout is written by this process alone
        code = main([*argv, "--format", fmt, "--out", str(base)])
        if os.getpid() != me:  # a worker that returned into its caller
            os._exit(99)
        assert code == 0
        assert_no_child_left()
        # only the five-chunk CSV file is written by more than one process; JSON by this one alone
        assert len(forks) == (workers - 1 if (argv[0], fmt) == ("polys", "csv") else 0)
        forks.clear()
        stdout = capfd.readouterr().out
        written = (base.parent / (first if fmt == "csv" else "o")).read_text(encoding="utf-8")
        if fmt == "json":  # meta.config echoes --out
            echo = f'"out": {json.dumps(str(base))}'
            assert written.count(echo) == 1
            written = written.replace(echo, '"out": null')
        assert stdout == written


# --points 9000 --levels 1,2 writes, as pieces (a header, then chunks of _CHUNK_ROWS rows):
# the spectrum 0-4, then four for each wavefunction table: right 5-12, left 13-20, symmetric 21-28
FAILING_ARGV = ["well", "--points", "9000", "--levels", "1,2", "--out"]
TABLE_ORDER = ["_spectrum.csv"]
TABLE_ORDER += [f"_wavefunction_{kind}_n{n}.csv" for kind in ("right", "left", "symmetric") for n in (1, 2)]


def clean_files(tmp_path, monkeypatch):
    """The files one worker writes for FAILING_ARGV, by suffix."""
    cpus(monkeypatch, 1)
    assert main([*FAILING_ARGV, str(tmp_path / "clean")]) == 0
    return {path.name[len("clean") :]: path.read_bytes() for path in tmp_path.glob("clean_*")}


@needs_fork
@pytest.mark.parametrize("failing_fork", [1, 2, 3])
def test_a_fork_that_fails_leaves_fewer_workers(capfd, tmp_path, monkeypatch, deadline, failing_fork):
    clean = clean_files(tmp_path, monkeypatch)
    forks, fork = [], os.fork

    def fails_once():
        forks.append(1)
        if len(forks) == failing_fork:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        return fork()

    cpus(monkeypatch, 4)
    monkeypatch.setattr(os, "fork", fails_once)
    me = os.getpid()
    code = main([*FAILING_ARGV, str(tmp_path / "few")])
    if os.getpid() != me:
        os._exit(99)
    assert code == 0
    assert_no_child_left()
    assert len(forks) == failing_fork  # the parent takes the failed process's turns and those after it
    assert {p.name[len("few") :]: p.read_bytes() for p in tmp_path.glob("few_*")} == clean
    assert capfd.readouterr() == ("", "")


@needs_fork
@pytest.mark.parametrize("workers", [2, 4])
def test_a_killed_worker_is_an_internal_error(capfd, tmp_path, monkeypatch, deadline, workers):
    me, take_turns = os.getpid(), cli._take_turns

    def killed_in_a_child(pieces, mine, *ends):
        if os.getpid() != me and mine(1):  # the process that takes the second turn
            os.kill(os.getpid(), signal.SIGKILL)
        return take_turns(pieces, mine, *ends)

    cpus(monkeypatch, workers)
    monkeypatch.setattr(cli, "_take_turns", killed_in_a_child)
    code = main([*FAILING_ARGV, str(tmp_path / "w")])
    line = f"internal error: a writer process was killed by signal {int(signal.SIGKILL)}\n"
    assert (code, capfd.readouterr()) == (1, ("", line))
    assert_no_child_left()
    # the parent wrote piece 0, the spectrum's header; the ring ended at the killed process's turn
    files = {path.name[len("w") :]: path.read_bytes() for path in tmp_path.iterdir()}
    header = b"correspondence,n,k,energy,physical,convergent,degenerate_with,energy_continuous\n"
    assert files == {name: header if name == "_spectrum.csv" else b"" for name in TABLE_ORDER}


@needs_fork
@pytest.mark.parametrize("workers", [1, 2, 4])
@pytest.mark.parametrize("chunk, owner", [(1, "child"), (2, "parent")])
@pytest.mark.parametrize(
    "error, code, line",
    [
        (ZeroDivisionError("division by zero"), 1, "internal error: division by zero"),
        (DomainError("bad"), 2, "error: bad"),
    ],
    ids=["internal", "usage"],
)
def test_a_failing_table_gives_mains_line_and_code(
    capfd, tmp_path, monkeypatch, deadline, workers, chunk, owner, error, code, line
):
    clean = clean_files(tmp_path, monkeypatch)
    column = cli._well_column

    def broken(value):
        raise error

    def failing(c, M, n):
        psi = column(c, M, n)  # the level's domain check stays
        if (c.kind, n) != (Kind.LEFT, 2):
            return psi
        # that chunk and every later one fail, as a wrong formula would: only the first may be reported
        return lambda ms: map(broken, psi(ms)) if ms and ms[0] >= chunk * _CHUNK_ROWS else psi(ms)

    failed = TABLE_ORDER.index("_wavefunction_left_n2.csv")
    later = TABLE_ORDER[failed + 1 :]
    (tmp_path / f"w{later[-1]}").write_bytes(b"kept\n")  # an existing file that _claim leaves as it is
    rows = [clean[name].count(b"\n") - 1 for name in TABLE_ORDER[:failed]]
    piece = sum(1 + -(-n // _CHUNK_ROWS) for n in rows) + 1 + chunk
    assert piece == 18 + chunk  # the layout in FAILING_ARGV's comment
    assert workers == 1 or (piece % workers == 0) == (owner == "parent")
    monkeypatch.setattr(cli, "_well_column", failing)
    cpus(monkeypatch, workers)
    me = os.getpid()
    got = main([*FAILING_ARGV, str(tmp_path / "w")])
    if os.getpid() != me:  # a worker that returned into its caller
        os._exit(99)
    assert (got, capfd.readouterr()) == (code, ("", line + "\n"))
    assert_no_child_left()
    files = {path.name[len("w") :]: path.read_bytes() for path in tmp_path.glob("w_*")}
    # every table before the failing one, and that one cut after its last chunk before the failure
    assert sorted(files) == sorted(TABLE_ORDER)
    assert all(files[name] == clean[name] for name in TABLE_ORDER[:failed])
    kept_lines = clean[TABLE_ORDER[failed]].splitlines(keepends=True)[: 1 + chunk * _CHUNK_ROWS]
    assert files[TABLE_ORDER[failed]] == b"".join(kept_lines)
    assert all(files[name] == b"" for name in later[:-1]) and files[later[-1]] == b"kept\n"


def peak_rss_mb(tmp_path, *argv):
    """The peak RSS, by os.wait4, of a fresh `umbralqm` process spawned by a bare interpreter.

    A process's peak counts at least the resident size of the process that
    spawned it, and pytest's is larger than any peak measured here.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    launch = "import os, subprocess, sys; _, s, u = os.wait4(subprocess.Popen(sys.argv[1:]).pid, 0); "
    launch += "print(s, u.ru_maxrss)"
    argv = [sys.executable, "-c", launch, sys.executable, "-m", "umbralqm.cli", *argv, "--out", str(tmp_path / "o")]
    status, peak_kb = map(int, subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout.split())
    assert os.waitstatus_to_exitcode(status) == 0
    return peak_kb / 1024


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="peak RSS from os.wait4")
@pytest.mark.parametrize(
    "argv",
    [["polys", "--n", "2,7"], ["trig", "--l", "12"], ["exp", "--k", "0.5", "--no-series"]],
    ids=["polys", "trig", "exp-no-series"],
)
def test_a_csv_out_holds_no_whole_column(tmp_path, argv):
    base, wide = (peak_rss_mb(tmp_path, *argv, f"--window=-{half}:{half}") for half in (3000, 30000))
    assert wide - base < 3, (base, wide)


def test_a_csv_out_hands_no_kernel_more_than_a_chunk(tmp_path, monkeypatch):
    points = {}  # kernel name: the length of ms in each call

    def recording(name, kernel):
        def counted(c, k, ms, *rest):
            points[name].append(len(ms))
            return kernel(c, k, ms, *rest)

        return counted

    names = ("umbral_trig_column", "umbral_exp_column", "exponential_series_column")
    for name in names:
        monkeypatch.setattr(cli, name, recording(name, getattr(cli, name)))
    monkeypatch.setattr(cli, "_workers", lambda rows: 1)  # every call in this process
    # trig: three kinds over 18001 points; exp: right over 9101 points, and 2 closed cells checked before emit
    runs = [
        (["trig", "--l", "12", "--window=-9000:9000"], [3 * 18001, 0, 0]),
        (["exp", "--k", "0.5", "--corr", "right", "--window=-100:9000"], [0, 9101 + 2, 9101]),
    ]
    for argv, totals in runs:
        points.update((name, []) for name in names)
        assert main([*argv, "--out", str(tmp_path / argv[0])]) == 0
        assert [sum(points[name]) for name in names] == totals
        assert max(chain.from_iterable(points.values())) <= _CHUNK_ROWS


def test_broken_stdout_pipe_stays_exit_1(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert main(["polys", "--n", "1", "--window=0:2"]) == 1


class TestTableIO:
    def test_csv_round_trip_is_byte_identical(self):
        table = list_table(
            "t",
            [
                ("m", [-2, -1, 0, None]),
                ("value", [1.5, float("inf"), -0.125, float("-inf")]),
                ("other", [float("nan"), -0.0, 2.0, 0.1]),
                ("flag", [True, False, True, False]),
                ("label", ["a", "b", "", "c"]),
            ],
        )
        first = io.StringIO()
        write_csv(table, first)
        # a round trip alone cannot catch a wrong spelling
        assert first.getvalue().splitlines()[-4:] == [
            "-2,1.5,nan,true,a",
            "-1,inf,-0,false,b",
            "0,-0.125,2,true,",
            ",-inf,0.10000000000000001,false,c",
        ]
        parsed = read_csv(io.StringIO(first.getvalue()))
        second = io.StringIO()
        write_csv(parsed, second)
        assert first.getvalue() == second.getvalue()

    @pytest.mark.parametrize(
        "text, message", [("", "empty csv input"), ("\n\n", "empty csv input"), ("a,b\n1\n", "ragged csv row")]
    )
    def test_empty_or_ragged_input_is_rejected(self, text, message):
        with pytest.raises(ValueError, match=message):
            read_csv(io.StringIO(text))

    def test_seventeen_digit_floats_round_trip(self):
        value = 0.1 + 0.2
        table = list_table("t", [("v", [value])])
        out = io.StringIO()
        write_csv(table, out)
        parsed = read_csv(io.StringIO(out.getvalue()))
        assert parsed.columns[0][1][0] == value


class TestPolys:
    def test_right_square_values(self, capsys):
        code, out, _ = run(
            capsys, "polys", "--n", "2", "--corr", "right", "--sigma", "1", "--window=0:3"
        )
        assert code == 0
        cols = columns_of(out)
        assert cols["m"] == [0, 1, 2, 3]
        assert cols["right_n2"] == [0, 0, 2, 6]
        assert cols["continuous_n2"] == [0, 1, 4, 9]

    def test_degree_zero_is_all_ones(self, capsys):
        code, out, _ = run(capsys, "polys", "--n", "0", "--corr", "symmetric", "--window=-3:3")
        assert code == 0
        cols = columns_of(out)
        assert cols["symmetric_n0"] == [1] * 7

    def test_symmetric_zero_pattern(self, capsys):
        code, out, _ = run(
            capsys, "polys", "--n", "2,3", "--corr", "symmetric", "--sigma", "0.2", "--window=-10:10"
        )
        assert code == 0
        cols = columns_of(out)
        assert len(cols["m"]) == 21
        values = dict(zip(cols["m"], cols["symmetric_n3"]))
        for m in (-1, 0, 1):
            assert values[m] == 0
        for m in (-2, 2, 3):
            assert values[m] != 0

    def test_negative_degree_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "polys", "--n", "-2")
        assert code == 2
        assert "error" in err

    def test_bad_degree_list(self, capsys):
        code, _, _ = run(capsys, "polys", "--n", "2;3")
        assert code == 2

    def test_empty_degree_list(self, capsys):
        code, _, err = run(capsys, "polys", "--n", ",")
        assert code == 2
        assert err.startswith("error: --n must list at least one degree")

    def test_values_past_the_double_range_are_signed_inf(self, capsys):
        # 10^401 and 410!/9! (2e889) are past the range: right B_401(-10) = -(410!/9!), left B_401(10) = 410!/9!
        code, out, err = run(capsys, "polys", "--n", "401", "--window=-10:10")
        assert code == 0
        assert err == ""
        cols = columns_of(out)
        assert cols["continuous_n401"][0] == -math.inf and cols["continuous_n401"][-1] == math.inf
        assert cols["right_n401"][0] == -math.inf and cols["right_n401"][-1] == 0
        assert cols["left_n401"][0] == 0 and cols["left_n401"][-1] == math.inf


class TestExp:
    def test_right_column_is_the_closed_form(self, capsys):
        code, out, _ = run(
            capsys, "exp", "--k", "1", "--sigma", "0.2", "--corr", "right", "--window=-10:10"
        )
        assert code == 0
        cols = columns_of(out)
        for m, value in zip(cols["m"], cols["right_closed"]):
            assert abs(value - 1.2**m) <= 1e-12 * abs(1.2**m)
        assert set(cols["right_status"]) <= {"exact_cutoff", "converged"}

    def test_zero_momentum_gives_unit_columns(self, capsys):
        code, out, _ = run(capsys, "exp", "--k", "0", "--window=-3:3")
        assert code == 0
        cols = columns_of(out)
        for name in ("continuous", "right_closed", "left_closed", "symmetric_closed"):
            assert cols[name] == [1] * 7

    def test_series_refused_outside_the_disk(self, capsys):
        code, _, err = run(capsys, "exp", "--k", "5.1", "--sigma", "0.2")
        assert code == 2
        assert "series" in err

    def test_series_refused_when_the_decimal_k_sigma_reaches_one(self, capsys):
        # the float product is 0.9999999999999999, the decimal one just above 1
        code, out, err = run(capsys, "exp", "--k", "9.61", "--sigma", "0.1040582726326743", "--window=-2:2")
        assert code == 2
        assert out == ""
        assert "series" in err

    def test_wide_momentum_inside_the_disk_is_accepted(self, capsys):
        code, _, _ = run(capsys, "exp", "--k", "4.9", "--sigma", "0.2", "--window=-4:4")
        assert code == 0

    def test_no_series_mode_emits_closed_forms_only(self, capsys):
        code, out, err = run(capsys, "exp", "--k", "5.1", "--sigma", "0.2", "--no-series", "--window=0:4")
        assert code == 0
        assert "closed forms only" in err
        cols = columns_of(out)
        assert "right_series" not in cols
        assert "right_closed" in cols

    def test_overflowing_cells_degrade_to_inf(self, capsys):
        code, out, _ = run(
            capsys, "exp", "--k", "0.9", "--corr", "right", "--no-series", "--window=0:1200"
        )
        assert code == 0
        cols = columns_of(out)
        assert cols["continuous"][-1] == math.inf
        assert cols["right_closed"][-1] == math.inf
        assert cols["right_closed"][10] == pytest.approx(1.9**10)
        # (1 - 3)^m is -2^1023 at m = 1023, then past the range with the sign of (-1)^m
        code, out, _ = run(capsys, "exp", "--k", "-3", "--corr", "right", "--no-series", "--window=1023:1026")
        assert code == 0
        assert columns_of(out)["right_closed"] == [-(2.0**1023), math.inf, -math.inf, math.inf]


class TestTrig:
    def test_overflowing_sinh_keeps_its_sign(self, capsys):
        # sinh(-900) and (1.5^-1800 - 0.5^-1800)/2, about -4e541, are both past the range
        code, out, _ = run(capsys, "trig", "--k", "0.5", "--which", "sinh", "--corr", "right", "--window=-1800:-1798")
        assert code == 0
        cols = columns_of(out)
        assert cols["right_sinh"] == cols["right_continuous"] == [-math.inf] * 3

    def test_symmetric_twelve_point_wave(self, capsys):
        code, out, _ = run(
            capsys, "trig", "--l", "12", "--sigma", "0.3", "--corr", "symmetric", "--window=-24:24"
        )
        assert code == 0
        cols = columns_of(out)
        values = dict(zip(cols["m"], cols["symmetric_sin"]))
        for m in range(-12, 13):
            assert abs(values[m] - values[m + 12]) <= 1e-10
            assert abs(values[m] - math.sin(2 * math.pi * m / 12)) <= 1e-10

    def test_right_eight_point_wave_zeros_and_growth(self, capsys):
        code, out, _ = run(
            capsys, "trig", "--l", "8", "--corr", "right", "--window=0:24"
        )
        assert code == 0
        cols = columns_of(out)
        values = dict(zip(cols["m"], cols["right_sin"]))
        for m in range(0, 25, 4):
            assert abs(values[m]) <= 1e-8
        for m in (2, 6, 10):
            assert abs(values[m + 8] / values[m] - 16.0) <= 1e-9
        assert values[0] == 0

    def test_wave_parameters_table_in_json(self, capsys):
        code, out, _ = run(
            capsys, "trig", "--l", "8", "--corr", "right", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        tables = {t["name"]: t["columns"] for t in doc["data"]["tables"]}
        wave = tables["wave_parameters"]
        assert wave["is_minimal"] == [True]
        assert abs(wave["amplitude_factor_per_period"][0] - 16.0) < 1e-9

    def test_below_minimum_wavelength_is_refused(self, capsys):
        code, _, err = run(capsys, "trig", "--l", "6", "--corr", "right")
        assert code == 2
        assert "points per wavelength" in err


class TestWell:
    def test_symmetric_spectrum_values(self, capsys):
        code, out, _ = run(capsys, "well", "--points", "8", "--corr", "symmetric")
        assert code == 0
        cols = columns_of(out)
        assert cols["n"] == [1, 2, 3, 4]
        assert abs(cols["energy"][0] - math.sin(math.pi / 8) ** 2) < 1e-14
        assert cols["degenerate_with"] == [7, 6, 5, 4]
        assert abs(cols["energy_continuous"][0] - (math.pi / 8) ** 2) < 1e-14

    def test_two_point_well_has_a_single_state(self, capsys):
        code, out, _ = run(capsys, "well", "--points", "2", "--corr", "symmetric")
        assert code == 0
        assert columns_of(out)["n"] == [1]

    def test_non_physical_level_is_refused(self, capsys):
        code, _, err = run(capsys, "well", "--points", "8", "--corr", "right", "--levels", "4")
        assert code == 2
        assert "pole" in err

    def test_non_convergent_level_is_skipped_with_a_note(self, capsys, tmp_path):
        base = tmp_path / "well"
        code, _, err = run(
            capsys, "well", "--points", "8", "--corr", "right", "--levels", "3", "--out", str(base)
        )
        assert code == 0
        assert "skipping" in err
        assert (tmp_path / "well_spectrum.csv").exists()
        assert not (tmp_path / "well_wavefunction_right_n3.csv").exists()

    def test_wavefunction_files_are_written(self, capsys, tmp_path):
        base = tmp_path / "well"
        code, _, _ = run(
            capsys,
            "well", "--points", "8", "--corr", "symmetric", "--levels", "1,2", "--out", str(base),
        )
        assert code == 0
        wf_path = tmp_path / "well_wavefunction_symmetric_n1.csv"
        assert wf_path.exists()
        with open(wf_path, encoding="utf-8") as handle:
            cols = {name: values for name, values in read_csv(handle).columns}
        assert cols["m"] == list(range(9))
        for m in range(9):
            assert abs(cols["psi"][m] - math.sin(math.pi * m / 8)) <= 1e-10

    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_wavefunction_samples_are_computed_only_for_written_tables(self, capsys, tmp_path, monkeypatch, out):
        calls, cells = [], []
        column = cli._well_column

        def counted(*args):
            calls.append(args)
            psi = column(*args)
            return lambda ms: map(lambda value: cells.append(value) or value, psi(ms))

        monkeypatch.setattr(cli, "_well_column", counted)
        monkeypatch.setattr(cli, "_workers", lambda rows: 1)  # count the cells of every table in this process
        argv = ["well", "--points", "2000", "--levels", "1,700"] + (["--out", str(tmp_path / "w")] if out else [])
        code, stdout, err = run(capsys, *argv)
        assert code == 0
        # one domain check per kind and level, whether or not the table is written;
        # level 700 is past k sigma = 1 for right and left, and so skipped
        assert len(calls) == 6
        assert err.count("note: skipping") == 2
        assert len(cells) == (4 * 2001 if out else 0)
        if out:
            assert len(list(tmp_path.iterdir())) == 5
        else:
            assert "tables omitted" in err
            monkeypatch.chdir(tmp_path)
            assert run(capsys, *argv, "--out", "w")[0] == 0
            assert (tmp_path / "w_spectrum.csv").read_text(encoding="utf-8") == stdout

    @pytest.mark.parametrize(
        "argv, levels",
        [
            (["--points", "8", "--levels", "2,6", "--corr", "right"], ["right_n2", "right_n6"]),
            (["--points", "52", "--levels", "13"], ["right_n13", "left_n13", "symmetric_n13"]),
            (["--points", "52", "--levels", "39", "--sigma", "0.3"], ["right_n39", "left_n39", "symmetric_n39"]),
        ],
    )
    def test_levels_on_the_k_sigma_1_boundary_are_emitted(self, capsys, argv, levels):
        # 4n = M and 4n = 3M are the minimal wave, |k sigma| = 1 exactly, however k * sigma rounds
        code, out, err = run(capsys, "well", *argv, "--format", "json")
        assert (code, err) == (0, "")
        names = [table["name"] for table in json.loads(out)["data"]["tables"]]
        assert names == ["spectrum"] + [f"wavefunction_{level}" for level in levels]

    def test_symmetric_tracks_the_continuous_energies_more_closely(self, capsys):
        code, out, _ = run(capsys, "well", "--points", "8", "--corr", "all")
        assert code == 0
        cols = columns_of(out)
        rows = list(zip(cols["correspondence"], cols["n"], cols["energy"], cols["energy_continuous"]))
        sym = next(r for r in rows if r[0] == "symmetric" and r[1] == 1)
        rgt = next(r for r in rows if r[0] == "right" and r[1] == 1)
        assert abs(sym[2] - sym[3]) < abs(rgt[2] - rgt[3])

    def test_infinite_levels_become_null_in_json(self, capsys):
        code, out, _ = run(
            capsys, "well", "--points", "8", "--corr", "right", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        spectrum = doc["data"]["tables"][0]["columns"]
        assert spectrum["energy"][3] is None
        assert spectrum["physical"][3] is False


class TestBounds:
    def test_default_rows_hit_the_targets(self, capsys):
        code, out, _ = run(capsys, "bounds")
        assert code == 0
        cols = columns_of(out)
        assert cols["particle"] == ["electron", "proton"]
        assert abs(cols["e_max_time_ev"][0] - 1.22e28) <= 0.01 * 1.22e28
        assert abs(cols["e_max_space_ev"][0] - 1.46e50) <= 0.02 * 1.46e50
        assert abs(cols["e_max_space_ev"][1] - 7.94e46) <= 0.02 * 7.94e46
        assert cols["e_binding_ev"][0] == cols["e_max_time_ev"][0]

    @pytest.mark.parametrize(
        "argv", [["--sigma-m", "1e-170"], ["--particle", "custom", "--mass", "1e-300", "--sigma-m", "1e-160"]]
    )
    def test_tiny_spacing_puts_the_space_ceiling_past_the_range(self, capsys, argv):
        # hbar^2/(2 m sigma^2) is past 1e320 eV here, where sigma^2 alone underflows to 0
        code, out, err = run(capsys, "bounds", *argv)
        assert code == 0
        assert err == ""
        cols = columns_of(out)
        assert all(v == math.inf for v in cols["e_max_space_ev"])
        default = columns_of(run(capsys, "bounds")[1])
        assert cols["e_max_time_ev"] == default["e_max_time_ev"][: len(cols["particle"])]
        assert cols["e_binding_ev"] == cols["e_max_time_ev"]

    def test_custom_particle_requires_a_mass(self, capsys):
        code, _, _ = run(capsys, "bounds", "--particle", "custom")
        assert code == 2
        code, out, _ = run(capsys, "bounds", "--particle", "custom", "--mass", "1e-30")
        assert code == 0
        assert columns_of(out)["particle"] == ["custom"]


class TestFormatsAndConfig:
    def test_json_output_validates_against_the_shipped_schema(self, capsys):
        schema = load_schema()
        for argv in (
            ["polys", "--n", "2", "--format", "json", "--window=-3:3"],
            ["exp", "--k", "0.5", "--format", "json", "--window=-3:3"],
            ["trig", "--l", "12", "--format", "json", "--window=0:6"],
            ["well", "--points", "4", "--levels", "1", "--corr", "symmetric", "--format", "json"],
            ["bounds", "--format", "json"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            jsonschema.validate(json.loads(out), schema)

    def test_emitted_csv_round_trips(self, capsys):
        for argv in (
            ["exp", "--k", "0.3", "--window=-5:5"],
            ["polys", "--n", "3", "--corr", "left", "--window=-3:3"],
        ):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            parsed = read_csv(io.StringIO(out))
            again = io.StringIO()
            write_csv(parsed, again)
            assert again.getvalue() == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "data.csv"
        code, out, _ = run(capsys, "polys", "--n", "1", "--out", str(target), "--window=0:2")
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("m,x,")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_an_empty_out_is_stdout(self, capsys, tmp_path, monkeypatch, fmt, source):
        argv = ["trig", "--l", "12", "--window=-3:3", "--format", fmt]  # two tables: csv notes the second
        expected = run(capsys, *argv)
        config = tmp_path / "umbralqm.conf"
        config.write_text("out =\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        if source == "flag":
            argv += ["--out", ""]
        else:
            monkeypatch.setenv("UMBRALQM_CONFIG", str(config))
        code, out, err = run(capsys, *argv)
        if fmt == "json":  # meta.config echoes the empty --out
            out = out.replace('"out": ""', '"out": null', 1)
        assert (code, out, err) == expected
        assert code == 0 and out
        assert list(work.iterdir()) == []

    def test_config_file_supplies_defaults(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "umbralqm.conf"
        config.write_text("# lattice setup\nsigma = 0.5\ncorr = right\n")
        monkeypatch.setenv("UMBRALQM_CONFIG", str(config))
        code, out, _ = run(capsys, "polys", "--n", "1", "--window=0:2")
        assert code == 0
        cols = columns_of(out)
        assert cols["x"] == [0, 0.5, 1]
        assert "right_n1" in cols and "symmetric_n1" not in cols

    def test_flags_override_the_config_file(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "umbralqm.conf"
        config.write_text("sigma = 0.5\n")
        monkeypatch.setenv("UMBRALQM_CONFIG", str(config))
        code, out, _ = run(capsys, "polys", "--n", "1", "--sigma", "2", "--window=0:2")
        assert code == 0
        assert columns_of(out)["x"] == [0, 2, 4]

    def test_unknown_config_key_is_an_error(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "umbralqm.conf"
        config.write_text("spacing = 0.5\n")
        monkeypatch.setenv("UMBRALQM_CONFIG", str(config))
        code, _, err = run(capsys, "polys", "--n", "1")
        assert code == 2
        assert "unknown key" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("sigma = abc\n", "bad numeric configuration value: could not convert string to float: 'abc'"),
            ("# setup\nsigma 0.5\n", "{path}:2: expected key = value"),
            ("corr = up\n", "corr must be one of ('right', 'left', 'symmetric', 'all')"),
            ("format = xml\n", "format must be one of ('csv', 'json')"),
        ],
    )
    def test_bad_config_file_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch, text, message):
        config = tmp_path / "umbralqm.conf"
        config.write_text(text)
        monkeypatch.setenv("UMBRALQM_CONFIG", str(config))
        code, out, err = run(capsys, "polys", "--n", "1")
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(path=config)}\n"

    @pytest.mark.parametrize("target", ["missing.conf", "."])
    def test_unreadable_config_file_is_a_usage_error(self, capsys, tmp_path, monkeypatch, target):
        path = tmp_path / target
        monkeypatch.setenv("UMBRALQM_CONFIG", str(path))
        code, out, err = run(capsys, "polys", "--n", "1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config file {path}: ")

    @pytest.mark.parametrize("flag", ["sigma", "tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_non_finite_or_non_positive_setting_is_a_usage_error(self, capsys, flag, value):
        code, _, err = run(capsys, "polys", "--n", "1", f"--{flag}={value}")
        assert code == 2
        assert err.startswith(f"error: {flag} must be positive and finite")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_subnormal_sigma_is_a_usage_error(self, capsys, tmp_path, monkeypatch, source):
        argv = ["trig", "--k", "0.5", "--which", "sinh", "--window=0:2"]
        if source == "flag":
            argv.append("--sigma=1e-320")
        else:
            config = tmp_path / "umbralqm.conf"
            config.write_text("sigma = 1e-320\n")
            monkeypatch.setenv("UMBRALQM_CONFIG", str(config))
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error: sigma must be at least the smallest normal double")

    @pytest.mark.parametrize(
        "argv",
        [
            ["exp", "--k", "nan"],
            ["bounds", "--sigma-m", "-1"],
            ["bounds", "--tau-s", "inf"],
            ["bounds", "--particle", "custom", "--mass", "nan"],
        ],
    )
    def test_bad_subcommand_number_is_a_usage_error(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: {argv[-2]} must be")

    def test_non_finite_config_file_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "umbralqm.conf"
        config.write_text("sigma = nan\n")
        monkeypatch.setenv("UMBRALQM_CONFIG", str(config))
        code, _, err = run(capsys, "well", "--points", "8")
        assert code == 2
        assert err.startswith("error: sigma must be positive and finite")

    def test_bad_window_is_a_usage_error(self, capsys):
        code, _, _ = run(capsys, "polys", "--n", "1", "--window=5:1")
        assert code == 2
        code, _, _ = run(capsys, "polys", "--n", "1", "--window=oops")
        assert code == 2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    @pytest.mark.parametrize("argv", [["bounds", "--tau", "1e-43"], ["bounds", "--part", "electron"]])
    def test_flag_prefix_is_not_expanded(self, capsys, argv):
        # a prefix of --tau-s or --particle must not bind to that flag
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in err


class TestCheck:
    def test_self_checks_pass(self, capsys):
        code, out, err = run(capsys, "check")
        assert code == 0
        assert err == ""
        assert out == (
            "ok   heisenberg identity (degree 16, sigma 1 and 1/3)\n"
            "ok   basic sequence lowering (degree 16)\n"
            "ok   closed form vs direct product\n"
            "ok   exponential series vs closed form\n"
            "ok   wavelength round trips and minimal waves\n"
            "ok   constant-potential plane-wave eigencheck\n"
            "ok   well state counts\n"
            "ok   energy bound targets\n"
            "ok   symmetric zero pattern\n"
        )

    @pytest.mark.parametrize(
        "name, replacement, expected",
        [
            ("well_counts", lambda: "right well counts changed", "well state counts: right well counts changed"),
            # a NaN fails every bound
            ("basic_polynomial_value", lambda c, n, m: math.nan,
             "closed form vs direct product: value mismatch at right, sigma=0.5, n=0, m=-12"),
            ("exponential_series_column", lambda c, ks, ms, tol: [(math.nan, None)] * len(ms),
             "exponential series vs closed form: series mismatch at right, k sigma=-0.5, m=-10"),
            ("momentum_to_wavelength", lambda c, k: math.nan,
             "wavelength round trips and minimal waves: minimal wave mismatch for right"),
            ("apply_hamiltonian", lambda c, v0, psi: DiscreteFunction(psi.sigma, psi.m_min, [math.nan] * 17),
             "constant-potential plane-wave eigencheck: plane-wave eigencheck failed for right, k=0.5, V0=2.0, m=-8"),
            ("energy_bounds", lambda units: EnergyBounds(math.nan, math.nan), "energy bound targets: time bound off target"),
        ],
        ids=["well_counts", "nan_closed_form", "nan_series", "nan_wavelength", "nan_hamiltonian", "nan_bounds"],
    )
    def test_a_failing_invariant_is_reported_and_exits_1(self, capsys, monkeypatch, name, replacement, expected):
        monkeypatch.setattr(invariants, name, replacement)
        code, out, _ = run(capsys, "check")
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 9
        assert [line for line in lines if not line.startswith("ok   ")] == [f"FAIL {expected}"]

    @pytest.mark.parametrize(
        "dependency, replacement, check, detail",
        [
            ("commutator_residual", lambda c, degree: 1, "heisenberg",
             "nonzero commutator residual for right, sigma=1"),
            ("apply_delta", lambda d, p: p, "lowering", "lowering failed for right, sigma=1/3, n=1"),
            ("wavelength_to_momentum", lambda c, l: 0.5, "waves", "wavelength round trip failed for right, l=12.0"),
            ("well_state_count", lambda c, M: (0, 0, 0), "well_counts", "right well counts changed"),
            ("energy_bounds", lambda units: EnergyBounds(1.22e28, math.nan), "bound_targets",
             "electron space bound off target"),
            ("zeros_of_basic_polynomial", lambda c, n: [], "zero_pattern", "symmetric zero pattern changed"),
        ],
        ids=["heisenberg", "lowering", "waves", "well_counts", "bound_targets", "zero_pattern"],
    )
    def test_each_failure_detail_is_the_line_check_prints(
        self, capsys, monkeypatch, dependency, replacement, check, detail
    ):
        monkeypatch.setattr(invariants, dependency, replacement)
        target = getattr(invariants, check)
        (name, run_check), = [(n, f) for n, f in invariants.cli_checks(1.0) if getattr(f, "func", f) is target]
        assert run_check() == detail
        code, out, _ = run(capsys, "check")
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("ok   ")] == [f"FAIL {name}: {detail}"]
