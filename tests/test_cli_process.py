"""Fresh processes: lazy package imports, the CLI's imports, and its exits when stdout fails."""

import os
import subprocess
import sys

import pytest

from kkbounds.cli import EXIT_OK, EXIT_USAGE, main

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# Without PYTHONUNBUFFERED, so that stdout is block-buffered as users run it and a
# write error can surface at a flush, the interpreter's final one included.
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))

# Runs the CLI, then writes the names of all loaded modules to stderr.
PROBE = (
    "import sys\n"
    "from kkbounds.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "sys.stdout.flush()\n"
    "sys.stderr.write(' '.join(sorted(sys.modules)))\n"
    "sys.exit(code)\n"
)
BOUND_PATH = {"kkbounds", "kkbounds.cli", "kkbounds.approx", "kkbounds.cascade",
              "kkbounds.binomials", "kkbounds.grid"}
OFF_PATH = {"kkbounds.selftest", "kkbounds.complexes", "kkbounds.colored", "json", "dataclasses"}
DENSE = ["sweep", "--k", "3", "--p", "2", "--m-end", "100000", "--samples", "all"]


def cli(*argv, stdout=subprocess.PIPE, **kwargs):
    return subprocess.run([sys.executable, "-m", "kkbounds.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=ENV, timeout=120, **kwargs)


def test_import_loads_modules_on_first_use():
    code = (
        "import sys, kkbounds\n"
        "print(sorted(m for m in sys.modules if m.startswith('kkbounds')))\n"
        "assert kkbounds.complexes.serialize is kkbounds.serialize\n"
        "print(sorted(m for m in sys.modules if m.startswith('kkbounds')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "['kkbounds']",
        "['kkbounds', 'kkbounds.binomials', 'kkbounds.cascade', 'kkbounds.complexes']",
    ]


@pytest.mark.parametrize("argv", [
    ["bound", "--m", "11", "--k", "3", "--p", "2"],
    ["bound", "--m", "12777711870", "--k", "10", "--p", "7", "--format", "table"],
    ["sweep", "--k", "10", "--p", "7", "--m-end", "100000", "--samples", "20"],
    ["cascade", "--m", "11", "--k", "3"],
    ["bound", "--m", "11", "--k", "3", "--p", "2", "--format", "json"],
    ["sweep", "--k", "3", "--p", "2", "--m-end", "50", "--samples", "5", "--format", "json"],
], ids=["bound", "bound-table", "sweep-csv", "cascade", "bound-json", "sweep-json"])
def test_bound_path_imports_only_the_kernel(argv):
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], capture_output=True,
                          env=ENV, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    loaded = set(proc.stderr.decode().split())
    assert not loaded & OFF_PATH
    assert {name for name in loaded if name.startswith("kkbounds")} <= BOUND_PATH


@pytest.mark.parametrize("argv", [
    ["selftest", "--scale", "quick"],
    ["cascade", "--m", "13", "--k", "2", "--r", "3"],
    ["validate", "1,4,6,4,1", "--r", "4"],
    ["validate", "1,4,5,2", "--realize"],
], ids=["selftest", "cascade-r", "validate-r", "validate-realize"])
def test_lazily_loaded_commands_match_in_process(argv, capsys):
    """A fresh process, which loads the off-path modules on demand, prints what main does here."""
    proc = cli(*argv)
    code = main(argv)
    assert proc.returncode == code == EXIT_OK
    assert proc.stdout.decode() == capsys.readouterr().out
    assert proc.stderr == b""


def test_closed_pipe_mid_sweep_exits_0_silently():
    proc = subprocess.Popen([sys.executable, "-m", "kkbounds.cli", *DENSE], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=ENV)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_OK
    assert first == b"m,kk_exact,lovasz,withoutr,noreasy,withr_r,withr,flag_r,flag\n"
    assert err == b""


def test_pipe_closed_before_the_first_write_exits_0_silently():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli("bound", "--m", "11", "--k", "3", "--p", "2", stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [["bound", "--m", "11", "--k", "3", "--p", "2"], DENSE],
                         ids=["bound", "sweep"])
def test_closed_stdout_exits_2_with_one_error_line(argv):
    shell = 'exec "$0" -m kkbounds.cli "$@" >&-'
    proc = subprocess.run(["sh", "-c", shell, sys.executable, *argv], capture_output=True,
                          env=ENV, timeout=120)
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr == b"error: stdout is closed\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["bound", "--m", "11", "--k", "3", "--p", "2"], DENSE],
                         ids=["bound", "sweep"])
def test_full_device_exits_2_with_one_error_line(argv):
    with open("/dev/full", "wb") as full:
        proc = cli(*argv, stdout=full)
    assert proc.returncode == EXIT_USAGE
    err = proc.stderr.decode()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "No space left" in err
