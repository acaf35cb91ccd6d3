"""Every experiment's outputs against the checked-in manifest
(``golden/manifest.json``): per command, the sha256 of each file it
writes, of its stdout and of its stderr, and its exit code.

Commands run in-process through `cli.main`, with a RuntimeWarning an
error, each writing to its own directory, whose path stdout prints as
``<out>``.  Digests are compared where the manifest's numpy version,
Python version and machine are this host's: numpy's transcendental
functions may round differently on another build or CPU.  Elsewhere the
digest test skips, naming both hosts, and the exit codes, the file lists
and every CSV, read numerically against its stored copy
(``golden/outputs/``) at the golden record's 1e-9, are still compared.

Regenerating the manifest moves the outputs it pins, so it is argued like
a change of the golden record, listing which digests moved and why:

    PYTHONPATH=src python tests/test_manifest.py
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from infomarket.cli import main

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = GOLDEN / "manifest.json"
STORED = GOLDEN / "outputs"

# The nine experiments at their defaults, then edge commands: endogenous
# weights, several fixed points (du_h > du_l), instruments, a process pool,
# two convergence failures (exit 3), a sweep whose pollution
# correlation is undefined, two empty horizons: a sweep whose
# correlations are undefined, and a robust selection with nothing to
# select from (exit 2), two measurements with an empty window (shocks
# on the first and last ticks, and noise volatility over one tick), a
# sweep of weighing worlds, and inputs that leave the floats: amplified
# exposure of a burst and of a weight lane, a weight lane's welfare, a
# final mean's sum and CDF slopes (exit 2 but for the final mean).
COMMANDS = (
    "baseline",
    "shocks",
    "weight-sensitivity",
    "noise-robustness",
    "event-detection",
    "cross-platform",
    "sweep",
    "policy-comparison",
    "robust-select",
    "baseline --ipi.endogenous_weights true",
    "baseline --agents.du_h 3 --agents.du_l 0.5 --ipi.endogenous_weights true",
    "policy-comparison --policy.fiduciary 0.5 --policy.provenance_boost 0.05",
    "sweep --jobs 2",
    "baseline --ticks 3 --market.fp_tol 0",
    "sweep --market.fp_tol 1e-16 --ipi.endogenous_weights true",
    "sweep --policy.fiduciary 0.9",
    "sweep --ticks 0",
    "robust-select --ticks 0",
    "shocks --shocks.ticks 0,149",
    "noise-robustness --ticks 1",
    "sweep --ticks 40 --ipi.endogenous_weights true",
    "event-detection --ticks 3 --shocks.fake_news_burst 2.24e306",
    "baseline --ticks 5 --ipi.weight_perturbation 1e308 --ipi.endogenous_weights true",
    "baseline --ticks 3 --ipi.weight_perturbation 1e300 --ipi.endogenous_weights true",
    "baseline --ticks 5 --welfare.lambda_trust 1e308",
    "baseline --ticks 2 --agents.k_max 1e-310",
    "baseline --ticks 5 --agents.k_max 1e-320 --agents.du_h 0 --agents.du_l 0",
)


def host() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def execute(command: str, out: Path) -> dict:
    """Run one command into ``out``; its manifest entry."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*command.split(), "--out", str(out)])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {
        "exit": code,
        "stdout": digest(stdout.getvalue().replace(str(out), "<out>").encode()),
        "stderr": digest(stderr.getvalue().replace(str(out), "<out>").encode()),
        "files": {p.relative_to(out).as_posix(): digest(p.read_bytes()) for p in files},
    }


def stored(sha: str) -> Path:
    return STORED / f"{sha[:16]}.csv"


def write_manifest(root: Path) -> None:
    """Run every command under ``root`` and record the manifest and its CSVs."""
    entries = {command: execute(command, root / str(i)) for i, command in enumerate(COMMANDS)}
    STORED.mkdir(exist_ok=True)
    for old in STORED.glob("*.csv"):
        old.unlink()
    for i, (command, entry) in enumerate(entries.items()):
        for name, sha in entry["files"].items():
            if name.endswith(".csv"):
                stored(sha).write_bytes((root / str(i) / name).read_bytes())
    MANIFEST.write_text(json.dumps({"host": host(), "commands": entries}, indent=1) + "\n",
                        encoding="utf-8")


@pytest.fixture(scope="module")
def manifest():
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("manifest")
    return {command: (execute(command, root / str(i)), root / str(i))
            for i, command in enumerate(COMMANDS)}


def test_the_manifest_holds_every_command(manifest):
    assert list(manifest["commands"]) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_exit_code_and_files(manifest, runs, command):
    got, _ = runs[command]
    want = manifest["commands"][command]
    assert got["exit"] == want["exit"]
    assert list(got["files"]) == list(want["files"])


def _cells_match(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=0.0) or (math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("command", COMMANDS)
def test_csvs_match_numerically(manifest, runs, command):
    _, out = runs[command]
    for name, sha in manifest["commands"][command]["files"].items():
        if not name.endswith(".csv") or not (out / name).exists():
            continue
        got = list(csv.reader(io.StringIO((out / name).read_text(encoding="utf-8"))))
        want = list(csv.reader(io.StringIO(stored(sha).read_text(encoding="utf-8"))))
        assert [len(row) for row in got] == [len(row) for row in want], name
        for line, (got_row, want_row) in enumerate(zip(got, want), start=1):
            for column, (a, b) in enumerate(zip(got_row, want_row)):
                assert _cells_match(a, b), f"{name}, line {line}, column {column}: {a} != {b}"


@pytest.mark.parametrize("command", COMMANDS)
def test_digests(manifest, runs, command):
    if manifest["host"] != host():
        pytest.skip(f"digests recorded on {manifest['host']}, this host is {host()}: "
                    "exit codes, file lists and CSVs compared only")
    got, _ = runs[command]
    assert got == manifest["commands"][command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        write_manifest(Path(scratch))
