"""Shared plumbing: checkout paths, statistics, environment stamp, reports.

Nothing here imports :mod:`repro` at module level, so the runner can
report a missing source tree before touching the program.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: The checkout root (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Result files and span dumps; ignored by git.
OUT_DIR = ROOT / ".perfbench"
#: Output digests recorded for the default seed (see ``check_digest``).
DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"
#: The seed whose output digests are recorded in ``digests.json``.
DEFAULT_SEED = 1
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no result is printed)."""


def use_checkout() -> None:
    """Import :mod:`repro` from this checkout's ``src/`` or fail loudly.

    A ``repro`` installed elsewhere on the machine must not stand in for
    the sources under test, so the imported package's location is checked.
    """
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SetupError(f"no repro sources at {package.parent}")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SetupError(
            f"repro imported from {repro.__file__}, not from {package}"
        )


#: Imported by every workload; timed in a fresh interpreter for ``setup_s``.
_IMPORT_PROBE = (
    "import time; started = time.perf_counter(); "
    "import repro.api, repro.dse, repro.benchgen.tgff, repro.serve.client; "
    "print(time.perf_counter() - started)"
)


def import_seconds() -> float:
    """Median time to import the program, over ``SETUP_REPEATS`` fresh
    interpreters (interpreter start-up itself is not counted)."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=str(ROOT), env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return median(times)


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names and units every run reports."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (``0 <= q <= 1``) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of ``values`` (25 % trimmed from each end)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-quantile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def sha256_bytes(chunks: Iterable[bytes]) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(hashlib.sha256(chunk).digest())
    return digest.hexdigest()


def _calibration_work() -> float:
    """Fixed pure-Python work: dict lookups, float min/max, adds.

    The same instruction mix as the analysis' inner loops, and no code of
    the program, so a change to the program cannot move it.
    """
    table: Dict[int, float] = {}
    total = 0.0
    for i in range(40000):
        key = i % 251
        value = max(table.get(key, 0.0), (i * 0.5) % 97.0) + 1.0
        table[key] = value
        total += value
    return total


#: Best ``_calibration_work`` time on an idle 2-core x86 VM (Python 3.11).
CALIBRATION_NOMINAL_S = 0.013


class MachineSpeed:
    """How fast the benchmark's machine runs fixed Python work in a run.

    On a shared host, other tenants slow a whole run by up to ~40 %;
    within a run the workloads keep each input's best time, and this
    probe, sampled between the measured steps, keeps its best too.
    ``scale`` turns a measured time into one at the nominal speed.
    """

    def __init__(self):
        self.samples: List[float] = []

    def sample(self, repeats: int = 3) -> None:
        best = None
        for _ in range(repeats):
            started = time.perf_counter()
            _calibration_work()
            seconds = time.perf_counter() - started
            best = seconds if best is None else min(best, seconds)
        self.samples.append(best)

    @property
    def factor(self) -> float:
        """Nominal ÷ measured speed (1.0 on an idle reference machine)."""
        return CALIBRATION_NOMINAL_S / min(self.samples)

    def scale(self, seconds: float) -> float:
        return seconds * self.factor


class Stopwatch:
    """``with Stopwatch() as watch: ...`` then ``watch.seconds``."""

    __slots__ = ("started", "seconds")

    def __enter__(self) -> "Stopwatch":
        self.started = time.perf_counter()
        self.seconds = 0.0
        return self

    def __exit__(self, *_exc) -> bool:
        self.seconds = time.perf_counter() - self.started
        return False


# ---------------------------------------------------------------------------
# environment stamp
# ---------------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def source_digest() -> str:
    """sha256 over every Python file under ``src/`` (names non-git trees)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    """Where and on what a result was measured."""
    import numpy

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# digests recorded for the default seed
# ---------------------------------------------------------------------------


def _recorded() -> dict:
    if not DIGESTS_PATH.is_file():
        return {"seed": DEFAULT_SEED, "digests": {}, "large_cold": {}}
    return json.loads(DIGESTS_PATH.read_text())


def recorded_digests() -> Dict[str, str]:
    """Default-seed output digest per workload."""
    return _recorded()["digests"]


def recorded_large_cold() -> Dict[str, str]:
    """sha256 of each large analyze input's cold-run result bytes.

    The large set does not depend on the seed, so its cold reference runs
    (tens of seconds) are recorded once instead of repeated every run.
    """
    return _recorded()["large_cold"]


def record(section: str, entries: Dict[str, str]) -> None:
    """Merge ``entries`` into one section of ``digests.json``."""
    data = _recorded()
    data[section].update(entries)
    DIGESTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# the per-run report
# ---------------------------------------------------------------------------


class Report:
    """Everything one run measured, checked and will print.

    ``metrics`` and ``layers`` hold the contract metrics of
    ``BENCHMARK.json``; ``named_metric`` values are the workload's own
    named numbers (printed and stored, not part of the final JSON line).
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.wrong: List[str] = []
        self.errors: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.named: Dict[str, tuple] = {}
        self.traced_named: Dict[str, tuple] = {}
        self.tables: Dict[str, list] = {}
        self.notes: List[str] = []
        self.digest: Optional[str] = None
        #: Store the digest instead of checking it (``--record-digests``).
        self.recording = False
        #: Sampled between measured steps; scales the contract times.
        self.speed = MachineSpeed()

    def count(self, ok: bool, what: str = "") -> None:
        """Tally one attempted operation; a failed one carries a reason."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def mismatch(self, what: str) -> None:
        """An output check failed: the run's outputs are not correct."""
        self.failed += 1
        if len(self.wrong) < 20:
            self.wrong.append(what)

    def named_metric(self, name, value, unit, samples=None, traced=False):
        target = self.traced_named if traced else self.named
        target[name] = (value, unit, samples)

    @property
    def correct(self) -> bool:
        return not self.wrong

    def check_digest(self, digest: str, smoke: bool) -> None:
        """Compare the default-seed output digest with the recorded one."""
        if smoke or self.seed != DEFAULT_SEED:
            return
        self.digest = digest
        if self.recording:
            return
        expected = recorded_digests().get(self.workload)
        if expected is None:
            self.notes.append("no recorded digest for this workload")
        elif expected != digest:
            self.mismatch(
                f"output digest {digest[:12]} differs from the recorded "
                f"default-seed digest {expected[:12]}"
            )

    def finish(self, contract: dict) -> int:
        """Print the report and the final JSON line; return the exit code."""
        section = "per_layer" if self.trace else "end_to_end"
        produced = self.layers if self.trace else self.metrics
        metrics = {}
        for entry in contract[section]:
            name = entry["name"]
            if name not in produced:
                raise SetupError(f"{self.workload} did not measure {name}")
            metrics[name] = {"value": produced[name], "unit": entry["unit"]}

        fail_ratio = self.failed / self.attempted if self.attempted else 0.0
        self.named_metric("fail_ratio", fail_ratio, "ratio", self.attempted)
        self.named_metric(
            "machine_speed", self.speed.factor, "ratio", len(self.speed.samples)
        )
        stamp = environment(self.seed)
        self._print(stamp)
        payload = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "environment": stamp,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "wrong": self.wrong,
            "errors": self.errors,
            "metrics": metrics,
            "end_to_end": self.metrics,
            "per_layer": self.layers,
            "named": {k: list(v) for k, v in self.named.items()},
            "traced_named": {k: list(v) for k, v in self.traced_named.items()},
            "tables": self.tables,
            "digest": self.digest,
            "notes": self.notes,
        }
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / (
            f"perfbench_{self.workload}_seed{self.seed}_trace{int(self.trace)}"
            ".json"
        )
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"result file: {path.relative_to(ROOT)}")
        print(json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }))
        sys.stdout.flush()
        return 0 if self.correct else 1

    def _print(self, stamp: dict) -> None:
        print(f"workload {self.workload}  seed {self.seed}  "
              f"seconds {self.seconds:g}  trace {int(self.trace)}")
        print("environment " + json.dumps(stamp, sort_keys=True))
        print(f"\n{'end-to-end metric':<28} {'value':>14} {'unit':<10} samples")
        for name, (value, unit, samples) in self.named.items():
            traced = self.traced_named.get(name)
            extra = f"  traced {traced[0]:.6g}" if traced else ""
            count = "" if samples is None else str(samples)
            print(f"{name:<28} {value:>14.6g} {unit:<10} {count}{extra}")
        for name, rows in self.tables.items():
            if rows:
                print(f"\n{name}")
                keys = list(rows[0])
                print("  " + "  ".join(f"{key:>12}" for key in keys))
                for row in rows:
                    print("  " + "  ".join(_cell(row[key]) for key in keys))
        if self.trace:
            print(f"\n{'per-layer metric':<28} {'value':>14}")
            for name, value in self.layers.items():
                print(f"{name:<28} {value:>14.6g}")
        for note in self.notes:
            print(f"note: {note}")
        for error in self.errors:
            print(f"failed operation: {error}")
        for problem in self.wrong:
            print(f"WRONG OUTPUT: {problem}")
        print()


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:>12.6g}"
    return f"{value!s:>12}"
