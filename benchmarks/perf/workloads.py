"""The benchmark's four workloads, each a closed loop over the real pipeline.

One caller runs one repetition at a time, serially (``jobs=1``, no
threads); the next repetition starts only after the previous one ends.
Every repetition does the same work from the same cache state, so the
rendered output of every repetition must equal the first one and the
expected output.

Why these four (README.md has the full rationale):

* ``compare_cold`` -- a first-ever ``repro compare``: every compile
  layer misses and the disk layer only writes.
* ``compare_policy_grid`` -- the S5 grid under all three allocator
  policies from a filled disk cache: no frontend compiles, execution
  and the memory model dominate.
* ``fuzz_blind`` -- blind differential fuzzing: one-shot programs, so
  compile and threading are paid per program; shrinking dominates.
* ``fuzz_guided`` -- a coverage-guided campaign in resumed rounds: the
  traced Core reference run, mutation and fsync'd corpus writes.

The compare workloads run the fixed 94-case suite.  The fuzz workloads
run campaign seed ``seed`` (``run.py --seed``).  How much work a fuzz
run does depends on its seed: the number and size of the divergence
groups to shrink vary, so one seed's blind run can take four times as
long as another's.  Each workload therefore also reports the
implementation runs (``Implementation.run`` calls) of one repetition,
and throughput is measured in runs per second.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
GOLDEN = ROOT / "tests" / "golden" / "compliance.txt"
EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.core.coreeval import default_evaluator, set_default_evaluator  # noqa: E402
from repro.fuzz.campaign import run_campaign                 # noqa: E402
from repro.fuzz.driver import run_fuzz                       # noqa: E402
from repro.impls import ALL_IMPLEMENTATIONS, with_allocator  # noqa: E402
from repro.impls.config import Implementation                # noqa: E402
from repro.perf import clear_cache, configure_disk_cache     # noqa: E402
from repro.reporting.tables import render_compliance         # noqa: E402
from repro.testsuite.compare import compare_implementations  # noqa: E402
from repro.testsuite.suite import all_cases                  # noqa: E402

POLICIES = ("bump", "freelist", "quarantine")
#: Campaign seed of the fuzz warm-up.  It is fixed, not derived from
#: ``--seed``: a warm-up on seed S + 1000 took 0.35-1.9 s and 29-35 MB
#: over twenty seeds, and ``setup_s``/``setup_rss_mb`` are compared
#: across runs on different seeds.
WARMUP_SEED = 1000


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def counting_runs():
    """Count ``Implementation.run`` calls; yields a one-element list.

    Only the untimed reference pass uses this, after the timed loop.
    """
    run = Implementation.__dict__["run"]
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return run(*args, **kwargs)

    Implementation.run = counted
    try:
        yield calls
    finally:
        Implementation.run = run


class Workload:
    """One workload: untimed ``setup``/``prepare``, timed ``run``."""

    name = ""
    #: What one unit of ``items`` is.
    item = ""
    #: Size parameters (and ``seed`` for seeded workloads); tests pass
    #: smaller sizes.
    DEFAULTS: dict = {}
    #: Implementation runs per item when that is fixed (a grid cell is
    #: one run); ``None`` when only the reference pass can count them.
    RUNS_PER_ITEM: int | None = None

    def __init__(self, scratch: pathlib.Path, **sizes) -> None:
        self.scratch = pathlib.Path(scratch)
        self.params = {**self.DEFAULTS, **sizes}
        self._dirs = 0
        self._rep_dirs: list[pathlib.Path] = []

    def fresh_dir(self, keep: bool = False) -> pathlib.Path:
        """A new empty directory under the scratch area; unless
        ``keep``, it is removed by the next :meth:`drop_rep_dirs`."""
        self._dirs += 1
        path = self.scratch / f"{self.name}-{self._dirs}"
        path.mkdir(parents=True)
        if not keep:
            self._rep_dirs.append(path)
        return path

    def drop_rep_dirs(self) -> None:
        while self._rep_dirs:
            shutil.rmtree(self._rep_dirs.pop(), ignore_errors=True)

    def setup(self) -> None:
        """Warm-up and cache fill, once per process."""

    def prepare(self) -> None:
        """Bring caches to the state every repetition starts from."""
        self.drop_rep_dirs()
        configure_disk_cache(enabled=True, directory=str(self.fresh_dir()))
        clear_cache()

    def run(self, evaluator: str | None = None):
        raise NotImplementedError

    @property
    def items(self) -> int:
        raise NotImplementedError

    def observe(self, result) -> dict:
        """The comparable output of one repetition (JSON-able)."""
        raise NotImplementedError

    def failed(self, result) -> int:
        """Operations of one repetition that produced no verdict."""
        raise NotImplementedError

    # -- expected output -------------------------------------------------

    def expected_path(self) -> pathlib.Path:
        if "seed" in self.params:
            return EXPECTED_DIR / f"{self.name}.seed{self.params['seed']}.json"
        return EXPECTED_DIR / f"{self.name}.json"

    def known_output(self) -> dict | None:
        """The committed expected output for these parameters, if any."""
        try:
            payload = json.loads(self.expected_path().read_text("utf-8"))
        except FileNotFoundError:
            return None
        if payload.get("params") != self.params:
            return None
        return payload["output"]

    def reference(self) -> tuple[dict, int]:
        """The output of one repetition on the Core evaluator, the
        independent reference interpreter, and its implementation runs.
        Untimed."""
        previous = default_evaluator()
        try:
            self.prepare()
            with counting_runs() as calls:
                output = self.observe(self.run(evaluator="core"))
            return output, calls[0]
        finally:
            set_default_evaluator(previous)
            self.drop_rep_dirs()

    def expected(self) -> tuple[dict, int, list[str]]:
        """The expected output, the implementation runs of one
        repetition, and any disagreement between the reference pass and
        the committed output.  Untimed."""
        known = self.known_output()
        if known is not None and self.RUNS_PER_ITEM is not None:
            return known, self.items * self.RUNS_PER_ITEM, []
        if known is None:
            print(f"note: no expected output for {self.name} with "
                  f"{self.params}; computing it on the Core evaluator",
                  file=sys.stderr)
        output, runs = self.reference()
        if known is None or output == known:
            return output, runs, []
        return known, runs, [f"{self.name}: the Core evaluator's output "
                             f"differs from {self.expected_path().name}"]

    def stored_output(self, output: dict) -> dict:
        """The part of ``output`` that :meth:`write_expected` stores."""
        return output

    def write_expected(self) -> pathlib.Path | None:
        """Store the Core evaluator's output (after :meth:`setup`)."""
        output, _ = self.reference()
        path = self.expected_path()
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"params": self.params,
                   "output": self.stored_output(output)}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        return path


class _Compare(Workload):
    item = "cell"
    RUNS_PER_ITEM = 1
    #: ``cases`` = how many suite cases (``None`` = all 94).
    DEFAULTS = {"cases": None}

    @property
    def cases(self):
        cases = all_cases()
        limit = self.params["cases"]
        return cases if limit is None else cases[:limit]

    def failed(self, result) -> int:
        return sum(report.quarantined for report in result)

    def golden(self) -> str | None:
        """``tests/golden/compliance.txt``: the expected report of the
        94-case grid, so only at the default size."""
        if self.params != self.DEFAULTS:
            return None
        return GOLDEN.read_text(encoding="utf-8")


class CompareCold(_Compare):
    """A first-ever ``repro compare``: empty memory and disk caches."""

    name = "compare_cold"

    def setup(self) -> None:
        self.prepare()
        self.run()

    def run(self, evaluator=None):
        return compare_implementations(ALL_IMPLEMENTATIONS, self.cases,
                                       jobs=1, use_cache=True,
                                       evaluator=evaluator)

    @property
    def items(self) -> int:
        return len(self.cases) * len(ALL_IMPLEMENTATIONS)

    def observe(self, result) -> dict:
        return {"report": render_compliance(result)}

    def known_output(self) -> dict | None:
        golden = self.golden()
        return None if golden is None else {"report": golden}

    def write_expected(self) -> None:
        """Nothing to store: the golden file is the expected output."""
        return None


class ComparePolicyGrid(_Compare):
    """The grid under every allocator policy from a filled disk cache,
    with the in-memory layers dropped as in a fresh CLI process."""

    name = "compare_policy_grid"
    GRID = tuple(with_allocator(impl, policy)
                 for policy in POLICIES for impl in ALL_IMPLEMENTATIONS)

    def setup(self) -> None:
        configure_disk_cache(enabled=True,
                             directory=str(self.fresh_dir(keep=True)))
        clear_cache()
        compare_implementations(ALL_IMPLEMENTATIONS, self.cases, jobs=1,
                                use_cache=True)

    def prepare(self) -> None:
        clear_cache()

    def run(self, evaluator=None):
        return compare_implementations(self.GRID, self.cases, jobs=1,
                                       use_cache=True, evaluator=evaluator)

    @property
    def items(self) -> int:
        return len(self.cases) * len(self.GRID)

    def observe(self, result) -> dict:
        width = len(ALL_IMPLEMENTATIONS)
        return {policy: render_compliance(result[i * width:(i + 1) * width])
                for i, policy in enumerate(POLICIES)}

    def known_output(self) -> dict | None:
        """The bump slice is the golden report; the file holds the
        other two."""
        golden = self.golden()
        slices = super().known_output()
        if golden is None or slices is None:
            return None
        return {"bump": golden, **slices}

    def stored_output(self, output: dict) -> dict:
        golden = self.golden()
        if golden is not None and output["bump"] != golden:
            raise RuntimeError(f"{self.name}: the bump slice differs from "
                               f"{GOLDEN.name}")
        return {policy: text for policy, text in output.items()
                if policy != "bump"}


def _failed_programs(reference_counts: dict) -> int:
    """Programs that got no verdict because their worker died.

    A reference run that raised is a verdict: the oracle reports it as
    a ``crash`` finding, and the output check covers it.
    """
    return reference_counts.get("quarantined", 0)


class FuzzBlind(Workload):
    """``repro fuzz``: blind generation, classification and shrinking."""

    name = "fuzz_blind"
    item = "program"
    DEFAULTS = {"seed": 0, "iterations": 10, "shrink_budget": 30}

    def setup(self) -> None:
        # Warm-up touches every stage, shrinking included, but stays
        # short: set-up is sampled in several processes per run.
        self.prepare()
        run_fuzz(seed=WARMUP_SEED, iterations=2, jobs=1,
                 shrink_budget=2, use_cache=True)

    def run(self, evaluator=None):
        return run_fuzz(seed=self.params["seed"],
                        iterations=self.params["iterations"], jobs=1,
                        shrink_budget=self.params["shrink_budget"],
                        use_cache=True, evaluator=evaluator)

    @property
    def items(self) -> int:
        return self.params["iterations"]

    def observe(self, report) -> dict:
        minimized = sorted(group.minimized_source or ""
                           for group in report.groups)
        return {"iterations": report.iterations,
                "reference_counts": dict(sorted(
                    report.reference_counts.items())),
                "groups": [group.describe()
                           for group in report.sorted_groups()],
                "minimized_sha256": _sha256("\0".join(minimized))}

    def failed(self, report) -> int:
        return _failed_programs(report.reference_counts)


class FuzzGuided(Workload):
    """``repro fuzz --guided``: a fresh corpus grown in resumed rounds."""

    name = "fuzz_guided"
    item = "program"
    DEFAULTS = {"seed": 0, "rounds": 4, "per_round": 10}

    def setup(self) -> None:
        self.prepare()
        run_campaign(seed=WARMUP_SEED, iterations=2,
                     corpus_dir=self.fresh_dir(), jobs=1, use_cache=True,
                     classify=True)

    def prepare(self) -> None:
        super().prepare()
        self.corpus = self.fresh_dir()

    def run(self, evaluator=None):
        reports = []
        for round_index in range(self.params["rounds"]):
            reports.append(run_campaign(
                seed=self.params["seed"],
                iterations=self.params["per_round"],
                corpus_dir=self.corpus, resume=round_index > 0, jobs=1,
                use_cache=True, evaluator=evaluator, classify=True))
        return reports

    @property
    def items(self) -> int:
        return self.params["rounds"] * self.params["per_round"]

    def observe(self, reports) -> dict:
        corpus = hashlib.sha256()
        files = sorted(path for path in self.corpus.rglob("*")
                       if path.is_file())
        for path in files:
            corpus.update(path.relative_to(self.corpus).as_posix()
                          .encode("utf-8") + b"\0")
            corpus.update(path.read_bytes() + b"\0")
        ops = frozenset().union(*(report.covered.ops
                                  for report in reports))
        counts: dict[str, int] = {}
        for report in reports:
            for label, count in report.reference_counts.items():
                counts[label] = counts.get(label, 0) + count
        return {"corpus_sha256": corpus.hexdigest(),
                "corpus_files": len(files),
                "findings": len(reports[-1].findings),
                "ops_covered": len(ops),
                "reference_counts": dict(sorted(counts.items()))}

    def failed(self, reports) -> int:
        return sum(_failed_programs(report.reference_counts)
                   for report in reports)


WORKLOADS = {cls.name: cls for cls in
             (CompareCold, ComparePolicyGrid, FuzzBlind, FuzzGuided)}


def make(name: str, scratch: pathlib.Path, seed: int = 0,
         **sizes) -> Workload:
    """Workload ``name``; ``seed`` reaches only the seeded (fuzz) ones."""
    cls = WORKLOADS[name]
    if "seed" in cls.DEFAULTS:
        sizes.setdefault("seed", seed)
    return cls(scratch, **sizes)
