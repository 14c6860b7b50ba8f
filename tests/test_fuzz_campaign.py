"""The guided campaign engine: sharding, resume, dedup, durability.

The two regression pins the ISSUE demands live here:

* **Shard determinism**: ``--shard 0/2`` union ``--shard 1/2`` over one
  seed equals the unsharded campaign's findings and merged corpus,
  byte-for-byte (``test_sharded_union_equals_unsharded``).
* **Distinct-bug dedup** (golden): one UB reached via two syntactic
  routes reports one bug with two witnesses, keyed by the explainer's
  explaining signature (``test_same_ub_two_routes_is_one_bug``).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.errors import UndefinedBehaviour
from repro.fuzz.campaign import (
    CampaignError,
    FRESH_FRACTION,
    FuzzTask,
    _evaluate_candidate,
    _witness_payload,
    derive_candidate,
    load_state,
    parse_shard,
    run_campaign,
    save_state,
    take_snapshot,
)
from repro.fuzz.corpus import (
    SeedEntry,
    atomic_write_text,
    load_findings,
    load_seed_corpus,
    merge_corpus_dirs,
    minimise_corpus,
    record_witness,
    save_seed,
    seeds_dir,
)
from repro.fuzz.coverage import Coverage
from repro.fuzz.driver import program_for, run_fuzz
from repro.fuzz.generator import FuzzProgram, FuzzStmt
from repro.fuzz.mutate import MAX_STMTS, mutate
from repro.fuzz.oracle import Cause, FuzzTarget, evaluate_program
from repro.impls.config import Implementation
from repro.impls.faults import FaultyImplementation
from repro.impls.registry import CERBERUS
from repro.memory.model import MemoryModel
from repro.perf.pool import parallel_map

import random


def _tree(directory) -> dict[str, bytes]:
    directory = pathlib.Path(directory)
    return {str(path.relative_to(directory)): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


# ---------------------------------------------------------------------------
# Candidate derivation and mutation


def test_empty_snapshot_candidates_equal_blind_generation(tmp_path):
    """A guided campaign's first window is an honest blind baseline."""
    snapshot = take_snapshot(tmp_path)
    for index in range(5):
        program, origin = derive_candidate(9, index, snapshot)
        assert origin == "fresh"
        assert program.render() == program_for(9, index).render()


def test_derive_candidate_is_pure():
    entry = SeedEntry.from_program(program_for(0, 0), 0,
                                   Coverage(ops=frozenset({"main:1"})))
    from repro.fuzz.campaign import Snapshot
    snapshot = Snapshot(entries=(entry,), weights=(1.0,),
                        baseline=entry.coverage.keys())
    first = [derive_candidate(4, k, snapshot) for k in range(8)]
    second = [derive_candidate(4, k, snapshot) for k in range(8)]
    assert [(p.render(), o) for p, o in first] == \
        [(p.render(), o) for p, o in second]
    assert any(origin == "mutant" for _, origin in first)


def test_mutate_is_deterministic_and_bounded():
    base = program_for(2, 1)
    pool = tuple(program_for(2, k) for k in range(4))
    for salt in range(10):
        rng_a, rng_b = random.Random(salt), random.Random(salt)
        out_a = mutate(base, rng_a, pool)
        out_b = mutate(base, rng_b, pool)
        assert out_a.render() == out_b.render()
        assert 1 <= len(out_a.stmts) <= MAX_STMTS
        # Mutants stay well-formed C the frontend accepts.
        assert "int main(void)" in out_a.render()


def test_mutation_templates_are_accepted_by_the_frontend():
    """Every CRuby-shape template must run on the reference (and on the
    CHERIoT format), not bounce off the parser."""
    from repro.fuzz.mutate import _TEMPLATES
    from repro.impls.registry import CHERIOT_ABSTRACT
    program = FuzzProgram(arr_len=4, heap_len=2, stmts=tuple(_TEMPLATES))
    for impl in (CERBERUS, CHERIOT_ABSTRACT):
        outcome = impl.run(program.render())
        assert outcome.kind.value != "error", outcome.describe()


def test_parse_shard():
    assert parse_shard("0/2") == (0, 2)
    assert parse_shard("3/8") == (3, 8)
    for bad in ("2/2", "x/2", "1", "-1/2", "0/0"):
        with pytest.raises(CampaignError):
            parse_shard(bad)


# ---------------------------------------------------------------------------
# Shard determinism (regression pin)


def test_sharded_union_equals_unsharded(tmp_path):
    """shard 0/2 + shard 1/2, merged, is byte-for-byte the unsharded
    campaign's corpus, findings, and state."""
    full = tmp_path / "full"
    shard0 = tmp_path / "shard0"
    shard1 = tmp_path / "shard1"
    merged = tmp_path / "merged"
    run_campaign(seed=3, iterations=10, corpus_dir=full)
    run_campaign(seed=3, iterations=10, corpus_dir=shard0, shard=(0, 2))
    run_campaign(seed=3, iterations=10, corpus_dir=shard1, shard=(1, 2))
    merge_corpus_dirs(merged, [shard0, shard1])
    assert _tree(merged) == _tree(full)
    # The merged corpus resumes as the unsharded campaign would.
    state = load_state(merged)
    assert state == {"version": 1, "seed": 3, "shard": (0, 1),
                     "next_index": 10}


def test_shards_partition_the_window(tmp_path):
    report0 = run_campaign(seed=3, iterations=10,
                           corpus_dir=tmp_path / "s0", shard=(0, 2))
    report1 = run_campaign(seed=3, iterations=10,
                           corpus_dir=tmp_path / "s1", shard=(1, 2))
    assert report0.processed == report1.processed == 5
    assert report0.next_index == report1.next_index == 10


def test_merge_refuses_mixed_seeds(tmp_path):
    run_campaign(seed=1, iterations=4, corpus_dir=tmp_path / "a")
    run_campaign(seed=2, iterations=4, corpus_dir=tmp_path / "b")
    with pytest.raises(CampaignError):
        merge_corpus_dirs(tmp_path / "m",
                          [tmp_path / "a", tmp_path / "b"])


# ---------------------------------------------------------------------------
# Resume semantics and durability


def test_resume_continues_the_window(tmp_path):
    d = tmp_path / "corpus"
    first = run_campaign(seed=5, iterations=6, corpus_dir=d)
    second = run_campaign(seed=5, iterations=6, corpus_dir=d, resume=True)
    assert (first.start_index, first.next_index) == (0, 6)
    assert (second.start_index, second.next_index) == (6, 12)


def test_unresumed_stateful_corpus_is_refused(tmp_path):
    d = tmp_path / "corpus"
    run_campaign(seed=5, iterations=4, corpus_dir=d)
    with pytest.raises(CampaignError, match="resume"):
        run_campaign(seed=5, iterations=4, corpus_dir=d)


def test_seed_mismatch_is_refused(tmp_path):
    d = tmp_path / "corpus"
    run_campaign(seed=5, iterations=4, corpus_dir=d)
    with pytest.raises(CampaignError, match="seed"):
        run_campaign(seed=6, iterations=4, corpus_dir=d, resume=True)


def test_corrupt_seed_entries_do_not_poison_resume(tmp_path):
    """A torn/corrupt corpus file reads as absent (the disk-cache
    reader contract), so a killed campaign's directory stays usable."""
    d = tmp_path / "corpus"
    run_campaign(seed=5, iterations=6, corpus_dir=d)
    entries = load_seed_corpus(d)
    assert entries
    # Damage one entry in place (what a torn non-atomic write would
    # have produced) and add stray garbage.
    victim = seeds_dir(d) / f"{entries[0].name}.json"
    victim.write_text('{"truncat', encoding="utf-8")
    (seeds_dir(d) / "zz-garbage.json").write_text("not json at all",
                                                  encoding="utf-8")
    survivors = load_seed_corpus(d)
    assert len(survivors) == len(entries) - 1
    report = run_campaign(seed=5, iterations=4, corpus_dir=d, resume=True)
    assert report.start_index == 6


def test_corrupt_state_restarts_the_window_safely(tmp_path):
    d = tmp_path / "corpus"
    run_campaign(seed=5, iterations=6, corpus_dir=d)
    before = {entry.name for entry in load_seed_corpus(d)}
    (d / "state.json").write_text("{", encoding="utf-8")
    assert load_state(d) is None
    # Resume with no readable cursor re-runs the window from 0 over the
    # surviving snapshot: no crash, prior seeds intact (writes are
    # content-addressed), and a fresh cursor is published.
    report = run_campaign(seed=5, iterations=6, corpus_dir=d,
                          resume=True)
    assert report.start_index == 0
    assert before <= {entry.name for entry in load_seed_corpus(d)}
    assert load_state(d)["next_index"] == 6


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "nested" / "file.json"
    atomic_write_text(target, '{"ok": true}\n')
    assert json.loads(target.read_text()) == {"ok": True}
    assert [p.name for p in target.parent.iterdir()] == ["file.json"]


def test_save_state_roundtrip(tmp_path):
    save_state(tmp_path, 7, (1, 4), 42)
    assert load_state(tmp_path) == {"version": 1, "seed": 7,
                                    "shard": (1, 4), "next_index": 42}


# ---------------------------------------------------------------------------
# Distinct-bug dedup (golden)


class CrashOnUBLoadModel(MemoryModel):
    """Test-only fault: any load the semantics flags as UB crashes the
    interpreter instead -- a reproducible CRASH-class finding."""

    def load(self, ctype, ptr):
        try:
            return super().load(ctype, ptr)
        except UndefinedBehaviour as exc:
            raise RuntimeError(f"boom: {exc.ub.value}")


CRASHY_TARGETS = (FuzzTarget.of(FaultyImplementation(
    name="crashy-load", arch=CERBERUS.arch, mode=CERBERUS.mode,
    address_map=CERBERUS.address_map, opt_level=CERBERUS.opt_level,
    description="test-only: crashes on UB loads",
    model_class=CrashOnUBLoadModel)),)

#: Two syntactic routes to the same out-of-bounds load.
ROUTE_INDEX = FuzzProgram(arr_len=2, heap_len=2, stmts=(
    FuzzStmt("index-read", "acc += a[{0}];", (2,)),))
ROUTE_DEREF = FuzzProgram(arr_len=2, heap_len=2, stmts=(
    FuzzStmt("ptr-arith", "p = a + {0};", (2,)),
    FuzzStmt("deref-read", "acc += *p;")))

#: The golden explaining signature both routes must share.
GOLDEN_SIGNATURE = ["check.ub", "UB_CHERI_BoundsViolation",
                    None, None, None, None]


def test_same_ub_two_routes_is_one_bug(tmp_path):
    """The dedup golden: two witnesses, one distinct bug."""
    for program in (ROUTE_INDEX, ROUTE_DEREF):
        result = _evaluate_candidate(
            FuzzTask(program, targets=CRASHY_TARGETS))
        findings = [d for d in result.divergences if d.is_finding]
        assert findings, "engineered route must be a finding"
        assert list(result.signature) == GOLDEN_SIGNATURE
        record, _, _ = record_witness(
            tmp_path, result.signature,
            _witness_payload(program, findings))
    records = load_findings(tmp_path)
    assert len(records) == 1, "same signature must dedup to one bug"
    assert records[0].signature == GOLDEN_SIGNATURE
    assert len(records[0].witnesses) == 2
    for witness in records[0].witnesses.values():
        assert witness["observations"][0]["impl"] == "crashy-load"
        assert witness["observations"][0]["cause"] == "interpreter-crash"


def test_rerecording_a_witness_is_idempotent(tmp_path):
    result = _evaluate_candidate(
        FuzzTask(ROUTE_INDEX, targets=CRASHY_TARGETS))
    findings = [d for d in result.divergences if d.is_finding]
    payload = _witness_payload(ROUTE_INDEX, findings)
    _, new_bug, new_witness = record_witness(tmp_path, result.signature,
                                             payload)
    assert new_bug and new_witness
    before = _tree(tmp_path)
    _, new_bug, new_witness = record_witness(tmp_path, result.signature,
                                             payload)
    assert not new_bug and not new_witness
    assert _tree(tmp_path) == before


def test_campaign_records_findings_and_reports_not_ok(tmp_path):
    """End-to-end: a campaign over a crashy target flips ok=False and
    files the bug under findings/."""
    report = run_campaign(seed=0, iterations=8, corpus_dir=tmp_path,
                          targets=CRASHY_TARGETS)
    # Seed 0's early window hits UB loads (the generator is weighted
    # toward them), so at least one finding-class divergence lands.
    assert report.finding_hits > 0
    assert not report.ok
    assert report.new_bugs
    assert load_findings(tmp_path)


# ---------------------------------------------------------------------------
# One reference run per guided candidate


def _count_reference_runs(monkeypatch) -> list[bool]:
    """Record, per global-reference run, whether it was traced."""
    traced: list[bool] = []
    run = Implementation.run

    def counting(impl, source, *args, **kwargs):
        if impl.name == CERBERUS.name:
            traced.append(kwargs.get("bus") is not None)
        return run(impl, source, *args, **kwargs)

    monkeypatch.setattr(Implementation, "run", counting)
    return traced


def test_guided_candidate_makes_no_untraced_reference_run(monkeypatch):
    traced = _count_reference_runs(monkeypatch)
    result = _evaluate_candidate(FuzzTask(ROUTE_DEREF))
    assert traced == [True], "the coverage probe is the only reference run"
    assert result.label == "UB UB_CHERI_BoundsViolation"


def test_crashing_reference_records_the_same_crash(monkeypatch):
    """The probe keeps the reference's exception, so the oracle's CRASH
    divergence reads exactly as when the oracle runs the reference."""
    def crash(self, ctype, ptr):
        raise RuntimeError("reference load crashed")

    monkeypatch.setattr(MemoryModel, "load", crash)
    expected = evaluate_program(ROUTE_INDEX, CRASHY_TARGETS,
                                attach_evidence=False)
    result = _evaluate_candidate(FuzzTask(ROUTE_INDEX,
                                          targets=CRASHY_TARGETS))
    assert result.label == "crash"
    assert [d.describe() for d in result.divergences] == \
        [d.describe() for d in expected.divergences]
    assert result.divergences[0].cause is Cause.CRASH
    assert result.divergences[0].observed == \
        "RuntimeError('reference load crashed')"
    assert _witness_payload(ROUTE_INDEX, result.divergences) == \
        _witness_payload(ROUTE_INDEX, expected.divergences)


# ---------------------------------------------------------------------------
# Settings reach pool workers through the initializer


def _worker_settings(_item):
    from repro.core.coreeval import default_evaluator
    from repro.perf.cache import cache_enabled
    return default_evaluator(), cache_enabled()


@pytest.fixture
def restored_engine_settings():
    from repro.core.coreeval import default_evaluator, set_default_evaluator
    from repro.perf.cache import cache_enabled, set_cache_enabled
    before = default_evaluator(), cache_enabled()
    # Warm the persistent pool under the default settings, so the runs
    # below must rebuild it for their workers to see theirs.
    parallel_map(_worker_settings, range(4), jobs=2)
    yield
    set_default_evaluator(before[0])
    set_cache_enabled(before[1])


SETTINGS = {"evaluator": "core", "use_cache": False}


def test_blind_pooled_run_equals_serial(restored_engine_settings):
    def signature(report):
        return (report.iterations, report.reference_counts,
                [g.describe() for g in report.sorted_groups()],
                sorted(g.minimized_source or "" for g in report.groups))

    pooled = run_fuzz(seed=0, iterations=12, shrink_budget=3, jobs=2,
                      **SETTINGS)
    assert set(parallel_map(_worker_settings, range(4), jobs=2)) == \
        {("core", False)}
    serial = run_fuzz(seed=0, iterations=12, shrink_budget=3, jobs=1,
                      **SETTINGS)
    assert not pooled.quarantined
    assert signature(pooled) == signature(serial)


def test_guided_pooled_window_equals_serial(tmp_path,
                                            restored_engine_settings):
    pooled = run_campaign(seed=5, iterations=16, corpus_dir=tmp_path / "p",
                          jobs=2, **SETTINGS)
    assert set(parallel_map(_worker_settings, range(4), jobs=2)) == \
        {("core", False)}
    serial = run_campaign(seed=5, iterations=16, corpus_dir=tmp_path / "s",
                          jobs=1, **SETTINGS)
    assert not pooled.quarantined
    assert pooled.reference_counts == serial.reference_counts
    assert _tree(tmp_path / "p") == _tree(tmp_path / "s")


# ---------------------------------------------------------------------------
# Corpus scheduling and minimisation


def test_minimise_preserves_union_coverage(tmp_path):
    run_campaign(seed=7, iterations=12, corpus_dir=tmp_path,
                 classify=False)
    before = load_seed_corpus(tmp_path)
    union_before = frozenset().union(*(e.coverage.keys()
                                       for e in before))
    kept, removed = minimise_corpus(tmp_path)
    assert len(kept) + len(removed) == len(before)
    union_after = frozenset().union(*(e.coverage.keys() for e in kept))
    assert union_after == union_before
    assert {e.name for e in load_seed_corpus(tmp_path)} == \
        {e.name for e in kept}


def test_scheduler_prefers_corpus_mutation(tmp_path):
    """Once the corpus is non-empty, mutation dominates fresh draws (at
    the configured FRESH_FRACTION)."""
    run_campaign(seed=7, iterations=10, corpus_dir=tmp_path,
                 classify=False)
    report = run_campaign(seed=7, iterations=40, corpus_dir=tmp_path,
                          classify=False, resume=True)
    assert report.derived.get("mutant", 0) > report.derived.get("fresh", 0)
    total = report.derived.get("mutant", 0) + report.derived.get("fresh", 0)
    assert total == 40
    assert FRESH_FRACTION < 0.5  # the preference the test pins


def test_seed_entries_are_content_addressed(tmp_path):
    program = program_for(0, 1)
    entry = SeedEntry.from_program(program, 0, Coverage())
    save_seed(tmp_path, entry)
    save_seed(tmp_path, entry)   # idempotent republication
    files = list(seeds_dir(tmp_path).glob("*.json"))
    assert len(files) == 1
    assert entry.name in files[0].name
    loaded = load_seed_corpus(tmp_path)[0]
    assert loaded.program.render() == program.render()
