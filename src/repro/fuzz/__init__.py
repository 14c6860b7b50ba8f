"""Differential fuzzing of the CHERI C implementations (S7's oracle loop).

The paper's S7 observes that an *executable* semantics can serve as a
test oracle for randomly generated programs, removing the need to curate
intended results by hand.  This package industrialises that loop for the
whole implementation registry:

* :mod:`repro.fuzz.generator` -- a seeded, reproducible generator of
  well-typed programs in the supported C subset, weighted toward the
  provenance- and representability-sensitive shapes of S5/Table 1;
* :mod:`repro.fuzz.oracle` -- the differential oracle: every generated
  program runs on every registered implementation plus the strict and
  permissive memory-model modes, and each divergence from the reference
  outcome is either explained by a *known cause* (address-map-dependent
  masking, capability format, bounds-setting mode, UB licence, memory
  -model mode) or flagged as a finding;
* :mod:`repro.fuzz.shrinker` -- AST-level minimisation of any divergent
  or crashing program while preserving the failure signature;
* :mod:`repro.fuzz.evidence` -- trace evidence for findings: the
  reference's explaining event (attached to every finding) and the
  "same explaining event" shrink predicate ingredient;
* :mod:`repro.fuzz.corpus` -- the ``tests/corpus/`` regression corpus
  (minimized cases with recorded per-implementation outcomes, replayed
  by pytest) and the campaign corpus stores (coverage-advancing seeds,
  distinct-bug finding records, merge and minimise);
* :mod:`repro.fuzz.driver` -- blind fuzzing behind ``repro fuzz --seed
  N --iterations K``: the campaign engine's corpus-less window, plus
  divergence grouping and shrinking;
* :mod:`repro.fuzz.coverage` -- the coverage signal (Core op ids, UB
  kinds, event signatures) distilled from one traced reference run;
* :mod:`repro.fuzz.mutate` -- AST-level mutation of corpus seeds
  (splice, perturbation, and the CRuby-porting pointer-tagging /
  union-round-trip templates);
* :mod:`repro.fuzz.campaign` -- the fuzz engine: one window runner
  for both loops, and the coverage-guided campaign behind ``repro fuzz
  --guided --corpus-dir DIR --shard i/n --resume`` (resumable,
  deterministically shardable, distinct-bug deduplicated).
"""

from repro.fuzz.campaign import (
    CampaignError,
    CampaignReport,
    derive_candidate,
    parse_shard,
    run_campaign,
    take_snapshot,
)
from repro.fuzz.corpus import (
    CorpusCase,
    FindingRecord,
    SeedEntry,
    atomic_write_text,
    load_case,
    load_corpus,
    load_findings,
    load_seed_corpus,
    merge_corpus_dirs,
    minimise_corpus,
    save_case,
    save_seed,
)
from repro.fuzz.coverage import Coverage, coverage_from_events, coverage_of
from repro.fuzz.driver import (
    FuzzReport,
    iteration_seed,
    program_for,
    run_fuzz,
)
from repro.fuzz.mutate import mutate
from repro.fuzz.evidence import (
    capture_trace,
    reference_evidence,
    reference_signature,
)
from repro.fuzz.generator import FuzzProgram, FuzzStmt, ProgramGenerator
from repro.fuzz.oracle import (
    Cause,
    Divergence,
    FUZZ_TARGETS,
    ProgramVerdict,
    evaluate_program,
    outcome_signature,
)
from repro.fuzz.shrinker import shrink

__all__ = [
    "CampaignError",
    "CampaignReport",
    "Cause",
    "CorpusCase",
    "Coverage",
    "Divergence",
    "FUZZ_TARGETS",
    "FindingRecord",
    "FuzzProgram",
    "FuzzReport",
    "FuzzStmt",
    "ProgramGenerator",
    "ProgramVerdict",
    "SeedEntry",
    "atomic_write_text",
    "capture_trace",
    "coverage_from_events",
    "coverage_of",
    "derive_candidate",
    "evaluate_program",
    "iteration_seed",
    "load_case",
    "load_corpus",
    "load_findings",
    "load_seed_corpus",
    "merge_corpus_dirs",
    "minimise_corpus",
    "mutate",
    "outcome_signature",
    "parse_shard",
    "program_for",
    "reference_evidence",
    "reference_signature",
    "run_campaign",
    "run_fuzz",
    "save_case",
    "save_seed",
    "shrink",
    "take_snapshot",
]
