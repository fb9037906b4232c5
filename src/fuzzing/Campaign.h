//===- fuzzing/Campaign.h - Fuzzing algorithms of the evaluation ---------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign driver implementing Algorithm 1 (classfuzz) and the
/// three comparison algorithms of §3.1.2:
///
///  * classfuzz[stbr] / [st] / [tr] -- MCMC mutator selection +
///    coverage-uniqueness acceptance on the reference JVM;
///  * classfuzz[dd-coarse] / [dd-fine] -- MCMC selection + Nezha-style
///    δ-diversity acceptance: every produced mutant runs on all five
///    profiles and is kept iff its per-profile (outcome, coverage)
///    tuple is novel (coverage/Uniqueness.h, DeltaDiversityChecker);
///  * uniquefuzz -- uniform mutator selection + [stbr] uniqueness;
///  * greedyfuzz -- uniform selection + accumulative-coverage acceptance;
///  * randfuzz   -- uniform selection, accepts every produced mutant,
///    no coverage collection.
///
/// The paper's 3-day wall-clock budget maps to an iteration budget; all
/// reported quantities (succ rate, |GenClasses|, |TestClasses|) are
/// per-iteration and carry over directly.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_FUZZING_CAMPAIGN_H
#define CLASSFUZZ_FUZZING_CAMPAIGN_H

#include "analysis/StaticAnalyzer.h"
#include "coverage/Frontier.h"
#include "coverage/Uniqueness.h"
#include "fuzzing/Provenance.h"
#include "fuzzing/SeedScheduler.h"
#include "jvm/ClassPath.h"
#include "jvm/Policy.h"
#include "mcmc/McmcSelector.h"
#include "mutation/Mutator.h"
#include "runtime/SeedCorpus.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace classfuzz {
namespace telemetry {
class TimeSeriesSampler;
} // namespace telemetry
} // namespace classfuzz

namespace classfuzz {

/// The six evaluated algorithms plus the two δ-diversity extensions.
enum class FuzzAlgorithm {
  ClassfuzzStBr,
  ClassfuzzSt,
  ClassfuzzTr,
  ClassfuzzDdCoarse,
  ClassfuzzDdFine,
  Uniquefuzz,
  Greedyfuzz,
  Randfuzz,
};

const char *fuzzAlgorithmName(FuzzAlgorithm Algo);

/// True for the δ-diversity algorithms, whose acceptance runs every
/// produced mutant on all five profiles instead of the reference JVM
/// alone.
bool usesDeltaDiversity(FuzzAlgorithm Algo);

/// Campaign parameters.
struct CampaignConfig {
  FuzzAlgorithm Algo = FuzzAlgorithm::ClassfuzzStBr;
  size_t Iterations = 2000; ///< Iteration budget (the paper's default
                            ///< stopping criterion is wall-clock; see
                            ///< TimeBudgetSeconds).
  /// When positive, Algorithm 1's literal stopping rule: iterate "until
  /// the time budget is used up" (the paper ran three days). Overrides
  /// Iterations.
  double TimeBudgetSeconds = 0;
  uint64_t RngSeed = 1;
  size_t NumSeeds = 64; ///< Seed-corpus size (the paper used 1,216).
  /// When non-empty, these classfiles are the seed corpus instead of
  /// the generated one (the paper seeded with 1,216 JRE7 classfiles;
  /// the CLI's --seed-dir feeds real .class files in here).
  std::vector<SeedClass> ExternalSeeds;
  /// Reference JVM whose coverage drives acceptance (HotSpot 9). Its
  /// Tier field carries the CLI's --tier choice into every reference
  /// execution.
  JvmPolicy ReferencePolicy;
  /// Tier-vs-tier differential axis (--tier-diff): every produced
  /// mutant additionally runs on the reference policy's
  /// threaded-interpreter and baseline tiers, and the two-code outcome
  /// census (TierOutcomeCounts, campaign.tier_* counters, the
  /// TierDisagreement flight events) is recorded at the commit stage.
  /// Ignored by randfuzz (no execution stage to ride).
  bool TierDiff = false;
  /// The geometric parameter p of the MCMC selector (paper: 3/129).
  double GeometricP = 0;
  /// Algorithm 1 line 14: accepted mutants rejoin TestClasses and are
  /// mutated further. Setting this false ablates the feedback loop
  /// (mutate original seeds only), isolating the paper's §3.2 claim
  /// that representative seeds breed representative mutants.
  bool FeedbackAcceptedMutants = true;
  /// Not read by runCampaign: the campaign is one sequential loop
  /// (DESIGN.md §7), so its results never depend on a thread count. The
  /// field stays only for callers that still assign it; the CLI's
  /// --jobs sizes the post-campaign difftest pool instead.
  size_t Jobs = 1;
  /// When positive, the driver prints a one-line progress report to
  /// stderr roughly every this many seconds (committed iterations,
  /// generated/accepted counts, succ rate). Observation only: the
  /// report reads campaign state and the wall clock, never the RNG, so
  /// results are unaffected. 0 disables (the default; the CLI enables
  /// it via --progress).
  double ProgressIntervalSeconds = 0;
  /// Run the execution-free static analyzer over every produced mutant
  /// at the commit stage and latch predict-vs-observe mismatches as
  /// self-check reports (analysis/StaticAnalyzer.h). Observation only:
  /// the analyzer never touches the RNG or the acceptance decision, so
  /// the committed trajectory is unchanged.
  bool RunAnalysis = true;
  /// Maintain a coverage FrontierTracker over every folded reference
  /// run (seed registrations, then each produced mutant at the commit
  /// stage): global hit counts, rare-branch set, first-hit attribution,
  /// and the frontier.* / frontier.mutator_phase telemetry. Observation
  /// only. Ignored by randfuzz (no coverage to fold). The tracker lands
  /// in CampaignResult::Frontier.
  bool TrackFrontier = false;
  /// Rarity cut of the frontier tracker and the seed scheduler (hits
  /// <= threshold = rare). The default of 2 is the bench_seedsched
  /// sweet spot: at 4-8 the rare policy's slot table concentrates on
  /// entries whose "rare" branches are merely uncommon, and the lost
  /// pick diversity costs discrepancy yield.
  uint64_t RareBranchThreshold = 2;
  /// When non-null, receives one onCommit per committed iteration (and
  /// a finish at end of run) at the commit stage -- the deterministic
  /// time-series hook (telemetry/TimeSeries.h). Not owned. Observation
  /// only.
  telemetry::TimeSeriesSampler *TimeSeries = nullptr;
  /// When positive, run a SaturationDetector with this window over the
  /// per-commit discovery signals (new frontier branches, acceptances,
  /// discrepancies); a latched plateau lands in CampaignResult and the
  /// campaign.plateau_at gauge. A pure function of the committed
  /// trajectory.
  size_t PlateauWindow = 0;
  /// Latch when a full window holds fewer than this many discoveries.
  uint64_t PlateauMinDiscoveries = 1;
  /// Stop the campaign at the commit that latches the plateau; the
  /// committed trajectory up to and including the stopping iteration is
  /// unchanged.
  bool StopOnPlateau = false;
  /// Seed-selection policy over the mutation pool (--seed-sched,
  /// fuzzing/SeedScheduler.h). Every policy consumes exactly one Rng
  /// draw per iteration with the same bound, so switching policies
  /// never perturbs mutator selection or mutation draws downstream. The
  /// scheduler maintains its own hit-count table (no --frontier
  /// needed); randfuzz collects no coverage and degrades to Uniform.
  SeedSchedPolicy SeedSched = SeedSchedPolicy::Uniform;
  /// Select mutators from extendedMutatorRegistry() (the paper's 129
  /// plus the analyzer-driven "typed.*" family) and feed every
  /// iteration the typed-hole list of the class being mutated,
  /// extracted against the *base* environment (runtime library +
  /// seeds, the same env provenance replay rebuilds). Off by default:
  /// the historical 129-mutator trajectory is byte-identical.
  bool TypedMutators = false;
  /// MCMC deep-phase reward weight (McmcSelector::setDeepReward):
  /// mutants that survive loading/linking (phase 0, 3, or 4) add this
  /// on top of the acceptance reward. 0 disables. Requires the mcmc
  /// algorithms with an execution stage.
  double DeepRewardWeight = 0;
  /// Analyzer-gated pre-filter: predictStartupOutcome runs on every
  /// produced mutant right after mutation, and mutants statically
  /// proven dead in loading or linking skip the execution stage
  /// entirely (committed as produced-but-rejected with no trace).
  /// Counters fold at the commit stage (campaign.prefilter_*). Definite
  /// predictions make skipping sound; the audit fraction below keeps
  /// the filter honest. Ignored by randfuzz.
  bool Prefilter = false;
  /// Fraction of prefilter-skipped mutants that execute anyway so the
  /// observed phase can be checked against the prediction (membership
  /// by content hash -- deterministic, no RNG). Audited runs change
  /// nothing about the committed trajectory; any mispredict bumps
  /// campaign.prefilter_mispredict and latches a SelfCheckReport.
  double PrefilterAudit = 0.05;
  CampaignConfig();
};

/// One generated classfile with its provenance.
struct GeneratedClass {
  std::string Name;
  Bytes Data;
  size_t MutatorIndex = 0;
  Tracefile Trace;          ///< Reference-JVM coverage (empty: randfuzz).
  bool Representative = false; ///< Accepted into TestClasses.
  /// Full mutation lineage: root seed + the mutator chain with per-step
  /// RNG snapshots, sufficient to re-derive Data byte-for-byte
  /// (fuzzing/Provenance.h). Always captured.
  Provenance Prov;
  /// Encoded startup phase {0..4} observed on the reference JVM during
  /// the coverage run; -1 when no reference run happened (randfuzz).
  int RefPhase = -1;
  /// δ-diversity modes only: the encoded five-profile sequence observed
  /// at acceptance time (Figure 3 encoding, e.g. "00012"). Empty for
  /// the reference-JVM algorithms.
  std::string DdEncoded;
  /// Tier-diff mode only: the two-code (interpreter, baseline) encoded
  /// outcome on the reference policy, e.g. "04". Empty without
  /// CampaignConfig::TierDiff.
  std::string TierEncoded;
};

/// The analyzer's verdict for one produced mutant (compact; the full
/// report is kept only for mismatches, in SelfCheckReport).
struct MutantAnalysisRecord {
  size_t GenIndex = 0; ///< Index into CampaignResult::GenClasses.
  PredictedOutcome Outcome = PredictedOutcome::PassStatic;
  int ObservedPhase = -1; ///< GeneratedClass::RefPhase at commit.
  size_t Findings = 0;    ///< Total diagnostics, all severities.
  /// True when the observed phase violates the prediction contract.
  /// Every true record has a matching SelfCheckReport -- the campaign
  /// never swallows a disagreement.
  bool Mismatch = false;
};

/// A latched predict-vs-observe disagreement: the self-check oracle
/// caught the analyzer and the VM contradicting each other, which is a
/// bug in one of them. Carries the full analyzer report for triage.
struct SelfCheckReport {
  size_t GenIndex = 0;
  int ObservedPhase = -1;
  AnalysisReport Report;
};

/// Campaign results (the raw material of Tables 4-7 and Figure 4).
struct CampaignResult {
  FuzzAlgorithm Algo = FuzzAlgorithm::Randfuzz;
  size_t Iterations = 0;
  std::vector<GeneratedClass> GenClasses;
  std::vector<size_t> TestClassIndices; ///< Indices into GenClasses.
  std::vector<size_t> MutatorSelected;  ///< Per-mutator selection count.
  std::vector<size_t> MutatorSucceeded; ///< Per-mutator acceptance count.
  /// Per-mutator draws the class shape ruled out entirely (no mutation
  /// site; includes seeds that failed to lower).
  std::vector<size_t> MutatorInapplicable;
  /// Per-mutator applicable draws that rewrote the class into itself
  /// (MutationResult::NoChange); distinguished from Inapplicable so the
  /// §3.1.3 succ-rate telemetry is not skewed by no-op applications.
  std::vector<size_t> MutatorNoChange;
  /// Seed corpus (with helpers) used; needed to rebuild environments for
  /// downstream differential testing.
  std::vector<SeedClass> Seeds;
  /// One record per produced mutant, in commit order (RunAnalysis).
  std::vector<MutantAnalysisRecord> AnalysisRecords;
  /// Every latched predict-vs-observe mismatch (RunAnalysis). Empty
  /// means the analyzer's prediction held on every produced mutant.
  std::vector<SelfCheckReport> SelfChecks;
  /// δ-diversity modes only: encoded five-profile sequence -> count over
  /// every produced mutant (the campaign-side differential census; the
  /// non-constant keys are the distinct discrepancy categories).
  std::map<std::string, size_t> DdOutcomeCounts;
  /// δ-diversity modes only: produced mutants whose encoded sequence was
  /// non-constant.
  size_t DdDiscrepancies = 0;
  /// Tier-diff mode only: two-code (interpreter, baseline) encoded
  /// outcome -> count over every produced mutant. Non-constant keys are
  /// the distinct tier-disagreement categories.
  std::map<std::string, size_t> TierOutcomeCounts;
  /// Tier-diff mode only: produced mutants whose interpreter-tier and
  /// baseline-tier outcomes disagreed.
  size_t TierDisagreements = 0;
  /// The coverage frontier (CampaignConfig::TrackFrontier): hit counts,
  /// rare branches, and first-hit attribution over seed registrations
  /// plus every committed mutant. Null when tracking was off.
  std::shared_ptr<FrontierTracker> Frontier;
  /// Saturation detection (CampaignConfig::PlateauWindow): whether the
  /// discovery rate plateaued, and at which committed iteration.
  bool Plateaued = false;
  uint64_t PlateauAt = 0;
  /// Seed-scheduler accounting, maintained at the commit stage
  /// (mirrored by the campaign.sched_* telemetry).
  /// SchedDraws counts committed iterations (one pool draw each);
  /// SchedRareDraws those whose drawn entry covered a rare branch site
  /// at draw time; SchedEpochs the scheduler rebuilds.
  uint64_t SchedDraws = 0;
  uint64_t SchedRareDraws = 0;
  uint64_t SchedEpochs = 0;
  /// Pre-filter accounting (CampaignConfig::Prefilter), folded at the
  /// commit stage: produced mutants skipped as statically
  /// dead vs. passed to execution, how many skips were audit-executed,
  /// and how many audits contradicted the prediction (each mispredict
  /// also latches a SelfCheckReport).
  uint64_t PrefilterSkipped = 0;
  uint64_t PrefilterPassed = 0;
  uint64_t PrefilterAudited = 0;
  uint64_t PrefilterMispredicts = 0;
  /// Per-mutator deep-phase stats over produced mutants with an
  /// observed reference phase, folded at the commit stage: the deepest
  /// phase reached (pipeline depth order 1 < 2 < 3 < 4 < 0; -1 until
  /// observed) and the count of deep reaches (phase 0, 3, or 4).
  std::vector<int> MutatorDeepestPhase;
  std::vector<size_t> MutatorDeepHits;
  double ElapsedSeconds = 0;

  size_t numGenerated() const { return GenClasses.size(); }
  size_t numTests() const { return TestClassIndices.size(); }
  /// Distinct discrepancy categories seen by the δ-diversity batch runs
  /// (non-constant keys of DdOutcomeCounts); 0 for other algorithms.
  size_t ddDistinctDiscrepancies() const;
  /// succ(X) = |TestClasses| / #Iterations (§3.1.3).
  double successRatePercent() const;
  /// Distinct coverage statistics among GenClasses (the Finding 1
  /// uniqueness analysis).
  size_t uniqueCoverageStats() const;
  /// A ClassPath holding seeds + helpers + every generated class
  /// (overlay for differential testing).
  ClassPath corpusClassPath() const;
};

/// Runs one campaign.
CampaignResult runCampaign(const CampaignConfig &Config);

} // namespace classfuzz

#endif // CLASSFUZZ_FUZZING_CAMPAIGN_H
