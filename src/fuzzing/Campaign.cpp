//===- fuzzing/Campaign.cpp ------------------------------------------------===//

#include "fuzzing/Campaign.h"

#include "analysis/StaticAnalyzer.h"
#include "jvm/ExecEngine.h"
#include "jvm/Phase.h"
#include "jvm/Vm.h"
#include "mutation/Engine.h"
#include "runtime/RuntimeLib.h"
#include "support/Hashing.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TimeSeries.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>

using namespace classfuzz;

const char *classfuzz::fuzzAlgorithmName(FuzzAlgorithm Algo) {
  switch (Algo) {
  case FuzzAlgorithm::ClassfuzzStBr:
    return "classfuzz[stbr]";
  case FuzzAlgorithm::ClassfuzzSt:
    return "classfuzz[st]";
  case FuzzAlgorithm::ClassfuzzTr:
    return "classfuzz[tr]";
  case FuzzAlgorithm::ClassfuzzDdCoarse:
    return "classfuzz[dd-coarse]";
  case FuzzAlgorithm::ClassfuzzDdFine:
    return "classfuzz[dd-fine]";
  case FuzzAlgorithm::Uniquefuzz:
    return "uniquefuzz";
  case FuzzAlgorithm::Greedyfuzz:
    return "greedyfuzz";
  case FuzzAlgorithm::Randfuzz:
    return "randfuzz";
  }
  return "?";
}

bool classfuzz::usesDeltaDiversity(FuzzAlgorithm Algo) {
  return Algo == FuzzAlgorithm::ClassfuzzDdCoarse ||
         Algo == FuzzAlgorithm::ClassfuzzDdFine;
}

CampaignConfig::CampaignConfig() : ReferencePolicy(referenceJvmPolicy()) {}

double CampaignResult::successRatePercent() const {
  if (Iterations == 0)
    return 0.0;
  return 100.0 * static_cast<double>(TestClassIndices.size()) /
         static_cast<double>(Iterations);
}

size_t CampaignResult::uniqueCoverageStats() const {
  std::set<std::pair<size_t, size_t>> Stats;
  for (const GeneratedClass &G : GenClasses)
    Stats.insert({G.Trace.stmtCount(), G.Trace.branchCount()});
  return Stats.size();
}

size_t CampaignResult::ddDistinctDiscrepancies() const {
  size_t N = 0;
  for (const auto &[Sequence, Count] : DdOutcomeCounts) {
    bool Constant = true;
    for (char C : Sequence)
      Constant &= C == Sequence[0];
    N += !Constant;
  }
  return N;
}

ClassPath CampaignResult::corpusClassPath() const {
  ClassPath Out;
  for (const SeedClass &Seed : Seeds) {
    Out.add(Seed.Name, Seed.Data);
    for (const auto &[Name, Data] : Seed.Helpers)
      Out.add(Name, Data);
  }
  for (const GeneratedClass &G : GenClasses)
    Out.add(G.Name, G.Data);
  return Out;
}

namespace {

/// The acceptance discipline, dispatching on the algorithm. The δ
/// algorithms judge cross-profile observation tuples (acceptDd); the
/// others judge reference-JVM tracefiles (accept).
class Acceptor {
public:
  explicit Acceptor(FuzzAlgorithm Algo)
      : Algo(Algo), Unique(criterionFor(Algo)) {
    if (usesDeltaDiversity(Algo))
      Delta.emplace(criterionFor(Algo));
  }

  /// True when a mutant with \p Trace is representative.
  bool accept(const Tracefile &Trace) {
    switch (Algo) {
    case FuzzAlgorithm::Randfuzz:
      return true; // Every produced mutant is kept.
    case FuzzAlgorithm::Greedyfuzz:
      return Greedy.tryAdd(Trace);
    default:
      return Unique.tryInsert(Trace);
    }
  }

  /// δ-diversity acceptance: representative iff the cross-profile tuple
  /// is novel. The decomposition feeds campaign.dd_* telemetry.
  DeltaDiversityChecker::Novelty
  acceptDd(const std::vector<ProfileObservation> &Obs) {
    return Delta->tryInsert(Obs);
  }

  /// Seeds participate in the uniqueness pool (TestClasses starts as
  /// Seeds, Algorithm 1 line 1).
  void registerSeed(const Tracefile &Trace) {
    switch (Algo) {
    case FuzzAlgorithm::Randfuzz:
      break;
    case FuzzAlgorithm::Greedyfuzz:
      Greedy.add(Trace);
      break;
    default:
      Unique.insert(Trace);
      break;
    }
  }

  /// Seed registration for the δ algorithms: the seed's cross-profile
  /// tuple joins the pool so mutants must behave differently from it.
  void registerSeedDd(const std::vector<ProfileObservation> &Obs) {
    Delta->insert(Obs);
  }

  const DeltaDiversityChecker &delta() const { return *Delta; }

private:
  static UniquenessCriterion criterionFor(FuzzAlgorithm Algo) {
    switch (Algo) {
    case FuzzAlgorithm::ClassfuzzSt:
      return UniquenessCriterion::St;
    case FuzzAlgorithm::ClassfuzzTr:
      return UniquenessCriterion::Tr;
    case FuzzAlgorithm::ClassfuzzDdCoarse:
      return UniquenessCriterion::DdCoarse;
    case FuzzAlgorithm::ClassfuzzDdFine:
      return UniquenessCriterion::DdFine;
    default:
      return UniquenessCriterion::StBr;
    }
  }

  FuzzAlgorithm Algo;
  UniquenessChecker Unique;
  AccumulativeCoverage Greedy;
  std::optional<DeltaDiversityChecker> Delta; ///< δ algorithms only.
};

bool usesMcmc(FuzzAlgorithm Algo) {
  return Algo == FuzzAlgorithm::ClassfuzzStBr ||
         Algo == FuzzAlgorithm::ClassfuzzSt ||
         Algo == FuzzAlgorithm::ClassfuzzTr ||
         usesDeltaDiversity(Algo);
}

bool usesCoverage(FuzzAlgorithm Algo) {
  return Algo != FuzzAlgorithm::Randfuzz;
}

/// The mutation pool holds (name, class entry) pairs; seeds also prime
/// the uniqueness pool so mutants must differ from them. The entry is
/// the one the campaign's environments hold (its bytes are shared, and
/// mutation reads only the bytes). Each pool entry carries its lineage
/// so descendants extend the chain (seeds have no steps).
struct PoolEntry {
  std::string Name;
  ClassEntryRef Entry;
  Provenance Prov;

  const Bytes &data() const { return Entry->bytes(); }
};

/// Packs a committed iteration's outcome for FlightKind::Iteration:
/// bit0 produced, bit1 representative, bits8..15 the MutationResult.
uint64_t packIterationOutcome(MutationResult MR, bool Produced,
                              bool Representative) {
  return (Produced ? 1u : 0u) | (Representative ? 2u : 0u) |
         (static_cast<uint64_t>(MR) << 8);
}

/// The campaign's telemetry handles, resolved once per process so the
/// per-iteration hot path never touches the registry mutex. All
/// recording is observation-only (see DESIGN.md §8): no Rng access.
struct CampaignTelemetry {
  telemetry::Counter &Accepted;
  telemetry::Counter &Rejected;
  telemetry::Counter &Inapplicable;
  telemetry::Counter &NoChange;
  telemetry::Counter &AssemblyFailed;
  /// δ-diversity pipeline counters; all incremented at the commit
  /// stage.
  telemetry::Counter &DdBatches;
  telemetry::Counter &DdDiscrepancies;
  telemetry::Counter &DdNovelTuple;
  telemetry::Counter &DdNovelOutcome;
  telemetry::Counter &DdNovelCoverage;
  /// Tier-diff pipeline counters; commit stage only.
  telemetry::Counter &TierBatches;
  telemetry::Counter &TierDisagreements;
  /// Seed-scheduler counters; commit stage only (the sched_epochs
  /// counter and sched_* gauges are published by the scheduler itself
  /// at rebuild time, also commit-stage).
  telemetry::Counter &SchedDraws;
  telemetry::Counter &SchedRareDraws;
  /// Analyzer pre-filter counters (--prefilter); commit stage only.
  telemetry::Counter &PrefilterSkipped;
  telemetry::Counter &PrefilterPassed;
  telemetry::Counter &PrefilterAudited;
  telemetry::Counter &PrefilterMispredict;
  telemetry::Histogram &MutateNs;
  telemetry::Histogram &ExecuteNs;
  telemetry::Histogram &CommitNs;

  static CampaignTelemetry &get() {
    auto &M = telemetry::metrics();
    static CampaignTelemetry T{
        M.counter("campaign.accepted"),
        M.counter("campaign.rejected"),
        M.counter("campaign.inapplicable"),
        M.counter("campaign.nochange"),
        M.counter("campaign.assembly_failed"),
        M.counter("campaign.dd_batches"),
        M.counter("campaign.dd_discrepancies"),
        M.counter("campaign.dd_novel_tuple"),
        M.counter("campaign.dd_novel_outcome"),
        M.counter("campaign.dd_novel_coverage"),
        M.counter("campaign.tier_batches"),
        M.counter("campaign.tier_disagreements"),
        M.counter("campaign.sched_draws"),
        M.counter("campaign.sched_rare_draws"),
        M.counter("campaign.prefilter_skipped"),
        M.counter("campaign.prefilter_passed"),
        M.counter("campaign.prefilter_audited"),
        M.counter("campaign.prefilter_mispredict"),
        M.histogram("campaign.stage.mutate_ns"),
        M.histogram("campaign.stage.execute_ns"),
        M.histogram("campaign.stage.commit_ns"),
    };
    return T;
  }
};

/// What one reference-JVM coverage execution yields: the trace driving
/// acceptance plus the encoded startup phase the analyzer's prediction
/// is checked against.
struct RefRun {
  Tracefile Trace;
  int Phase = -1;
  /// Tier-diff mode: the (interpreter, baseline) two-code outcome plus
  /// the baseline code cache's deferred jit.* stats, both committed at
  /// the commit stage. Empty/zero otherwise.
  std::string TierEncoded;
  JitStats TierJit;
};

/// What one δ-diversity batch (all profiles, coverage on) yields. The
/// reference profile's run doubles as the RefRun of the classic
/// pipeline, keeping the analyzer's predict-vs-observe contract intact.
struct DdRun {
  std::vector<ProfileObservation> Obs; ///< One per profile, in order.
  std::string Encoded;  ///< Figure 3 sequence, e.g. "00012".
  Tracefile RefTrace;   ///< Reference profile's coverage.
  int RefPhase = -1;    ///< Reference profile's encoded phase.
  /// (profile index, raw phase) per InternalError abort, for the
  /// commit-stage VmInternalError flight events.
  std::vector<std::pair<uint64_t, uint64_t>> InternalErrors;
  /// Tier-diff mode: see RefRun.
  std::string TierEncoded;
  JitStats TierJit;

  bool isDiscrepancy() const {
    for (char C : Encoded)
      if (C != Encoded[0])
        return true;
    return false;
  }
};

} // namespace

CampaignResult classfuzz::runCampaign(const CampaignConfig &Config) {
  auto StartTime = std::chrono::steady_clock::now();

  CampaignResult Result;
  Result.Algo = Config.Algo;
  Result.Iterations = Config.Iterations;

  Rng R(Config.RngSeed);
  Result.Seeds = Config.ExternalSeeds.empty()
                     ? generateSeedCorpus(R, Config.NumSeeds)
                     : Config.ExternalSeeds;

  // Every environment below (the reference one and one per δ profile)
  // shares one entry per corpus class and one runtime library per
  // version, so each class's bytes are stored once and parsed at most
  // once, whichever environment needs it first.
  std::vector<std::pair<std::string, ClassEntryRef>> CorpusEntries;
  std::vector<ClassEntryRef> SeedEntries;
  for (const SeedClass &Seed : Result.Seeds) {
    SeedEntries.push_back(makeClassEntry(Seed.Data));
    CorpusEntries.emplace_back(Seed.Name, SeedEntries.back());
    for (const auto &[Name, Data] : Seed.Helpers)
      CorpusEntries.emplace_back(Name, makeClassEntry(Data));
  }
  std::map<std::string, ClassPath> Libraries;
  auto corpusEnvFor = [&](const JvmPolicy &P) {
    auto [It, New] = Libraries.try_emplace(P.RuntimeLib);
    if (New)
      It->second = runtimeLibraryFor(P);
    ClassPath Env = It->second;
    for (const auto &[Name, Entry] : CorpusEntries)
      Env.add(Name, Entry);
    // Seal the base corpus: per-mutant environments below are then
    // cheap copy-on-write overlays instead of O(corpus) deep copies.
    Env.freeze();
    return Env;
  };

  // The reference environment: reference JRE + the whole corpus. Mutants
  // are added as they are accepted so later runs can reference them.
  ClassPath RefEnv = corpusEnvFor(Config.ReferencePolicy);

  std::vector<std::string> KnownClasses = RefEnv.names();
  MutationContext Ctx{R, KnownClasses};

  // Typed-hole extraction (--typed-mutators): an analyzer bound to its
  // own COW view of the *frozen base* corpus -- never fed accepted
  // mutants -- so the hole list for a given (name, bytes) is a pure
  // function replay can re-derive (fuzzing/Provenance.h). Extraction
  // consumes no RNG, so caching order cannot perturb the trajectory.
  std::optional<StaticAnalyzer> HoleAnalyzer;
  std::map<std::string, TypedHoleList> HoleCache;
  if (Config.TypedMutators)
    HoleAnalyzer.emplace(RefEnv, Config.ReferencePolicy);
  auto holesFor = [&](const std::string &Name,
                      const Bytes &Data) -> const TypedHoleList * {
    if (!HoleAnalyzer)
      return nullptr;
    auto It = HoleCache.find(Name);
    if (It == HoleCache.end())
      It = HoleCache.emplace(Name, HoleAnalyzer->typedHolesFor(Name, Data))
               .first;
    return &It->second;
  };

  // The mutator pool: the paper's 129 syntax/statement mutators, plus
  // the analyzer-driven typed mutators when --typed-mutators is on. The
  // extended registry shares the first 129 indices, so provenance and
  // telemetry indices mean the same thing either way.
  const std::vector<Mutator> &Registry =
      Config.TypedMutators ? extendedMutatorRegistry() : mutatorRegistry();
  const size_t NumMu = Registry.size();
  McmcSelector Selector(NumMu, Config.GeometricP > 0
                                   ? Config.GeometricP
                                   : defaultGeometricP(NumMu));
  Selector.setDeepReward(Config.DeepRewardWeight);
  Result.MutatorSelected.assign(NumMu, 0);
  Result.MutatorSucceeded.assign(NumMu, 0);
  Result.MutatorInapplicable.assign(NumMu, 0);
  Result.MutatorNoChange.assign(NumMu, 0);
  Result.MutatorDeepestPhase.assign(NumMu, -1);
  Result.MutatorDeepHits.assign(NumMu, 0);

  // Telemetry handles. Observation-only: sampled through relaxed
  // atomics and never read back, so the committed trajectory is
  // bit-identical with telemetry on or off. Disabled-mode cost is one
  // branch per record site plus inert PhaseTimers.
  CampaignTelemetry &TM = CampaignTelemetry::get();
  const bool Telem = telemetry::enabled();

  const bool Mcmc = usesMcmc(Config.Algo);
  const bool Coverage = usesCoverage(Config.Algo);
  const bool DdMode = usesDeltaDiversity(Config.Algo);
  // Deep-phase MCMC reward (--deep-reward): needs an MCMC selector to
  // reward and a reference run to observe the phase from.
  const bool DeepRewardOn = Mcmc && Coverage && Config.DeepRewardWeight > 0;
  // Analyzer pre-filter (--prefilter): needs a reference execution to
  // skip, so randfuzz (Coverage off) ignores the flag.
  const bool PrefilterOn = Config.Prefilter && Coverage;
  // Audit membership is a pure function of the mutant bytes (no RNG, no
  // iteration index), so the committed trajectory is identical across
  // audit fractions.
  const uint64_t AuditThreshold = static_cast<uint64_t>(
      std::min(1.0, std::max(0.0, Config.PrefilterAudit)) * 1000000.0);
  auto inAuditSample = [&](const Bytes &Data) {
    return hashBytes(Data) % 1000000 < AuditThreshold;
  };
  /// Phase depth for the deep-phase reward: loading(1) < linking(2) <
  /// init(3) < runtime(4) < completed normally(0).
  auto phaseDepth = [](int Phase) { return Phase == 0 ? 5 : Phase; };
  /// Deep = survived loading and linking.
  auto isDeepPhase = [](int Phase) { return Phase == 0 || Phase >= 3; };

  // δ-diversity batch state: the paper's five profiles plus one frozen
  // environment per profile (each its own runtime-library version, the
  // Definition 1 setup). RefEnv above still serves the analyzer and the
  // class-name universe; the reference profile's batch run doubles as
  // the classic pipeline's reference run, so its slot holds
  // Config.ReferencePolicy itself, and every profile runs on its tier.
  std::vector<JvmPolicy> DdPolicies;
  std::vector<ClassPath> DdEnvs;
  size_t DdRefIndex = 0;
  if (DdMode) {
    DdPolicies = allJvmPolicies();
    for (JvmPolicy &P : DdPolicies)
      P.Tier = Config.ReferencePolicy.Tier;
    DdRefIndex = DdPolicies.size();
    for (size_t I = 0; I != DdPolicies.size(); ++I)
      if (DdPolicies[I].Name == Config.ReferencePolicy.Name) {
        DdRefIndex = I;
        break;
      }
    if (DdRefIndex == DdPolicies.size())
      DdPolicies.push_back(Config.ReferencePolicy);
    else
      DdPolicies[DdRefIndex] = Config.ReferencePolicy;
    for (const JvmPolicy &P : DdPolicies)
      DdEnvs.push_back(corpusEnvFor(P));
  }

  // Tier-diff axis (--tier-diff): the reference policy pinned to its
  // two fast tiers. Needs an execution stage to ride, so randfuzz
  // (Coverage off) ignores the flag. JitTelemetry is deferred: each
  // run's JitStats travel with it and publish at the commit stage
  // instead of at engine teardown, so an audited pre-filter run (whose
  // result is not committed) publishes none.
  const bool TierDiff = Config.TierDiff && Coverage;
  JvmPolicy TierInterp = Config.ReferencePolicy;
  JvmPolicy TierBase = Config.ReferencePolicy;
  if (TierDiff) {
    TierInterp.Tier = ExecTier::Threaded;
    TierInterp.JitTelemetry = false;
    TierBase.Tier = ExecTier::Baseline;
    TierBase.JitTelemetry = false;
  }

  /// Runs \p Name on the tier pair over \p Env, appending the two
  /// encoded phases and collecting the baseline engine's deferred jit
  /// stats.
  auto tierRunInto = [&](const std::string &Name, const ClassPath &Env,
                         std::string &Encoded, JitStats &Jit) {
    {
      Vm Interp(TierInterp, Env, nullptr);
      Encoded += static_cast<char>('0' + encodePhase(Interp.run(Name)));
    }
    Vm Base(TierBase, Env, nullptr);
    Encoded += static_cast<char>('0' + encodePhase(Base.run(Name)));
    if (const JitStats *S = Base.engine().jitStats())
      Jit.merge(*S);
  };

  /// Runs \p Name (entry \p Entry) on the reference JVM, collecting
  /// coverage and the encoded startup phase (plus the tier pair when
  /// --tier-diff is on). All runs read the one parse of \p Entry.
  auto coverageOf = [&](const std::string &Name,
                        const ClassEntryRef &Entry) -> RefRun {
    CoverageRecorder Recorder;
    ClassPath Env = RefEnv; // COW overlay: shares the frozen corpus.
    Env.add(Name, Entry);
    Vm Jvm(Config.ReferencePolicy, Env, &Recorder);
    JvmResult RunResult = Jvm.run(Name);
    RefRun Run;
    Run.Trace = Recorder.takeTrace();
    Run.Phase = encodePhase(RunResult);
    if (TierDiff)
      tierRunInto(Name, Env, Run.TierEncoded, Run.TierJit);
    return Run;
  };

  /// Runs \p Name (entry \p Entry) on every profile with coverage on,
  /// building the δ-diversity batch observation. Each profile sees an
  /// O(1) COW overlay of its environment holding the same entry, so the
  /// batch parses the class once.
  auto ddRunOf = [&](const std::string &Name,
                     const ClassEntryRef &Entry) -> DdRun {
    std::vector<ClassPath> Envs = DdEnvs;
    for (ClassPath &E : Envs)
      E.add(Name, Entry);
    DdRun Run;
    Run.Obs.reserve(DdPolicies.size());
    Run.Encoded.reserve(DdPolicies.size());
    for (size_t I = 0; I != DdPolicies.size(); ++I) {
      CoverageRecorder Recorder;
      Vm Jvm(DdPolicies[I], Envs[I], &Recorder);
      JvmResult RunResult = Jvm.run(Name);
      int Code = encodePhase(RunResult);
      Tracefile Trace = Recorder.takeTrace();
      Run.Obs.push_back(ProfileObservation::of(Code, Trace));
      Run.Encoded += static_cast<char>('0' + Code);
      if (RunResult.Error == JvmErrorKind::InternalError)
        Run.InternalErrors.push_back(
            {I, static_cast<uint64_t>(RunResult.Phase)});
      if (I == DdRefIndex) {
        Run.RefTrace = std::move(Trace);
        Run.RefPhase = Code;
      }
    }
    if (TierDiff)
      tierRunInto(Name, Envs[DdRefIndex], Run.TierEncoded, Run.TierJit);
    return Run;
  };

  // The frontier.mutator_phase grid's column count (Frontier.cpp) must
  // track the phase encoding.
  static_assert(NumPhaseCodes == 5,
                "frontier.mutator_phase columns assume 5 phase codes");

  Acceptor Accept(Config.Algo);

  // The seed scheduler: picks the pool entry each iteration mutates.
  // It owns its hit-count table (independent of --frontier) and is fed
  // at seed registration below, then at every commit, with rebuilds
  // only at accepted commits (commitProduced). Randfuzz collects no
  // coverage to learn from and degrades to the uniform policy (the CLI
  // rejects rare/cluster there up front).
  SeedScheduler::Options SchedOpts;
  SchedOpts.Policy = Coverage ? Config.SeedSched : SeedSchedPolicy::Uniform;
  SchedOpts.RareThreshold = Config.RareBranchThreshold;
  SeedScheduler Sched(SchedOpts);

  /// Draw accounting: one per iteration, charged against the scheduler
  /// state the entry was drawn under (before any rebuild the iteration
  /// triggers).
  auto countSchedDraw = [&](size_t PoolIndex) {
    ++Result.SchedDraws;
    const bool RareDraw = Sched.rareScore(PoolIndex) > 0;
    if (RareDraw)
      ++Result.SchedRareDraws;
    if (Telem) {
      TM.SchedDraws.inc();
      if (RareDraw)
        TM.SchedRareDraws.inc();
    }
  };

  // Coverage-frontier tracker (--frontier): folds every reference run
  // in order -- seed registrations below, then each produced mutant at
  // its commit.
  std::shared_ptr<FrontierTracker> Frontier;
  if (Config.TrackFrontier && Coverage) {
    FrontierTracker::Options FOpts;
    FOpts.RareThreshold = Config.RareBranchThreshold;
    FOpts.MutatorIds.reserve(NumMu);
    for (const Mutator &Mu : Registry)
      FOpts.MutatorIds.push_back(Mu.Id);
    Frontier = std::make_shared<FrontierTracker>(std::move(FOpts));
    Result.Frontier = Frontier;
  }
  /// Folds one seed-registration run into the frontier (iteration 0, no
  /// mutator -- per-seed coverage attribution).
  auto frontierSeed = [&](size_t SeedIndex, const std::string &SeedName,
                          const Tracefile &Trace, int Phase) {
    if (!Frontier)
      return;
    FrontierTracker::CommitInfo Info;
    Info.Iteration = 0;
    Info.SeedIndex = SeedIndex;
    Info.SeedName = SeedName;
    Info.Phase = Phase;
    Frontier->recordCommit(Trace, Info);
  };

  // Saturation detection (--plateau-window / --stop-on-plateau). Pure
  // function of the per-commit discovery signals.
  std::optional<telemetry::SaturationDetector> Saturation;
  if (Config.PlateauWindow > 0)
    Saturation.emplace(telemetry::SaturationDetector::Options{
        Config.PlateauWindow, Config.PlateauMinDiscoveries});
  bool PlateauStop = false;

  /// The observability hook of the commit stage: runs as the LAST
  /// action of every iteration, after all of the iteration's counters
  /// and result state have been written -- so everything it samples or
  /// folds reflects exactly the first \p CommittedSoFar iterations.
  /// \p G is null for non-produced iterations.
  auto observeCommitted = [&](size_t CommittedSoFar, const GeneratedClass *G,
                              bool Representative, bool Discrepancy) {
    uint64_t NewBranches = 0;
    if (Frontier && G) {
      FrontierTracker::CommitInfo Info;
      Info.Iteration = CommittedSoFar - 1;
      Info.SeedIndex = G->Prov.RootSeedIndex;
      Info.SeedName = G->Prov.RootSeedName;
      if (!G->Prov.Steps.empty()) {
        Info.MutatorIndex = G->Prov.Steps.back().MutatorIndex;
        Info.MutatorId = extendedMutatorRegistry()[Info.MutatorIndex].Id;
      }
      Info.Phase = G->RefPhase;
      NewBranches = Frontier->recordCommit(G->Trace, Info).NewBranches;
    }
    if (Saturation && !Saturation->plateaued()) {
      telemetry::SaturationDetector::Signals S;
      S.NewBranches = NewBranches;
      S.NewTuples = Representative ? 1 : 0;
      S.Discrepancies = Discrepancy ? 1 : 0;
      if (Saturation->onCommit(S)) {
        Result.Plateaued = true;
        Result.PlateauAt = Saturation->plateauIteration();
        if (Telem)
          telemetry::metrics()
              .gauge("campaign.plateau_at")
              .set(static_cast<int64_t>(Result.PlateauAt));
        if (telemetry::eventSink())
          telemetry::EventBuilder("campaign.plateau")
              .field("iter", Result.PlateauAt)
              .field("window", static_cast<uint64_t>(Config.PlateauWindow))
              .field("stopping", Config.StopOnPlateau)
              .emit();
        if (Config.StopOnPlateau)
          PlateauStop = true;
      }
    }
    if (Config.TimeSeries)
      Config.TimeSeries->onCommit(CommittedSoFar);
  };

  // Mutation-outcome accounting, one call per iteration.
  auto recordMutation = [&](size_t MutatorIndex, MutationResult MR,
                            bool Produced) {
    switch (MR) {
    case MutationResult::Inapplicable:
      ++Result.MutatorInapplicable[MutatorIndex];
      if (Telem)
        TM.Inapplicable.inc();
      break;
    case MutationResult::NoChange:
      ++Result.MutatorNoChange[MutatorIndex];
      if (Telem)
        TM.NoChange.inc();
      break;
    case MutationResult::Applied:
      break;
    }
    if (Telem && MR != MutationResult::Inapplicable && !Produced)
      TM.AssemblyFailed.inc();
  };

  // One JSONL event per iteration, in iteration order.
  auto emitIteration = [&](size_t IterIndex, size_t MutatorIndex,
                           MutationResult MR, bool Produced,
                           bool Representative) {
    if (!telemetry::eventSink())
      return;
    telemetry::EventBuilder("campaign.iteration")
        .field("iter", static_cast<uint64_t>(IterIndex))
        .field("mutator", extendedMutatorRegistry()[MutatorIndex].Id)
        .field("result", mutationResultName(MR))
        .field("produced", Produced)
        .field("representative", Representative)
        .emit();
  };

  // Periodic one-line stderr progress (--progress). Reads campaign
  // state and the wall clock only, never the RNG. The cheap modulo
  // keeps the clock off the per-iteration path.
  auto LastProgress = StartTime;
  auto maybeProgress = [&](size_t IterDone) {
    if (Config.ProgressIntervalSeconds <= 0 || IterDone % 32 != 0 ||
        IterDone == 0)
      return;
    auto Now = std::chrono::steady_clock::now();
    if (std::chrono::duration<double>(Now - LastProgress).count() <
        Config.ProgressIntervalSeconds)
      return;
    LastProgress = Now;
    std::fprintf(
        stderr,
        "[classfuzz] %s iter=%zu gen=%zu test=%zu succ=%.2f%% "
        "elapsed=%.1fs\n",
        fuzzAlgorithmName(Config.Algo), IterDone, Result.GenClasses.size(),
        Result.TestClassIndices.size(),
        100.0 * static_cast<double>(Result.TestClassIndices.size()) /
            static_cast<double>(IterDone),
        std::chrono::duration<double>(Now - StartTime).count());
  };

  // TestClasses <- Seeds (Algorithm 1 line 1). Seeds root the lineage
  // chains: a seed's provenance is itself (no steps). A seed's
  // registration batch runs it from a fresh entry, so the parse dies
  // with the batch instead of staying resident in the corpus entry.
  std::vector<PoolEntry> Pool;
  for (size_t SeedIndex = 0; SeedIndex != Result.Seeds.size(); ++SeedIndex) {
    const SeedClass &Seed = Result.Seeds[SeedIndex];
    Provenance Prov;
    Prov.RootSeedIndex = SeedIndex;
    Prov.RootSeedName = Seed.Name;
    Pool.push_back({Seed.Name, SeedEntries[SeedIndex], std::move(Prov)});
    if (DdMode) {
      DdRun Run = ddRunOf(Seed.Name, makeClassEntry(Seed.Data));
      frontierSeed(SeedIndex, Seed.Name, Run.RefTrace, Run.RefPhase);
      Accept.registerSeedDd(Run.Obs);
      Sched.addEntry(Run.RefTrace);
      Sched.noteTrace(Run.RefTrace);
    } else if (Coverage) {
      RefRun Run = coverageOf(Seed.Name, makeClassEntry(Seed.Data));
      frontierSeed(SeedIndex, Seed.Name, Run.Trace, Run.Phase);
      Accept.registerSeed(Run.Trace);
      Sched.addEntry(Run.Trace);
      Sched.noteTrace(Run.Trace);
    } else {
      Sched.addEntryNoCoverage();
    }
  }
  // Scores and slot table over the registered seed corpus; epoch 1.
  Sched.rebuild();

  // Stopping rule: wall-clock budget when configured (Algorithm 1's
  // "until the time budget is used up"), else the iteration budget.
  auto budgetLeft = [&](size_t Iter) {
    if (Config.TimeBudgetSeconds > 0) {
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - StartTime)
                           .count();
      return Elapsed < Config.TimeBudgetSeconds;
    }
    return Iter < Config.Iterations;
  };

  // Flight-recorder handle. Records happen at the commit stage only, in
  // iteration order, so dumps are a function of the trajectory.
  telemetry::FlightRecorder &FR = telemetry::flightRecorder();

  // The static analyzer, bound to its own COW view of the reference
  // environment. It runs at the commit stage only, so its memo state,
  // the analysis records, and all analysis.* telemetry follow the
  // committed trajectory.
  std::optional<StaticAnalyzer> Analyzer;
  if (Config.RunAnalysis || PrefilterOn)
    Analyzer.emplace(RefEnv, Config.ReferencePolicy);
  // Per-mutator x per-pass finding counts for the analysis.mutator_diag
  // telemetry grid (filled into the registry at end of run).
  std::vector<std::array<size_t, NumPassIds>> MutatorDiag(
      Config.RunAnalysis ? NumMu : 0);

  /// Runs the analyzer over one committed mutant, checks the
  /// predict-vs-observe contract, and latches any violation as a
  /// self-check report. Nothing here is allowed to touch the RNG, the
  /// selector, or the acceptance state.
  auto analyzeCommitted = [&](const GeneratedClass &Stored,
                              const ClassEntry &Entry, size_t GenIndex) {
    AnalysisReport Rep = Analyzer->analyzeClass(Stored.Name, Entry);
    MutantAnalysisRecord Rec;
    Rec.GenIndex = GenIndex;
    Rec.Outcome = Rep.Prediction.Outcome;
    Rec.ObservedPhase = Stored.RefPhase;
    Rec.Findings = Rep.Diagnostics.size();
    Rec.Mismatch = Stored.RefPhase >= 0 &&
                   !Rep.Prediction.isCompatibleWith(Stored.RefPhase);
    std::array<size_t, NumPassIds> ByPass = countByPass(Rep.Diagnostics);
    for (size_t P = 0; P != NumPassIds; ++P)
      MutatorDiag[Stored.MutatorIndex][P] += ByPass[P];
    if (Telem) {
      auto &M = telemetry::metrics();
      M.counter("analysis.classes").inc();
      M.counter("analysis.findings").inc(Rec.Findings);
      switch (Rec.Outcome) {
      case PredictedOutcome::RejectLoading:
        M.counter("analysis.predict.loading").inc();
        break;
      case PredictedOutcome::RejectLinking:
        M.counter("analysis.predict.linking").inc();
        break;
      case PredictedOutcome::PassStatic:
        M.counter("analysis.predict.pass").inc();
        break;
      }
      M.histogram("analysis.findings_per_class").record(Rec.Findings);
      if (Rec.Mismatch)
        M.counter("analysis.mismatches").inc();
    }
    if (Rec.Mismatch)
      Result.SelfChecks.push_back({GenIndex, Stored.RefPhase, std::move(Rep)});
    Result.AnalysisRecords.push_back(Rec);
  };

  /// Pre-filter verdict for one produced mutant: true when the analyzer
  /// statically proves the mutant dies while loading or linking (both
  /// *definite* predictions -- see StaticAnalyzer.h), so the reference
  /// execution can be skipped. Also decides audit-sample membership (a
  /// pure function of the mutant bytes). Runs against the committed
  /// environment; never draws from the RNG.
  auto prefilterVerdict = [&](const GeneratedClass &G, const ClassEntry &Entry,
                              bool &Audited, int &PredictedPhase) -> bool {
    Audited = false;
    PredictedPhase = -1;
    if (!PrefilterOn)
      return false;
    StartupPrediction Pred = Analyzer->predictStartupOutcome(G.Name, Entry);
    if (Pred.Outcome == PredictedOutcome::PassStatic)
      return false;
    PredictedPhase = Pred.predictedPhase();
    Audited = inAuditSample(G.Data);
    return true;
  };

  /// Commit-stage accounting for one pre-filter skip; must run after
  /// commitProduced so the latched self-check indexes the stored
  /// mutant. \p ObservedPhase is the audited run's encoded phase (-1
  /// when the skip was not in the audit sample); a prediction the
  /// observation contradicts is an analyzer bug and latches the full
  /// report, exactly like the --analyze predict-vs-observe oracle.
  auto commitPrefilterSkip = [&](const ClassEntry &Entry, int PredictedPhase,
                                 bool Audited, int ObservedPhase) {
    ++Result.PrefilterSkipped;
    if (Telem)
      TM.PrefilterSkipped.inc();
    if (!Audited)
      return;
    ++Result.PrefilterAudited;
    if (Telem)
      TM.PrefilterAudited.inc();
    if (ObservedPhase == PredictedPhase)
      return;
    ++Result.PrefilterMispredicts;
    if (Telem)
      TM.PrefilterMispredict.inc();
    const size_t GenIndex = Result.GenClasses.size() - 1;
    const GeneratedClass &Stored = Result.GenClasses[GenIndex];
    Result.SelfChecks.push_back(
        {GenIndex, ObservedPhase, Analyzer->analyzeClass(Stored.Name, Entry)});
  };

  /// Commit-stage accounting for a produced mutant the pre-filter let
  /// through to execution.
  auto commitPrefilterPass = [&] {
    if (!PrefilterOn)
      return;
    ++Result.PrefilterPassed;
    if (Telem)
      TM.PrefilterPassed.inc();
  };

  /// Commit-stage bookkeeping for one δ batch: the outcome census on
  /// the result, the campaign.dd_* counters, and the differential
  /// flight events (VmInternalError per aborting profile, then the
  /// DiffOutcome), in commit order.
  auto recordDdBatch = [&](const GeneratedClass &G, const DdRun &Run,
                           DeltaDiversityChecker::Novelty Novelty) {
    ++Result.DdOutcomeCounts[Run.Encoded];
    const bool Discrepancy = Run.isDiscrepancy();
    if (Discrepancy)
      ++Result.DdDiscrepancies;
    if (Telem) {
      TM.DdBatches.inc();
      if (Discrepancy)
        TM.DdDiscrepancies.inc();
      if (Novelty.Tuple)
        TM.DdNovelTuple.inc();
      if (Novelty.Outcome)
        TM.DdNovelOutcome.inc();
      if (Novelty.Coverage)
        TM.DdNovelCoverage.inc();
    }
    if (FR.enabled()) {
      Hasher H;
      H.addString(G.Name);
      const uint64_t NameHash = H.value();
      for (const auto &[Profile, Phase] : Run.InternalErrors)
        FR.record(telemetry::FlightKind::VmInternalError, Profile, Phase,
                  NameHash);
      uint64_t Packed = 0;
      for (char C : Run.Encoded)
        Packed = Packed * 10 + static_cast<uint64_t>(C - '0');
      FR.record(telemetry::FlightKind::DiffOutcome, Packed,
                Discrepancy ? 1 : 0, NameHash);
    }
    if (telemetry::eventSink())
      telemetry::EventBuilder("campaign.dd_batch")
          .field("class", G.Name)
          .field("encoded", Run.Encoded)
          .field("discrepancy", Discrepancy)
          .field("novel_tuple", Novelty.Tuple)
          .emit();
  };

  /// Commit-stage bookkeeping for one tier-diff run: the two-code
  /// census, the campaign.tier_* counters, deferred jit.* publication,
  /// and the TierDisagreement flight event, in commit order.
  auto recordTierBatch = [&](const GeneratedClass &G,
                             const std::string &Encoded,
                             const JitStats &Jit) {
    if (Encoded.size() != 2)
      return;
    ++Result.TierOutcomeCounts[Encoded];
    const bool Disagree = Encoded[0] != Encoded[1];
    if (Disagree)
      ++Result.TierDisagreements;
    if (Telem) {
      TM.TierBatches.inc();
      if (Disagree)
        TM.TierDisagreements.inc();
      Jit.publish();
    }
    if (Disagree && FR.enabled()) {
      Hasher H;
      H.addString(G.Name);
      FR.record(telemetry::FlightKind::TierDisagreement,
                static_cast<uint64_t>(Encoded[0] - '0'),
                static_cast<uint64_t>(Encoded[1] - '0'), H.value());
    }
    if (telemetry::eventSink())
      telemetry::EventBuilder("campaign.tier_batch")
          .field("class", G.Name)
          .field("encoded", Encoded)
          .field("disagreement", Disagree)
          .emit();
  };

  /// Commits one produced, coverage-checked mutant (\p Entry: the
  /// iteration's entry over its bytes): acceptance bookkeeping plus the
  /// Algorithm 1 line 14 feedback loop.
  auto commitProduced = [&](GeneratedClass &&G, const ClassEntry &Entry,
                            size_t IterIndex) {
    bool Representative = G.Representative;
    if (Representative)
      ++Result.MutatorSucceeded[G.MutatorIndex];
    Result.GenClasses.push_back(std::move(G));
    const GeneratedClass &Stored = Result.GenClasses.back();
    // Deep-phase census: the deepest startup phase each mutator has
    // reached plus its deep-survival count, folded in commit order.
    // Pre-filter skips keep RefPhase = -1 and fold nothing.
    if (Stored.RefPhase >= 0) {
      int &Deepest = Result.MutatorDeepestPhase[Stored.MutatorIndex];
      if (Deepest < 0 || phaseDepth(Stored.RefPhase) > phaseDepth(Deepest))
        Deepest = Stored.RefPhase;
      if (isDeepPhase(Stored.RefPhase))
        ++Result.MutatorDeepHits[Stored.MutatorIndex];
    }
    // Analyze against the environment as the VM saw it: before the
    // mutant itself joins the corpus. (--prefilter alone constructs the
    // analyzer too, but only --analyze asks for the full lint record.)
    if (Analyzer && Config.RunAnalysis)
      analyzeCommitted(Stored, Entry, Result.GenClasses.size() - 1);
    // Every produced run's coverage ages the scheduler's hit table
    // (no-op for randfuzz, whose traces are empty).
    Sched.noteTrace(Stored.Trace);
    if (Representative) {
      Result.TestClassIndices.push_back(Result.GenClasses.size() - 1);
      FR.record(telemetry::FlightKind::Accepted, IterIndex,
                Result.GenClasses.size() - 1, hashBytes(Stored.Data));
      // Line 14: representative mutants become seeds; they also join
      // the reference environment so later mutants can reference them.
      // One fresh entry serves every environment and the pool; it is
      // not the iteration's entry, whose parse (~11x the bytes) would
      // otherwise stay resident for the rest of the campaign.
      ClassEntryRef Accepted = makeClassEntry(Stored.Data);
      RefEnv.add(Stored.Name, Accepted);
      RefEnv.freeze(); // Keep per-mutant overlay copies O(1).
      // The δ batch environments track the corpus the same way.
      for (ClassPath &E : DdEnvs) {
        E.add(Stored.Name, Accepted);
        E.freeze();
      }
      if (Analyzer)
        Analyzer->addEnvironmentClass(Stored.Name, Accepted);
      if (Config.FeedbackAcceptedMutants) {
        Pool.push_back({Stored.Name, Accepted, Stored.Prov});
        // Mirror the pool 1:1 (randfuzz has no trace to register).
        if (Coverage)
          Sched.addEntry(Stored.Trace);
        else
          Sched.addEntryNoCoverage();
      }
      // Rebuild only at accepted commits, where the pool changes; the
      // hit-table ageing of rejected runs (noteTrace above) takes effect
      // at the next rebuild.
      Sched.rebuild();
    }
  };

  // ---- The campaign loop (Algorithm 1) -------------------------------
  size_t Iter = 0;
  for (; budgetLeft(Iter) && !PlateauStop; ++Iter) {
    // Line 5: pick a classfile from TestClasses -- through the seed
    // scheduler's policy (uniform is bit-compatible with the old
    // R.choiceIndex draw). Index, not reference: the pool may grow
    // below. The draw is charged here, before any rebuild this
    // iteration may trigger.
    size_t PoolIndex = Sched.pick(R);
    countSchedDraw(PoolIndex);

    // Lines 6-10: mutator selection.
    size_t MutatorIndex =
        Mcmc ? Selector.selectNext(R) : R.choiceIndex(NumMu);
    ++Result.MutatorSelected[MutatorIndex];

    // Line 11: mutate. The RNG snapshot taken here (before any
    // mutation draw) is the step's provenance record: restoring it
    // and re-applying the mutator re-derives the mutant bytes. The
    // typed-hole list (null unless --typed-mutators) is extracted
    // RNG-free, so it cannot perturb the snapshot.
    Ctx.Holes = holesFor(Pool[PoolIndex].Name, Pool[PoolIndex].data());
    RngState RngBefore = R.state();
    telemetry::PhaseTimer MutT(TM.MutateNs, "mutate");
    MutationOutcome Mutant =
        mutateClass(Pool[PoolIndex].data(), MutatorIndex, Ctx);
    MutT.stop();
    recordMutation(MutatorIndex, Mutant.Result, Mutant.Produced);
    if (!Mutant.Produced) {
      if (Mcmc)
        Selector.recordOutcome(MutatorIndex, false);
      emitIteration(Iter, MutatorIndex, Mutant.Result, false, false);
      FR.record(telemetry::FlightKind::Iteration, Iter, MutatorIndex,
                packIterationOutcome(Mutant.Result, false, false));
      observeCommitted(Iter + 1, nullptr, false, false);
      maybeProgress(Iter + 1);
      continue;
    }

    GeneratedClass G;
    G.Name = Mutant.ClassName;
    G.Data = std::move(Mutant.Data);
    G.MutatorIndex = MutatorIndex;
    G.Prov = Pool[PoolIndex].Prov;
    G.Prov.Steps.push_back(
        {MutatorIndex, RngBefore, R.drawCount() - RngBefore.Draws});
    // The mutant's one entry for this iteration: the pre-filter, every
    // execution-stage run and the commit-stage analyzer read its single
    // parse, which dies with the iteration.
    const ClassEntryRef MutantEntry = makeClassEntry(G.Data);

    // Analyzer pre-filter (--prefilter): mutants statically proven
    // dead in loading/linking skip execution and commit as
    // produced-but-rejected (empty trace, RefPhase -1). Audited skips
    // still execute -- to check the prediction -- but commit exactly
    // like unaudited ones, so the committed trajectory is independent
    // of the audit fraction.
    bool PfAudited = false;
    int PfPredicted = -1;
    if (prefilterVerdict(G, *MutantEntry, PfAudited, PfPredicted)) {
      int Observed = -1;
      if (PfAudited) {
        telemetry::PhaseTimer ExecT(TM.ExecuteNs, "execute");
        Observed = DdMode ? ddRunOf(G.Name, MutantEntry).RefPhase
                          : coverageOf(G.Name, MutantEntry).Phase;
      }
      if (Mcmc)
        Selector.recordOutcome(MutatorIndex, false);
      if (Telem)
        TM.Rejected.inc();
      emitIteration(Iter, MutatorIndex, Mutant.Result, true, false);
      FR.record(telemetry::FlightKind::Iteration, Iter, MutatorIndex,
                packIterationOutcome(Mutant.Result, true, false));
      {
        telemetry::PhaseTimer CommitT(TM.CommitNs, "commit");
        commitProduced(std::move(G), *MutantEntry, Iter);
      }
      commitPrefilterSkip(*MutantEntry, PfPredicted, PfAudited, Observed);
      observeCommitted(Iter + 1, &Result.GenClasses.back(), false, false);
      maybeProgress(Iter + 1);
      continue;
    }
    commitPrefilterPass();

    // Lines 12-16: record, run on the reference JVM (δ modes: on all
    // profiles), accept on uniqueness (δ modes: on tuple novelty).
    bool Representative;
    bool DdDiscrepancy = false;
    if (DdMode) {
      telemetry::PhaseTimer ExecT(TM.ExecuteNs, "execute");
      DdRun Run = ddRunOf(G.Name, MutantEntry);
      ExecT.stop();
      G.Trace = std::move(Run.RefTrace);
      G.RefPhase = Run.RefPhase;
      G.DdEncoded = Run.Encoded;
      G.TierEncoded = Run.TierEncoded;
      DeltaDiversityChecker::Novelty Novelty = Accept.acceptDd(Run.Obs);
      Representative = Novelty.Tuple;
      DdDiscrepancy = Run.isDiscrepancy();
      recordDdBatch(G, Run, Novelty);
      recordTierBatch(G, Run.TierEncoded, Run.TierJit);
    } else if (Coverage) {
      telemetry::PhaseTimer ExecT(TM.ExecuteNs, "execute");
      RefRun Run = coverageOf(G.Name, MutantEntry);
      ExecT.stop();
      G.Trace = std::move(Run.Trace);
      G.RefPhase = Run.Phase;
      G.TierEncoded = Run.TierEncoded;
      Representative = Accept.accept(G.Trace);
      recordTierBatch(G, Run.TierEncoded, Run.TierJit);
    } else {
      Representative = true;
    }
    G.Representative = Representative;

    if (Mcmc)
      Selector.recordOutcome(MutatorIndex, Representative);
    // Deep-phase reward (--deep-reward): mutants surviving loading
    // and linking add to the mutator's blended MCMC success rate.
    if (DeepRewardOn && isDeepPhase(G.RefPhase))
      Selector.recordDeepReach(MutatorIndex);
    if (Telem)
      (Representative ? TM.Accepted : TM.Rejected).inc();
    emitIteration(Iter, MutatorIndex, Mutant.Result, true, Representative);
    FR.record(telemetry::FlightKind::Iteration, Iter, MutatorIndex,
              packIterationOutcome(Mutant.Result, true, Representative));
    {
      telemetry::PhaseTimer CommitT(TM.CommitNs, "commit");
      commitProduced(std::move(G), *MutantEntry, Iter);
    }
    const GeneratedClass &Stored = Result.GenClasses.back();
    const bool TierDisagree = Stored.TierEncoded.size() == 2 &&
                              Stored.TierEncoded[0] != Stored.TierEncoded[1];
    observeCommitted(Iter + 1, &Stored, Representative,
                     DdDiscrepancy || TierDisagree);
    maybeProgress(Iter + 1);
  }

  Result.Iterations = Iter;
  Result.SchedEpochs = Sched.epochs();

  if (Telem) {
    // Per-mutator selection/success/inapplicable/no-change table for
    // the --stats-json snapshot, filled from the (always-maintained)
    // result vectors. The grid accumulates across campaigns in one
    // process.
    static const char *Cols[] = {"selected", "succeeded", "inapplicable",
                                 "nochange", "deep_hits"};
    // Grid dimensions are fixed at first registration, and one process
    // may run campaigns with and without --typed-mutators, so the grid
    // is always sized to the extended registry (a strict superset whose
    // first rows label the base registry identically).
    telemetry::CounterGrid &Grid = telemetry::metrics().grid(
        "campaign.mutator", extendedMutatorRegistry().size(), 5,
        [](size_t Row) { return extendedMutatorRegistry()[Row].Id; },
        [](size_t Col) { return std::string(Cols[Col]); });
    for (size_t I = 0; I != NumMu; ++I) {
      Grid.inc(I, 0, Result.MutatorSelected[I]);
      Grid.inc(I, 1, Result.MutatorSucceeded[I]);
      Grid.inc(I, 2, Result.MutatorInapplicable[I]);
      Grid.inc(I, 3, Result.MutatorNoChange[I]);
      Grid.inc(I, 4, Result.MutatorDeepHits[I]);
    }
    telemetry::metrics().counter("campaign.iterations").inc(Iter);
    if (DdMode) {
      // End-of-run census of the δ pool. Gauges, not counters: they
      // report the checker's absolute state, which already accumulates
      // across campaigns in one process.
      const DeltaDiversityChecker &Delta = Accept.delta();
      auto &M = telemetry::metrics();
      M.gauge("campaign.dd_distinct_tuples")
          .set(static_cast<int64_t>(Delta.distinctTuples()));
      M.gauge("campaign.dd_distinct_outcomes")
          .set(static_cast<int64_t>(Delta.distinctOutcomes()));
      for (size_t I = 0; I != DdPolicies.size(); ++I)
        M.gauge("campaign.dd_profile_signatures." + DdPolicies[I].Name)
            .set(static_cast<int64_t>(Delta.profileSignatures(I)));
    }
    if (Config.RunAnalysis) {
      // Per-mutator x per-diagnostic-pass finding counts: which
      // mutators produce which classes of statically detectable damage.
      telemetry::CounterGrid &DiagGrid = telemetry::metrics().grid(
          "analysis.mutator_diag", extendedMutatorRegistry().size(),
          NumPassIds,
          [](size_t Row) { return extendedMutatorRegistry()[Row].Id; },
          [](size_t Col) {
            return std::string(passIdName(static_cast<PassId>(Col)));
          });
      for (size_t I = 0; I != NumMu; ++I)
        for (size_t P = 0; P != NumPassIds; ++P)
          DiagGrid.inc(I, P, MutatorDiag[I][P]);
    }
  }
  // Final time-series row after the end-of-run metric fills above, so
  // it carries campaign.iterations and the dd census gauges.
  if (Config.TimeSeries)
    Config.TimeSeries->finish(Iter);
  if (telemetry::eventSink())
    telemetry::EventBuilder("campaign.end")
        .field("algorithm", fuzzAlgorithmName(Config.Algo))
        .field("iterations", static_cast<uint64_t>(Iter))
        .field("generated", static_cast<uint64_t>(Result.GenClasses.size()))
        .field("accepted",
               static_cast<uint64_t>(Result.TestClassIndices.size()))
        .emit();

  Result.ElapsedSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    StartTime)
          .count();
  return Result;
}
