//===- perfbench/replay.cpp - Traced per-layer replay of a workload ------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run. It runs each of the workload's campaigns once
/// untraced, then replays the committed trajectory outside-in: every
/// produced mutant, in commit order, goes through the public entry
/// point of each layer (parse, lower/assemble, lineage replay, the
/// reference JVM with and without coverage, acceptance, MCMC, the seed
/// scheduler, the static analyzer), followed by the difftest and the
/// reducer. Spans live only here, around those calls; the program runs
/// with telemetry off except for one more run of each campaign on the
/// parallel loop, whose speculation counters are read. The replay checks
/// itself against the trajectory: every acceptance decision, coverage
/// trace, phase, lineage and scheduler epoch count must match.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "analysis/StaticAnalyzer.h"
#include "classfile/ClassReader.h"
#include "coverage/Uniqueness.h"
#include "fuzzing/Provenance.h"
#include "fuzzing/SeedScheduler.h"
#include "jir/Jir.h"
#include "jvm/Phase.h"
#include "jvm/Vm.h"
#include "mcmc/McmcSelector.h"
#include "mutation/Mutator.h"
#include "runtime/RuntimeLib.h"
#include "runtime/SeedCorpus.h"
#include "telemetry/Telemetry.h"

#include <array>
#include <optional>

using namespace classfuzz;

namespace perfbench {
namespace {

/// Nanoseconds \p Fn takes.
template <typename Fn> double timeNs(Fn &&F) {
  auto Start = Clock::now();
  F();
  return std::chrono::duration<double, std::nano>(Clock::now() - Start)
      .count();
}

double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Span samples of one traced run, pooled over the workload's
/// campaigns. Times are nanoseconds unless the name says otherwise.
struct Spans {
  std::vector<double> Parse, Lower, Assemble, LineageReplay, RefRun,
      RefRunNoCov, OtherProfileRuns, SeedRuns, Accept, Mcmc, Analyze,
      Predict, SchedNote, SchedRebuild, DiffTest, ReducerQueryS;
  /// Per-campaign values (one entry per campaign).
  std::vector<double> SeedCorpusMs, EnvBuildMs, TesterBuildMs,
      RebuildGrowth, RebuildMsTotal, UntracedS;
  size_t Iterations = 0, Produced = 0, Accepted = 0, JvmRuns = 0,
         Tests = 0, Discrepancies = 0, OracleQueries = 0, Cancelled = 0,
         Rollbacks = 0, ReducedBytes = 0, OriginalBytes = 0;
  std::array<size_t, 5> RefPhases{};
};

/// The environments a campaign of \p W builds before its first
/// iteration: the reference environment, plus one per profile for the
/// δ-diversity algorithms.
struct Environments {
  ClassPath Ref;
  std::vector<JvmPolicy> Profiles; ///< δ algorithms only.
  std::vector<ClassPath> Dd;
  size_t RefIndex = 0;
};

ClassPath envOver(const JvmPolicy &P, const std::vector<SeedClass> &Seeds) {
  ClassPath Env = runtimeLibraryFor(P);
  for (const SeedClass &Seed : Seeds) {
    Env.add(Seed.Name, Seed.Data);
    for (const auto &[Name, Data] : Seed.Helpers)
      Env.add(Name, Data);
  }
  Env.freeze();
  return Env;
}

Environments buildEnvironments(const Workload &W, const JvmPolicy &Ref,
                               const std::vector<SeedClass> &Seeds) {
  Environments E;
  E.Ref = envOver(Ref, Seeds);
  if (!usesDeltaDiversity(W.Algo))
    return E;
  E.Profiles = allJvmPolicies();
  for (size_t I = 0; I != E.Profiles.size(); ++I) {
    if (E.Profiles[I].Name == Ref.Name)
      E.RefIndex = I;
    E.Dd.push_back(envOver(E.Profiles[I], Seeds));
  }
  return E;
}

/// One execution of a class on every profile the workload's acceptance
/// uses (the reference JVM alone, or all five for δ-diversity).
struct Execution {
  Tracefile RefTrace;
  int RefPhase = -1;
  std::string Encoded;
  std::vector<ProfileObservation> Obs;
};

Execution execute(const Environments &E, const JvmPolicy &Ref,
                  const std::string &Name, const Bytes &Data,
                  std::vector<double> *RefNs, std::vector<double> *OtherNs) {
  Execution X;
  if (E.Profiles.empty()) {
    ClassPath Env = E.Ref;
    Env.add(Name, Data);
    CoverageRecorder Rec;
    double Ns = timeNs([&] {
      Vm Jvm(Ref, Env, &Rec);
      X.RefPhase = encodePhase(Jvm.run(Name));
    });
    if (RefNs)
      RefNs->push_back(Ns);
    X.RefTrace = Rec.takeTrace();
    return X;
  }
  for (size_t I = 0; I != E.Profiles.size(); ++I) {
    ClassPath Env = E.Dd[I];
    Env.add(Name, Data);
    CoverageRecorder Rec;
    int Code = -1;
    double Ns = timeNs([&] {
      Vm Jvm(E.Profiles[I], Env, &Rec);
      Code = encodePhase(Jvm.run(Name));
    });
    Tracefile Trace = Rec.takeTrace();
    X.Obs.push_back(ProfileObservation::of(Code, Trace));
    X.Encoded += static_cast<char>('0' + Code);
    std::vector<double> *Into = I == E.RefIndex ? RefNs : OtherNs;
    if (Into)
      Into->push_back(Ns);
    if (I == E.RefIndex) {
      X.RefTrace = std::move(Trace);
      X.RefPhase = Code;
    }
  }
  return X;
}

/// Mean rebuild cost over the last tenth of acceptances over the mean
/// over the first tenth: 1.0 when rebuild cost does not grow with the
/// campaign.
double rebuildGrowth(const std::vector<double> &Rebuilds) {
  const size_t Tenth = Rebuilds.size() / 10;
  if (Tenth == 0)
    return 1.0;
  std::vector<double> First(Rebuilds.begin(), Rebuilds.begin() + Tenth);
  std::vector<double> Last(Rebuilds.end() - Tenth, Rebuilds.end());
  return mean(Last) / mean(First);
}

/// Replays one campaign of \p W at \p RngSeed into \p S.
void replayCampaign(const Workload &W, uint64_t RngSeed, Spans &S,
                    Checks &C) {
  const std::string Tag =
      std::string(W.Name) + " rng " + std::to_string(RngSeed);
  const CampaignConfig Config = campaignConfig(W, RngSeed);

  // The untraced campaign and difftest this replay explains.
  auto Start = Clock::now();
  CampaignResult R = runCampaign(Config);
  DifferentialTester Tester = testerFor(R);
  DifftestOutcome D = runDifftest(Tester, R);
  S.UntracedS.push_back(secondsSince(Start));
  C.expect(R.SelfChecks.empty(), "analyzer_selfcheck_mismatches " + Tag);
  C.expect(D.InternalErrors == 0, "difftest_vm_internal_errors " + Tag);

  // Speculation waste is visible only through the program's own
  // telemetry; read it from the same campaign on the parallel loop with
  // telemetry on.
  {
    CampaignConfig Par = Config;
    Par.Jobs = ParallelJobs;
    telemetry::metrics().reset();
    telemetry::setEnabled(true);
    CampaignResult Counted = runCampaign(Par);
    telemetry::setEnabled(false);
    C.expect(trajectoryDigest(Counted) == trajectoryDigest(R),
             "parallel_telemetry_on_same_trajectory " + Tag);
    auto &M = telemetry::metrics();
    S.Cancelled += M.counter("campaign.speculation.cancelled").value();
    S.Rollbacks += M.counter("campaign.speculation.rollbacks").value();
  }

  // runtime: seed corpus generation and environment builds.
  const JvmPolicy Ref = Config.ReferencePolicy;
  std::vector<double> CorpusMs, EnvMs;
  for (int Rep = 0; Rep != 5; ++Rep) {
    Rng SeedRng(RngSeed);
    std::vector<SeedClass> Seeds;
    CorpusMs.push_back(
        timeNs([&] { Seeds = generateSeedCorpus(SeedRng, Config.NumSeeds); }) /
        1e6);
    if (Rep == 0) {
      bool Same = Seeds.size() == R.Seeds.size();
      for (size_t I = 0; Same && I != Seeds.size(); ++I)
        Same = Seeds[I].Name == R.Seeds[I].Name &&
               Seeds[I].Data == R.Seeds[I].Data;
      C.expect(Same, "seed_corpus_regenerates " + Tag);
    }
    EnvMs.push_back(
        timeNs([&] { buildEnvironments(W, Ref, R.Seeds); }) / 1e6);
  }
  S.SeedCorpusMs.push_back(median(CorpusMs));
  S.EnvBuildMs.push_back(median(EnvMs));

  // Commit-order replay of the trajectory.
  Environments E = buildEnvironments(W, Ref, R.Seeds);
  const std::vector<std::string> KnownClasses = E.Ref.names();
  StaticAnalyzer Analyzer(E.Ref, Ref);
  UniquenessChecker Unique(UniquenessCriterion::StBr);
  std::optional<DeltaDiversityChecker> Delta;
  if (usesDeltaDiversity(W.Algo))
    Delta.emplace(UniquenessCriterion::DdFine);
  SeedScheduler Sched{SeedScheduler::Options()};
  const size_t NumMu = mutatorRegistry().size();
  McmcSelector Selector(NumMu, defaultGeometricP(NumMu));
  Rng SelectRng(RngSeed);
  const size_t ProfilesPerRun = E.Profiles.empty() ? 1 : E.Profiles.size();

  for (const SeedClass &Seed : R.Seeds) {
    Execution X;
    S.SeedRuns.push_back(timeNs(
        [&] { X = execute(E, Ref, Seed.Name, Seed.Data, nullptr, nullptr); }));
    if (Delta)
      Delta->insert(X.Obs);
    else
      Unique.insert(X.RefTrace);
    Sched.addEntry(X.RefTrace);
    Sched.noteTrace(X.RefTrace);
  }
  Sched.rebuild();
  S.JvmRuns += R.Seeds.size() * ProfilesPerRun;

  size_t LineageMismatches = 0, TraceMismatches = 0, AcceptMismatches = 0,
         AnalyzerMismatches = 0;
  std::vector<double> Rebuilds;
  for (const GeneratedClass &G : R.GenClasses) {
    S.Parse.push_back(timeNs([&] { (void)parseClassFile(G.Data); }));
    Result<JirClass> Lowered = makeError("not lowered");
    S.Lower.push_back(timeNs([&] { Lowered = lowerClassBytes(G.Data); }));
    if (Lowered)
      S.Assemble.push_back(timeNs([&] { (void)assembleToBytes(*Lowered); }));

    Result<ReplayedMutant> Replayed = makeError("not replayed");
    S.LineageReplay.push_back(timeNs([&] {
      Replayed = replayLineage(R.Seeds[G.Prov.RootSeedIndex].Data,
                               G.Prov.Steps, KnownClasses);
    }));
    LineageMismatches += !Replayed || Replayed->Data != G.Data ||
                         Replayed->ClassName != G.Name;

    Execution X = execute(E, Ref, G.Name, G.Data, &S.RefRun,
                          &S.OtherProfileRuns);
    {
      ClassPath Env = E.Profiles.empty() ? E.Ref : E.Dd[E.RefIndex];
      Env.add(G.Name, G.Data);
      S.RefRunNoCov.push_back(timeNs([&] {
        Vm Jvm(Ref, Env, nullptr);
        (void)Jvm.run(G.Name);
      }));
    }
    TraceMismatches += !X.RefTrace.sameSets(G.Trace) ||
                       X.RefPhase != G.RefPhase ||
                       (Delta && X.Encoded != G.DdEncoded);
    if (X.RefPhase >= 0 && X.RefPhase < 5)
      ++S.RefPhases[static_cast<size_t>(X.RefPhase)];
    S.JvmRuns += ProfilesPerRun;

    bool Representative = false;
    S.Accept.push_back(timeNs([&] {
      Representative = Delta ? Delta->tryInsert(X.Obs).Tuple
                             : Unique.tryInsert(X.RefTrace);
    }));
    AcceptMismatches += Representative != G.Representative;

    S.Mcmc.push_back(timeNs([&] {
      (void)Selector.selectNext(SelectRng);
      Selector.recordOutcome(G.MutatorIndex, G.Representative);
    }));

    AnalysisReport Report;
    S.Analyze.push_back(
        timeNs([&] { Report = Analyzer.analyzeClass(G.Name, G.Data); }));
    AnalyzerMismatches += !Report.Prediction.isCompatibleWith(G.RefPhase);
    S.Predict.push_back(timeNs(
        [&] { (void)Analyzer.predictStartupOutcome(G.Name, G.Data); }));

    S.SchedNote.push_back(timeNs([&] { Sched.noteTrace(G.Trace); }));
    if (G.Representative) {
      ++S.Accepted;
      Rebuilds.push_back(timeNs([&] {
        Sched.addEntry(G.Trace);
        Sched.rebuild();
      }));
      E.Ref.add(G.Name, G.Data);
      E.Ref.freeze();
      for (ClassPath &Env : E.Dd) {
        Env.add(G.Name, G.Data);
        Env.freeze();
      }
      Analyzer.addEnvironmentClass(G.Name, G.Data);
    }
  }
  C.expect(LineageMismatches == 0, "lineage_replay_reproduces " + Tag);
  C.expect(TraceMismatches == 0, "replayed_runs_match_trajectory " + Tag);
  C.expect(AcceptMismatches == 0, "replayed_acceptance_matches " + Tag);
  C.expect(AnalyzerMismatches == 0, "replayed_analyzer_selfcheck " + Tag);
  C.expect(Sched.epochs() == R.SchedEpochs, "scheduler_epochs_match " + Tag);
  S.SchedRebuild.insert(S.SchedRebuild.end(), Rebuilds.begin(),
                        Rebuilds.end());
  S.RebuildGrowth.push_back(rebuildGrowth(Rebuilds));
  S.RebuildMsTotal.push_back(sum(Rebuilds) / 1e6);
  S.Iterations += R.Iterations;
  S.Produced += R.numGenerated();

  // difftest: tester construction and one testClass per TestClass.
  std::vector<double> BuildMs;
  for (int Rep = 0; Rep != 3; ++Rep)
    BuildMs.push_back(timeNs([&] { (void)testerFor(R); }) / 1e6);
  S.TesterBuildMs.push_back(median(BuildMs));
  size_t OutcomeMismatches = 0;
  for (size_t T = 0; T != R.TestClassIndices.size(); ++T) {
    DiffOutcome O;
    const std::string &Name = R.GenClasses[R.TestClassIndices[T]].Name;
    S.DiffTest.push_back(timeNs([&] { O = Tester.testClass(Name); }));
    OutcomeMismatches += O.encodedString() != D.Encoded[T];
    S.Discrepancies += O.isDiscrepancy();
  }
  C.expect(OutcomeMismatches == 0, "difftest_repeats " + Tag);
  S.Tests += R.numTests();
  S.JvmRuns += R.numTests() * Tester.profiles().size();

  // reducer: every workload's traced run reduces the first TestClass of
  // each category, so the layer is timed on every workload; only stbr
  // counts reduction in its end-to-end pass.
  for (const auto &[Category, Index] : D.FirstOfCategory) {
    const GeneratedClass &G = R.GenClasses[Index];
    S.OriginalBytes += G.Data.size();
    S.ReducedBytes += reduceAndCheck(Tester, G.Name, G.Data, Category, C,
                                     &S.OracleQueries, &S.ReducerQueryS);
  }
}

double ratio(double Num, double Den) { return Den == 0 ? 0 : Num / Den; }

} // namespace

int runTraced(const Workload &W, uint64_t Seed, double SpinBefore) {
  Checks C;
  Spans S;
  for (size_t I = 0; I != W.SubSeeds; ++I)
    replayCampaign(W, subSeed(Seed, I), S, C);

  // The replayed layer time that corresponds to work the untraced
  // campaign and difftest did (lineage replay, parsing outside the VM,
  // no-coverage runs and predictions are extra work of the replay).
  const double AttributedNs =
      sum(S.Lower) + sum(S.Assemble) + sum(S.SeedRuns) + sum(S.RefRun) +
      sum(S.OtherProfileRuns) + sum(S.Accept) + sum(S.Mcmc) +
      sum(S.Analyze) + sum(S.SchedNote) + sum(S.SchedRebuild) +
      sum(S.DiffTest) + sum(S.TesterBuildMs) * 1e6;
  const double Produced = static_cast<double>(S.Produced);
  const double RefRuns = static_cast<double>(S.RefRun.size());
  std::vector<Metric> M = {
      {"runtime.seed_corpus_ms", mean(S.SeedCorpusMs), "ms"},
      {"runtime.env_build_ms", mean(S.EnvBuildMs), "ms"},
      {"classfile.parse_ns_p50", median(S.Parse), "ns"},
      {"classfile.parse_ns_p99", tailQuantile(S.Parse), "ns"},
      {"jir.lower_ns_p50", median(S.Lower), "ns"},
      {"jir.assemble_ns_p50", median(S.Assemble), "ns"},
      {"mutation.replay_ns_p50", median(S.LineageReplay), "ns"},
      {"mutation.replay_ns_p99", tailQuantile(S.LineageReplay), "ns"},
      {"mutation.produced_ratio",
       ratio(Produced, static_cast<double>(S.Iterations)), "ratio"},
      {"jvm.ref_run_ns_p50", median(S.RefRun), "ns"},
      {"jvm.ref_run_ns_p99", tailQuantile(S.RefRun), "ns"},
      {"jvm.ref_run_nocov_ns_p50", median(S.RefRunNoCov), "ns"},
      {"jvm.runs", static_cast<double>(S.JvmRuns), "count"},
  };
  for (size_t Code = 0; Code != S.RefPhases.size(); ++Code)
    M.push_back({"jvm.phase_share." + std::to_string(Code),
                 ratio(static_cast<double>(S.RefPhases[Code]), RefRuns),
                 "ratio"});
  const double Cancelled = static_cast<double>(S.Cancelled);
  M.insert(M.end(), {
      {"coverage.accept_check_ns_p50", median(S.Accept), "ns"},
      {"coverage.accept_ratio",
       ratio(static_cast<double>(S.Accepted), Produced), "ratio"},
      {"mcmc.select_ns_p50", median(S.Mcmc), "ns"},
      {"fuzzing.sched_rebuild_ns_p50", median(S.SchedRebuild), "ns"},
      {"fuzzing.sched_rebuild_ms_total", mean(S.RebuildMsTotal), "ms"},
      {"fuzzing.sched_rebuild_growth", median(S.RebuildGrowth), "ratio"},
      {"fuzzing.spec_exec_per_commit", ratio(Produced + Cancelled, Produced),
       "ratio"},
      {"fuzzing.spec_rollbacks", static_cast<double>(S.Rollbacks), "count"},
      {"analysis.analyze_ns_p50", median(S.Analyze), "ns"},
      {"analysis.analyze_ns_p99", tailQuantile(S.Analyze), "ns"},
      {"analysis.predict_ns_p50", median(S.Predict), "ns"},
      {"difftest.tester_build_ms", mean(S.TesterBuildMs), "ms"},
      {"difftest.test_ns_p50", median(S.DiffTest), "ns"},
      {"difftest.test_ns_p99", tailQuantile(S.DiffTest), "ns"},
      {"difftest.discrepancy_share",
       ratio(static_cast<double>(S.Discrepancies),
             static_cast<double>(S.Tests)),
       "ratio"},
      {"reducer.oracle_queries", static_cast<double>(S.OracleQueries),
       "count"},
      {"reducer.query_ns_p50", median(S.ReducerQueryS) * 1e9, "ns"},
      {"reducer.size_ratio",
       ratio(static_cast<double>(S.ReducedBytes),
             static_cast<double>(S.OriginalBytes)),
       "ratio"},
      {"trace.attributed_share", AttributedNs / (sum(S.UntracedS) * 1e9),
       "ratio"},
      {"trace.mutants_replayed", Produced, "count"},
      {"host.spin_ms", (SpinBefore + hostSpinMs()) / 2, "ms"},
  });
  printResult(C.failed() == 0, C.run(), C.failed(), M);
  return 0;
}

} // namespace perfbench
