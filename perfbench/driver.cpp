//===- perfbench/driver.cpp - End-to-end benchmark of classfuzz campaigns -===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
///
/// With --trace 0 it runs the workload's campaigns round after round for
/// about S seconds with telemetry off, checks every output, and prints
/// the end-to-end metrics. With --trace 1 it runs the traced replay
/// (replay.cpp) and prints the per-layer metrics. The last line of
/// standard output is the result object; see perfbench/README.md.
///
//===----------------------------------------------------------------------===//

#include "bench.h"

#include "reducer/Reducer.h"
#include "support/Hashing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <sys/resource.h>
#include <time.h>

using namespace classfuzz;
using namespace perfbench;

namespace perfbench {

namespace {

const std::vector<Workload> &workloads() {
  // Campaigns per round keep the counts and times steady from one
  // workload seed to the next: one campaign's cost varies by about an
  // eighth with its seed. A round takes about 15 s, so a 50-second run
  // repeats each campaign's pass about three times. See README.md.
  static const std::vector<Workload> Table = {
      {"stbr", FuzzAlgorithm::ClassfuzzStBr, 3000, 14, 5},
      {"ddfine", FuzzAlgorithm::ClassfuzzDdFine, 1000, 12, 3},
  };
  return Table;
}

/// Nearest-rank quantile.
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  size_t Rank =
      static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

/// The default workload seed; only it has a pinned digest.
constexpr uint64_t DefaultSeed = 1;

/// The workload named \p Name, or null.
const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

/// Digest of the default seed's trajectories and difftest outcomes.
uint64_t pinnedDigest(const Workload &W) {
  const std::string Name = W.Name;
  if (Name == "stbr")
    return 0x9bfd278595b9b35dULL;
  if (Name == "ddfine")
    return 0xd44856f148eba427ULL;
  return 0;
}

uint64_t difftestDigest(const DifftestOutcome &D) {
  Hasher Hs;
  for (const std::string &E : D.Encoded)
    Hs.addString(E);
  return Hs.value();
}

uint64_t combineDigests(const std::vector<uint64_t> &Parts) {
  Hasher Hs;
  for (uint64_t P : Parts)
    Hs.addU64(P);
  return Hs.value();
}

/// CPU seconds the process has used, all threads together: a diagnostic
/// that, unlike the wall clock, does not advance while the hypervisor
/// runs another tenant.
double processCpuSeconds() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}

/// Times one section on the process CPU clock and on the wall clock.
struct Stopwatch {
  Clock::time_point WallStart = Clock::now();
  double CpuStart = processCpuSeconds();
  double cpu() const { return processCpuSeconds() - CpuStart; }
  double wall() const { return secondsSince(WallStart); }
};

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

} // namespace

CampaignConfig campaignConfig(const Workload &W, uint64_t RngSeed) {
  CampaignConfig C;
  C.Algo = W.Algo;
  C.Iterations = W.Iterations;
  C.RngSeed = RngSeed;
  C.NumSeeds = 64;
  return C;
}

DifferentialTester testerFor(const CampaignResult &R) {
  return DifferentialTester::withTieredProfiles(
      R.corpusClassPath(), EnvironmentMode::PerJvm, ExecTier::Threaded,
      /*TierDiff=*/false);
}

void Checks::expect(bool Ok, const std::string &Name) {
  ++Run;
  if (Ok)
    return;
  ++Failed;
  std::fprintf(stderr, "perfbench: check failed: %s\n", Name.c_str());
}

uint64_t trajectoryDigest(const CampaignResult &R) {
  Hasher Hs;
  for (const GeneratedClass &G : R.GenClasses) {
    Hs.addU64(G.Data.size());
    Hs.addBytes(G.Data);
    Hs.addByte(G.Representative ? 1 : 0);
  }
  Hs.addU64(R.Iterations);
  return Hs.value();
}

DifftestOutcome runDifftest(const DifferentialTester &Tester,
                            const CampaignResult &R) {
  DifftestOutcome D;
  D.Encoded.reserve(R.TestClassIndices.size());
  for (size_t I : R.TestClassIndices) {
    DiffOutcome O = Tester.testClass(R.GenClasses[I].Name);
    D.Encoded.push_back(O.encodedString());
    for (const JvmResult &Run : O.Results) {
      if (Run.Error != JvmErrorKind::InternalError)
        continue;
      if (Run.Message == StepBudgetMessage)
        ++D.StepBudgetAborts;
      else
        ++D.InternalErrors;
    }
    if (O.isDiscrepancy())
      D.FirstOfCategory.emplace(D.Encoded.back(), I);
  }
  return D;
}

size_t reduceAndCheck(const DifferentialTester &Tester,
                      const std::string &Name, const Bytes &Data,
                      const std::string &Target, Checks &C,
                      size_t *OracleQueries,
                      std::vector<double> *QuerySeconds) {
  ReductionOracle Oracle = [&](const std::string &N, const Bytes &Candidate) {
    auto Start = Clock::now();
    bool Keep = Tester.testClass(N, Candidate).encodedString() == Target;
    if (QuerySeconds)
      QuerySeconds->push_back(secondsSince(Start));
    return Keep;
  };
  ReductionStats Stats;
  Result<Bytes> Reduced = reduceClassfile(Data, Oracle, ReducerOptions(),
                                          &Stats);
  if (OracleQueries)
    *OracleQueries += Stats.OracleQueries;
  const bool Reproduces =
      Reduced.ok() &&
      Tester.testClass(Name, *Reduced).encodedString() == Target;
  C.expect(Reproduces, "reduced_reproduces_category " + Name + " " + Target);
  return Reproduces ? Reduced->size() : 0;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double mean(const std::vector<double> &V) {
  return V.empty() ? 0
                   : std::accumulate(V.begin(), V.end(), 0.0) /
                         static_cast<double>(V.size());
}

double tailQuantile(const std::vector<double> &V) {
  const double N = static_cast<double>(V.size());
  if (N < 20)
    return median(V);
  return quantile(V, std::min(0.99, 1.0 - 10.0 / N));
}

double hostSpinMs() {
  std::vector<double> Samples;
  for (int Rep = 0; Rep != 3; ++Rep) {
    auto Start = Clock::now();
    volatile uint64_t X = 1;
    for (uint64_t I = 0; I != 20000000; ++I)
      X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    Samples.push_back(secondsSince(Start) * 1000.0);
  }
  return median(Samples);
}

void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I != Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

} // namespace perfbench

namespace {

/// One campaign's pass: setup, campaign, difftest and (stbr) reduction,
/// with every section's wall time.
struct PassSample {
  double Setup = 0, Campaign = 0, TesterBuild = 0, Difftest = 0, Reduce = 0;
  double e2e() const { return Campaign + TesterBuild + Difftest + Reduce; }
  /// CPU-time diagnostics of the campaign and the difftest.
  double CampaignCpu = 0, DifftestCpu = 0;
  size_t Iterations = 0;
  size_t Tests = 0;
  size_t Distinct = 0; ///< Distinct discrepancy categories.
  size_t StepBudgetAborts = 0;
  uint64_t Trajectory = 0; ///< trajectoryDigest of the campaign.
  uint64_t Digest = 0;     ///< Trajectory and difftest outcomes.
};

PassSample runPass(const Workload &W, uint64_t RngSeed, Checks &C) {
  PassSample P;
  const std::string Tag = std::string(W.Name) + " rng " +
                          std::to_string(RngSeed);
  // setup_s: time to the first iteration -- the campaign's own setup
  // (seed corpus, environments, seed registration runs) plus building
  // the differential tester.
  CampaignConfig Setup = campaignConfig(W, RngSeed);
  Setup.Iterations = 0;
  std::vector<double> SetupS;
  for (size_t Rep = 0; Rep != W.SetupReps; ++Rep) {
    Stopwatch T;
    CampaignResult R0 = runCampaign(Setup);
    DifferentialTester T0 = testerFor(R0);
    SetupS.push_back(T.wall());
  }
  P.Setup = median(SetupS);

  Stopwatch T;
  CampaignResult R = runCampaign(campaignConfig(W, RngSeed));
  P.Campaign = T.wall();
  P.CampaignCpu = T.cpu();
  P.Iterations = R.Iterations;
  P.Tests = R.numTests();
  C.expect(R.SelfChecks.empty(), "analyzer_selfcheck_mismatches " + Tag);

  T = Stopwatch();
  DifferentialTester Tester = testerFor(R);
  P.TesterBuild = T.wall();
  std::vector<double> DiffS, DiffCpu;
  DifftestOutcome D;
  for (size_t Rep = 0; Rep != DifftestReps; ++Rep) {
    T = Stopwatch();
    D = runDifftest(Tester, R);
    DiffS.push_back(T.wall());
    DiffCpu.push_back(T.cpu());
  }
  P.Difftest = mean(DiffS);
  P.DifftestCpu = mean(DiffCpu);
  C.expect(D.InternalErrors == 0, "difftest_vm_internal_errors " + Tag);
  P.StepBudgetAborts = D.StepBudgetAborts;
  P.Distinct = D.FirstOfCategory.size();

  if (reduces(W)) {
    T = Stopwatch();
    for (const auto &[Category, Index] : D.FirstOfCategory)
      reduceAndCheck(Tester, R.GenClasses[Index].Name,
                     R.GenClasses[Index].Data, Category, C);
    P.Reduce = T.wall();
  }
  P.Trajectory = trajectoryDigest(R);
  P.Digest = combineDigests({P.Trajectory, difftestDigest(D)});
  // One line per pass, so a reader can see how the host moved the times
  // within a run.
  std::fprintf(stderr,
               "perfbench: pass %s setup_s %.4f campaign_s %.4f "
               "difftest_s %.4f e2e_s %.4f\n",
               Tag.c_str(), P.Setup, P.Campaign, P.Difftest, P.e2e());
  return P;
}

int usage() {
  std::fprintf(stderr, "usage: perfbench_driver --workload NAME --seed N "
                       "--seconds S --trace 0|1\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName;
  uint64_t Seed = DefaultSeed;
  double Seconds = 30;
  bool Trace = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    if (Flag == "--workload")
      WorkloadName = Value;
    else if (Flag == "--seed")
      Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      Trace = std::string(Value) == "1";
    else
      return usage();
  }
  const Workload *W = findWorkload(WorkloadName);
  if (!W || Argc % 2 == 0)
    return usage();

  const double SpinBefore = hostSpinMs();
  if (Trace)
    return runTraced(*W, Seed, SpinBefore);

  // Warm-up, untimed: fills the allocator's free lists and the caches
  // before the first timed pass.
  runCampaign(campaignConfig(*W, subSeed(Seed, 0)));

  Checks C;
  const size_t K = W->SubSeeds;
  // Passes cycle through the campaigns. After every campaign has run
  // once, a pass starts only if it is expected to end within --seconds,
  // so a slow host gives one round and a fast one some more passes.
  std::vector<std::vector<PassSample>> Samples(K);
  const auto RunStart = Clock::now();
  double LastPass = 0;
  size_t Passes = 0;
  while (Passes < K || secondsSince(RunStart) + LastPass <= Seconds) {
    const auto PassStart = Clock::now();
    std::vector<PassSample> &Mine = Samples[Passes % K];
    Mine.push_back(runPass(*W, subSeed(Seed, Passes % K), C));
    if (Mine.size() > 1)
      C.expect(Mine.back().Digest == Mine.front().Digest,
               std::string("passes_repeat_digest ") + W->Name + " rng " +
                   std::to_string(subSeed(Seed, Passes % K)));
    LastPass = secondsSince(PassStart);
    ++Passes;
  }

  // The workload's peak RSS, before the untimed parallel campaign below.
  const double PeakRssMb = peakRssMb();

  // Jobs invariance: the first campaign on the parallel loop (untimed)
  // must commit the same trajectory as its first timed pass on the
  // sequential loop.
  CampaignConfig Par = campaignConfig(*W, subSeed(Seed, 0));
  Par.Jobs = ParallelJobs;
  const auto ParStart = Clock::now();
  const CampaignResult ParResult = runCampaign(Par);
  const double ParIterationsPerS =
      static_cast<double>(ParResult.Iterations) / secondsSince(ParStart);
  C.expect(Samples[0].front().Trajectory == trajectoryDigest(ParResult),
           std::string("jobs_invariant_trajectory ") + W->Name + " jobs " +
               std::to_string(ParallelJobs) + " vs 1");

  // Counts are exact, so any pass's value will do; times take the mean
  // over each campaign's passes (the host slows whole phases of a run,
  // rather than single passes, so a median only discards samples),
  // summed over the campaigns. Setup reports its median.
  std::vector<uint64_t> PassDigests;
  double Iterations = 0, Tests = 0, Distinct = 0, StepBudgetAborts = 0,
         CampaignS = 0, DifftestS = 0, E2eS = 0, SetupS = 0, CampaignCpuS = 0,
         DifftestCpuS = 0;
  for (const std::vector<PassSample> &Campaign : Samples) {
    std::vector<double> Camp, Diff, E2e, Setup, CampCpu, DiffCpu;
    for (const PassSample &P : Campaign) {
      CampCpu.push_back(P.CampaignCpu);
      DiffCpu.push_back(P.DifftestCpu);
      Camp.push_back(P.Campaign);
      Diff.push_back(P.Difftest);
      E2e.push_back(P.e2e());
      Setup.push_back(P.Setup);
    }
    CampaignS += mean(Camp);
    CampaignCpuS += mean(CampCpu);
    DifftestCpuS += mean(DiffCpu);
    DifftestS += mean(Diff);
    E2eS += mean(E2e);
    SetupS += median(Setup);
    const PassSample &First = Campaign.front();
    Iterations += static_cast<double>(First.Iterations);
    Tests += static_cast<double>(First.Tests);
    Distinct += static_cast<double>(First.Distinct);
    StepBudgetAborts += static_cast<double>(First.StepBudgetAborts);
    PassDigests.push_back(First.Digest);
  }
  const uint64_t Digest = combineDigests(PassDigests);
  if (Seed == DefaultSeed)
    C.expect(Digest == pinnedDigest(*W),
             std::string("pinned_digest ") + W->Name);

  std::printf("diagnostic: {\"host.spin_ms\": {\"before\": %.3f, "
              "\"after\": %.3f}, \"cpu_iters_per_s\": %.1f, "
              "\"cpu_difftest_classes_per_s\": %.1f, "
              "\"campaign0_iters_per_s\": {\"jobs1\": %.1f, "
              "\"jobs%zu\": %.1f}, "
              "\"passes\": %zu, \"digest\": \"%016llx\", "
              "\"step_budget_aborts\": %.0f}\n",
              SpinBefore, hostSpinMs(), Iterations / CampaignCpuS,
              Tests / DifftestCpuS,
              static_cast<double>(Samples[0].front().Iterations) /
                  Samples[0].front().Campaign,
              ParallelJobs, ParIterationsPerS, Passes,
              static_cast<unsigned long long>(Digest), StepBudgetAborts);
  const double KD = static_cast<double>(K);
  const double PassRate =
      static_cast<double>(C.run() - C.failed()) / static_cast<double>(C.run());
  printResult(C.failed() == 0, C.run(), C.failed(),
              {{"iters_per_s", Iterations / CampaignS, "1/s"},
               {"difftest_classes_per_s", Tests / DifftestS, "1/s"},
               {"e2e_s", E2eS / KD, "s"},
               {"setup_s", SetupS / KD, "s"},
               {"peak_rss_mb", PeakRssMb, "MB"},
               {"representative_tests", Tests, "count"},
               {"distinct_discrepancies", Distinct, "count"},
               {"pass_rate", PassRate, "ratio"}});
  return 0;
}
