//===- perfbench/bench.h - Shared pieces of the end-to-end benchmark -----===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Workload table, the checked workload pass, and the small statistics
/// and JSON helpers shared by the untraced end-to-end run (driver.cpp)
/// and the traced replay run (replay.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_PERFBENCH_BENCH_H
#define CLASSFUZZ_PERFBENCH_BENCH_H

#include "difftest/DiffTest.h"
#include "fuzzing/Campaign.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One benchmark workload. Every workload runs SubSeeds campaigns per
/// round at --jobs 1, each with a fixed iteration budget (never a time
/// budget), so two commits always do identical work.
struct Workload {
  const char *Name;
  classfuzz::FuzzAlgorithm Algo;
  size_t Iterations;
  /// Campaigns per round, with campaign seeds derived from the workload
  /// seed (subSeed). Summing over several campaigns keeps the counts
  /// and throughputs steady from one workload seed to the next.
  size_t SubSeeds;
  /// Setup is short, so it repeats inside a pass and reports its median.
  size_t SetupReps;
};

/// The paper's full pipeline, run by the classfuzz[stbr] workload only:
/// after the difftest, reduce the first TestClass of each distinct
/// discrepancy category.
inline bool reduces(const Workload &W) {
  return W.Algo == classfuzz::FuzzAlgorithm::ClassfuzzStBr;
}

/// The difftest repeats inside a pass and reports its mean.
inline constexpr size_t DifftestReps = 3;

/// Workers of the speculative parallel loop, which runs untimed: for the
/// jobs-invariance check and for the speculation counters of the traced
/// run. Three workers plus the committing thread make four threads, one
/// per vCPU of a 4-vCPU machine. See README.md for why no timed section
/// runs it.
inline constexpr size_t ParallelJobs = 3;

/// Campaign seed of the \p Index-th campaign of workload seed \p Seed
/// (also a valid `classfuzz fuzz --rng` value for reproducing it).
inline uint64_t subSeed(uint64_t Seed, size_t Index) {
  return Seed * 100 + Index;
}

classfuzz::CampaignConfig campaignConfig(const Workload &W, uint64_t RngSeed);

/// The five-profile tester the CLI's fuzz command builds (default tier,
/// no tier diff).
classfuzz::DifferentialTester testerFor(const classfuzz::CampaignResult &R);

/// Named pass/fail checks feeding pass_rate. Every failure is printed
/// by name to stderr as it happens.
class Checks {
public:
  void expect(bool Ok, const std::string &Name);
  size_t run() const { return Run; }
  size_t failed() const { return Failed; }

private:
  size_t Run = 0;
  size_t Failed = 0;
};

/// Digest of a campaign's committed trajectory: mutant bytes and accept
/// flags, in commit order.
uint64_t trajectoryDigest(const classfuzz::CampaignResult &R);

/// What one difftest of a campaign's TestClasses observed.
struct DifftestOutcome {
  std::vector<std::string> Encoded; ///< One per TestClass, in order.
  /// Category -> GenClasses index of its first TestClass.
  std::map<std::string, size_t> FirstOfCategory;
  /// Profile runs that aborted with InternalError for any reason other
  /// than the step budget (a fault of the modeled VM).
  size_t InternalErrors = 0;
  /// Profile runs stopped by the interpreter step budget: mutants that
  /// loop forever. This is the VM's designed resource limit (a timeout,
  /// not a fault), so it is counted but not checked.
  size_t StepBudgetAborts = 0;
};

/// JvmResult::Message of a run the interpreter step budget stopped.
inline constexpr const char *StepBudgetMessage =
    "interpreter step budget exhausted";

DifftestOutcome runDifftest(const classfuzz::DifferentialTester &Tester,
                            const classfuzz::CampaignResult &R);

/// Reduces \p Data (class \p Name, observed as \p Target) while it keeps
/// its category; checks that the reduced class still reproduces it.
/// Returns the reduced size, or 0 when reduction failed.
size_t reduceAndCheck(const classfuzz::DifferentialTester &Tester,
                      const std::string &Name, const classfuzz::Bytes &Data,
                      const std::string &Target, Checks &C,
                      size_t *OracleQueries = nullptr,
                      std::vector<double> *QuerySeconds = nullptr);

double median(std::vector<double> V);
double mean(const std::vector<double> &V);
/// The nearest-rank p99 when ten or more samples lie beyond it, else the
/// highest quantile that still has ten samples beyond it (the median
/// below 20 samples).
double tailQuantile(const std::vector<double> &V);

/// Milliseconds one fixed integer loop takes: a host-speed diagnostic,
/// never used to scale a metric.
double hostSpinMs();

/// One metric of the result line.
struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Prints the result object as the last line of standard output.
void printResult(bool Correct, size_t Attempted, size_t Failed,
                 const std::vector<Metric> &Metrics);

/// The traced replay run (replay.cpp); \p SpinBefore is the host probe
/// taken at process start.
int runTraced(const Workload &W, uint64_t Seed, double SpinBefore);

} // namespace perfbench

#endif // CLASSFUZZ_PERFBENCH_BENCH_H
