//===- tests/fuzzing/work_counters_test.cpp --------------------------------===//
//
// Exact work counters as a linearity gate. `work.sched_entry_visits`
// (scheduler entries a rebuild touches) and
// `work.classpath_entries_copied` (entries copied by ClassPath layer
// merging) repeat exactly for a fixed seed, so a commit stage whose cost
// grows with the pool fails here deterministically -- something no
// wall-clock bound on a shared host can do. `work.classes_parsed` gates
// the parse-once design the same way.
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"

#include "jvm/Policy.h"
#include "runtime/RuntimeLib.h"
#include "support/Json.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TimeSeries.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace classfuzz;
namespace tel = classfuzz::telemetry;

namespace {

/// Telemetry is process-global: enable for the test, reset the registry
/// so the counters reflect this campaign alone, restore on exit.
struct TelemetryGuard {
  TelemetryGuard() {
    tel::setEnabled(true);
    tel::metrics().reset();
  }
  ~TelemetryGuard() {
    tel::setEnabled(false);
    tel::metrics().reset();
  }
};

/// Cumulative metric values at each sampled iteration, undoing the
/// sampler's delta encoding.
std::map<uint64_t, std::map<std::string, double>>
cumulativeRows(const std::vector<std::string> &Rows) {
  std::map<uint64_t, std::map<std::string, double>> Out;
  std::map<std::string, double> Current;
  for (const std::string &Row : Rows) {
    auto Parsed = json::parse(Row);
    EXPECT_TRUE(Parsed.ok()) << Row;
    if (!Parsed.ok())
      continue;
    if (const json::Value *M = Parsed->get("m"))
      for (const auto &[Key, V] : M->members())
        Current[Key] = V.asDouble();
    Out[static_cast<uint64_t>(Parsed->numberOr("iter", 0))] = Current;
  }
  return Out;
}

size_t ceilLog2(size_t N) {
  size_t L = 0;
  while ((size_t{1} << L) < N)
    ++L;
  return L;
}

} // namespace

TEST(WorkCounters, DdFineCommitWorkDoesNotGrowWithThePool) {
  TelemetryGuard Guard;
  constexpr size_t Iterations = 3000;
  constexpr size_t Tenth = Iterations / 10;
  tel::TimeSeriesSampler::Options TsOpts;
  TsOpts.SampleEvery = Tenth;
  TsOpts.Prefixes = {"work.", "campaign.sched_epochs"};
  tel::TimeSeriesSampler Sampler(TsOpts);

  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzDdFine;
  Config.Iterations = Iterations;
  Config.NumSeeds = 64;
  Config.RngSeed = 7;
  Config.TimeSeries = &Sampler;
  CampaignResult R = runCampaign(Config);
  const double Copied = static_cast<double>(
      tel::metrics().counter("work.classpath_entries_copied").value());

  auto Rows = cumulativeRows(Sampler.rows());
  ASSERT_TRUE(Rows.count(Tenth) && Rows.count(Iterations));
  auto at = [&](uint64_t Iter, const char *Key) {
    return Rows[Iter][Key];
  };
  // Per accepted commit (one rebuild each) in a tenth of the campaign.
  // The first tenth starts after the seed corpus's initial scoring --
  // epoch 1, one visit per seed -- which is set-up, not commit work.
  auto perCommit = [&](uint64_t From, uint64_t To) {
    double Visits = at(To, "work.sched_entry_visits");
    double Epochs = at(To, "campaign.sched_epochs");
    if (From == 0) {
      Visits -= static_cast<double>(R.Seeds.size());
      Epochs -= 1;
    } else {
      Visits -= at(From, "work.sched_entry_visits");
      Epochs -= at(From, "campaign.sched_epochs");
    }
    EXPECT_GT(Epochs, 0) << "no accepted commit in (" << From << ", " << To
                         << "]";
    return Visits / Epochs;
  };
  const double First = perCommit(0, Tenth);
  const double Last = perCommit(Iterations - Tenth, Iterations);
  EXPECT_GT(First, 0);
  EXPECT_LE(Last, 1.5 * First)
      << "scheduler visits per accepted commit grew from " << First
      << " (first tenth) to " << Last << " (last tenth)";

  // Every representative mutant joins the reference environment and
  // each δ-batch environment: N adds per environment over its base.
  const size_t N = R.TestClassIndices.size();
  ASSERT_GT(N, Iterations / 4);
  std::vector<JvmPolicy> Policies = allJvmPolicies();
  Policies.push_back(Config.ReferencePolicy);
  double Bound = 0;
  for (const JvmPolicy &P : Policies) {
    ClassPath Base = runtimeLibraryFor(P);
    for (const SeedClass &Seed : R.Seeds) {
      Base.add(Seed.Name, Seed.Data);
      for (const auto &[Name, Data] : Seed.Helpers)
        Base.add(Name, Data);
    }
    Bound += 3.0 * static_cast<double>(N) *
             static_cast<double>(ceilLog2(N + Base.size()));
  }
  EXPECT_GT(Copied, 0);
  EXPECT_LE(Copied, Bound) << "ClassPath merging copied " << Copied
                           << " entries for " << N << " adds";
}

TEST(WorkCounters, DdFineParsesEachClassOncePerBatch) {
  TelemetryGuard Guard;
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzDdFine;
  Config.Iterations = 3000;
  Config.NumSeeds = 64;
  Config.RngSeed = 7;
  (void)runCampaign(Config);
  // Re-parsing every class on every JVM run, this campaign made 41,370
  // parses (13.8 per iteration: the mutant on each of the five
  // profiles plus every library and corpus class each run loaded).
  // With shared, parse-once class-path entries it makes 5,859.
  constexpr uint64_t PerRunParses = 41370;
  const uint64_t Parsed =
      tel::metrics().counter("work.classes_parsed").value();
  EXPECT_GT(Parsed, Config.Iterations);
  EXPECT_LE(Parsed, PerRunParses / 3);
}
