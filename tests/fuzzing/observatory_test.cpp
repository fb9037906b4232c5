//===- tests/fuzzing/observatory_test.cpp ----------------------------------===//
//
// The campaign observatory end to end: the commit-stage time series
// ends at the final commit, the saturation detector latches -- and
// stops, under StopOnPlateau -- at the latching commit, and the
// frontier's attribution references real campaign provenance.
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"

#include "coverage/Frontier.h"
#include "telemetry/Telemetry.h"
#include "telemetry/TimeSeries.h"

#include <gtest/gtest.h>

#include <memory>

using namespace classfuzz;
namespace tel = classfuzz::telemetry;

namespace {

/// Telemetry is process-global: enable for the test, reset the registry
/// so sampled values reflect this campaign alone, restore on exit.
struct ObservatoryGuard {
  ObservatoryGuard() {
    tel::setEnabled(true);
    tel::metrics().reset();
  }
  ~ObservatoryGuard() {
    tel::setEnabled(false);
    tel::metrics().reset();
  }
};

struct ObservedRun {
  CampaignResult Result;
  std::vector<std::string> TsRows;
};

ObservedRun runObserved(size_t Iterations = 200, size_t PlateauWindow = 0,
                        bool StopOnPlateau = false) {
  tel::metrics().reset();
  tel::TimeSeriesSampler::Options TsOpts;
  TsOpts.SampleEvery = 16;
  tel::TimeSeriesSampler Sampler(TsOpts);

  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
  Config.Iterations = Iterations;
  Config.RngSeed = 11;
  Config.NumSeeds = 6;
  Config.TrackFrontier = true;
  Config.RareBranchThreshold = 4;
  Config.TimeSeries = &Sampler;
  Config.PlateauWindow = PlateauWindow;
  Config.StopOnPlateau = StopOnPlateau;

  ObservedRun Run;
  Run.Result = runCampaign(Config);
  Run.TsRows = Sampler.rows();
  return Run;
}

} // namespace

TEST(Observatory, TimeSeriesEndsAtTheFinalCommit) {
  ObservatoryGuard Guard;
  ObservedRun Run = runObserved();

  // One row per 16 commits, then the final row at the last commit.
  ASSERT_EQ(Run.TsRows.size(), 200u / 16 + 1);
  EXPECT_NE(Run.TsRows.back().find("\"iter\":200,\"final\":true"),
            std::string::npos);
  ASSERT_NE(Run.Result.Frontier, nullptr);
  EXPECT_FALSE(Run.Result.Frontier->renderCensusJsonl().empty());
}

TEST(Observatory, FrontierAttributionReferencesRealProvenance) {
  ObservatoryGuard Guard;
  ObservedRun Run = runObserved();
  const FrontierTracker &FT = *Run.Result.Frontier;
  EXPECT_GT(FT.distinctStmts(), 0u);
  EXPECT_GT(FT.distinctBranches(), 0u);
  // Seed registrations fold in at iteration 0 with no mutator; any
  // coverage first reached by a mutant carries its mutator id. Either
  // way the attributed seed exists in the result's provenance universe.
  bool SawMutantAttribution = false;
  for (uint32_t Id : FT.rareStmts()) {
    const FrontierFirstHit *First = FT.stmtFirstHit(Id);
    ASSERT_NE(First, nullptr);
    EXPECT_FALSE(First->SeedName.empty());
    if (!First->MutatorId.empty()) {
      SawMutantAttribution = true;
      EXPECT_GT(First->Iteration, 0u);
    }
  }
  // The census renders every tracked site exactly once.
  std::string Census = FT.renderCensusJsonl();
  size_t Lines = 0;
  for (char C : Census)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 1 + FT.distinctStmts() + FT.distinctBranches());
  (void)SawMutantAttribution; // Coverage growth may stop before mutants.
}

TEST(Observatory, PlateauLatchesAndStopsAtTheLatchingCommit) {
  ObservatoryGuard Guard;
  // A tiny window over a long budget guarantees a plateau well before
  // the budget: the pool saturates and acceptance dries up.
  ObservedRun Run = runObserved(/*Iterations=*/4000, /*PlateauWindow=*/20,
                                /*StopOnPlateau=*/true);

  ASSERT_TRUE(Run.Result.Plateaued);
  EXPECT_LT(Run.Result.Iterations, 4000u) << "the stop actually stopped";
  EXPECT_EQ(Run.Result.Iterations, Run.Result.PlateauAt)
      << "the latching commit is the last commit";

  // The latch is observable in the metrics snapshot.
  std::string Snapshot = tel::metrics().snapshotJson("campaign.plateau");
  EXPECT_NE(Snapshot.find("\"campaign.plateau_at\":" +
                          std::to_string(Run.Result.PlateauAt)),
            std::string::npos);
}

TEST(Observatory, PlateauDetectionWithoutStopOnlyLatches) {
  ObservatoryGuard Guard;
  ObservedRun Run = runObserved(/*Iterations=*/600, /*PlateauWindow=*/20,
                                /*StopOnPlateau=*/false);
  // Detection without the stop flag runs the full budget.
  EXPECT_EQ(Run.Result.Iterations, 600u);
  if (Run.Result.Plateaued) {
    EXPECT_GT(Run.Result.PlateauAt, 0u);
  }
}

TEST(Observatory, FrontierOffByDefaultAndResultStaysLean) {
  ObservatoryGuard Guard;
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
  Config.Iterations = 40;
  Config.RngSeed = 11;
  Config.NumSeeds = 4;
  CampaignResult R = runCampaign(Config);
  EXPECT_EQ(R.Frontier, nullptr);
  EXPECT_FALSE(R.Plateaued);
}
