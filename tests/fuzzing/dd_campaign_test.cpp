//===- tests/fuzzing/dd_campaign_test.cpp ----------------------------------===//
//
// The δ-diversity campaign pipeline: every candidate mutant executes on
// all five profiles during acceptance, and the tuple decisions + census
// happen at the commit stage. The exact dd-fine trajectories are pinned
// by the golden digests (golden_trajectory_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

using namespace classfuzz;
namespace tel = classfuzz::telemetry;

namespace {

CampaignConfig ddConfig(FuzzAlgorithm Algo, size_t Iterations = 120,
                        uint64_t Seed = 11) {
  CampaignConfig Config;
  Config.Algo = Algo;
  Config.Iterations = Iterations;
  Config.RngSeed = Seed;
  Config.NumSeeds = 13;
  return Config;
}

} // namespace

TEST(DdCampaign, EveryProducedMutantIsInTheCensus) {
  auto R = runCampaign(ddConfig(FuzzAlgorithm::ClassfuzzDdFine));
  ASSERT_TRUE(usesDeltaDiversity(R.Algo));

  // Every produced mutant carries a five-profile encoded sequence, and
  // the census sums to exactly the produced count (no double counting,
  // no skipped batches).
  size_t Discrepancies = 0;
  for (const GeneratedClass &G : R.GenClasses) {
    ASSERT_EQ(G.DdEncoded.size(), 5u) << G.Name;
    bool Constant = true;
    for (char C : G.DdEncoded)
      Constant &= C == G.DdEncoded[0];
    Discrepancies += !Constant;
  }
  size_t CensusTotal = 0;
  for (const auto &[Sequence, Count] : R.DdOutcomeCounts) {
    EXPECT_EQ(Sequence.size(), 5u);
    CensusTotal += Count;
  }
  EXPECT_EQ(CensusTotal, R.numGenerated());
  EXPECT_EQ(R.DdDiscrepancies, Discrepancies);
  EXPECT_LE(R.ddDistinctDiscrepancies(), R.DdDiscrepancies);
}

TEST(DdCampaign, ReferenceAlgorithmsLeaveTheDdSurfaceEmpty) {
  CampaignConfig Config =
      ddConfig(FuzzAlgorithm::ClassfuzzStBr, 60);
  auto R = runCampaign(Config);
  EXPECT_FALSE(usesDeltaDiversity(R.Algo));
  EXPECT_TRUE(R.DdOutcomeCounts.empty());
  EXPECT_EQ(R.DdDiscrepancies, 0u);
  EXPECT_EQ(R.ddDistinctDiscrepancies(), 0u);
  for (const GeneratedClass &G : R.GenClasses)
    EXPECT_TRUE(G.DdEncoded.empty());
}

TEST(DdCampaign, AlgorithmNamesAndPredicate) {
  EXPECT_STREQ(fuzzAlgorithmName(FuzzAlgorithm::ClassfuzzDdCoarse),
               "classfuzz[dd-coarse]");
  EXPECT_STREQ(fuzzAlgorithmName(FuzzAlgorithm::ClassfuzzDdFine),
               "classfuzz[dd-fine]");
  EXPECT_TRUE(usesDeltaDiversity(FuzzAlgorithm::ClassfuzzDdCoarse));
  EXPECT_TRUE(usesDeltaDiversity(FuzzAlgorithm::ClassfuzzDdFine));
  EXPECT_FALSE(usesDeltaDiversity(FuzzAlgorithm::ClassfuzzStBr));
  EXPECT_FALSE(usesDeltaDiversity(FuzzAlgorithm::Randfuzz));
}

TEST(DdCampaign, BaselineTierRunsTheWholeBatchOnThatTier) {
  // --tier must reach every profile of the δ batch, the reference slot
  // included (it doubles as the reference run). By the tier contract
  // the committed trajectory is the threaded one, and the baseline
  // engine's jit.* counters show that its VMs really ran.
  CampaignConfig Threaded = ddConfig(FuzzAlgorithm::ClassfuzzDdFine, 80);
  const CampaignResult Want = runCampaign(Threaded);

  CampaignConfig Baseline = Threaded;
  Baseline.ReferencePolicy.Tier = ExecTier::Baseline;
  tel::setEnabled(true);
  tel::metrics().reset();
  const CampaignResult Got = runCampaign(Baseline);
  const uint64_t Compiles = tel::metrics().counter("jit.compiles").value();
  tel::setEnabled(false);
  tel::metrics().reset();

  EXPECT_GT(Compiles, 0u) << "no δ-batch VM ran on the baseline tier";
  ASSERT_EQ(Got.GenClasses.size(), Want.GenClasses.size());
  for (size_t I = 0; I != Want.GenClasses.size(); ++I) {
    const GeneratedClass &G = Got.GenClasses[I], &W = Want.GenClasses[I];
    EXPECT_EQ(G.Name, W.Name) << I;
    EXPECT_EQ(G.Data, W.Data) << I;
    EXPECT_EQ(G.Representative, W.Representative) << I;
    EXPECT_EQ(G.RefPhase, W.RefPhase) << I;
    EXPECT_EQ(G.DdEncoded, W.DdEncoded) << I;
  }
  EXPECT_EQ(Got.TestClassIndices, Want.TestClassIndices);
  EXPECT_EQ(Got.DdOutcomeCounts, Want.DdOutcomeCounts);
}
