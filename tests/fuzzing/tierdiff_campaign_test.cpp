//===- tests/fuzzing/tierdiff_campaign_test.cpp ----------------------------===//
//
// The campaign's tier-diff axis (CampaignConfig::TierDiff): every
// produced mutant also runs on the reference policy's interpreter and
// baseline tiers, and the two-code census is folded at the commit stage.
// Exact trajectories are pinned by the golden digests
// (golden_trajectory_test.cpp); these tests check the census's shape.
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"

#include <gtest/gtest.h>

using namespace classfuzz;

namespace {

CampaignConfig tierDiffConfig(FuzzAlgorithm Algo, size_t Iterations) {
  CampaignConfig Config;
  Config.Algo = Algo;
  Config.Iterations = Iterations;
  Config.RngSeed = 11;
  Config.NumSeeds = 13;
  Config.TierDiff = true;
  return Config;
}

} // namespace

TEST(CampaignTierDiff, CensusCoversEveryProducedMutant) {
  auto R = runCampaign(tierDiffConfig(FuzzAlgorithm::ClassfuzzStBr, 120));
  // Every produced mutant carries its two-code tier encoding...
  ASSERT_GT(R.numGenerated(), 0u);
  for (size_t I = 0; I != R.GenClasses.size(); ++I)
    ASSERT_EQ(R.GenClasses[I].TierEncoded.size(), 2u) << I;
  // ...and the census sums to the produced count.
  size_t Census = 0;
  for (const auto &[Encoded, Count] : R.TierOutcomeCounts)
    Census += Count;
  EXPECT_EQ(Census, R.numGenerated());
}

TEST(CampaignTierDiff, AlsoRidesDeltaDiversityBatches) {
  auto R = runCampaign(tierDiffConfig(FuzzAlgorithm::ClassfuzzDdCoarse, 80));
  ASSERT_GT(R.numGenerated(), 0u);
  for (const GeneratedClass &G : R.GenClasses)
    EXPECT_EQ(G.TierEncoded.size(), 2u) << G.Name;
}

TEST(CampaignTierDiff, RandfuzzIgnoresTierDiff) {
  // randfuzz has no execution stage for the tier pair to ride.
  auto R = runCampaign(tierDiffConfig(FuzzAlgorithm::Randfuzz, 60));
  EXPECT_TRUE(R.TierOutcomeCounts.empty());
  EXPECT_EQ(R.TierDisagreements, 0u);
  for (const GeneratedClass &G : R.GenClasses)
    EXPECT_TRUE(G.TierEncoded.empty()) << G.Name;
}
