//===- tests/fuzzing/campaign_test.cpp -------------------------------------===//
//
// The campaign drivers: determinism, Algorithm 1 invariants, and the
// between-algorithm relationships behind Findings 1 and 2 (at reduced
// scale -- the benches run the full-size versions).
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"
#include "mutation/Mutator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace classfuzz;

namespace {

CampaignConfig smallConfig(FuzzAlgorithm Algo, size_t Iterations = 150,
                           uint64_t Seed = 11) {
  CampaignConfig Config;
  Config.Algo = Algo;
  Config.Iterations = Iterations;
  Config.RngSeed = Seed;
  Config.NumSeeds = 13;
  return Config;
}

} // namespace

TEST(Campaign, DeterministicForEqualSeeds) {
  auto A = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr, 80));
  auto B = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr, 80));
  ASSERT_EQ(A.numGenerated(), B.numGenerated());
  ASSERT_EQ(A.numTests(), B.numTests());
  for (size_t I = 0; I != A.GenClasses.size(); ++I) {
    EXPECT_EQ(A.GenClasses[I].Name, B.GenClasses[I].Name);
    EXPECT_EQ(A.GenClasses[I].Data, B.GenClasses[I].Data);
    EXPECT_EQ(A.GenClasses[I].MutatorIndex,
              B.GenClasses[I].MutatorIndex);
  }
}

TEST(Campaign, GeneratesAndAcceptsClasses) {
  auto R = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr));
  EXPECT_GT(R.numGenerated(), 20u);
  EXPECT_GT(R.numTests(), 5u);
  EXPECT_LE(R.numTests(), R.numGenerated());
  EXPECT_GT(R.successRatePercent(), 0.0);
  EXPECT_LE(R.successRatePercent(), 100.0);
}

TEST(Campaign, TestClassesAreUniqueUnderStBr) {
  auto R = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr));
  std::set<std::pair<size_t, size_t>> Stats;
  for (size_t I : R.TestClassIndices) {
    const GeneratedClass &G = R.GenClasses[I];
    EXPECT_TRUE(G.Representative);
    EXPECT_TRUE(Stats.insert({G.Trace.stmtCount(), G.Trace.branchCount()})
                    .second)
        << "two accepted tests share (stmt, br) statistics";
  }
}

TEST(Campaign, StAcceptsFewerThanStBr) {
  auto St = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzSt, 250));
  auto StBr = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr, 250));
  // [st] collapses everything with the same stmt statistic (§3.2:
  // "classfuzz[stbr] ... produce more representative tests than
  // classfuzz[st]").
  EXPECT_LE(St.numTests(), StBr.numTests());
}

TEST(Campaign, GreedyAcceptsFarFewerThanUniqueness) {
  auto Greedy = runCampaign(smallConfig(FuzzAlgorithm::Greedyfuzz, 250));
  auto Unique = runCampaign(smallConfig(FuzzAlgorithm::Uniquefuzz, 250));
  EXPECT_LT(Greedy.numTests(), Unique.numTests())
      << "greedyfuzz takes a small fraction (98/1432 in the paper)";
}

TEST(Campaign, RandfuzzKeepsEveryProducedMutant) {
  auto R = runCampaign(smallConfig(FuzzAlgorithm::Randfuzz));
  EXPECT_EQ(R.numTests(), R.numGenerated());
  for (const GeneratedClass &G : R.GenClasses)
    EXPECT_TRUE(G.Trace.empty()) << "randfuzz collects no coverage";
}

TEST(Campaign, RandfuzzIsFasterPerClass) {
  // Wall-clock per class of two ~25 ms campaigns: a single pair is at
  // the mercy of host load, so compare each algorithm's best of five
  // pairs, alternating which side of a pair runs first.
  double RandPerClass = 0, DirectedPerClass = 0;
  for (int Pair = 0; Pair != 5; ++Pair) {
    CampaignResult Rand, Directed;
    if (Pair % 2 == 0) {
      Rand = runCampaign(smallConfig(FuzzAlgorithm::Randfuzz, 200));
      Directed = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr, 200));
    } else {
      Directed = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr, 200));
      Rand = runCampaign(smallConfig(FuzzAlgorithm::Randfuzz, 200));
    }
    ASSERT_GT(Rand.numGenerated(), 0u);
    ASSERT_GT(Directed.numGenerated(), 0u);
    double R = Rand.ElapsedSeconds / Rand.numGenerated();
    double D = Directed.ElapsedSeconds / Directed.numGenerated();
    RandPerClass = Pair == 0 ? R : std::min(RandPerClass, R);
    DirectedPerClass = Pair == 0 ? D : std::min(DirectedPerClass, D);
  }
  EXPECT_LT(RandPerClass, DirectedPerClass)
      << "coverage collection dominates directed algorithms (Table 4)";
}

TEST(Campaign, McmcRecordsMutatorStatistics) {
  auto R = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr, 300));
  ASSERT_EQ(R.MutatorSelected.size(), mutatorRegistry().size());
  size_t TotalSelected = 0, TotalSucceeded = 0;
  for (size_t I = 0; I != R.MutatorSelected.size(); ++I) {
    TotalSelected += R.MutatorSelected[I];
    TotalSucceeded += R.MutatorSucceeded[I];
    EXPECT_LE(R.MutatorSucceeded[I], R.MutatorSelected[I]);
  }
  EXPECT_EQ(TotalSelected, R.Iterations);
  EXPECT_EQ(TotalSucceeded, R.numTests());
}

TEST(Campaign, FeedbackAblationMutatesOnlySeeds) {
  // With Algorithm 1's line 14 switched off, accepted mutants never
  // rejoin the pool, so every mutant is one step from its root seed.
  CampaignConfig Config = smallConfig(FuzzAlgorithm::ClassfuzzStBr);
  Config.FeedbackAcceptedMutants = false;
  auto R = runCampaign(Config);
  ASSERT_GT(R.numTests(), 0u);
  for (const GeneratedClass &G : R.GenClasses)
    EXPECT_EQ(G.Prov.Steps.size(), 1u) << G.Name;
}

TEST(Campaign, CorpusClassPathContainsSeedsAndMutants) {
  auto R = runCampaign(smallConfig(FuzzAlgorithm::ClassfuzzStBr, 60));
  ClassPath Corpus = R.corpusClassPath();
  for (const SeedClass &Seed : R.Seeds)
    EXPECT_TRUE(Corpus.has(Seed.Name));
  for (const GeneratedClass &G : R.GenClasses)
    EXPECT_TRUE(Corpus.has(G.Name));
}

TEST(Campaign, UniqueCoverageStatsBoundedByGenerated) {
  auto R = runCampaign(smallConfig(FuzzAlgorithm::Uniquefuzz, 150));
  EXPECT_LE(R.uniqueCoverageStats(), R.numGenerated() + 1);
  EXPECT_GE(R.uniqueCoverageStats(), R.numTests());
}

TEST(Campaign, TimeBudgetModeStopsByWallClock) {
  CampaignConfig Config = smallConfig(FuzzAlgorithm::ClassfuzzStBr);
  Config.Iterations = 10; // Would stop after 10 without a time budget.
  Config.TimeBudgetSeconds = 0.15;
  auto R = runCampaign(Config);
  EXPECT_GT(R.Iterations, 10u)
      << "the time budget overrides the iteration budget";
  EXPECT_GE(R.ElapsedSeconds, 0.15);
  EXPECT_LT(R.ElapsedSeconds, 5.0);
}

TEST(Campaign, CustomGeometricPIsHonored) {
  CampaignConfig Config = smallConfig(FuzzAlgorithm::ClassfuzzStBr, 120);
  Config.GeometricP = 0.2; // Much sharper concentration.
  auto R = runCampaign(Config);
  EXPECT_GT(R.numGenerated(), 0u);
  // A sharp p concentrates selections: the most-selected mutator should
  // clearly exceed the uniform expectation.
  size_t MaxSelected = 0;
  for (size_t N : R.MutatorSelected)
    MaxSelected = std::max(MaxSelected, N);
  EXPECT_GT(MaxSelected, R.Iterations / mutatorRegistry().size() + 2);
}

TEST(Campaign, ExternalSeedsReplaceGeneratedCorpus) {
  CampaignConfig Config = smallConfig(FuzzAlgorithm::ClassfuzzStBr, 60);
  Rng R(55);
  auto Seeds = generateSeedCorpus(R, 3);
  Config.ExternalSeeds = Seeds;
  auto Result = runCampaign(Config);
  ASSERT_EQ(Result.Seeds.size(), 3u);
  for (size_t I = 0; I != 3; ++I)
    EXPECT_EQ(Result.Seeds[I].Name, Seeds[I].Name);
  EXPECT_GT(Result.numGenerated(), 0u);
}

TEST(Campaign, AlgorithmNames) {
  EXPECT_STREQ(fuzzAlgorithmName(FuzzAlgorithm::ClassfuzzStBr),
               "classfuzz[stbr]");
  EXPECT_STREQ(fuzzAlgorithmName(FuzzAlgorithm::Randfuzz), "randfuzz");
  EXPECT_STREQ(fuzzAlgorithmName(FuzzAlgorithm::Greedyfuzz),
               "greedyfuzz");
}
