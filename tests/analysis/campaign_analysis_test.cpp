//===- tests/analysis/campaign_analysis_test.cpp ---------------------------===//
//
// The campaign's analysis wiring: one record per produced mutant, the
// mismatch-latching invariant (a disagreement is never swallowed), and
// the self-check oracle holding over a real campaign.
//
//===----------------------------------------------------------------------===//

#include "analysis/StaticAnalyzer.h"
#include "fuzzing/Campaign.h"
#include "jvm/Policy.h"
#include "runtime/RuntimeLib.h"

#include <gtest/gtest.h>

#include <set>

using namespace classfuzz;

namespace {

CampaignConfig analysisConfig(size_t Iterations, uint64_t Seed) {
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
  Config.Iterations = Iterations;
  Config.RngSeed = Seed;
  Config.NumSeeds = 16;
  return Config;
}

} // namespace

TEST(CampaignAnalysis, OneRecordPerProducedMutant) {
  auto R = runCampaign(analysisConfig(120, 3));
  EXPECT_EQ(R.AnalysisRecords.size(), R.numGenerated());
  for (size_t I = 0; I != R.AnalysisRecords.size(); ++I)
    EXPECT_EQ(R.AnalysisRecords[I].GenIndex, I);
}

TEST(CampaignAnalysis, RecordsCarryTheObservedPhase) {
  auto R = runCampaign(analysisConfig(120, 3));
  for (const MutantAnalysisRecord &Rec : R.AnalysisRecords) {
    EXPECT_EQ(Rec.ObservedPhase, R.GenClasses[Rec.GenIndex].RefPhase);
    EXPECT_GE(Rec.ObservedPhase, 0);
    EXPECT_LE(Rec.ObservedPhase, 4);
  }
}

TEST(CampaignAnalysis, MismatchFlagAndSelfChecksAgree) {
  auto R = runCampaign(analysisConfig(150, 5));
  std::set<size_t> Latched;
  for (const SelfCheckReport &SC : R.SelfChecks)
    EXPECT_TRUE(Latched.insert(SC.GenIndex).second)
        << "duplicate self-check for mutant " << SC.GenIndex;
  size_t Flagged = 0;
  for (const MutantAnalysisRecord &Rec : R.AnalysisRecords) {
    if (Rec.Mismatch)
      ++Flagged;
    EXPECT_EQ(Rec.Mismatch, Latched.count(Rec.GenIndex) != 0)
        << "mutant " << Rec.GenIndex
        << ": Mismatch flag and SelfChecks disagree";
  }
  EXPECT_EQ(Flagged, R.SelfChecks.size());
}

TEST(CampaignAnalysis, DisabledAnalysisProducesNoRecords) {
  CampaignConfig Config = analysisConfig(60, 3);
  Config.RunAnalysis = false;
  auto R = runCampaign(Config);
  EXPECT_TRUE(R.AnalysisRecords.empty());
  EXPECT_TRUE(R.SelfChecks.empty());
  EXPECT_GT(R.numGenerated(), 0u);
}

TEST(CampaignAnalysis, AnalysisIsObservationOnly) {
  // Same campaign with and without the analyzer: the committed
  // trajectory (classes, bytes, acceptance) must be untouched.
  CampaignConfig With = analysisConfig(100, 9);
  CampaignConfig Without = analysisConfig(100, 9);
  Without.RunAnalysis = false;
  auto A = runCampaign(With);
  auto B = runCampaign(Without);
  ASSERT_EQ(A.numGenerated(), B.numGenerated());
  for (size_t I = 0; I != A.GenClasses.size(); ++I) {
    EXPECT_EQ(A.GenClasses[I].Name, B.GenClasses[I].Name);
    EXPECT_EQ(A.GenClasses[I].Data, B.GenClasses[I].Data);
    EXPECT_EQ(A.GenClasses[I].Representative, B.GenClasses[I].Representative);
  }
  EXPECT_EQ(A.TestClassIndices, B.TestClassIndices);
}

TEST(CampaignAnalysis, ReanalysisReproducesJsonBytes) {
  // Re-running the analyzer over a campaign's mutants, in commit order,
  // from a fresh instance must reproduce byte-identical reports -- the
  // property `classfuzz analyze` output and CI goldens rely on.
  auto R = runCampaign(analysisConfig(100, 13));
  ASSERT_FALSE(R.GenClasses.empty());

  auto Replay = [&] {
    ClassPath Env = runtimeLibraryFor(referenceJvmPolicy());
    for (const SeedClass &S : R.Seeds) {
      Env.add(S.Name, S.Data);
      for (const auto &[Name, Data] : S.Helpers)
        Env.add(Name, Data);
    }
    Env.freeze();
    StaticAnalyzer A(Env, referenceJvmPolicy());
    std::string Json;
    for (const GeneratedClass &G : R.GenClasses) {
      Json += A.analyzeClass(G.Name, G.Data).toJson();
      Json += '\n';
      if (G.Representative)
        A.addEnvironmentClass(G.Name, G.Data);
    }
    return Json;
  };
  std::string First = Replay();
  std::string Second = Replay();
  EXPECT_FALSE(First.empty());
  EXPECT_EQ(First, Second);
}

// The acceptance-level oracle: a real campaign of 500+ produced mutants
// where the analyzer's prediction holds on every one (no latched
// mismatches). The seed/iteration choice is the empirically validated
// configuration; a regression in either the analyzer or the VM pipeline
// shows up here as a latched self-check with the full report attached.
TEST(CampaignAnalysis, SelfCheckOracleHoldsOverLargeCampaign) {
  CampaignConfig Config = analysisConfig(800, 7);
  Config.NumSeeds = 24;
  auto R = runCampaign(Config);
  EXPECT_GE(R.AnalysisRecords.size(), 500u);
  for (const SelfCheckReport &SC : R.SelfChecks)
    ADD_FAILURE() << "self-check mismatch on mutant " << SC.GenIndex
                  << " (observed phase " << SC.ObservedPhase
                  << "): " << SC.Report.toJson();
  EXPECT_TRUE(R.SelfChecks.empty());
}
