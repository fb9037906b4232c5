//===- tests/fuzzing/prefilter_test.cpp ------------------------------------===//
//
// The analyzer-gated pre-filter and the MCMC deep-phase reward
// (DESIGN.md §17): the skip decision and its audit sampling must leave
// the campaign trajectory a pure function of (config, RngSeed) --
// byte-identical across audit fractions -- and the audited skips must
// validate the analyzer's predictions against the reference VM. The
// exact trajectories are pinned by the golden digests
// (golden_trajectory_test.cpp).
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"
#include "mutation/Mutator.h"

#include <gtest/gtest.h>

using namespace classfuzz;

namespace {

CampaignConfig prefilterConfig(FuzzAlgorithm Algo, double Audit = 0.3) {
  CampaignConfig Config;
  Config.Algo = Algo;
  Config.Iterations = 200;
  Config.RngSeed = 17;
  Config.NumSeeds = 10;
  Config.Prefilter = true;
  Config.PrefilterAudit = Audit;
  return Config;
}

} // namespace

TEST(Prefilter, SkipsCandidatesAndCountsAddUp) {
  auto R = runCampaign(prefilterConfig(FuzzAlgorithm::ClassfuzzStBr));
  // A mutation campaign produces plenty of statically dead classes; the
  // filter must actually fire to be worth anything.
  EXPECT_GT(R.PrefilterSkipped, 0u);
  EXPECT_GT(R.PrefilterPassed, 0u);
  EXPECT_EQ(R.PrefilterSkipped + R.PrefilterPassed, R.numGenerated());
  EXPECT_LE(R.PrefilterAudited, R.PrefilterSkipped);
  EXPECT_LE(R.PrefilterMispredicts, R.PrefilterAudited);
  // Skipped mutants commit with no reference execution attached
  // (unless audited, which still leaves the stored record bare so the
  // trajectory cannot depend on the audit fraction).
  for (const GeneratedClass &G : R.GenClasses)
    if (G.RefPhase < 0) {
      EXPECT_FALSE(G.Representative) << G.Name;
    }
}

TEST(Prefilter, FullAuditObservesZeroMispredicts) {
  // --prefilter-audit 1.0 executes every skipped mutant anyway: the
  // analyzer's RejectLoading/RejectLinking verdicts are definite, so
  // the reference VM must agree with every one of them.
  auto Config = prefilterConfig(FuzzAlgorithm::ClassfuzzStBr, 1.0);
  auto R = runCampaign(Config);
  EXPECT_GT(R.PrefilterSkipped, 0u);
  EXPECT_EQ(R.PrefilterAudited, R.PrefilterSkipped);
  EXPECT_EQ(R.PrefilterMispredicts, 0u);
}

TEST(Prefilter, AuditFractionDoesNotPerturbTheTrajectory) {
  // Audited skips run the reference VM for validation only; whether a
  // skip is in the audit sample must not leak into the committed state.
  auto None = runCampaign(prefilterConfig(FuzzAlgorithm::ClassfuzzStBr, 0.0));
  auto Full = runCampaign(prefilterConfig(FuzzAlgorithm::ClassfuzzStBr, 1.0));
  EXPECT_EQ(None.PrefilterAudited, 0u);
  EXPECT_GT(Full.PrefilterAudited, 0u);
  ASSERT_EQ(None.numGenerated(), Full.numGenerated());
  for (size_t I = 0; I != None.GenClasses.size(); ++I) {
    EXPECT_EQ(None.GenClasses[I].Name, Full.GenClasses[I].Name);
    EXPECT_EQ(None.GenClasses[I].Data, Full.GenClasses[I].Data);
    EXPECT_EQ(None.GenClasses[I].Representative,
              Full.GenClasses[I].Representative);
  }
  EXPECT_EQ(None.PrefilterSkipped, Full.PrefilterSkipped);
  EXPECT_EQ(None.PrefilterPassed, Full.PrefilterPassed);
  EXPECT_EQ(None.MutatorSelected, Full.MutatorSelected);
  EXPECT_EQ(None.MutatorSucceeded, Full.MutatorSucceeded);
}

namespace {

CampaignConfig deepRewardConfig() {
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzDdFine;
  Config.Iterations = 200;
  Config.RngSeed = 23;
  Config.NumSeeds = 10;
  Config.TypedMutators = true;
  Config.DeepRewardWeight = 0.5;
  Config.Prefilter = true;
  Config.PrefilterAudit = 0.3;
  return Config;
}

} // namespace

TEST(DeepReward, FoldsDeepestPhasePerMutator) {
  auto R = runCampaign(deepRewardConfig());
  ASSERT_EQ(R.MutatorDeepestPhase.size(), extendedMutatorRegistry().size());
  ASSERT_EQ(R.MutatorDeepHits.size(), extendedMutatorRegistry().size());

  size_t Reached = 0, DeepHits = 0;
  for (size_t I = 0; I != R.MutatorDeepestPhase.size(); ++I) {
    int P = R.MutatorDeepestPhase[I];
    EXPECT_GE(P, -1);
    EXPECT_LE(P, 4);
    Reached += P >= 0;
    DeepHits += R.MutatorDeepHits[I];
    // A mutator with deep hits must have observed a deep (or normal)
    // deepest phase: 0 = completed normally, >= 3 = init/runtime death.
    if (R.MutatorDeepHits[I] > 0) {
      EXPECT_TRUE(P == 0 || P >= 3) << "mutator " << I;
    }
  }
  EXPECT_GT(Reached, 0u);
  EXPECT_GT(DeepHits, 0u) << "no mutant survived loading/linking";
}
