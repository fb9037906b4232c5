//===- tests/fuzzing/provenance_test.cpp -----------------------------------===//
//
// Mutation provenance and deterministic replay (DESIGN.md §9): every
// campaign mutant's lineage re-derives its exact bytes offline, and
// lineage.json round-trips through the parser.
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Provenance.h"

#include "fuzzing/Campaign.h"

#include <gtest/gtest.h>

using namespace classfuzz;

namespace {

CampaignConfig smallConfig() {
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
  Config.Iterations = 150;
  Config.RngSeed = 31;
  Config.NumSeeds = 12;
  return Config;
}

CampaignEnvSpec specFor(const CampaignConfig &Config) {
  CampaignEnvSpec Spec;
  Spec.RngSeed = Config.RngSeed;
  Spec.NumSeeds = Config.NumSeeds;
  Spec.ReferencePolicyName = Config.ReferencePolicy.Name;
  Spec.TierName = "threaded";
  Spec.TierDiff = Config.TierDiff;
  return Spec;
}

} // namespace

TEST(Provenance, EveryGeneratedMutantCarriesAReplayableLineage) {
  auto Config = smallConfig();
  auto R = runCampaign(Config);
  ASSERT_GT(R.numGenerated(), 0u);

  auto Known = rebuildKnownClasses(specFor(Config), R.Seeds);
  size_t MultiStep = 0;
  for (const GeneratedClass &G : R.GenClasses) {
    ASSERT_FALSE(G.Prov.Steps.empty()) << G.Name;
    ASSERT_LT(G.Prov.RootSeedIndex, R.Seeds.size());
    const SeedClass &Root = R.Seeds[G.Prov.RootSeedIndex];
    EXPECT_EQ(Root.Name, G.Prov.RootSeedName);
    MultiStep += G.Prov.Steps.size() > 1;

    auto Replayed = replayLineage(Root.Data, G.Prov.Steps, Known);
    ASSERT_TRUE(Replayed) << G.Name << ": " << Replayed.error();
    EXPECT_EQ(Replayed->ClassName, G.Name);
    EXPECT_EQ(Replayed->Data, G.Data) << G.Name;
    EXPECT_EQ(Replayed->Ancestors.size(), G.Prov.Steps.size() - 1);
  }
  // The feedback loop must have bred at least one multi-generation
  // mutant, or the ancestor-replay path went untested.
  EXPECT_GT(MultiStep, 0u) << "config too small to breed descendants";
}

TEST(Provenance, RebuiltSeedCorpusMatchesTheCampaigns) {
  auto Config = smallConfig();
  auto R = runCampaign(Config);
  auto Seeds = rebuildSeedCorpus(specFor(Config));
  ASSERT_TRUE(Seeds) << Seeds.error();
  ASSERT_EQ(Seeds->size(), R.Seeds.size());
  for (size_t I = 0; I != Seeds->size(); ++I) {
    EXPECT_EQ((*Seeds)[I].Name, R.Seeds[I].Name);
    EXPECT_EQ((*Seeds)[I].Data, R.Seeds[I].Data);
  }
}

TEST(Provenance, LineageJsonRoundTrips) {
  auto Config = smallConfig();
  auto R = runCampaign(Config);
  ASSERT_GT(R.numGenerated(), 0u);
  // Pick the deepest lineage for a meaningful round-trip.
  const GeneratedClass *Deepest = &R.GenClasses[0];
  for (const GeneratedClass &G : R.GenClasses)
    if (G.Prov.Steps.size() > Deepest->Prov.Steps.size())
      Deepest = &G;

  CampaignEnvSpec Spec = specFor(Config);
  std::string Json =
      lineageJson(Deepest->Prov, Spec, Deepest->Name, "00012");
  auto Parsed = parseLineageJson(Json);
  ASSERT_TRUE(Parsed) << Parsed.error();
  EXPECT_EQ(Parsed->Prov, Deepest->Prov);
  EXPECT_EQ(Parsed->MutantName, Deepest->Name);
  EXPECT_EQ(Parsed->ExpectedEncoded, "00012");
  EXPECT_EQ(Parsed->Spec.RngSeed, Spec.RngSeed);
  EXPECT_EQ(Parsed->Spec.NumSeeds, Spec.NumSeeds);
  EXPECT_EQ(Parsed->Spec.SeedDir, Spec.SeedDir);
  EXPECT_EQ(Parsed->Spec.ReferencePolicyName, Spec.ReferencePolicyName);
  EXPECT_EQ(Parsed->Spec.TierName, Spec.TierName);
  EXPECT_EQ(Parsed->Spec.TierDiff, Spec.TierDiff);
  // Serialization is stable: re-serializing the parse is byte-identical.
  EXPECT_EQ(lineageJson(Parsed->Prov, Parsed->Spec, Parsed->MutantName,
                        Parsed->ExpectedEncoded),
            Json);
}

TEST(Provenance, ParserRejectsMalformedLineage) {
  EXPECT_FALSE(parseLineageJson(""));
  EXPECT_FALSE(parseLineageJson("[]"));
  EXPECT_FALSE(parseLineageJson("{\"version\": 1}"));
  EXPECT_FALSE(parseLineageJson(
      "{\"env\": {}, \"root_seed\": {}, \"steps\": []}"));
  EXPECT_FALSE(parseLineageJson(
      "{\"env\": {}, \"root_seed\": {}, "
      "\"steps\": [{\"mutator\": 1, \"rng\": [\"0x1\"]}]}"));
  // Unknown keys are tolerated; a well-formed minimal document parses.
  auto Ok = parseLineageJson(
      "{\"future_field\": null, \"env\": {\"rng_seed\": \"0x2a\"}, "
      "\"root_seed\": {\"index\": 3, \"name\": \"S\"}, "
      "\"steps\": [{\"mutator\": 7, \"draws\": 2, "
      "\"rng\": [\"0x1\", \"0x2\", \"0x3\", \"0x4\", \"0x5\"]}]}");
  ASSERT_TRUE(Ok) << Ok.error();
  EXPECT_EQ(Ok->Spec.RngSeed, 42u);
  // Pre-tier documents parse with the tier defaults (replay warns and
  // runs on threaded).
  EXPECT_TRUE(Ok->Spec.TierName.empty());
  EXPECT_FALSE(Ok->Spec.TierDiff);
  EXPECT_EQ(Ok->Prov.RootSeedIndex, 3u);
  EXPECT_EQ(Ok->Prov.Steps[0].RngBefore.Words[3], 4u);
  EXPECT_EQ(Ok->Prov.Steps[0].RngBefore.Draws, 5u);
}

TEST(Provenance, ReplayFailsCleanlyOnEnvironmentMismatch) {
  auto Config = smallConfig();
  auto R = runCampaign(Config);
  ASSERT_GT(R.numGenerated(), 0u);
  const GeneratedClass &G = R.GenClasses[0];
  const SeedClass &Root = R.Seeds[G.Prov.RootSeedIndex];

  // Out-of-range mutator index: diagnostic, not UB.
  auto Steps = G.Prov.Steps;
  Steps[0].MutatorIndex = 1u << 20;
  auto Known = rebuildKnownClasses(specFor(Config), R.Seeds);
  EXPECT_FALSE(replayLineage(Root.Data, Steps, Known));
  // Empty chain is rejected.
  EXPECT_FALSE(replayLineage(Root.Data, {}, Known));
}
