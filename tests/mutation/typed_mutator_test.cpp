//===- tests/mutation/typed_mutator_test.cpp -------------------------------===//
//
// The analyzer-driven typed mutator family (DESIGN.md §17): registry
// layout (the paper's 129 indices are untouched), the strict RNG-draw
// discipline (no holes => no draws), and byte-for-byte provenance
// replay of campaigns that ran with --typed-mutators.
//
//===----------------------------------------------------------------------===//

#include "../TestHelpers.h"
#include "analysis/StaticAnalyzer.h"
#include "fuzzing/Campaign.h"
#include "fuzzing/Provenance.h"
#include "mutation/Engine.h"
#include "mutation/Mutator.h"

#include <gtest/gtest.h>

#include <optional>

using namespace classfuzz;
using namespace classfuzz::testhelpers;

namespace {

/// Indices of the typed family in extendedMutatorRegistry().
std::vector<size_t> typedIndices() {
  std::vector<size_t> Out;
  for (size_t I = NumMutators; I != NumMutators + NumTypedMutators; ++I)
    Out.push_back(I);
  return Out;
}

CampaignConfig typedConfig() {
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
  Config.Iterations = 300;
  Config.RngSeed = 7;
  Config.NumSeeds = 8;
  Config.TypedMutators = true;
  return Config;
}

/// The hole provider replay needs: an analyzer over the campaign's
/// frozen base environment (reference runtime library + seed corpus),
/// exactly as runCampaign builds it.
struct ReplayHoleEnv {
  ClassPath Env;
  std::optional<StaticAnalyzer> Analyzer;

  explicit ReplayHoleEnv(const CampaignConfig &Config,
                         const std::vector<SeedClass> &Seeds) {
    Env = runtimeLibraryFor(Config.ReferencePolicy);
    for (const SeedClass &Seed : Seeds) {
      Env.add(Seed.Name, Seed.Data);
      for (const auto &[Name, Data] : Seed.Helpers)
        Env.add(Name, Data);
    }
    Env.freeze();
    Analyzer.emplace(Env, Config.ReferencePolicy);
  }

  HoleProviderFn provider() {
    return [this](const Bytes &Data) {
      return Analyzer->typedHolesFor("", Data);
    };
  }
};

} // namespace

TEST(TypedMutators, ExtendedRegistrySharesThePaperPrefix) {
  const auto &Base = mutatorRegistry();
  const auto &Ext = extendedMutatorRegistry();
  ASSERT_EQ(Base.size(), NumMutators);
  ASSERT_EQ(Ext.size(), NumMutators + NumTypedMutators);
  // Provenance records index into the registry, so the first 129
  // entries must be the same operators in the same order.
  for (size_t I = 0; I != NumMutators; ++I) {
    EXPECT_EQ(Ext[I].Id, Base[I].Id) << "index " << I;
    EXPECT_EQ(Ext[I].Category, Base[I].Category) << "index " << I;
  }
  for (size_t I : typedIndices()) {
    EXPECT_EQ(Ext[I].Id.compare(0, 6, "typed."), 0) << Ext[I].Id;
    EXPECT_FALSE(Ext[I].Description.empty());
  }
}

TEST(TypedMutators, NoHolesMeansInapplicableAndZeroDraws) {
  // The draw discipline: a typed mutator whose hole list is absent (or
  // offers no matching site) must not touch the RNG at all, so an
  // inapplicable typed draw leaves the campaign's Rng stream untouched.
  Bytes Seed = serialize(makeHelloClass("Probe"));
  std::vector<std::string> Known = buildRuntimeLibrary("jre8").names();
  for (size_t I : typedIndices()) {
    Rng R(42);
    MutationContext Ctx{R, Known}; // Holes defaults to nullptr.
    RngState Before = R.state();
    auto Out = mutateClass(Seed, I, Ctx);
    EXPECT_FALSE(Out.Produced) << extendedMutatorRegistry()[I].Id;
    EXPECT_EQ(Out.Result, MutationResult::Inapplicable);
    EXPECT_EQ(R.state(), Before)
        << extendedMutatorRegistry()[I].Id << " drew from the RNG";

    TypedHoleList Empty;
    MutationContext EmptyCtx{R, Known, &Empty};
    Before = R.state();
    auto Out2 = mutateClass(Seed, I, EmptyCtx);
    EXPECT_EQ(Out2.Result, MutationResult::Inapplicable);
    EXPECT_EQ(R.state(), Before)
        << extendedMutatorRegistry()[I].Id << " drew on an empty hole list";
  }
}

TEST(TypedMutators, ApplicationIsAFunctionOfRngStateAndHoles) {
  // Byte-for-byte replay discipline at the single-mutation level:
  // restoring the RNG snapshot and presenting the same hole list must
  // reproduce the mutant exactly.
  ClassPath Env = makeEnv();
  StaticAnalyzer Analyzer(Env, referenceJvmPolicy());
  Bytes Seed = serialize(makeHelloClass("Probe"));
  TypedHoleList Holes = Analyzer.typedHolesFor("Probe", Seed);
  ASSERT_FALSE(Holes.empty());
  std::vector<std::string> Known = Env.names();

  size_t Produced = 0;
  for (size_t I : typedIndices()) {
    Rng R(99 + I);
    MutationContext Ctx{R, Known, &Holes};
    RngState Before = R.state();
    auto First = mutateClass(Seed, I, Ctx);
    if (!First.Produced)
      continue;
    ++Produced;
    R.restore(Before);
    auto Second = mutateClass(Seed, I, Ctx);
    ASSERT_TRUE(Second.Produced) << extendedMutatorRegistry()[I].Id;
    EXPECT_EQ(Second.ClassName, First.ClassName);
    EXPECT_EQ(Second.Data, First.Data) << extendedMutatorRegistry()[I].Id;
  }
  // The hello class offers sibling and descriptor sites at minimum.
  EXPECT_GE(Produced, 2u) << "hole list applied to too few typed mutators";
}

TEST(TypedMutators, CampaignLineagesReplayByteForByte) {
  auto Config = typedConfig();
  auto R = runCampaign(Config);
  ASSERT_GT(R.numGenerated(), 0u);

  CampaignEnvSpec Spec;
  Spec.RngSeed = Config.RngSeed;
  Spec.NumSeeds = Config.NumSeeds;
  Spec.ReferencePolicyName = Config.ReferencePolicy.Name;
  Spec.TierName = "threaded";
  auto Known = rebuildKnownClasses(Spec, R.Seeds);
  ReplayHoleEnv HoleEnv(Config, R.Seeds);
  HoleProviderFn Provider = HoleEnv.provider();

  size_t TypedSteps = 0;
  for (const GeneratedClass &G : R.GenClasses) {
    for (const LineageStep &S : G.Prov.Steps)
      TypedSteps += S.MutatorIndex >= NumMutators;
    const SeedClass &Root = R.Seeds[G.Prov.RootSeedIndex];
    auto Replayed = replayLineage(Root.Data, G.Prov.Steps, Known, Provider);
    ASSERT_TRUE(Replayed) << G.Name << ": " << Replayed.error();
    EXPECT_EQ(Replayed->ClassName, G.Name);
    EXPECT_EQ(Replayed->Data, G.Data) << G.Name;
  }
  // The campaign must actually have exercised the typed family, or the
  // provider path above went untested.
  EXPECT_GT(TypedSteps, 0u) << "no typed.* step in any lineage";
}
