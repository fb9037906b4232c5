//===- tests/difftest/incident_test.cpp ------------------------------------===//
//
// Incident bundles (DESIGN.md §9): a discrepancy's bundle is
// self-contained (the lineage replays to the exact mutant bytes and the
// same differential outcome) and complete (every promised file is
// present, including the flight tail when the recorder is armed).
//
//===----------------------------------------------------------------------===//

#include "difftest/Incident.h"

#include "difftest/DiffTest.h"
#include "fuzzing/Campaign.h"
#include "telemetry/FlightRecorder.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <map>

using namespace classfuzz;
namespace fs = std::filesystem;
namespace tel = classfuzz::telemetry;

namespace {

/// Unique scratch directory, removed on scope exit.
struct TempDir {
  fs::path Path;
  explicit TempDir(const std::string &Tag) {
    Path = fs::temp_directory_path() /
           ("classfuzz_incident_test_" + Tag + "_" +
            std::to_string(::getpid()));
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
};

struct RecorderGuard {
  RecorderGuard() { tel::flightRecorder().disable(); }
  ~RecorderGuard() { tel::flightRecorder().disable(); }
};

Bytes slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  EXPECT_TRUE(In) << P;
  return Bytes((std::istreambuf_iterator<char>(In)),
               std::istreambuf_iterator<char>());
}

CampaignConfig incidentConfig() {
  CampaignConfig Config;
  Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
  Config.Iterations = 250;
  Config.RngSeed = 7;
  Config.NumSeeds = 16;
  return Config;
}

CampaignEnvSpec specFor(const CampaignConfig &Config) {
  CampaignEnvSpec Spec;
  Spec.RngSeed = Config.RngSeed;
  Spec.NumSeeds = Config.NumSeeds;
  Spec.ReferencePolicyName = Config.ReferencePolicy.Name;
  return Spec;
}

/// Differentially tests a campaign's test classes and writes one bundle
/// per discrepancy/VM abort under \p Dir, as cmdFuzz does.
size_t dumpIncidents(const CampaignResult &R, const CampaignEnvSpec &Spec,
                     const std::string &Dir) {
  auto Tester = DifferentialTester::withAllProfiles(
      R.corpusClassPath(), EnvironmentMode::PerJvm);
  size_t Index = 0;
  for (size_t I : R.TestClassIndices) {
    const GeneratedClass &G = R.GenClasses[I];
    DiffOutcome O = Tester.testClass(G.Name);
    if (!O.isDiscrepancy() && !O.anyInternalError())
      continue;
    Incident Inc;
    Inc.MutantName = G.Name;
    Inc.MutantData = G.Data;
    Inc.Outcome = O;
    for (const JvmPolicy &P : Tester.policies())
      Inc.ProfileNames.push_back(P.Name);
    Inc.Prov = G.Prov;
    Inc.Env = Spec;
    auto Bundle = writeIncidentBundle(Dir, Index++, Inc);
    EXPECT_TRUE(Bundle) << (Bundle ? "" : Bundle.error());
  }
  return Index;
}

/// Relative path -> file bytes for every regular file under \p Root.
std::map<std::string, Bytes> treeContents(const fs::path &Root) {
  std::map<std::string, Bytes> Out;
  for (const auto &Entry : fs::recursive_directory_iterator(Root))
    if (Entry.is_regular_file())
      Out[fs::relative(Entry.path(), Root).string()] =
          slurp(Entry.path());
  return Out;
}

} // namespace

TEST(Incident, BundleIsSelfContainedAndReplaysToTheSameOutcome) {
  RecorderGuard Guard;
  TempDir Dir("replay");
  auto Config = incidentConfig();
  auto R = runCampaign(Config);
  size_t N = dumpIncidents(R, specFor(Config), Dir.Path.string());
  ASSERT_GT(N, 0u) << "campaign surfaced no discrepancies; rng choice "
                      "no longer suits this test";

  // Pick the first bundle and replay it from its files alone.
  fs::path Bundle;
  for (const auto &Entry : fs::directory_iterator(Dir.Path))
    if (Bundle.empty() || Entry.path() < Bundle)
      Bundle = Entry.path();
  ASSERT_FALSE(Bundle.empty());
  for (const char *Name :
       {"mutant.class", "lineage.json", "outcomes.json", "replay.sh"})
    EXPECT_TRUE(fs::exists(Bundle / Name)) << Name;

  Bytes Json = slurp(Bundle / "lineage.json");
  auto Parsed = parseLineageJson(std::string(Json.begin(), Json.end()));
  ASSERT_TRUE(Parsed) << Parsed.error();

  auto Seeds = rebuildSeedCorpus(Parsed->Spec);
  ASSERT_TRUE(Seeds) << Seeds.error();
  ASSERT_LT(Parsed->Prov.RootSeedIndex, Seeds->size());
  const SeedClass &Root = (*Seeds)[Parsed->Prov.RootSeedIndex];
  auto Replayed =
      replayLineage(Root.Data, Parsed->Prov.Steps,
                    rebuildKnownClasses(Parsed->Spec, *Seeds));
  ASSERT_TRUE(Replayed) << Replayed.error();
  EXPECT_EQ(Replayed->Data, slurp(Bundle / "mutant.class"));
  EXPECT_EQ(Replayed->ClassName, Parsed->MutantName);

  // Re-running the differential test over the rebuilt environment
  // reproduces the encoded sequence recorded in the bundle.
  ClassPath Extra;
  for (const SeedClass &Seed : *Seeds) {
    Extra.add(Seed.Name, Seed.Data);
    for (const auto &[Name, Data] : Seed.Helpers)
      Extra.add(Name, Data);
  }
  for (const auto &[Name, Data] : Replayed->Ancestors)
    Extra.add(Name, Data);
  Extra.add(Replayed->ClassName, Replayed->Data);
  auto Tester =
      DifferentialTester::withAllProfiles(Extra, EnvironmentMode::PerJvm);
  EXPECT_EQ(Tester.testClass(Replayed->ClassName).encodedString(),
            Parsed->ExpectedEncoded);
}

TEST(Incident, ArmedRecorderPutsAFlightTailInEveryBundle) {
  RecorderGuard Guard;
  TempDir Dir("flighttail");

  auto Config = incidentConfig();
  tel::flightRecorder().enable(256);
  auto R = runCampaign(Config);
  size_t N = dumpIncidents(R, specFor(Config), Dir.Path.string());

  ASSERT_GT(N, 0u);
  size_t Tails = 0;
  for (const auto &[Rel, Data] : treeContents(Dir.Path))
    Tails += Rel.find("flightrec.jsonl") != std::string::npos;
  EXPECT_EQ(Tails, N);
}

TEST(Incident, OutcomesJsonRendersEveryProfileStably) {
  Incident Inc;
  Inc.MutantName = "M1";
  Inc.Outcome.Encoded = {0, 2};
  JvmResult Ok;
  Ok.Invoked = true;
  Ok.Phase = JvmPhase::Completed;
  Ok.Output = {"Completed!"};
  JvmResult Bad;
  Bad.Invoked = false;
  Bad.Phase = JvmPhase::Linking;
  Bad.Error = JvmErrorKind::VerifyError;
  Bad.Message = "stack \"depth\" mismatch";
  Inc.Outcome.Results = {Ok, Bad};
  Inc.ProfileNames = {"A", "B"};

  std::string J = outcomesJson(Inc);
  EXPECT_NE(J.find("\"encoded\": \"02\""), std::string::npos);
  EXPECT_NE(J.find("\"discrepancy\": true"), std::string::npos);
  EXPECT_NE(J.find("\"error\": \"VerifyError\""), std::string::npos);
  EXPECT_NE(J.find("stack \\\"depth\\\" mismatch"), std::string::npos);
  EXPECT_NE(J.find("\"output\": [\"Completed!\"]"), std::string::npos);
  // Stable: equal inputs render byte-identically.
  EXPECT_EQ(J, outcomesJson(Inc));
}

TEST(Incident, InternalErrorWithoutDiscrepancyStillQualifies) {
  DiffOutcome O;
  O.Encoded = {4, 4, 4, 4, 4};
  JvmResult R;
  R.Phase = JvmPhase::Execution;
  R.Error = JvmErrorKind::InternalError;
  O.Results.assign(5, R);
  EXPECT_FALSE(O.isDiscrepancy());
  EXPECT_TRUE(O.anyInternalError());
  O.Results[0].Error = JvmErrorKind::StackOverflowError;
  EXPECT_TRUE(O.anyInternalError()); // Others still aborted.
  for (auto &Res : O.Results)
    Res.Error = JvmErrorKind::StackOverflowError;
  EXPECT_FALSE(O.anyInternalError());
}

TEST(Incident, WriteFailsWithDiagnosticOnUnwritableDirectory) {
  Incident Inc;
  Inc.MutantName = "M";
  Inc.Outcome.Encoded = {0, 1};
  auto R = writeIncidentBundle("/proc/definitely/not/writable", 0, Inc);
  EXPECT_FALSE(R);
}
