//===- tests/fuzzing/golden_trajectory_test.cpp ----------------------------===//
//
// Behaviour lock: one pinned digest per fixed-seed campaign, read from
// tests/golden/trajectories.jsonl. A digest hashes every committed
// GeneratedClass (name, bytes, acceptance flag, reference phase, δ and
// tier encodings, provenance chain) and the result census (TestClasses,
// δ/tier outcome counts, pre-filter and scheduler accounting, analyzer
// records, per-mutator vectors). A refactor that claims "same
// behaviour" must leave every line byte-equal; on a mismatch the test
// prints the line the code now produces.
//
//===----------------------------------------------------------------------===//

#include "fuzzing/Campaign.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

using namespace classfuzz;

namespace {

struct GoldenCase {
  const char *Criterion; ///< stbr | tr | dd-fine
  const char *Variant;   ///< plain | tierdiff | prefilter | ...
};

FuzzAlgorithm algoOf(const std::string &Criterion) {
  if (Criterion == "tr")
    return FuzzAlgorithm::ClassfuzzTr;
  if (Criterion == "dd-fine")
    return FuzzAlgorithm::ClassfuzzDdFine;
  return FuzzAlgorithm::ClassfuzzStBr;
}

CampaignConfig goldenConfig(const GoldenCase &C) {
  CampaignConfig Config;
  Config.Algo = algoOf(C.Criterion);
  Config.Iterations = 400;
  Config.NumSeeds = 16;
  Config.RngSeed = 7;
  const std::string V = C.Variant;
  if (V == "tierdiff") {
    Config.TierDiff = true;
  } else if (V == "prefilter") {
    Config.Prefilter = true;
    Config.PrefilterAudit = 0.25;
  } else if (V == "typed-deep") {
    Config.TypedMutators = true;
    Config.DeepRewardWeight = 0.5;
  } else if (V == "sched-rare") {
    Config.SeedSched = SeedSchedPolicy::Rare;
  } else if (V == "sched-cluster") {
    Config.SeedSched = SeedSchedPolicy::Cluster;
  } else if (V == "corpus4") {
    Config.NumSeeds = 16 * 4;
  }
  return Config;
}

template <typename T> void addCounts(Hasher &H, const std::vector<T> &V) {
  H.addU64(V.size());
  for (const T &X : V)
    H.addU64(static_cast<uint64_t>(X));
}

void addMap(Hasher &H, const std::map<std::string, size_t> &M) {
  H.addU64(M.size());
  for (const auto &[Key, Count] : M) {
    H.addString(Key);
    H.addU64(Count);
  }
}

uint64_t trajectoryDigest(const CampaignResult &R) {
  Hasher H;
  H.addU64(R.Iterations);
  H.addU64(R.GenClasses.size());
  for (const GeneratedClass &G : R.GenClasses) {
    H.addString(G.Name);
    H.addU64(G.Data.size());
    H.addBytes(G.Data);
    H.addU64(G.MutatorIndex);
    H.addByte(G.Representative ? 1 : 0);
    H.addU64(static_cast<uint64_t>(static_cast<int64_t>(G.RefPhase)));
    H.addString(G.DdEncoded);
    H.addString(G.TierEncoded);
    H.addU64(G.Prov.RootSeedIndex);
    H.addString(G.Prov.RootSeedName);
    H.addU64(G.Prov.Steps.size());
    for (const LineageStep &S : G.Prov.Steps) {
      H.addU64(S.MutatorIndex);
      for (uint64_t W : S.RngBefore.Words)
        H.addU64(W);
      H.addU64(S.RngBefore.Draws);
      H.addU64(S.Draws);
    }
  }
  addCounts(H, R.TestClassIndices);
  addMap(H, R.DdOutcomeCounts);
  H.addU64(R.DdDiscrepancies);
  addMap(H, R.TierOutcomeCounts);
  H.addU64(R.TierDisagreements);
  H.addU64(R.PrefilterSkipped);
  H.addU64(R.PrefilterPassed);
  H.addU64(R.PrefilterAudited);
  H.addU64(R.PrefilterMispredicts);
  H.addU64(R.SchedDraws);
  H.addU64(R.SchedRareDraws);
  H.addU64(R.SchedEpochs);
  H.addU64(R.AnalysisRecords.size());
  for (const MutantAnalysisRecord &A : R.AnalysisRecords) {
    H.addU64(A.GenIndex);
    H.addU64(static_cast<uint64_t>(A.Outcome));
    H.addU64(static_cast<uint64_t>(static_cast<int64_t>(A.ObservedPhase)));
    H.addU64(A.Findings);
    H.addByte(A.Mismatch ? 1 : 0);
  }
  H.addU64(R.SelfChecks.size());
  for (const SelfCheckReport &S : R.SelfChecks) {
    H.addU64(S.GenIndex);
    H.addU64(static_cast<uint64_t>(static_cast<int64_t>(S.ObservedPhase)));
  }
  addCounts(H, R.MutatorSelected);
  addCounts(H, R.MutatorSucceeded);
  addCounts(H, R.MutatorInapplicable);
  addCounts(H, R.MutatorNoChange);
  addCounts(H, R.MutatorDeepestPhase);
  addCounts(H, R.MutatorDeepHits);
  return H.value();
}

std::string caseName(const GoldenCase &C) {
  return std::string(C.Criterion) + "/" + C.Variant;
}

/// The pinned line for one campaign: the digest plus a few readable
/// counts, so a diff says at a glance how far a trajectory moved.
std::string goldenLine(const GoldenCase &C, const CampaignResult &R) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"campaign\":\"%s\",\"iterations\":%zu,\"generated\":%zu,"
                "\"tests\":%zu,\"digest\":\"%016" PRIx64 "\"}",
                caseName(C).c_str(), R.Iterations, R.numGenerated(),
                R.numTests(), trajectoryDigest(R));
  return Buf;
}

/// The pinned line whose "campaign" field is \p Name, or "" if absent.
std::string pinnedLine(const std::string &Name) {
  std::ifstream In(std::string(CLASSFUZZ_GOLDEN_DIR) + "/trajectories.jsonl");
  const std::string Key = "{\"campaign\":\"" + Name + "\",";
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0)
      return Line;
  return "";
}

/// Prints a case as its campaign name, so test listings stay stable.
void PrintTo(const GoldenCase &C, std::ostream *OS) { *OS << caseName(C); }

class GoldenTrajectory : public ::testing::TestWithParam<GoldenCase> {};

} // namespace

TEST_P(GoldenTrajectory, MatchesPinnedDigest) {
  const GoldenCase &C = GetParam();
  const std::string Actual = goldenLine(C, runCampaign(goldenConfig(C)));
  EXPECT_EQ(Actual, pinnedLine(caseName(C))) << "actual line:\n" << Actual;
}

INSTANTIATE_TEST_SUITE_P(
    Campaigns, GoldenTrajectory,
    ::testing::Values(
        GoldenCase{"stbr", "plain"}, GoldenCase{"stbr", "tierdiff"},
        GoldenCase{"stbr", "prefilter"}, GoldenCase{"stbr", "typed-deep"},
        GoldenCase{"stbr", "sched-rare"},
        GoldenCase{"stbr", "sched-cluster"}, GoldenCase{"stbr", "corpus4"},
        GoldenCase{"tr", "plain"}, GoldenCase{"tr", "tierdiff"},
        GoldenCase{"tr", "prefilter"}, GoldenCase{"tr", "typed-deep"},
        GoldenCase{"tr", "sched-rare"}, GoldenCase{"tr", "sched-cluster"},
        GoldenCase{"tr", "corpus4"}, GoldenCase{"dd-fine", "plain"},
        GoldenCase{"dd-fine", "tierdiff"},
        GoldenCase{"dd-fine", "prefilter"},
        GoldenCase{"dd-fine", "typed-deep"},
        GoldenCase{"dd-fine", "sched-rare"},
        GoldenCase{"dd-fine", "sched-cluster"},
        GoldenCase{"dd-fine", "corpus4"}),
    [](const ::testing::TestParamInfo<GoldenCase> &Info) {
      std::string Name = caseName(Info.param);
      for (char &Ch : Name)
        if (Ch == '/' || Ch == '-')
          Ch = '_';
      return Name;
    });
