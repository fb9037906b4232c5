//===- tests/reducer/golden_reduction_test.cpp -----------------------------===//
//
// Behaviour lock for the reducer: one pinned line per reduction, read
// from tests/golden/reductions.jsonl. A line's digest hashes the reduced
// bytes (or the error message) and every ReductionStats field. The
// inputs are the discrepancy TestClasses of a fixed-seed stbr campaign,
// each reduced against the five-profile oracle the CLI uses, plus a
// legacy one-element-at-a-time run and a run whose query budget runs
// out mid-reduction. A refactor that claims "same behaviour" must leave
// every line byte-equal. A synthetic wide class with throws clauses
// covers the levels campaign mutants rarely have. On a mismatch the test prints the line the
// code now produces.
//
//===----------------------------------------------------------------------===//

#include "../TestHelpers.h"
#include "difftest/DiffTest.h"
#include "fuzzing/Campaign.h"
#include "reducer/Reducer.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

using namespace classfuzz;
using namespace classfuzz::testhelpers;

namespace {

uint64_t reductionDigest(const Result<Bytes> &Out, const ReductionStats &S) {
  Hasher H;
  H.addByte(Out.ok() ? 1 : 0);
  if (Out.ok()) {
    H.addU64(Out->size());
    H.addBytes(*Out);
  } else {
    H.addString(Out.error());
  }
  for (size_t V :
       {S.OracleQueries, S.CacheHits, S.CacheMisses, S.DeletionsKept,
        S.ChunkDeletionsKept, S.LargestChunkKept, S.SkippedStructural,
        S.AssemblyFailures, S.MethodsRemoved, S.FieldsRemoved,
        S.StatementsRemoved, S.InterfacesRemoved, S.ThrowsRemoved})
    H.addU64(V);
  H.addByte(S.BudgetExhausted ? 1 : 0);
  return H.value();
}

/// The pinned line for one reduction: the digest plus a few readable
/// counts, so a diff says at a glance how far a reduction moved.
std::string goldenLine(const std::string &Name, size_t InputSize,
                       const Result<Bytes> &Out, const ReductionStats &S) {
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "{\"reduction\":\"%s\",\"input\":%zu,\"reduced\":%zu,"
                "\"queries\":%zu,\"kept\":%zu,\"digest\":\"%016" PRIx64
                "\"}",
                Name.c_str(), InputSize, Out.ok() ? Out->size() : 0,
                S.OracleQueries, S.DeletionsKept, reductionDigest(Out, S));
  return Buf;
}

/// The pinned line whose "reduction" field is \p Name, or "" if absent.
std::string pinnedLine(const std::string &Name) {
  std::ifstream In(std::string(CLASSFUZZ_GOLDEN_DIR) + "/reductions.jsonl");
  const std::string Key = "{\"reduction\":\"" + Name + "\",";
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Key, 0) == 0)
      return Line;
  return "";
}

/// The fixed stbr campaign, its five-profile tester, and the
/// discrepancy-triggering TestClasses in class order.
struct Fixture {
  CampaignResult R;
  DifferentialTester Tester;
  std::vector<size_t> Discrepancies;

  static CampaignConfig config() {
    CampaignConfig Config;
    Config.Algo = FuzzAlgorithm::ClassfuzzStBr;
    Config.Iterations = 400;
    Config.NumSeeds = 16;
    Config.RngSeed = 7;
    return Config;
  }

  Fixture()
      : R(runCampaign(config())),
        Tester(DifferentialTester::withTieredProfiles(
            R.corpusClassPath(), EnvironmentMode::PerJvm,
            config().ReferencePolicy.Tier, /*TierDiff=*/false)) {
    for (size_t I : R.TestClassIndices)
      if (Tester.testClass(R.GenClasses[I].Name).isDiscrepancy())
        Discrepancies.push_back(I);
  }

  /// The name a reduction of GenClasses[I] is pinned under.
  std::string key(const std::string &Label, size_t I) const {
    return Label + "/" + R.GenClasses[I].Name;
  }

  /// Reduces GenClasses[I] under the CLI's oracle (the candidate must
  /// keep the mutant's encoded five-profile outcome) and returns its
  /// golden line.
  std::string reduce(size_t I, const std::string &Label,
                     const ReducerOptions &Opts, ReductionStats &S) const {
    const GeneratedClass &G = R.GenClasses[I];
    const std::string Target = Tester.testClass(G.Name).encodedString();
    ReductionOracle Oracle = [&](const std::string &Name,
                                 const Bytes &Candidate) {
      return Tester.testClass(Name, Candidate).encodedString() == Target;
    };
    auto Out = reduceClassfile(G.Data, Oracle, Opts, &S);
    return goldenLine(key(Label, I), G.Data.size(), Out, S);
  }
};

const Fixture &fixture() {
  static const Fixture F;
  return F;
}

/// Junk fields, noise methods with throws clauses, and the Problem 1
/// trigger (a non-static <clinit> that J9 rejects and HotSpot 8 runs).
ClassFile makeWideDiscrepancyClass() {
  ClassFile CF = makeHelloClass("Wide");
  for (int I = 0; I != 12; ++I) {
    FieldInfo F;
    F.Name = "junk" + std::to_string(I);
    F.Descriptor = I % 2 ? "I" : "J";
    F.AccessFlags = ACC_PUBLIC;
    CF.Fields.push_back(std::move(F));
  }
  for (int I = 0; I != 5; ++I) {
    MethodInfo M;
    M.Name = "noise" + std::to_string(I);
    M.Descriptor = "()V";
    M.AccessFlags = ACC_PUBLIC;
    CodeAttr Code;
    Code.MaxStack = 1;
    Code.MaxLocals = 1;
    Code.Code = {OP_iconst_0, OP_pop, OP_return};
    M.Code = std::move(Code);
    M.Exceptions.push_back("java/lang/Exception");
    CF.Methods.push_back(std::move(M));
  }
  MethodInfo Clinit;
  Clinit.Name = "<clinit>";
  Clinit.Descriptor = "()V";
  Clinit.AccessFlags = ACC_PUBLIC | ACC_ABSTRACT;
  CF.Methods.push_back(std::move(Clinit));
  return CF;
}

bool problem1Persists(const std::string &Name, const Bytes &Data) {
  JvmResult OnHs = runOn(makeHotSpot8Policy(), {{Name, Data}}, Name);
  JvmResult OnJ9 = runOn(makeJ9Policy(), {{Name, Data}}, Name);
  return OnHs.Invoked && !OnJ9.Invoked &&
         OnJ9.Error == JvmErrorKind::ClassFormatError;
}

} // namespace

TEST(GoldenReduction, StbrCampaignDiscrepancies) {
  const Fixture &F = fixture();
  ASSERT_GE(F.Discrepancies.size(), 10u);
  for (size_t I : F.Discrepancies) {
    ReductionStats S;
    const std::string Actual = F.reduce(I, "stbr", ReducerOptions(), S);
    EXPECT_EQ(Actual, pinnedLine(F.key("stbr", I))) << "actual line:\n"
                                                    << Actual;
  }
}

TEST(GoldenReduction, LegacyPerElementScan) {
  const Fixture &F = fixture();
  ASSERT_FALSE(F.Discrepancies.empty());
  ReducerOptions Opts;
  Opts.ChunkedHdd = false;
  ReductionStats S;
  const size_t I = F.Discrepancies.front();
  const std::string Actual = F.reduce(I, "legacy", Opts, S);
  EXPECT_EQ(Actual, pinnedLine(F.key("legacy", I)))
      << "actual line:\n"
      << Actual;
}

TEST(GoldenReduction, BudgetRunsOutMidRun) {
  const Fixture &F = fixture();
  ASSERT_FALSE(F.Discrepancies.empty());
  ReducerOptions Opts;
  Opts.MaxOracleQueries = 12;
  ReductionStats S;
  const size_t I = F.Discrepancies.front();
  const std::string Actual = F.reduce(I, "budget12", Opts, S);
  EXPECT_TRUE(S.BudgetExhausted);
  EXPECT_GT(S.DeletionsKept, 0u) << "the budget must run out mid-run";
  EXPECT_EQ(Actual, pinnedLine(F.key("budget12", I)))
      << "actual line:\n"
      << Actual;
}

TEST(GoldenReduction, WideSyntheticClass) {
  const Bytes Input = serialize(makeWideDiscrepancyClass());
  ASSERT_TRUE(problem1Persists("Wide", Input));
  ReducerOptions Chunked, Legacy, Budget;
  Legacy.ChunkedHdd = false;
  Budget.MaxOracleQueries = 7;
  for (const auto &[Label, Opts] :
       {std::pair<const char *, ReducerOptions>{"wide/chunked", Chunked},
        {"wide/legacy", Legacy},
        {"wide/budget7", Budget}}) {
    ReductionStats S;
    auto Out = reduceClassfile(Input, problem1Persists, Opts, &S);
    const std::string Actual = goldenLine(Label, Input.size(), Out, S);
    EXPECT_EQ(Actual, pinnedLine(Label)) << "actual line:\n" << Actual;
  }
}
