//===- tests/jvm/exec_tiers_test.cpp ---------------------------------------===//
//
// The ExecEngine tier contract (DESIGN.md §13): for any (policy,
// environment, class) the threaded and baseline tiers produce the
// JvmResult, abort phase/kind, and coverage traces pinned for that input,
// and identical full traces; the step budget is charged uniformly; the
// baseline code cache compiles each method once.
//
// Each input the suite runs has a pinned line in
// tests/golden/exec_tiers.jsonl, captured from an independent third
// interpreter (a per-invoke-decoding switch loop, since deleted): a
// digest of the input bytes, of the observable result, the
// statement/branch counts and a digest of the execution layer's own
// trace ids (the named exec_probes sites and the per-opcode dispatch
// ids). Other probe ids are (file << 16) | __LINE__ and move whenever a
// source line does, so they are not hashed. On a mismatch the test
// prints the line the code now produces.
//
//===----------------------------------------------------------------------===//

#include "../../bench/InvokeHeavyClass.h"
#include "../TestHelpers.h"
#include "coverage/Tracefile.h"
#include "jvm/ExecEngine.h"
#include "jvm/ExecProbes.h"
#include "jvm/Phase.h"
#include "mutation/Engine.h"
#include "runtime/SeedCorpus.h"
#include "support/Hashing.h"
#include "support/Rng.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>

using namespace classfuzz;
using namespace classfuzz::testhelpers;

namespace {

constexpr ExecTier AllTiers[] = {ExecTier::Threaded, ExecTier::Baseline};

/// One run's observable surface: the full JvmResult plus the coverage
/// trace. Everything the campaign, the acceptance criteria, and the
/// differential encodings can see.
struct TierObservation {
  JvmResult R;
  Tracefile Trace;
};

TierObservation runOnTier(const JvmPolicy &Base, ExecTier Tier,
                          const ClassPath &Env, const std::string &Name) {
  JvmPolicy P = Base;
  P.Tier = Tier;
  P.JitTelemetry = false;
  TierObservation Obs;
  CoverageRecorder Rec;
  Vm Jvm(P, Env, &Rec);
  Obs.R = Jvm.run(Name);
  Obs.Trace = Rec.takeTrace();
  return Obs;
}

/// True for the execution layer's line-independent probe ids: the
/// named sites and the per-opcode dispatch ids of jvm/ExecProbes.h.
bool isExecLayerId(uint32_t Id) {
  if (Id >> 16 != exec_probes::InterpFileId)
    return false;
  uint32_t Site = Id & 0xFFFFu;
  return (Site >= 0x4000u && Site <= 0x40FFu) || (Site & 0x8000u) != 0;
}

uint64_t resultDigest(const JvmResult &R) {
  Hasher H;
  H.addByte(R.Invoked ? 1 : 0);
  H.addU64(static_cast<uint64_t>(static_cast<int64_t>(R.Phase)));
  H.addU64(static_cast<uint64_t>(R.Error));
  H.addU64(R.Output.size());
  for (const std::string &Line : R.Output)
    H.addString(Line);
  H.addU64(static_cast<uint64_t>(static_cast<int64_t>(encodePhase(R))));
  return H.value();
}

uint64_t execTraceDigest(const Tracefile &T) {
  Hasher H;
  for (uint32_t Id : T.stmts())
    if (isExecLayerId(Id))
      H.addU32(Id);
  H.addByte(0xFF);
  for (uint32_t Id : T.branches())
    if (isExecLayerId(Id >> 1))
      H.addU32(Id);
  return H.value();
}

uint64_t inputDigest(const SeedClass &Seed) {
  Hasher H;
  H.addBytes(Seed.Data);
  for (const auto &[Name, Data] : Seed.Helpers) {
    H.addString(Name);
    H.addBytes(Data);
  }
  return H.value();
}

/// The leading part of an input's line: its key and input digest.
std::string linePrefix(const std::string &Key, uint64_t InputDigest) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "{\"input\":\"%s\",\"bytes\":\"%016" PRIx64
                "\",",
                Key.c_str(), InputDigest);
  return Buf;
}

std::string goldenLine(const std::string &Key, uint64_t InputDigest,
                       const TierObservation &Obs) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "\"result\":\"%016" PRIx64 "\",\"stmts\":%zu,"
                "\"branches\":%zu,\"exec\":\"%016" PRIx64 "\"}",
                resultDigest(Obs.R), Obs.Trace.stmtCount(),
                Obs.Trace.branchCount(), execTraceDigest(Obs.Trace));
  return linePrefix(Key, InputDigest) + Buf;
}

/// The pinned line whose "input" field is \p Key, or "" if absent.
std::string pinnedLine(const std::string &Key) {
  std::ifstream In(std::string(CLASSFUZZ_GOLDEN_DIR) + "/exec_tiers.jsonl");
  const std::string Prefix = "{\"input\":\"" + Key + "\",";
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Prefix, 0) == 0)
      return Line;
  return "";
}

/// Asserts \p Obs matches the pinned line of \p Key; says so when the
/// input itself changed rather than the tier's behaviour.
void expectPinned(const std::string &Key, uint64_t InputDigest,
                  const TierObservation &Obs, ExecTier Tier) {
  const std::string Pinned = pinnedLine(Key);
  const std::string Actual = goldenLine(Key, InputDigest, Obs);
  const bool InputChanged =
      !Pinned.empty() && Pinned.rfind(linePrefix(Key, InputDigest), 0) != 0;
  EXPECT_EQ(Actual, Pinned)
      << Key << " on " << execTierName(Tier)
      << (InputChanged ? " (the input bytes changed)" : "")
      << "; actual line:\n"
      << Actual << "\n";
}

/// Asserts both tiers observed the pinned world for \p Key when running
/// \p Name, and the same full coverage trace.
void expectTierEquivalence(const JvmPolicy &Base, const ClassPath &Env,
                           const std::string &Name, const std::string &Key,
                           uint64_t InputDigest) {
  TierObservation Threaded = runOnTier(Base, ExecTier::Threaded, Env, Name);
  TierObservation Baseline = runOnTier(Base, ExecTier::Baseline, Env, Name);
  expectPinned(Key, InputDigest, Threaded, ExecTier::Threaded);
  expectPinned(Key, InputDigest, Baseline, ExecTier::Baseline);
  EXPECT_TRUE(Baseline.Trace.sameSets(Threaded.Trace))
      << Name << ": baseline trace differs from threaded ("
      << Baseline.Trace.stmtCount() << "/" << Baseline.Trace.branchCount()
      << " vs " << Threaded.Trace.stmtCount() << "/"
      << Threaded.Trace.branchCount() << ")";
}

ClassPath corpusEnv(const JvmPolicy &Policy,
                    const std::vector<SeedClass> &Seeds) {
  ClassPath Env = runtimeLibraryFor(Policy);
  for (const SeedClass &Seed : Seeds) {
    Env.add(Seed.Name, Seed.Data);
    for (const auto &[Name, Data] : Seed.Helpers)
      Env.add(Name, Data);
  }
  return Env;
}

} // namespace

TEST(ExecTiers, NamesRoundTripThroughParse) {
  for (ExecTier Tier : AllTiers) {
    auto Parsed = parseExecTier(execTierName(Tier));
    ASSERT_TRUE(Parsed.has_value()) << execTierName(Tier);
    EXPECT_EQ(*Parsed, Tier);
  }
  EXPECT_FALSE(parseExecTier("switch").has_value());
  EXPECT_FALSE(parseExecTier("jit").has_value());
  EXPECT_FALSE(parseExecTier("").has_value());
}

// The tier contract over a generated seed corpus: every seed produces
// the pinned result, abort phase/kind, and coverage trace on both tiers.
TEST(ExecTiers, SeedCorpusIsEquivalentAcrossTiers) {
  JvmPolicy Policy = referenceJvmPolicy();
  Rng R(11);
  auto Seeds = generateSeedCorpus(R, 128);
  ClassPath Env = corpusEnv(Policy, Seeds);
  for (size_t I = 0; I < Seeds.size(); ++I) {
    char Key[32];
    std::snprintf(Key, sizeof(Key), "seed/%03zu", I);
    expectTierEquivalence(Policy, Env, Seeds[I].Name, Key,
                          inputDigest(Seeds[I]));
  }
}

// The same contract over mutated (frequently hostile) classfiles: abort
// paths through loading/linking/verification and runtime exceptions
// must also agree tier-to-tier.
TEST(ExecTiers, MutatedCorpusIsEquivalentAcrossTiers) {
  JvmPolicy Policy = referenceJvmPolicy();
  Rng R(12);
  auto Seeds = generateSeedCorpus(R, 16);
  ClassPath Base = corpusEnv(Policy, Seeds);
  std::vector<std::string> Known = Base.names();
  size_t Produced = 0;
  for (size_t I = 0; Produced < 48 && I < 400; ++I) {
    const SeedClass &Seed = Seeds[R.choiceIndex(Seeds.size())];
    size_t MutatorIndex = R.choiceIndex(NumMutators);
    MutationContext Ctx{R, Known};
    MutationOutcome Mutant = mutateClass(Seed.Data, MutatorIndex, Ctx);
    if (!Mutant.Produced)
      continue;
    char Key[32];
    std::snprintf(Key, sizeof(Key), "mutant/%02zu", Produced++);
    ClassPath Env = Base;
    Env.add(Mutant.ClassName, Mutant.Data);
    expectTierEquivalence(Policy, Env, Mutant.ClassName, Key,
                          hashBytes(Mutant.Data));
  }
  EXPECT_GE(Produced, 32u) << "mutator stream produced too few mutants "
                              "for the sweep to mean anything";
}

// The step budget is charged once per executed instruction on every
// tier: a tight loop exhausts MaxInterpSteps identically everywhere --
// no tier lets a mutant run longer by tiering up.
TEST(ExecTiers, TightLoopExhaustsStepBudgetUniformly) {
  ClassFile CF = makeHelloClass("Spin");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  CodeBuilder B(CF.CP);
  auto Head = B.newLabel();
  B.bind(Head);
  B.branch(OP_goto, Head);
  Main->Code->Code = B.build();
  Main->Code->MaxStack = 1;
  Main->Code->MaxLocals = 1;
  Bytes Data = serialize(CF);

  JvmPolicy Policy = referenceJvmPolicy();
  Policy.MaxInterpSteps = 5000;
  ClassPath Env = runtimeLibraryFor(Policy);
  Env.add("Spin", Data);
  for (ExecTier Tier : AllTiers) {
    TierObservation Obs = runOnTier(Policy, Tier, Env, "Spin");
    EXPECT_FALSE(Obs.R.Invoked) << execTierName(Tier);
    EXPECT_EQ(Obs.R.Error, JvmErrorKind::InternalError)
        << execTierName(Tier) << ": " << Obs.R.toString();
    EXPECT_EQ(Obs.R.Message, "interpreter step budget exhausted")
        << execTierName(Tier);
  }
  expectTierEquivalence(Policy, Env, "Spin", "spin", hashBytes(Data));
}

// Baseline code cache: three hot methods called eight times each match
// the pinned result, compile once each and are served from the cache
// after that.
TEST(ExecTiers, BaselineCacheCompilesEachMethodOnce) {
  ClassFile CF = makeHelloClass("Hot");
  for (const char *Name : {"a", "b", "c"}) {
    MethodInfo M;
    M.Name = Name;
    M.Descriptor = "(I)I";
    M.AccessFlags = ACC_PUBLIC | ACC_STATIC;
    CodeBuilder B(CF.CP);
    B.loadLocal('i', 0);
    B.pushInt(1);
    B.emit(OP_iadd);
    B.emit(OP_ireturn);
    CodeAttr Code;
    Code.MaxStack = 2;
    Code.MaxLocals = 1;
    Code.Code = B.build();
    M.Code = std::move(Code);
    CF.Methods.push_back(std::move(M));
  }
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  CodeBuilder B(CF.CP);
  // acc = 0; repeat 8x: acc = c(b(a(acc))); print acc (= 24).
  B.pushInt(0);
  B.storeLocal('i', 1);
  B.pushInt(0);
  B.storeLocal('i', 2);
  auto Head = B.newLabel();
  auto Done = B.newLabel();
  B.bind(Head);
  B.loadLocal('i', 2);
  B.pushInt(8);
  B.branch(OP_if_icmpge, Done);
  B.loadLocal('i', 1);
  B.invokeStatic("Hot", "a", "(I)I");
  B.invokeStatic("Hot", "b", "(I)I");
  B.invokeStatic("Hot", "c", "(I)I");
  B.storeLocal('i', 1);
  B.iinc(2, 1);
  B.branch(OP_goto, Head);
  B.bind(Done);
  B.getStatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  B.loadLocal('i', 1);
  B.invokeVirtual("java/io/PrintStream", "println", "(I)V");
  B.emit(OP_return);
  Main->Code->Code = B.build();
  Main->Code->MaxStack = 2;
  Main->Code->MaxLocals = 3;
  Bytes Data = serialize(CF);

  JvmPolicy Policy = referenceJvmPolicy();
  ClassPath Env = runtimeLibraryFor(Policy);
  Env.add("Hot", Data);
  expectTierEquivalence(Policy, Env, "Hot", "hot", hashBytes(Data));

  JvmPolicy P = Policy;
  P.Tier = ExecTier::Baseline;
  P.JitTelemetry = false;
  Vm Jvm(P, Env, nullptr);
  JvmResult R = Jvm.run("Hot");
  ASSERT_TRUE(R.Invoked) << R.toString();
  EXPECT_EQ(R.Output.back(), "24");
  const JitStats *S = Jvm.engine().jitStats();
  ASSERT_NE(S, nullptr);
  // Each method compiles once: main, a, b, c and java/lang/System's
  // <clinit>. The other 21 of the 24 calls to a, b and c are cache hits.
  EXPECT_EQ(S->Compiles, 5u);
  EXPECT_EQ(S->CacheHits, 21u);
}

// Each tier lowers a method once per Vm, not once per call: on the
// benchmarks' invoke-heavy class (main calls step 3,000 times) every Vm
// counts exactly two work.methods_predecoded, main and step. This is
// the property a wall-clock "predecoded tier beats per-call decoding"
// gate could only infer, as an exact count.
TEST(ExecTiers, InvokeHeavyClassPredecodesEachMethodOncePerVm) {
  JvmPolicy Policy = referenceJvmPolicy();
  Policy.MaxInterpSteps = 10'000'000;
  Policy.JitTelemetry = false;
  ClassPath Env = runtimeLibraryFor(Policy);
  Env.add("TierBench", makeInvokeHeavyClass());
  telemetry::setEnabled(true);
  telemetry::Counter &Predecoded =
      telemetry::metrics().counter("work.methods_predecoded");
  for (ExecTier Tier : AllTiers) {
    JvmPolicy P = Policy;
    P.Tier = Tier;
    for (int Run = 0; Run != 2; ++Run) {
      const uint64_t Before = Predecoded.value();
      Vm Jvm(P, Env);
      JvmResult R = Jvm.run("TierBench");
      ASSERT_TRUE(R.Invoked) << execTierName(Tier) << ": " << R.toString();
      EXPECT_EQ(Predecoded.value() - Before, 2u) << execTierName(Tier);
      if (const JitStats *S = Jvm.engine().jitStats()) {
        EXPECT_EQ(S->Compiles, 2u);
        EXPECT_EQ(S->CacheHits, uint64_t{InvokeHeavyCalls - 1});
      }
    }
  }
  telemetry::setEnabled(false);
}

// jitStats() is a baseline-tier concern: the interpreters expose none.
TEST(ExecTiers, OnlyBaselineExposesJitStats) {
  Bytes Hello = serialize(makeHelloClass("Hello"));
  JvmPolicy Policy = referenceJvmPolicy();
  Policy.JitTelemetry = false;
  ClassPath Env = runtimeLibraryFor(Policy);
  Env.add("Hello", Hello);
  for (ExecTier Tier : AllTiers) {
    JvmPolicy P = Policy;
    P.Tier = Tier;
    Vm Jvm(P, Env, nullptr);
    Jvm.run("Hello");
    EXPECT_EQ(Jvm.engine().tier(), Tier);
    EXPECT_EQ(Jvm.engine().jitStats() != nullptr,
              Tier == ExecTier::Baseline)
        << execTierName(Tier);
  }
}
