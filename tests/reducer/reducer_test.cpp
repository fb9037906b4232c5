//===- tests/reducer/reducer_test.cpp --------------------------------------===//
//
// Hierarchical delta debugging (§2.3): reduction keeps the discrepancy,
// removes irrelevant members, and respects the oracle budget.
//
//===----------------------------------------------------------------------===//

#include "../TestHelpers.h"
#include "classfile/ClassReader.h"
#include "reducer/Reducer.h"

#include <gtest/gtest.h>

using namespace classfuzz;
using namespace classfuzz::testhelpers;

namespace {

/// A bloated Figure 2-style class: the discrepancy-relevant non-static
/// <clinit> plus unrelated fields and methods the reducer should strip.
ClassFile makeBloatedDiscrepancyClass() {
  ClassFile CF = makeHelloClass("Bloated");
  for (int I = 0; I != 4; ++I) {
    FieldInfo F;
    F.Name = "junk" + std::to_string(I);
    F.Descriptor = "I";
    F.AccessFlags = ACC_PUBLIC;
    CF.Fields.push_back(std::move(F));
  }
  for (int I = 0; I != 3; ++I) {
    MethodInfo M;
    M.Name = "noise" + std::to_string(I);
    M.Descriptor = "()V";
    M.AccessFlags = ACC_PUBLIC;
    CodeAttr Code;
    Code.MaxStack = 0;
    Code.MaxLocals = 1;
    Code.Code = {OP_return};
    M.Code = std::move(Code);
    CF.Methods.push_back(std::move(M));
  }
  // The discrepancy trigger (Problem 1).
  MethodInfo Clinit;
  Clinit.Name = "<clinit>";
  Clinit.Descriptor = "()V";
  Clinit.AccessFlags = ACC_PUBLIC | ACC_ABSTRACT;
  CF.Methods.push_back(std::move(Clinit));
  return CF;
}

/// Oracle: the class runs on HotSpot 8 but J9 reports a format error.
bool problem1Persists(const std::string &Name, const Bytes &Data) {
  JvmResult OnHs = runOn(makeHotSpot8Policy(), {{Name, Data}}, Name);
  JvmResult OnJ9 = runOn(makeJ9Policy(), {{Name, Data}}, Name);
  return OnHs.Invoked && !OnJ9.Invoked &&
         OnJ9.Error == JvmErrorKind::ClassFormatError;
}

/// Oracle: the class prints exactly "Completed!" on HotSpot 8.
bool printsCompleted(const std::string &Name, const Bytes &Data) {
  JvmResult R = runOn(makeHotSpot8Policy(), {{Name, Data}}, Name);
  return R.Invoked && R.Output.size() == 1 && R.Output[0] == "Completed!";
}

} // namespace

TEST(Reducer, StripsIrrelevantMembersKeepingTheDiscrepancy) {
  Bytes Input = serialize(makeBloatedDiscrepancyClass());
  ASSERT_TRUE(problem1Persists("Bloated", Input));

  ReductionStats Stats;
  auto Reduced = reduceClassfile(Input, problem1Persists, &Stats);
  ASSERT_TRUE(Reduced.ok()) << Reduced.error();
  EXPECT_LT(Reduced->size(), Input.size());
  EXPECT_TRUE(problem1Persists("Bloated", *Reduced));

  auto CF = parseClassFile(*Reduced);
  ASSERT_TRUE(CF.ok());
  EXPECT_TRUE(CF->Fields.empty()) << "all junk fields removed";
  EXPECT_NE(CF->findMethodByName("<clinit>"), nullptr)
      << "the trigger survives";
  EXPECT_EQ(CF->findMethodByName("noise0"), nullptr);
  EXPECT_NE(CF->findMethodByName("main"), nullptr)
      << "main is needed for 'runs on HotSpot'";
  // Chunked deletion keeps whole windows per probe, so count removals
  // per kind rather than kept probes.
  EXPECT_EQ(Stats.FieldsRemoved, 4u);
  EXPECT_GE(Stats.MethodsRemoved, 3u);
  EXPECT_GE(Stats.DeletionsKept, 1u);
  EXPECT_GT(Stats.OracleQueries, Stats.DeletionsKept);
  EXPECT_EQ(Stats.CacheMisses, Stats.OracleQueries);
}

TEST(Reducer, RejectsInputThatDoesNotTrigger) {
  Bytes Plain = serialize(makeHelloClass("Plain"));
  auto Out = reduceClassfile(Plain, problem1Persists);
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.error().find("oracle"), std::string::npos);
}

TEST(Reducer, RespectsQueryBudget) {
  Bytes Input = serialize(makeBloatedDiscrepancyClass());
  ReductionStats Stats;
  auto Out = reduceClassfile(Input, problem1Persists, &Stats,
                             /*MaxOracleQueries=*/5);
  ASSERT_TRUE(Out.ok());
  EXPECT_LE(Stats.OracleQueries, 5u);
  // Budget exhaustion mid-run is progress, not failure: the flag is
  // set, and the returned bytes are the best oracle-accepted candidate.
  EXPECT_TRUE(Stats.BudgetExhausted);
  EXPECT_TRUE(problem1Persists("Bloated", *Out));
}

TEST(Reducer, ZeroBudgetIsABudgetErrorNotOracleRejection) {
  // MaxOracleQueries == 0 used to report "input does not satisfy the
  // reduction oracle" even though the oracle was never asked.
  Bytes Input = serialize(makeBloatedDiscrepancyClass());
  ReducerOptions Opts;
  Opts.MaxOracleQueries = 0;
  ReductionStats Stats;
  auto Out = reduceClassfile(Input, problem1Persists, Opts, &Stats);
  ASSERT_FALSE(Out.ok());
  EXPECT_NE(Out.error().find("budget"), std::string::npos) << Out.error();
  EXPECT_EQ(Out.error().find("does not satisfy"), std::string::npos)
      << Out.error();
  EXPECT_TRUE(Stats.BudgetExhausted);
  EXPECT_EQ(Stats.OracleQueries, 0u);
}

TEST(Reducer, StatementReductionShrinksBodies) {
  // Oracle: class prints "Completed!" on HotSpot 8. Padding statements
  // (nops and dead constants) around the print must disappear.
  ClassFile CF = makeHelloClass("Padded");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  CodeBuilder B(CF.CP);
  B.emit(OP_nop);
  B.emit(OP_nop);
  B.pushInt(7);
  B.emit(OP_pop);
  B.getStatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  B.pushString("Completed!");
  B.invokeVirtual("java/io/PrintStream", "println",
                  "(Ljava/lang/String;)V");
  B.emit(OP_nop);
  B.emit(OP_return);
  Main->Code->Code = B.build();
  Bytes Input = serialize(CF);

  ASSERT_TRUE(printsCompleted("Padded", Input));

  ReductionStats Stats;
  auto Reduced = reduceClassfile(Input, printsCompleted, &Stats);
  ASSERT_TRUE(Reduced.ok()) << Reduced.error();
  EXPECT_GE(Stats.StatementsRemoved, 4u)
      << "nops and the dead constant are deleted";
  EXPECT_TRUE(printsCompleted("Padded", *Reduced));
}

TEST(Reducer, BranchToDeletedTrailingStatementIsSkippedStructurally) {
  // main ends with `goto L; L: return`. Deleting the trailing return
  // leaves the goto with nothing to retarget to; the old decrement-only
  // fixup produced a target one past the end (an unassemblable
  // candidate), the structural check now skips it before assembly.
  ClassFile CF = makeHelloClass("Branchy");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  CodeBuilder B(CF.CP);
  B.getStatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  B.pushString("Completed!");
  B.invokeVirtual("java/io/PrintStream", "println",
                  "(Ljava/lang/String;)V");
  CodeBuilder::Label L = B.newLabel();
  B.branch(OP_goto, L);
  B.bind(L);
  B.emit(OP_return);
  Main->Code->Code = B.build();
  Bytes Input = serialize(CF);
  ASSERT_TRUE(printsCompleted("Branchy", Input));

  ReducerOptions Opts;
  ReductionStats Stats;
  auto Reduced = reduceClassfile(Input, printsCompleted, Opts, &Stats);
  ASSERT_TRUE(Reduced.ok()) << Reduced.error();
  EXPECT_TRUE(printsCompleted("Branchy", *Reduced));
  EXPECT_EQ(Stats.AssemblyFailures, 0u)
      << "every doomed deletion is caught before assembly";
  EXPECT_GT(Stats.SkippedStructural, 0u);
  // The goto itself is dead and must be deleted (with its target fixed).
  auto Out = lowerClassBytes(*Reduced);
  ASSERT_TRUE(Out.ok());
  for (const JirMethod &M : Out->Methods)
    for (const JirStmt &S : M.Body)
      EXPECT_FALSE(S.isBranch());
}

TEST(Reducer, EmptiedMethodBodiesAreNeverProbed) {
  // Deleting a whole body cannot help (the methods level deletes whole
  // methods); such windows are skipped without oracle or assembly work,
  // and no surviving method ends up with an empty body. main's body is
  // a single return, so the statement level must probe (and skip) the
  // whole-body window.
  ClassFile CF = makeHelloClass("Solo");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  Main->Code->Code = {OP_return};
  Main->Code->MaxStack = 0;
  Bytes Input = serialize(CF);
  ReductionOracle Runs = [](const std::string &Name, const Bytes &Data) {
    return runOn(makeHotSpot8Policy(), {{Name, Data}}, Name).Invoked;
  };
  ASSERT_TRUE(Runs("Solo", Input));

  ReducerOptions Opts;
  ReductionStats Stats;
  auto Reduced = reduceClassfile(Input, Runs, Opts, &Stats);
  ASSERT_TRUE(Reduced.ok()) << Reduced.error();
  EXPECT_GT(Stats.SkippedStructural, 0u)
      << "whole-body windows are structural skips";
  EXPECT_EQ(Stats.AssemblyFailures, 0u);
  auto Out = parseClassFile(*Reduced);
  ASSERT_TRUE(Out.ok());
  for (const MethodInfo &M : Out->Methods) {
    if (M.Code) {
      EXPECT_FALSE(M.Code->Code.empty()) << M.Name;
    }
  }
}

TEST(Reducer, ChunkedDeletionBeatsPerElementOnBloatedInput) {
  // 40 junk fields collapse in a handful of chunk probes; the legacy
  // one-element pass pays one probe per field per sweep.
  ClassFile CF = makeBloatedDiscrepancyClass();
  for (int I = 0; I != 36; ++I) {
    FieldInfo F;
    F.Name = "pad" + std::to_string(I);
    F.Descriptor = "I";
    F.AccessFlags = ACC_PUBLIC;
    CF.Fields.push_back(std::move(F));
  }
  Bytes Input = serialize(CF);
  ASSERT_TRUE(problem1Persists("Bloated", Input));

  ReducerOptions Chunked;
  ReductionStats ChunkedStats;
  auto ChunkedOut =
      reduceClassfile(Input, problem1Persists, Chunked, &ChunkedStats);
  ASSERT_TRUE(ChunkedOut.ok()) << ChunkedOut.error();

  ReducerOptions Legacy;
  Legacy.ChunkedHdd = false;
  ReductionStats LegacyStats;
  auto LegacyOut =
      reduceClassfile(Input, problem1Persists, Legacy, &LegacyStats);
  ASSERT_TRUE(LegacyOut.ok()) << LegacyOut.error();

  // Both fully strip the 40 junk fields; chunking does it with multi-
  // element deletions and fewer oracle queries.
  EXPECT_EQ(ChunkedStats.FieldsRemoved, 40u);
  EXPECT_EQ(LegacyStats.FieldsRemoved, 40u);
  EXPECT_GE(ChunkedStats.ChunkDeletionsKept, 1u);
  EXPECT_GE(ChunkedStats.LargestChunkKept, 2u);
  EXPECT_EQ(LegacyStats.ChunkDeletionsKept, 0u);
  EXPECT_LT(ChunkedStats.OracleQueries, LegacyStats.OracleQueries);
  EXPECT_TRUE(problem1Persists("Bloated", *ChunkedOut));
  EXPECT_TRUE(problem1Persists("Bloated", *LegacyOut));
}

TEST(Reducer, CacheHitsNeverReinvokeTheOracle) {
  // Every statement of main is load-bearing for the print, so the
  // statement level only rejects: the unaligned pair scan and the final
  // fixed-point sweep re-probe byte-identical candidates, which the
  // memo cache must answer without reaching the oracle.
  Bytes Input = serialize(makeHelloClass("Solo"));
  size_t Invocations = 0;
  ReductionOracle Counting = [&](const std::string &Name,
                                 const Bytes &Data) {
    ++Invocations;
    return printsCompleted(Name, Data);
  };
  ReducerOptions Opts;
  ReductionStats Stats;
  auto Reduced = reduceClassfile(Input, Counting, Opts, &Stats);
  ASSERT_TRUE(Reduced.ok()) << Reduced.error();
  EXPECT_EQ(Invocations, Stats.OracleQueries)
      << "cache hits must not reach the oracle";
  EXPECT_GT(Stats.CacheHits, 0u)
      << "the fixed-point sweep re-probes candidates the cache answers";
  EXPECT_EQ(Stats.CacheMisses, Stats.OracleQueries);
}
