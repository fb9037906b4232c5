//===- tests/jvm/opcode_sweep_test.cpp -------------------------------------===//
//
// Parameterized sweeps over opcode families: every arithmetic operator,
// conversion, and conditional branch is executed end-to-end through the
// interpreter and checked against the expected Java semantics, and the
// whole sweep doubles as agreement coverage between verifier and
// interpreter.
//
//===----------------------------------------------------------------------===//

#include "../TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace classfuzz;
using namespace classfuzz::testhelpers;

namespace {

/// Runs main = { push A; push B; <op>; println; return } on HotSpot 8
/// and returns the printed line.
std::string evalBinary(uint8_t Op, int32_t A, int32_t B) {
  ClassFile CF = makeHelloClass("T");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  CodeBuilder Builder(CF.CP);
  Builder.getStatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  Builder.pushInt(A);
  Builder.pushInt(B);
  Builder.emit(static_cast<Opcode>(Op));
  Builder.invokeVirtual("java/io/PrintStream", "println", "(I)V");
  Builder.emit(OP_return);
  Main->Code->Code = Builder.build();
  Main->Code->MaxStack = 3;
  JvmResult R = runOn(makeHotSpot8Policy(), {{"T", serialize(CF)}}, "T");
  EXPECT_TRUE(R.Invoked) << opcodeName(Op) << ": " << R.toString();
  return R.Invoked && !R.Output.empty() ? R.Output[0] : "<failed>";
}

std::string evalUnary(uint8_t Op, int32_t A) {
  ClassFile CF = makeHelloClass("T");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  CodeBuilder Builder(CF.CP);
  Builder.getStatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  Builder.pushInt(A);
  Builder.emit(static_cast<Opcode>(Op));
  Builder.invokeVirtual("java/io/PrintStream", "println", "(I)V");
  Builder.emit(OP_return);
  Main->Code->Code = Builder.build();
  Main->Code->MaxStack = 2;
  JvmResult R = runOn(makeHotSpot8Policy(), {{"T", serialize(CF)}}, "T");
  EXPECT_TRUE(R.Invoked) << opcodeName(Op) << ": " << R.toString();
  return R.Invoked && !R.Output.empty() ? R.Output[0] : "<failed>";
}

struct BinCase {
  uint8_t Op;
  int32_t A;
  int32_t B;
  int32_t Expected;
};

class BinaryOps : public ::testing::TestWithParam<BinCase> {};

TEST_P(BinaryOps, ComputesJavaSemantics) {
  const BinCase &C = GetParam();
  EXPECT_EQ(evalBinary(C.Op, C.A, C.B), std::to_string(C.Expected))
      << opcodeName(C.Op) << "(" << C.A << ", " << C.B << ")";
}

const BinCase BinaryCases[] = {
    {OP_iadd, 3, 4, 7},
    {OP_iadd, INT32_MAX, 1, INT32_MIN}, // Wraparound.
    {OP_isub, 3, 4, -1},
    {OP_imul, -6, 7, -42},
    {OP_imul, 1 << 30, 4, 0}, // Overflow wraps.
    {OP_idiv, 7, 2, 3},
    {OP_idiv, -7, 2, -3}, // Truncation toward zero.
    {OP_idiv, INT32_MIN, -1, INT32_MIN}, // The JVM-defined edge case.
    {OP_irem, 7, 2, 1},
    {OP_irem, -7, 2, -1},
    {OP_irem, INT32_MIN, -1, 0},
    {OP_ishl, 1, 5, 32},
    {OP_ishl, 1, 33, 2}, // Shift count masked to 5 bits.
    {OP_ishr, -8, 1, -4},
    {0x7C /*iushr*/, -8, 1, 0x7FFFFFFC},
    {OP_iand, 0b1100, 0b1010, 0b1000},
    {OP_ior, 0b1100, 0b1010, 0b1110},
    {OP_ixor, 0b1100, 0b1010, 0b0110},
};

INSTANTIATE_TEST_SUITE_P(AllIntBinary, BinaryOps,
                         ::testing::ValuesIn(BinaryCases),
                         [](const auto &Info) {
                           return opcodeName(Info.param.Op) + "_case" +
                                  std::to_string(Info.index);
                         });

struct UnCase {
  uint8_t Op;
  int32_t A;
  int32_t Expected;
};

class UnaryOps : public ::testing::TestWithParam<UnCase> {};

TEST_P(UnaryOps, ComputesJavaSemantics) {
  const UnCase &C = GetParam();
  EXPECT_EQ(evalUnary(C.Op, C.A), std::to_string(C.Expected))
      << opcodeName(C.Op) << "(" << C.A << ")";
}

const UnCase UnaryCases[] = {
    {OP_ineg, 5, -5},
    {OP_ineg, INT32_MIN, INT32_MIN},
    {OP_i2b, 0x181, static_cast<int32_t>(static_cast<int8_t>(0x81))},
    {0x92 /*i2c*/, -1, 0xFFFF},
    {0x93 /*i2s*/, 0x18000, static_cast<int32_t>(
                                static_cast<int16_t>(0x8000))},
};

INSTANTIATE_TEST_SUITE_P(AllIntUnary, UnaryOps,
                         ::testing::ValuesIn(UnaryCases),
                         [](const auto &Info) {
                           return opcodeName(Info.param.Op) + "_case" +
                                  std::to_string(Info.index);
                         });

// --- Conditional branches ---------------------------------------------------

struct BranchCase {
  uint8_t Op;
  int32_t A;
  int32_t B; // Ignored for one-operand branches.
  bool Taken;
  bool Unary;
};

class BranchOps : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchOps, BranchDirectionMatchesJava) {
  const BranchCase &C = GetParam();
  ClassFile CF = makeHelloClass("T");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  CodeBuilder B(CF.CP);
  auto TakenLabel = B.newLabel();
  auto End = B.newLabel();
  B.getStatic("java/lang/System", "out", "Ljava/io/PrintStream;");
  B.pushInt(C.A);
  if (!C.Unary)
    B.pushInt(C.B);
  B.branch(static_cast<Opcode>(C.Op), TakenLabel);
  B.pushInt(0);
  B.branch(OP_goto, End);
  B.bind(TakenLabel);
  B.pushInt(1);
  B.bind(End);
  B.invokeVirtual("java/io/PrintStream", "println", "(I)V");
  B.emit(OP_return);
  Main->Code->Code = B.build();
  Main->Code->MaxStack = 4;
  JvmResult R = runOn(makeHotSpot8Policy(), {{"T", serialize(CF)}}, "T");
  ASSERT_TRUE(R.Invoked) << opcodeName(C.Op) << ": " << R.toString();
  EXPECT_EQ(R.Output[0], C.Taken ? "1" : "0") << opcodeName(C.Op);
}

const BranchCase BranchCases[] = {
    {OP_ifeq, 0, 0, true, true},
    {OP_ifeq, 1, 0, false, true},
    {OP_ifne, 1, 0, true, true},
    {OP_iflt, -1, 0, true, true},
    {OP_iflt, 0, 0, false, true},
    {OP_ifge, 0, 0, true, true},
    {OP_ifgt, 1, 0, true, true},
    {OP_ifle, 1, 0, false, true},
    {OP_if_icmpeq, 3, 3, true, false},
    {OP_if_icmpne, 3, 3, false, false},
    {OP_if_icmplt, 2, 3, true, false},
    {OP_if_icmpge, 3, 3, true, false},
    {OP_if_icmpgt, 4, 3, true, false},
    {OP_if_icmple, 4, 3, false, false},
};

INSTANTIATE_TEST_SUITE_P(AllBranches, BranchOps,
                         ::testing::ValuesIn(BranchCases),
                         [](const auto &Info) {
                           return opcodeName(Info.param.Op) + "_case" +
                                  std::to_string(Info.index);
                         });

// --- Invalid-code families: verifier rejection sweep ------------------------

struct InvalidCase {
  const char *Name;
  Bytes Code;
  uint16_t MaxStack;
  uint16_t MaxLocals;
};

/// Prints a case as its code bytes, so test listings and the ctest names
/// discovered from them stay stable. gtest's default dumps the raw
/// struct bytes, whose Name and vector pointers move with every run.
void PrintTo(const InvalidCase &C, std::ostream *OS) {
  *OS << '[';
  for (uint8_t B : C.Code) {
    char Hex[3];
    std::snprintf(Hex, sizeof(Hex), "%02X", B);
    *OS << Hex;
  }
  *OS << ']';
}

class InvalidCode : public ::testing::TestWithParam<InvalidCase> {};

TEST_P(InvalidCode, RejectedByEveryEagerVerifier) {
  const InvalidCase &C = GetParam();
  ClassFile CF = makeHelloClass("T");
  MethodInfo *Main = CF.findMethod("main", "([Ljava/lang/String;)V");
  Main->Code->Code = C.Code;
  Main->Code->MaxStack = C.MaxStack;
  Main->Code->MaxLocals = C.MaxLocals;
  Bytes Data = serialize(CF);
  for (const JvmPolicy &P : {makeHotSpot8Policy(), makeGijPolicy()}) {
    JvmResult R = runOn(P, {{"T", Data}}, "T");
    EXPECT_FALSE(R.Invoked) << C.Name << " on " << P.Name;
    EXPECT_EQ(R.Error, JvmErrorKind::VerifyError)
        << C.Name << " on " << P.Name << ": " << R.toString();
  }
}

const InvalidCase InvalidCases[] = {
    {"empty_code", {}, 0, 1},
    {"falls_off_end", {OP_nop}, 0, 1},
    {"underflow", {OP_pop, OP_return}, 1, 1},
    {"overflow", {OP_iconst_0, OP_iconst_0, OP_return}, 1, 1},
    {"branch_into_operand", {OP_goto, 0x00, 0x01, OP_return}, 0, 1},
    {"undefined_opcode", {0xF7, OP_return}, 0, 1},
    {"truncated_operand", {OP_sipush, 0x01}, 1, 1},
    {"wrong_return_kind", {OP_iconst_0, OP_ireturn}, 1, 1},
    {"athrow_int", {OP_iconst_0, OP_athrow}, 1, 1},
    {"bad_local_kind",
     {OP_iconst_0, OP_istore_0, OP_aload_0, OP_pop, OP_return},
     1,
     1},
    {"jsr_rejected", {OP_jsr, 0x00, 0x03, OP_return}, 1, 1},
};

INSTANTIATE_TEST_SUITE_P(Families, InvalidCode,
                         ::testing::ValuesIn(InvalidCases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

} // namespace
