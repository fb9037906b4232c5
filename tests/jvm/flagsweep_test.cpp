//===- tests/jvm/flagsweep_test.cpp ----------------------------------------===//
//
// Parameterized sweeps over access-flag combinations: which method and
// class flag sets each profile accepts at format-check time. These pin
// the policy matrix that drives the Table 7 strictness ordering.
//
//===----------------------------------------------------------------------===//

#include "../TestHelpers.h"
#include "jvm/FormatChecker.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace classfuzz;
using namespace classfuzz::testhelpers;

namespace {

struct MethodFlagCase {
  const char *Name;
  uint16_t Flags;
  bool WithCode;
  bool HotSpotAccepts;
  bool J9Accepts;
  bool GijAccepts;
};

/// Prints a case as its flag word, so test listings and the ctest names
/// discovered from them stay stable. gtest's default dumps the raw
/// struct bytes, whose Name pointer moves with every load address.
void PrintTo(const MethodFlagCase &C, std::ostream *OS) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%04X %s", C.Flags,
                C.WithCode ? "with Code" : "no Code");
  *OS << Buf;
}

class MethodFlagSweep
    : public ::testing::TestWithParam<MethodFlagCase> {};

bool formatAccepts(const JvmPolicy &Policy, uint16_t Flags,
                   bool WithCode) {
  ClassFile CF = makeHelloClass("T");
  MethodInfo M;
  M.Name = "probe";
  M.Descriptor = "()V";
  M.AccessFlags = Flags;
  if (WithCode) {
    CodeAttr Code;
    Code.MaxStack = 0;
    Code.MaxLocals = 0;
    Code.Code = {OP_return};
    M.Code = std::move(Code);
  }
  CF.Methods.push_back(std::move(M));
  return !checkClassFormat(CF, Policy, nullptr).has_value();
}

} // namespace

TEST_P(MethodFlagSweep, MatchesPolicyMatrix) {
  const MethodFlagCase &C = GetParam();
  EXPECT_EQ(formatAccepts(makeHotSpot8Policy(), C.Flags, C.WithCode),
            C.HotSpotAccepts)
      << C.Name << " on HotSpot";
  EXPECT_EQ(formatAccepts(makeJ9Policy(), C.Flags, C.WithCode),
            C.J9Accepts)
      << C.Name << " on J9";
  EXPECT_EQ(formatAccepts(makeGijPolicy(), C.Flags, C.WithCode),
            C.GijAccepts)
      << C.Name << " on GIJ";
}

const MethodFlagCase MethodFlagCases[] = {
    // name, flags, code?, HS, J9, GIJ
    {"plain_public", ACC_PUBLIC, true, true, true, true},
    {"public_static", ACC_PUBLIC | ACC_STATIC, true, true, true, true},
    {"public_and_private", ACC_PUBLIC | ACC_PRIVATE, true, false, false,
     true},
    {"private_and_protected", ACC_PRIVATE | ACC_PROTECTED, true, false,
     false, true},
    {"abstract_with_code", ACC_PUBLIC | ACC_ABSTRACT, true, false,
     false, true},
    // Abstract without code in a concrete class: HotSpot defers to
    // invocation (Lazy), J9 rejects eagerly, GIJ ignores.
    {"abstract_in_concrete", ACC_PUBLIC | ACC_ABSTRACT, false, true,
     false, true},
    {"abstract_final", ACC_PUBLIC | ACC_ABSTRACT | ACC_FINAL, false,
     false, false, true},
    {"abstract_static", ACC_PUBLIC | ACC_ABSTRACT | ACC_STATIC, false,
     false, false, true},
    {"abstract_synchronized",
     ACC_PUBLIC | ACC_ABSTRACT | ACC_SYNCHRONIZED, false, false, false,
     true},
    // Concrete without code: HotSpot eager ClassFormatError; J9 eager
    // too; GIJ defers to invocation.
    {"concrete_without_code", ACC_PUBLIC, false, false, false, true},
    {"native_without_code", ACC_PUBLIC | ACC_NATIVE, false, true, true,
     true},
    {"native_with_code", ACC_PUBLIC | ACC_NATIVE, true, false, false,
     true},
    {"synthetic", ACC_PUBLIC | ACC_SYNTHETIC, true, true, true, true},
};

INSTANTIATE_TEST_SUITE_P(Matrix, MethodFlagSweep,
                         ::testing::ValuesIn(MethodFlagCases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });

namespace {

struct ClassFlagCase {
  const char *Name;
  uint16_t Flags;
  bool HotSpotAccepts;
  bool GijAccepts;
};

/// Prints a case as its flag word (see the MethodFlagCase overload).
void PrintTo(const ClassFlagCase &C, std::ostream *OS) {
  char Buf[8];
  std::snprintf(Buf, sizeof(Buf), "0x%04X", C.Flags);
  *OS << Buf;
}

class ClassFlagSweep : public ::testing::TestWithParam<ClassFlagCase> {};

bool classFormatAccepts(const JvmPolicy &Policy, uint16_t Flags) {
  ClassFile CF = makeHelloClass("T");
  CF.AccessFlags = Flags;
  return !checkClassFormat(CF, Policy, nullptr).has_value();
}

} // namespace

TEST_P(ClassFlagSweep, MatchesPolicyMatrix) {
  const ClassFlagCase &C = GetParam();
  EXPECT_EQ(classFormatAccepts(makeHotSpot8Policy(), C.Flags),
            C.HotSpotAccepts)
      << C.Name << " on HotSpot";
  EXPECT_EQ(classFormatAccepts(makeGijPolicy(), C.Flags), C.GijAccepts)
      << C.Name << " on GIJ";
}

const ClassFlagCase ClassFlagCases[] = {
    {"public_super", ACC_PUBLIC | ACC_SUPER, true, true},
    {"final_ok", ACC_PUBLIC | ACC_SUPER | ACC_FINAL, true, true},
    {"abstract_ok", ACC_PUBLIC | ACC_SUPER | ACC_ABSTRACT, true, true},
    {"final_abstract", ACC_PUBLIC | ACC_FINAL | ACC_ABSTRACT, false,
     true},
    // An interface flag without abstract: inconsistent for HotSpot.
    {"interface_not_abstract", ACC_PUBLIC | ACC_INTERFACE, false, true},
    // A final interface is doubly wrong.
    {"final_interface",
     ACC_PUBLIC | ACC_INTERFACE | ACC_ABSTRACT | ACC_FINAL, false,
     true},
    {"package_private", ACC_SUPER, true, true},
};

INSTANTIATE_TEST_SUITE_P(Matrix, ClassFlagSweep,
                         ::testing::ValuesIn(ClassFlagCases),
                         [](const auto &Info) {
                           return std::string(Info.param.Name);
                         });
