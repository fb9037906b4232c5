//===- jvm/ExecProbes.h - Shared probe sites of the execution tiers ------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Coverage probe identities for the execution loop, shared verbatim by every
/// ExecTier. Probe ids are (file id << 16 | site); the execution loop's sites
/// are *named constants* instead of __LINE__ so that the threaded and baseline
/// tiers emit bit-identical tracefiles for the same run, and so that these ids
/// survive edits to the source: the cross-tier suite pins them per input in
/// tests/golden/exec_tiers.jsonl (line-numbered ids move whenever a line does,
/// so it does not hash those), and the δ-diversity tuples depend on the tiers
/// agreeing. Sites live in 0x4000..0x40FF, disjoint from real line numbers
/// (< 0x2000 in practice), from the per-opcode dispatch space
/// (0x8000 | opcode), and from Vm.cpp's abort census space (0x4000 in
/// file 3, not file 4).
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_EXECPROBES_H
#define CLASSFUZZ_JVM_EXECPROBES_H

#include <cstdint>

namespace classfuzz {
namespace exec_probes {

/// Interp.cpp's CF_COV_FILE id (the file ids are listed in
/// coverage/Probes.h).
constexpr uint32_t InterpFileId = 4;

/// Named sites of the execution loop, identical across tiers.
enum Site : uint32_t {
  InvokeEntry = 0x4001,         ///< Statement: method invocation started.
  DepthExceeded = 0x4002,       ///< Branch: call depth limit.
  MissingCode = 0x4003,         ///< Branch: invoked method without Code.
  MalformedBytecode = 0x4004,   ///< Branch: decoder rejected the method.
  BudgetExhausted = 0x4005,     ///< Branch: step budget hit zero.
  FellOffCode = 0x4006,         ///< Branch: pc left the decoded stream.
  FieldMissing = 0x4007,        ///< Branch: get/putstatic resolution failed.
  FieldStaticMismatch = 0x4008, ///< Branch: static-ness of resolved field.
  MethodMissing = 0x4009,       ///< Branch: invoke resolution failed.
  MethodStaticMismatch = 0x400A, ///< Branch: static-ness of resolved method.
};

constexpr uint32_t id(Site S) { return (InterpFileId << 16) | S; }

/// The per-opcode dispatch probe (the statement-coverage analog of
/// bytecodeInterpreter.cpp's case labels), identical across tiers.
constexpr uint32_t opcodeId(uint8_t Op) {
  return (InterpFileId << 16) | 0x8000u | Op;
}

} // namespace exec_probes
} // namespace classfuzz

#endif // CLASSFUZZ_JVM_EXECPROBES_H
