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
/// agreeing.
///
/// File 4's id layout (every file's is in coverage/Probes.h):
///   - 0x0000..0x1FFF: `__LINE__` probes of Interp.cpp (real line numbers
///     stay below 0x2000);
///   - 0x4000..0x40FF: the named Site values below (Vm.cpp's abort census
///     uses the same site range in file 3, so the ids differ);
///   - 0x8000..0x80FF: the per-opcode dispatch probe, opcodeId().
/// Each range is a dense segment of the CoverageRecorder bitmap, so the
/// per-instruction opcodeId() probe is one bit test; a site added outside
/// them still records exactly, through the recorder's slower fallback.
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
