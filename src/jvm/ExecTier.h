//===- jvm/ExecTier.h - Execution tier selection --------------------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution tier a Vm dispatches bytecode with. A differential
/// profile is (policy × tier): the same JvmPolicy run on two tiers must
/// produce identical observable behavior, so a tier disagreement is a
/// bug in one of the execution pipelines -- a distinct discrepancy class
/// (DESIGN.md §13). Kept in its own header so jvm/Policy.h can carry the
/// knob without pulling in the engine machinery.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_EXECTIER_H
#define CLASSFUZZ_JVM_EXECTIER_H

#include <cstdint>
#include <optional>
#include <string>

namespace classfuzz {

/// The two bytecode execution pipelines. Both run the one set of op
/// bodies in jvm/ExecHandlers.h; they differ only in dispatch.
enum class ExecTier : uint8_t {
  /// Token-threaded interpreter over the shared predecoded instruction
  /// stream (computed goto where the compiler supports it).
  Threaded,
  /// Baseline template tier: per-method flat arrays of pre-bound op
  /// thunks, compiled once per method per Vm.
  Baseline,
};

inline const char *execTierName(ExecTier Tier) {
  return Tier == ExecTier::Baseline ? "baseline" : "threaded";
}

/// Parses a --tier spelling; nullopt for anything unrecognized.
inline std::optional<ExecTier> parseExecTier(const std::string &Name) {
  if (Name == "threaded")
    return ExecTier::Threaded;
  if (Name == "baseline")
    return ExecTier::Baseline;
  return std::nullopt;
}

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_EXECTIER_H
