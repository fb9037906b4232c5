//===- jvm/ExecEngine.h - Tiered bytecode execution interface ------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution-engine interface behind which all bytecode dispatch
/// lives (DESIGN.md §13). A Vm owns exactly one engine, selected by its
/// policy's ExecTier:
///
///  * ThreadedEngine -- token-threaded dispatch over the shared
///                      predecoded instruction stream (ThreadedInterp.cpp);
///  * BaselineEngine -- the baseline template tier: one array of
///                      pre-bound op thunks per method (BaselineTier.cpp).
///
/// Both run the op bodies of jvm/ExecHandlers.h and keep a plain per-Vm
/// map of lowered methods; they differ only in dispatch. Contract: for
/// any (policy, environment, class) the two tiers produce identical
/// JvmResult, abort phase/kind, and coverage traces, and that result is
/// pinned per input by tests/golden/exec_tiers.jsonl. The step budget is
/// charged exactly once per executed instruction in both tiers, so a
/// mutant cannot dodge MaxInterpSteps by tiering up.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_JVM_EXECENGINE_H
#define CLASSFUZZ_JVM_EXECENGINE_H

#include "jvm/ExecTier.h"
#include "jvm/Vm.h"

#include <cstdint>
#include <memory>

namespace classfuzz {

/// Counters of the baseline tier's code cache. Local to one engine (one
/// Vm); published to the global jit.* telemetry counters at engine
/// teardown unless the policy defers that to a campaign commit stage
/// (JvmPolicy::JitTelemetry).
struct JitStats {
  uint64_t Compiles = 0;  ///< Methods compiled to thunk arrays.
  uint64_t CacheHits = 0; ///< Invocations served from the code cache.

  void merge(const JitStats &O) {
    Compiles += O.Compiles;
    CacheHits += O.CacheHits;
  }
  /// Adds these stats to the global jit.* telemetry counters (no-op when
  /// telemetry is disabled).
  void publish() const;
};

/// One bytecode execution pipeline bound to a Vm.
class ExecEngine {
public:
  explicit ExecEngine(Vm &VM) : VM(VM) {}
  virtual ~ExecEngine();

  ExecEngine(const ExecEngine &) = delete;
  ExecEngine &operator=(const ExecEngine &) = delete;

  virtual ExecTier tier() const = 0;

  /// Invokes \p M with \p Args; places the return value in \p Ret.
  /// Returns false when an exception is pending or the VM aborted --
  /// the same contract the interpreter always had.
  virtual bool invoke(Vm::LoadedClass &LC, const MethodInfo &M,
                      std::vector<Value> Args, Value &Ret) = 0;

  /// Baseline tier's code-cache statistics; nullptr for tiers without a
  /// code cache.
  virtual const JitStats *jitStats() const { return nullptr; }

protected:
  Vm &VM;
};

/// Builds the engine for \p Tier, bound to \p VM.
std::unique_ptr<ExecEngine> makeExecEngine(Vm &VM, ExecTier Tier);

} // namespace classfuzz

#endif // CLASSFUZZ_JVM_EXECENGINE_H
