//===- jvm/ExecEngine.cpp - Engine factory and shared pieces -------------===//

#include "jvm/ExecEngine.h"

#include "telemetry/Telemetry.h"

namespace classfuzz {

ExecEngine::~ExecEngine() = default;

void JitStats::publish() const {
  if (!telemetry::enabled())
    return;
  static telemetry::Counter &CompilesCtr =
      telemetry::metrics().counter("jit.compiles");
  static telemetry::Counter &CacheHitsCtr =
      telemetry::metrics().counter("jit.cache_hits");
  CompilesCtr.inc(Compiles);
  CacheHitsCtr.inc(CacheHits);
}

// Defined in ThreadedInterp.cpp / BaselineTier.cpp.
std::unique_ptr<ExecEngine> makeThreadedEngine(Vm &VM);
std::unique_ptr<ExecEngine> makeBaselineEngine(Vm &VM);

std::unique_ptr<ExecEngine> makeExecEngine(Vm &VM, ExecTier Tier) {
  return Tier == ExecTier::Baseline ? makeBaselineEngine(VM)
                                    : makeThreadedEngine(VM);
}

} // namespace classfuzz
