//===- reducer/Reducer.h - Hierarchical delta debugging of classfiles ----===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §2.3 reducer: chunked hierarchical delta debugging over JIR.
/// Given a discrepancy-triggering classfile and an oracle that retests a
/// candidate on the JVMs, the reducer deletes methods, fields,
/// interfaces, throws-clause entries, and statements -- in ddmin-style
/// chunks of size n/2, n/4, ..., 1 per hierarchy level -- keeping a
/// deletion whenever the discrepancy persists, until a fixed point.
///
/// Two things keep the oracle (a full five-profile differential run)
/// off the critical path wherever possible (DESIGN.md §10):
///
///  * **Memoization.** Verdicts are cached by the FNV-1a hash of the
///    assembled candidate bytes, so the fixed-point loop never re-asks
///    the oracle about a candidate it has already judged. Memoization
///    assumes the oracle is a pure function of the candidate bytes (the
///    modeled five-VM oracle is).
///  * **Pre-assembly structural checks.** Deletions that cannot yield an
///    assemblable class (dangling branch targets with no retarget,
///    emptied method bodies, collapsed exception ranges) are skipped
///    before any assembly or oracle work.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_REDUCER_REDUCER_H
#define CLASSFUZZ_REDUCER_REDUCER_H

#include "jir/Jir.h"

#include <functional>

namespace classfuzz {

/// Oracle: true when the candidate classfile still triggers the
/// discrepancy o under study (Step 2 of §2.3). It is called from the
/// reducing thread only, one candidate at a time.
using ReductionOracle =
    std::function<bool(const std::string &Name, const Bytes &Data)>;

/// Tuning knobs of one reduction run.
struct ReducerOptions {
  /// Budget of *charged* oracle invocations. Cache hits and structurally
  /// skipped candidates are free. When the budget runs out mid-run the
  /// best reduction so far is returned (ReductionStats::BudgetExhausted
  /// is set); when it runs out before the input itself could be tested,
  /// reduceClassfile fails with a budget (not an oracle-rejection)
  /// error.
  size_t MaxOracleQueries = 10000;
  /// When false, every rung uses chunk size 1 (the legacy one-element-
  /// at-a-time scan). Kept as a benchmark baseline; bench_reducer
  /// measures the query savings of chunking against it.
  bool ChunkedHdd = true;
};

/// Statistics of one reduction run. Every field is a function of
/// (input, oracle, options) only.
struct ReductionStats {
  size_t OracleQueries = 0;   ///< Charged oracle invocations.
  size_t CacheHits = 0;       ///< Probes answered from the memo cache.
  size_t CacheMisses = 0;     ///< == OracleQueries (kept for symmetry).
  size_t DeletionsKept = 0;   ///< Probes that kept a deletion.
  size_t ChunkDeletionsKept = 0; ///< Kept deletions of more than one element.
  size_t LargestChunkKept = 0;   ///< Elements in the largest kept chunk.
  size_t SkippedStructural = 0;  ///< Candidates rejected before assembly.
  size_t AssemblyFailures = 0;   ///< Candidates assembleToBytes refused.
  size_t MethodsRemoved = 0;
  size_t FieldsRemoved = 0;
  size_t StatementsRemoved = 0;
  size_t InterfacesRemoved = 0;
  size_t ThrowsRemoved = 0;
  /// True when MaxOracleQueries ran out (the run still returns the best
  /// reduction reached; distinguishes budget exhaustion from oracle
  /// rejection of the input).
  bool BudgetExhausted = false;
};

/// Reduces \p Input (which must satisfy the oracle) to a smaller
/// classfile that still satisfies it. Returns the reduced bytes;
/// \p Stats (optional) receives accounting.
Result<Bytes> reduceClassfile(const Bytes &Input,
                              const ReductionOracle &Oracle,
                              const ReducerOptions &Opts,
                              ReductionStats *Stats = nullptr);

/// Convenience overload with default options.
Result<Bytes> reduceClassfile(const Bytes &Input,
                              const ReductionOracle &Oracle,
                              ReductionStats *Stats = nullptr,
                              size_t MaxOracleQueries = 10000);

} // namespace classfuzz

#endif // CLASSFUZZ_REDUCER_REDUCER_H
