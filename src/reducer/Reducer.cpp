//===- reducer/Reducer.cpp - Chunked, memoized HDD reduction --------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
//
// Ddmin-style chunked hierarchical delta debugging (DESIGN.md §10): one
// sequential loop that probes candidate deletions in a fixed order and
// adopts each deletion the oracle keeps.
//
//===----------------------------------------------------------------------===//

#include "reducer/Reducer.h"

#include "support/Hashing.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <unordered_map>

using namespace classfuzz;

namespace {

/// Hierarchy levels, probed coarse to fine as in HDD.
enum Level : int {
  LvMethods = 0,
  LvFields,
  LvInterfaces,
  LvThrows,     ///< Throws-clause entries, flattened across methods.
  LvStatements, ///< Body statements, flattened across methods.
  NumLevels,
};

size_t levelCount(const JirClass &C, int Lv) {
  switch (Lv) {
  case LvMethods:
    return C.Methods.size();
  case LvFields:
    return C.Fields.size();
  case LvInterfaces:
    return C.Interfaces.size();
  case LvThrows: {
    size_t N = 0;
    for (const JirMethod &M : C.Methods)
      N += M.Exceptions.size();
    return N;
  }
  case LvStatements: {
    size_t N = 0;
    for (const JirMethod &M : C.Methods)
      N += M.Body.size();
    return N;
  }
  }
  return 0;
}

/// Deletes body statements [LS, LE) of one method, fixing branch targets
/// and the exception table on the survivors. Returns false when the
/// deletion cannot yield an assemblable method (emptied body, or a
/// branch into a deleted tail with nothing to retarget to) -- the
/// structural pre-check that keeps doomed candidates away from the
/// oracle and the assembler.
bool deleteLocalStmtRange(JirMethod &M, size_t LS, size_t LE) {
  size_t Cut = LE - LS;
  if (Cut >= M.Body.size())
    return false; // Emptying a body is never useful; the methods level
                  // deletes whole methods instead.
  size_t NewSize = M.Body.size() - Cut;

  for (size_t I = 0; I < M.Body.size(); ++I) {
    if (I >= LS && I < LE)
      continue; // Deleted below; its target no longer matters.
    JirStmt &S = M.Body[I];
    if (!S.isBranch() || S.TargetIndex < 0)
      continue;
    auto T = static_cast<size_t>(S.TargetIndex);
    if (T >= LE) {
      S.TargetIndex = static_cast<int32_t>(T - Cut);
    } else if (T >= LS) {
      // Branch into the deleted range: retarget to the statement that
      // slides into slot LS, or skip the deletion when the range was
      // the tail and no such statement exists. (The decrement-only
      // fixup this replaces left such targets one past the end,
      // producing unassemblable candidates.)
      if (LS >= NewSize)
        return false;
      S.TargetIndex = static_cast<int32_t>(LS);
    }
  }

  // Exception table: remap indices around the cut, dropping entries
  // whose protected range collapses to empty or whose handler was
  // deleted with nothing sliding into its slot.
  auto Remap = [&](size_t I) { return I <= LS ? I : (I >= LE ? I - Cut : LS); };
  for (auto It = M.ExceptionTable.begin(); It != M.ExceptionTable.end();) {
    size_t NS = Remap(It->StartIndex);
    size_t NE = Remap(It->EndIndex);
    size_t H = It->HandlerIndex;
    size_t NH = H >= LE ? H - Cut : (H >= LS ? LS : H);
    if (NS >= NE || NH >= NewSize) {
      It = M.ExceptionTable.erase(It);
      continue;
    }
    It->StartIndex = static_cast<uint32_t>(NS);
    It->EndIndex = static_cast<uint32_t>(NE);
    It->HandlerIndex = static_cast<uint32_t>(NH);
    ++It;
  }

  M.Body.erase(M.Body.begin() + LS, M.Body.begin() + LE);
  return true;
}

/// Deletes level elements [Start, Start+Len) from \p C. Throws and
/// statement indices are flattened across methods in declaration order
/// and may span method boundaries; flat coordinates always refer to the
/// pre-deletion layout (method sizes are captured before each cut).
/// Returns false when the candidate is structurally doomed.
bool applyDeletion(JirClass &C, int Lv, size_t Start, size_t Len) {
  size_t End = Start + Len;
  switch (Lv) {
  case LvMethods:
    C.Methods.erase(C.Methods.begin() + Start, C.Methods.begin() + End);
    return true;
  case LvFields:
    C.Fields.erase(C.Fields.begin() + Start, C.Fields.begin() + End);
    return true;
  case LvInterfaces:
    C.Interfaces.erase(C.Interfaces.begin() + Start,
                       C.Interfaces.begin() + End);
    return true;
  case LvThrows: {
    size_t Base = 0;
    for (JirMethod &M : C.Methods) {
      size_t Sz = M.Exceptions.size();
      size_t Lo = std::max(Start, Base);
      size_t Hi = std::min(End, Base + Sz);
      if (Lo < Hi)
        M.Exceptions.erase(M.Exceptions.begin() + (Lo - Base),
                           M.Exceptions.begin() + (Hi - Base));
      Base += Sz;
    }
    return true;
  }
  case LvStatements: {
    size_t Base = 0;
    for (JirMethod &M : C.Methods) {
      size_t Sz = M.Body.size();
      size_t Lo = std::max(Start, Base);
      size_t Hi = std::min(End, Base + Sz);
      if (Lo < Hi && !deleteLocalStmtRange(M, Lo - Base, Hi - Base))
        return false;
      Base += Sz;
    }
    return true;
  }
  }
  return false;
}

/// Largest power of two <= N/2 (at least 1): the first ddmin rung.
size_t initialChunk(size_t N) {
  size_t C = 1;
  while (C * 4 <= N)
    C *= 2;
  return C;
}

} // namespace

Result<Bytes> classfuzz::reduceClassfile(const Bytes &Input,
                                         const ReductionOracle &Oracle,
                                         const ReducerOptions &Opts,
                                         ReductionStats *StatsOut) {
  telemetry::PhaseTimer WallT(
      telemetry::metrics().histogram("reducer.wall_ns"), "reduce");
  telemetry::Histogram &ProbeNs =
      telemetry::metrics().histogram("reducer.probe_ns");
  telemetry::Histogram &ChunkLenHist =
      telemetry::metrics().histogram("reducer.chunk_len");
  auto &FR = telemetry::flightRecorder();

  ReductionStats S;

  // Accounted once at exit (all paths, success or error): stats are
  // tallied locally either way, so the enabled/disabled difference is a
  // branch and a few increments.
  struct Accounting {
    const ReductionStats &S;
    ~Accounting() {
      if (!telemetry::enabled())
        return;
      auto &M = telemetry::metrics();
      M.counter("reducer.runs").inc();
      M.counter("reducer.oracle_queries").inc(S.OracleQueries);
      M.counter("reducer.cache_hits").inc(S.CacheHits);
      M.counter("reducer.cache_misses").inc(S.CacheMisses);
      M.counter("reducer.deletions_kept").inc(S.DeletionsKept);
      M.counter("reducer.chunk_deletions_kept").inc(S.ChunkDeletionsKept);
      M.counter("reducer.skipped_structural").inc(S.SkippedStructural);
      M.counter("reducer.assembly_failures").inc(S.AssemblyFailures);
      if (S.BudgetExhausted)
        M.counter("reducer.budget_exhausted").inc();
      if (telemetry::eventSink())
        telemetry::EventBuilder("reducer.end")
            .field("oracle_queries", static_cast<uint64_t>(S.OracleQueries))
            .field("cache_hits", static_cast<uint64_t>(S.CacheHits))
            .field("deletions_kept", static_cast<uint64_t>(S.DeletionsKept))
            .field("chunk_deletions",
                   static_cast<uint64_t>(S.ChunkDeletionsKept))
            .field("methods_removed",
                   static_cast<uint64_t>(S.MethodsRemoved))
            .field("statements_removed",
                   static_cast<uint64_t>(S.StatementsRemoved))
            .field("budget_exhausted",
                   static_cast<uint64_t>(S.BudgetExhausted ? 1 : 0))
            .emit();
    }
  } Account{S};

  auto Done = [&](Result<Bytes> R) {
    if (StatsOut)
      *StatsOut = S;
    return R;
  };

  auto Lowered = lowerClassBytes(Input);
  if (!Lowered)
    return Done(
        makeError("cannot lower input for reduction: " + Lowered.error()));
  JirClass J = Lowered.take();

  auto InitialBytes = assembleToBytes(J);
  if (!InitialBytes)
    return Done(makeError("cannot reassemble input for reduction: " +
                          InitialBytes.error()));

  // Memo cache: FNV-1a hash of assembled candidate bytes -> verdict.
  std::unordered_map<uint64_t, bool> Cache;

  // Probe the input itself first. An exhausted budget here (including
  // MaxOracleQueries == 0) is a budget failure, not oracle rejection.
  if (Opts.MaxOracleQueries == 0) {
    S.BudgetExhausted = true;
    return Done(makeError(
        "oracle query budget exhausted before the input was tested"));
  }
  Bytes Best = InitialBytes.take();
  bool InputTriggers;
  {
    telemetry::PhaseTimer ProbeT(ProbeNs, "reduce-probe");
    InputTriggers = Oracle(J.Name, Best);
  }
  ++S.OracleQueries;
  ++S.CacheMisses;
  Cache[hashBytes(Best)] = InputTriggers;
  FR.record(telemetry::FlightKind::ReducerQuery, 0, Best.size(),
            InputTriggers ? 1 : 0);
  if (!InputTriggers)
    return Done(makeError("input does not satisfy the reduction oracle"));

  // Probes deleting level elements [Start, Start+Len) from J: structural
  // pre-check, assembly, cache, then (budget permitting) the oracle.
  // Returns true when the deletion was kept; it is then adopted into J
  // and credited to its level. Sets S.BudgetExhausted instead of asking
  // the oracle past the budget.
  size_t *const Removed[NumLevels] = {&S.MethodsRemoved, &S.FieldsRemoved,
                                      &S.InterfacesRemoved, &S.ThrowsRemoved,
                                      &S.StatementsRemoved};
  auto probe = [&](int Lv, size_t Start, size_t Len) {
    JirClass Candidate = J;
    if (!applyDeletion(Candidate, Lv, Start, Len)) {
      ++S.SkippedStructural;
      return false;
    }
    auto Data = assembleToBytes(Candidate);
    if (!Data) {
      ++S.AssemblyFailures;
      return false;
    }
    const uint64_t Hash = hashBytes(*Data);
    bool Kept;
    auto CIt = Cache.find(Hash);
    if (CIt != Cache.end()) {
      ++S.CacheHits;
      Kept = CIt->second;
    } else {
      if (S.OracleQueries >= Opts.MaxOracleQueries) {
        S.BudgetExhausted = true;
        return false;
      }
      {
        telemetry::PhaseTimer ProbeT(ProbeNs, "reduce-probe");
        Kept = Oracle(Candidate.Name, *Data);
      }
      ++S.OracleQueries;
      ++S.CacheMisses;
      Cache[Hash] = Kept;
      FR.record(telemetry::FlightKind::ReducerQuery, S.OracleQueries - 1,
                Data->size(), Kept ? 1 : 0);
    }
    if (!Kept)
      return false;

    J = std::move(Candidate);
    Best = Data.take();
    ++S.DeletionsKept;
    *Removed[Lv] += Len;
    if (Len > 1) {
      ++S.ChunkDeletionsKept;
      S.LargestChunkKept = std::max(S.LargestChunkKept, Len);
      if (telemetry::enabled())
        ChunkLenHist.record(Len);
    }
    FR.record(telemetry::FlightKind::ReducerKept, static_cast<uint64_t>(Lv),
              Start, Len);
    return true;
  };

  // Sweeps over the levels coarse to fine until a sweep keeps nothing.
  // Per level: ddmin rungs of end-aligned windows of ~n/2, n/4, ..., 1
  // elements, each rung scanned back to front so the indices still to
  // be probed stay valid after a kept deletion; then, on statements, an
  // unaligned stride-1 pair scan (its re-probes of aligned windows
  // resolve from the cache). A kept deletion recounts the level and the
  // scan resumes just below it. No probe runs once the budget is out.
  for (bool Changed = true; Changed && !S.BudgetExhausted;) {
    Changed = false;
    for (int Lv = 0; Lv != NumLevels; ++Lv) {
      size_t Count = levelCount(J, Lv);
      for (size_t Chunk = Opts.ChunkedHdd ? initialChunk(Count) : 1;;
           Chunk /= 2) {
        for (size_t Pos = Count; Pos > 0 && !S.BudgetExhausted;) {
          const size_t Start = Pos > Chunk ? Pos - Chunk : 0;
          if (probe(Lv, Start, Pos - Start)) {
            Changed = true;
            Count = levelCount(J, Lv);
          }
          Pos = std::min(Start, Count);
        }
        if (Chunk == 1)
          break;
      }
      if (Lv != LvStatements)
        continue;
      for (size_t Pos = Count; Pos >= 2 && !S.BudgetExhausted;) {
        const size_t Start = Pos - 2;
        if (probe(Lv, Start, 2)) {
          Changed = true;
          Count = levelCount(J, Lv);
        }
        Pos = std::min(Start + 1, Count);
      }
    }
  }

  // Return the exact bytes the oracle last accepted (no re-assembly).
  return Done(std::move(Best));
}

Result<Bytes> classfuzz::reduceClassfile(const Bytes &Input,
                                         const ReductionOracle &Oracle,
                                         ReductionStats *Stats,
                                         size_t MaxOracleQueries) {
  ReducerOptions Opts;
  Opts.MaxOracleQueries = MaxOracleQueries;
  return reduceClassfile(Input, Oracle, Opts, Stats);
}
