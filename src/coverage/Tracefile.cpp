//===- coverage/Tracefile.cpp ---------------------------------------------===//

#include "coverage/Tracefile.h"

#include "support/Hashing.h"
#include "telemetry/Telemetry.h"

#include <algorithm>

using namespace classfuzz;

namespace {

/// Merges sorted, distinct \p Add into sorted, distinct \p Into in place:
/// counts the new ids, grows \p Into once, then merges from the back so
/// no element is moved twice. Nothing is written when nothing is new.
void mergeSortedInto(std::vector<uint32_t> &Into,
                     const std::vector<uint32_t> &Add) {
  size_t New = 0;
  auto It = Into.begin();
  for (uint32_t Id : Add) {
    It = std::lower_bound(It, Into.end(), Id);
    New += It == Into.end() || *It != Id;
  }
  if (New == 0)
    return;
  size_t I = Into.size(), J = Add.size(), W = Into.size() + New;
  Into.resize(W);
  while (J != 0) {
    uint32_t Id = Add[J - 1];
    if (I != 0 && Into[I - 1] >= Id) {
      J -= Into[I - 1] == Id;
      Into[--W] = Into[--I];
    } else {
      Into[--W] = Id;
      --J;
    }
  }
}

} // namespace

void Tracefile::insertSorted(std::vector<uint32_t> &Ids, uint32_t Id) {
  auto It = std::lower_bound(Ids.begin(), Ids.end(), Id);
  if (It == Ids.end() || *It != Id)
    Ids.insert(It, Id);
}

Tracefile Tracefile::mergedWith(const Tracefile &Other) const {
  Tracefile Out = *this;
  Out.merge(Other);
  return Out;
}

void Tracefile::merge(const Tracefile &Other) {
  mergeSortedInto(Stmts, Other.Stmts);
  mergeSortedInto(Branches, Other.Branches);
}

bool Tracefile::covers(const Tracefile &Other) const {
  return std::includes(Stmts.begin(), Stmts.end(), Other.Stmts.begin(),
                       Other.Stmts.end()) &&
         std::includes(Branches.begin(), Branches.end(),
                       Other.Branches.begin(), Other.Branches.end());
}

uint64_t Tracefile::fingerprint() const {
  Hasher H;
  for (uint32_t Id : Stmts)
    H.addU32(Id);
  H.addU32(0xFFFFFFFF); // Separator between the two sets.
  for (uint32_t Id : Branches)
    H.addU32(Id);
  return H.value();
}

// ---- CoverageRecorder -----------------------------------------------------

/// Per-thread free list of clean scratch blocks. A handful covers every
/// recorder one thread has alive at once (the campaign and the difftest
/// hold one at a time); blocks beyond that are freed.
struct CoverageRecorder::ScratchPool {
  static constexpr size_t MaxFree = 4;
  std::vector<std::unique_ptr<Scratch>> Free;

  static ScratchPool &local() {
    thread_local ScratchPool Pool;
    return Pool;
  }
};

void CoverageRecorder::acquireScratch() {
  ScratchPool &Pool = ScratchPool::local();
  if (Pool.Free.empty()) {
    S = std::make_unique<Scratch>();
    return;
  }
  S = std::move(Pool.Free.back());
  Pool.Free.pop_back();
}

CoverageRecorder::~CoverageRecorder() {
  if (!S)
    return;
  cleanScratch();
  ScratchPool &Pool = ScratchPool::local();
  if (Pool.Free.size() < ScratchPool::MaxFree)
    Pool.Free.push_back(std::move(S));
}

void CoverageRecorder::cleanScratch() {
  for (uint32_t Id : S->TouchedStmts) {
    uint32_t Bit = slotOf(Id);
    S->Bits[Bit >> 6] &= ~(uint64_t(1) << (Bit & 63));
  }
  for (uint32_t Id : S->TouchedBranches) {
    uint32_t Bit = branchBit(slotOf(Id >> 1), Id);
    S->Bits[Bit >> 6] &= ~(uint64_t(1) << (Bit & 63));
  }
  S->TouchedStmts.clear();
  S->TouchedBranches.clear();
}

void CoverageRecorder::recordFallback(uint32_t Id, bool Branch) {
  Fallback.insert(uint64_t(Branch) << 32 | Id);
}

Tracefile CoverageRecorder::trace() const {
  // Copies are exact-size: traces are kept per mutant, 4 bytes per id.
  std::vector<uint32_t> Stmts, Branches;
  if (S) {
    Stmts = S->TouchedStmts;
    Branches = S->TouchedBranches;
  }
  std::sort(Stmts.begin(), Stmts.end());
  std::sort(Branches.begin(), Branches.end());
  Tracefile Out(std::move(Stmts), std::move(Branches));
  for (uint64_t Tagged : Fallback) {
    uint32_t Id = static_cast<uint32_t>(Tagged);
    if (Tagged >> 32)
      Out.addBranch(Id >> 1, Id & 1);
    else
      Out.addStmt(Id);
  }
  return Out;
}

Tracefile CoverageRecorder::takeTrace() {
  Tracefile Out = trace();
  if (S)
    cleanScratch();
  Fallback.clear();

  // Exact work counters, charged once per run rather than per probe.
  if (telemetry::enabled()) {
    static telemetry::Counter &ProbesC =
        telemetry::metrics().counter("work.coverage_probes");
    static telemetry::Counter &IdsC =
        telemetry::metrics().counter("work.coverage_ids");
    ProbesC.inc(Probes);
    IdsC.inc(Out.stmtCount() + Out.branchCount());
  }
  Probes = 0;
  return Out;
}
