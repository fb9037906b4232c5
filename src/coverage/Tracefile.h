//===- coverage/Tracefile.h - Execution trace coverage sets --------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Tracefile records which statements and branches of the reference JVM
/// a classfile exercised (the paper collects these with GCOV/LCOV over
/// HotSpot's classfile/ package; we collect them with compile-time probes,
/// see Probes.h). Statement coverage `tr.stmt` and branch coverage `tr.br`
/// are the statistics compared by the uniqueness criteria of §2.2.3, and
/// the ⊕ merge operator supports the `[tr]` criterion.
///
/// Recording and storage are split (DESIGN.md §13.4): a CoverageRecorder
/// collects one run's probes in a dense bitmap plus a first-hit list, and
/// takeTrace() materializes the Tracefile once, as two sorted, duplicate-
/// free id vectors (4 bytes per id).
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_COVERAGE_TRACEFILE_H
#define CLASSFUZZ_COVERAGE_TRACEFILE_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

namespace classfuzz {

/// The statement/branch hit sets of one execution on the reference JVM,
/// each a sorted vector of distinct ids.
class Tracefile {
public:
  Tracefile() = default;
  /// Adopts id vectors that are already sorted and duplicate-free.
  Tracefile(std::vector<uint32_t> SortedStmts,
            std::vector<uint32_t> SortedBranches)
      : Stmts(std::move(SortedStmts)), Branches(std::move(SortedBranches)) {}

  /// Branch probes record (site, direction): the low bit encodes whether
  /// the branch was taken.
  static uint32_t branchId(uint32_t SiteId, bool Taken) {
    return SiteId << 1 | static_cast<uint32_t>(Taken);
  }

  /// Sorted inserts for hand-built traces (O(size) each); runs record
  /// through a CoverageRecorder instead.
  void addStmt(uint32_t Id) { insertSorted(Stmts, Id); }
  void addBranch(uint32_t SiteId, bool Taken) {
    insertSorted(Branches, branchId(SiteId, Taken));
  }

  /// Statement coverage statistic (number of distinct statements hit).
  size_t stmtCount() const { return Stmts.size(); }
  /// Branch coverage statistic (number of distinct branch directions hit).
  size_t branchCount() const { return Branches.size(); }

  bool empty() const { return Stmts.empty() && Branches.empty(); }
  void clear() {
    Stmts.clear();
    Branches.clear();
  }

  /// The ⊕ operator of §2.2.3: the union tracefile.
  Tracefile mergedWith(const Tracefile &Other) const;
  /// In-place ⊕: adds \p Other's ids, allocating only when one is new.
  void merge(const Tracefile &Other);
  /// True when every id of \p Other is already in this trace (⊕ would
  /// change nothing).
  bool covers(const Tracefile &Other) const;

  /// True when both hit sets are identical (static tracefile equality;
  /// execution order and frequencies are deliberately not recorded).
  bool sameSets(const Tracefile &Other) const {
    return Stmts == Other.Stmts && Branches == Other.Branches;
  }

  /// Order-independent fingerprint of the hit sets (walks both in
  /// ascending id order).
  uint64_t fingerprint() const;

  /// The hit sets, ascending and duplicate-free.
  const std::vector<uint32_t> &stmts() const { return Stmts; }
  const std::vector<uint32_t> &branches() const { return Branches; }

private:
  static void insertSorted(std::vector<uint32_t> &Ids, uint32_t Id);

  std::vector<uint32_t> Stmts;
  std::vector<uint32_t> Branches;
};

/// Receives probe events during one JVM run and accumulates a Tracefile.
/// The Vm holds a (possibly null) pointer to a recorder; a null recorder
/// disables collection, mirroring running a non-reference JVM without
/// coverage instrumentation.
///
/// Probe ids in the dense layout (slotOf) set one bit of a bitmap; the
/// first hit of an id also appends it to a touched list. Any other id is
/// kept in an ordered fallback set. takeTrace() sorts the touched lists
/// into the Tracefile, clears only the touched bits and leaves the
/// recorder empty and reusable. The bitmap and the touched lists live in
/// a scratch block taken on the first dense probe from a per-thread free
/// list (allocated zeroed when the list is empty) and handed back clean
/// by the destructor, so constructing a recorder that records nothing
/// allocates nothing, and a run reuses the last run's block instead of
/// zeroing a new one.
class CoverageRecorder {
public:
  CoverageRecorder() = default;
  ~CoverageRecorder();
  CoverageRecorder(const CoverageRecorder &) = delete;
  CoverageRecorder &operator=(const CoverageRecorder &) = delete;

  void stmt(uint32_t Id) {
    ++Probes;
    uint32_t Slot = slotOf(Id);
    if (Slot == NoSlot)
      return recordFallback(Id, /*Branch=*/false);
    if (markFirstHit(Slot))
      S->TouchedStmts.push_back(Id);
  }
  void branch(uint32_t SiteId, bool Taken) {
    ++Probes;
    uint32_t Id = Tracefile::branchId(SiteId, Taken);
    // Slot from the stored id, not SiteId (the shift drops a site's top
    // bit), so cleanScratch can find the bit again from the id alone.
    uint32_t Site = slotOf(Id >> 1);
    if (Site == NoSlot)
      return recordFallback(Id, /*Branch=*/true);
    if (markFirstHit(branchBit(Site, Id)))
      S->TouchedBranches.push_back(Id);
  }

  /// The hit sets recorded so far, without resetting the recorder.
  Tracefile trace() const;
  /// Materializes the run's Tracefile and resets the recorder: sorts the
  /// touched lists, clears only their bits, and charges the run's
  /// work.coverage_probes / work.coverage_ids while telemetry is enabled.
  Tracefile takeTrace();

  /// Probe calls since the last takeTrace().
  uint64_t probeCount() const { return Probes; }
  /// True once a dense-layout probe took a scratch block.
  bool hasBitmap() const { return S != nullptr; }

  /// Dense slot of a statement-style id ((file << 16) | site), or NoSlot.
  /// Files 1-4 (coverage/Probes.h) each get the same segments of their
  /// 16-bit site space: lines 0x0000-0x1FFF, 0x4000-0x40FF (abort census,
  /// exec sites), 0x8000-0x80FF (per-opcode), 0xA000-0xA0FF,
  /// 0xB000-0xB1FF and 0xC000-0xC0FF (verifier shapes), 0xE000-0xE7FF
  /// (parser paths).
  static constexpr uint32_t NoSlot = ~0u;
  static uint32_t slotOf(uint32_t Id) {
    // File ids 1..4 map to 0..3; file 0 wraps to a huge value.
    uint32_t File = (Id >> 16) - 1;
    const Segment &Seg = Segments[(Id >> 12) & 0xF];
    uint32_t Offset = Id & 0xFFF;
    if (File >= NumFiles || Offset >= Seg.Size)
      return NoSlot;
    return File * SlotsPerFile + Seg.Base + Offset;
  }

private:
  struct Segment {
    uint16_t Base;
    uint16_t Size;
  };
  /// Indexed by site >> 12: where each 4K block of a file's site space
  /// lands in its dense slots, and how much of the block is mapped.
  static constexpr Segment Segments[16] = {
      {0x0000, 0x1000}, {0x1000, 0x1000}, {0, 0},          {0, 0},
      {0x2000, 0x0100}, {0, 0},           {0, 0},          {0, 0},
      {0x2100, 0x0100}, {0, 0},           {0x2200, 0x0100}, {0x2300, 0x0200},
      {0x2500, 0x0100}, {0, 0},           {0x2600, 0x0800}, {0, 0},
  };
  static constexpr uint32_t SlotsPerFile = 0x2E00;
  static constexpr uint32_t NumFiles = 4;
  static constexpr uint32_t NumSlots = NumFiles * SlotsPerFile;
  /// One bit per statement slot, then two per branch site.
  static constexpr uint32_t NumWords = 3 * NumSlots / 64;

  /// Bitmap plus touched lists; clean (all bits zero, lists empty)
  /// whenever it is not held by a recorder.
  struct Scratch {
    uint64_t Bits[NumWords] = {};
    std::vector<uint32_t> TouchedStmts;
    std::vector<uint32_t> TouchedBranches;
  };
  struct ScratchPool;

  /// Branch bits follow the statement bits, two per site.
  static uint32_t branchBit(uint32_t SiteSlot, uint32_t BranchId) {
    return NumSlots + 2 * SiteSlot + (BranchId & 1);
  }
  /// Sets bit \p Bit; true when it was clear (the id's first hit).
  bool markFirstHit(uint32_t Bit) {
    if (!S)
      acquireScratch();
    uint64_t &Word = S->Bits[Bit >> 6];
    uint64_t Mask = uint64_t(1) << (Bit & 63);
    if (Word & Mask)
      return false;
    Word |= Mask;
    return true;
  }
  void acquireScratch();
  /// Clears the touched bits and empties the touched lists.
  void cleanScratch();
  void recordFallback(uint32_t Id, bool Branch);

  std::unique_ptr<Scratch> S;
  /// Ids outside the dense layout, tagged (Branch << 32 | id).
  std::set<uint64_t> Fallback;
  uint64_t Probes = 0;
};

} // namespace classfuzz

#endif // CLASSFUZZ_COVERAGE_TRACEFILE_H
