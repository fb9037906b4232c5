//===- tests/coverage/tracefile_test.cpp -----------------------------------===//

#include "coverage/Tracefile.h"

#include "support/Hashing.h"
#include "support/Rng.h"
#include "telemetry/Telemetry.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

using namespace classfuzz;

// Counts this binary's heap allocations, so a test can assert that a code
// path allocates nothing.
namespace {
std::atomic<uint64_t> NumAllocations{0};
} // namespace

void *operator new(std::size_t Size) {
  NumAllocations.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t Size) { return ::operator new(Size); }
// Not inlined: inlined into a delete-expression, the free() would look to
// GCC like a mismatched deallocation (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete[](void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}
[[gnu::noinline]] void operator delete[](void *P, std::size_t) noexcept {
  std::free(P);
}

TEST(Tracefile, CountsDistinctStatements) {
  Tracefile T;
  T.addStmt(1);
  T.addStmt(2);
  T.addStmt(1); // Duplicate: sets, not counters.
  EXPECT_EQ(T.stmtCount(), 2u);
}

TEST(Tracefile, BranchDirectionsAreDistinct) {
  Tracefile T;
  T.addBranch(10, true);
  T.addBranch(10, false);
  T.addBranch(10, true);
  EXPECT_EQ(T.branchCount(), 2u) << "taken and not-taken are separate";
}

TEST(Tracefile, MergeIsUnion) {
  Tracefile A, B;
  A.addStmt(1);
  A.addBranch(5, true);
  B.addStmt(2);
  B.addBranch(5, false);
  Tracefile M = A.mergedWith(B);
  EXPECT_EQ(M.stmtCount(), 2u);
  EXPECT_EQ(M.branchCount(), 2u);
  // ⊕ with a subset leaves the trace unchanged (the [tr] criterion).
  EXPECT_TRUE(M.mergedWith(A).sameSets(M));
}

TEST(Tracefile, SameSetsIsExact) {
  Tracefile A, B;
  A.addStmt(1);
  B.addStmt(1);
  EXPECT_TRUE(A.sameSets(B));
  B.addBranch(2, true);
  EXPECT_FALSE(A.sameSets(B));
}

TEST(Tracefile, FingerprintMatchesSetEquality) {
  Tracefile A, B;
  for (uint32_t I : {5u, 9u, 1u})
    A.addStmt(I);
  for (uint32_t I : {1u, 5u, 9u})
    B.addStmt(I); // Different insertion order, same set.
  EXPECT_EQ(A.fingerprint(), B.fingerprint());
  B.addStmt(100);
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

TEST(Tracefile, FingerprintSeparatesStmtsFromBranches) {
  Tracefile A, B;
  A.addStmt(4);
  B.addBranch(2, false); // Branch id 2<<1|0 = 4 in the branch set.
  EXPECT_NE(A.fingerprint(), B.fingerprint());
}

TEST(CoverageRecorder, AccumulatesAndResets) {
  CoverageRecorder Rec;
  Rec.stmt(1);
  Rec.branch(2, true);
  EXPECT_EQ(Rec.trace().stmtCount(), 1u);
  EXPECT_EQ(Rec.trace().branchCount(), 1u);
  Tracefile T = Rec.takeTrace();
  EXPECT_EQ(T.stmtCount(), 1u);
  EXPECT_TRUE(Rec.trace().empty()) << "takeTrace resets the recorder";
}

TEST(CoverageRecorder, DefaultConstructedRecorderAllocatesNothing) {
  uint64_t Before = NumAllocations.load();
  {
    CoverageRecorder Rec;
    EXPECT_FALSE(Rec.hasBitmap());
    Tracefile T = Rec.takeTrace();
    EXPECT_TRUE(T.empty());
    EXPECT_FALSE(Rec.hasBitmap());
  }
  EXPECT_EQ(NumAllocations.load(), Before)
      << "constructing, draining and destroying an idle recorder allocates";
}

namespace {

/// A std::set recorder: the reference model.
struct SetRecorder {
  std::set<uint32_t> Stmts, Branches;
  uint64_t Probes = 0;

  void stmt(uint32_t Id) {
    ++Probes;
    Stmts.insert(Id);
  }
  void branch(uint32_t Site, bool Taken) {
    ++Probes;
    Branches.insert(Site << 1 | static_cast<uint32_t>(Taken));
  }
  /// The fingerprint as defined over the sets: ascending statements, a
  /// separator, ascending branches.
  uint64_t fingerprint() const {
    Hasher H;
    for (uint32_t Id : Stmts)
      H.addU32(Id);
    H.addU32(0xFFFFFFFF);
    for (uint32_t Id : Branches)
      H.addU32(Id);
    return H.value();
  }
};

/// A random probe id from every range the probes use, plus neighbours
/// just outside each dense segment and ids no probe produces.
uint32_t randomProbeId(Rng &R) {
  static const std::vector<uint32_t> PastSegments = {
      0x2000, 0x4100, 0x8100, 0xA100, 0xB200, 0xC100, 0xE800};
  static const std::vector<uint32_t> UnmappedBlocks = {0x3000, 0x5000, 0x9000,
                                                       0xD000, 0xF000};
  uint32_t File = 1 + static_cast<uint32_t>(R.nextBelow(4));
  auto In = [&](uint32_t Lo, uint32_t Size) {
    return (File << 16) | (Lo + static_cast<uint32_t>(R.nextBelow(Size)));
  };
  switch (R.nextBelow(14)) {
  case 0:
  case 1:
    return In(0, 0x2000); // __LINE__ probes.
  case 2:
    return In(0x4000, 0x100); // Abort census / exec sites.
  case 3:
    return In(0x8000, 0x100); // Per-opcode.
  case 4:
    return In(0xA000, 0x100); // Verifier field-type shapes.
  case 5:
    return In(0xB000, 0x200); // Verifier signature shapes.
  case 6:
    return In(0xC000, 0x100); // Verifier merge pairs.
  case 7:
    return In(0xE000, 0x800); // Parser paths.
  case 8: // Just past a dense segment.
    return In(R.choice(PastSegments), 0x40);
  case 9: // Unmapped blocks of a file's site space.
    return In(R.choice(UnmappedBlocks), 0x1000);
  case 10: // File 0 (hand-built ids such as 1, 2, 10).
    return static_cast<uint32_t>(R.nextBelow(0x10000));
  case 11: // Files past the dense layout.
    return static_cast<uint32_t>(5 + R.nextBelow(64)) << 16 |
           static_cast<uint32_t>(R.nextBelow(0x10000));
  case 12: // Sites whose top bit the branch encoding shifts out.
    return 0x80000000u | In(0, 0x2000);
  default:
    return static_cast<uint32_t>(R.next());
  }
}

void expectMatches(const Tracefile &T, const SetRecorder &Ref) {
  EXPECT_EQ(T.stmts(), std::vector<uint32_t>(Ref.Stmts.begin(),
                                             Ref.Stmts.end()));
  EXPECT_EQ(T.branches(), std::vector<uint32_t>(Ref.Branches.begin(),
                                                Ref.Branches.end()));
  EXPECT_EQ(T.fingerprint(), Ref.fingerprint());
}

/// Replays \p Len random probes (drawn from a pool of \p Distinct ids, so
/// most repeat) into both recorders.
void replayStream(Rng &R, size_t Len, size_t Distinct, CoverageRecorder &Rec,
                  SetRecorder &Ref) {
  std::vector<uint32_t> Pool;
  for (size_t I = 0; I != Distinct; ++I)
    Pool.push_back(randomProbeId(R));
  for (size_t I = 0; I != Len; ++I) {
    uint32_t Id = R.choice(Pool);
    if (R.nextBool(0.3)) {
      bool Taken = R.nextBool();
      Rec.branch(Id, Taken);
      Ref.branch(Id, Taken);
    } else {
      Rec.stmt(Id);
      Ref.stmt(Id);
    }
  }
}

} // namespace

TEST(CoverageRecorder, MatchesSetReferenceOnRandomStreams) {
  Rng R(22);
  // One recorder reused across rounds: a stale bit from an earlier round
  // would drop an id the reference still records.
  CoverageRecorder Rec;
  for (int Round = 0; Round != 200; ++Round) {
    SetRecorder Ref;
    size_t Distinct = 1 + R.nextBelow(Round % 4 == 0 ? 2000 : 100);
    replayStream(R, R.nextBelow(3000), Distinct, Rec, Ref);
    EXPECT_EQ(Rec.probeCount(), Ref.Probes);
    expectMatches(Rec.trace(), Ref); // A snapshot leaves the run intact.
    expectMatches(Rec.takeTrace(), Ref);
    EXPECT_EQ(Rec.probeCount(), 0u);
    EXPECT_TRUE(Rec.takeTrace().empty()) << "round " << Round;
  }
}

TEST(CoverageRecorder, TwoRecordersOnOneThreadStayApart) {
  Rng R(23);
  for (int Round = 0; Round != 50; ++Round) {
    CoverageRecorder A;
    SetRecorder RefA, RefB;
    replayStream(R, 500, 80, A, RefA);
    {
      // B takes its own scratch while A still holds one; their streams
      // interleave.
      CoverageRecorder B;
      replayStream(R, 500, 80, B, RefB);
      replayStream(R, 500, 80, A, RefA);
      expectMatches(B.takeTrace(), RefB);
      replayStream(R, 200, 40, B, RefB); // Dropped undrained.
    }
    expectMatches(A.takeTrace(), RefA);
    // A recorder made after B's destruction reuses a handed-back block,
    // which must be clean.
    CoverageRecorder C;
    SetRecorder RefC;
    replayStream(R, 300, 60, C, RefC);
    expectMatches(C.takeTrace(), RefC);
  }
}

TEST(CoverageRecorder, DenseSlotsAreDistinctAndCoverEveryProbeRange) {
  std::vector<bool> Used;
  size_t Mapped = 0;
  for (uint32_t Id = 0; Id != (6u << 16); ++Id) {
    uint32_t Slot = CoverageRecorder::slotOf(Id);
    if (Slot == CoverageRecorder::NoSlot)
      continue;
    ++Mapped;
    if (Used.size() <= Slot)
      Used.resize(Slot + 1);
    EXPECT_FALSE(Used[Slot]) << "slot " << Slot << " reused by id " << Id;
    Used[Slot] = true;
  }
  EXPECT_EQ(Mapped, Used.size()) << "slots are dense";
  for (uint32_t File = 1; File <= 4; ++File)
    for (uint32_t Site : {0x0000u, 0x1FFFu, 0x4000u, 0x40FFu, 0x8000u,
                          0x80FFu, 0xA000u, 0xA0FFu, 0xB000u, 0xB1FFu,
                          0xC000u, 0xC0FFu, 0xE000u, 0xE7FFu})
      EXPECT_NE(CoverageRecorder::slotOf(File << 16 | Site),
                CoverageRecorder::NoSlot)
          << std::hex << (File << 16 | Site);
  for (uint32_t Id : {0x00001u, 0x12000u, 0x14100u, 0x38100u, 0x2A100u,
                      0x2B200u, 0x2C100u, 0x3E800u, 0x5E000u})
    EXPECT_EQ(CoverageRecorder::slotOf(Id), CoverageRecorder::NoSlot)
        << std::hex << Id;
}

TEST(CoverageRecorder, ChargesWorkCountersAtTakeTrace) {
  telemetry::setEnabled(true);
  telemetry::Counter &Probes =
      telemetry::metrics().counter("work.coverage_probes");
  telemetry::Counter &Ids = telemetry::metrics().counter("work.coverage_ids");
  uint64_t P0 = Probes.value(), I0 = Ids.value();
  CoverageRecorder Rec;
  for (int I = 0; I != 10; ++I)
    Rec.stmt((4u << 16) | 0x8000u | (I % 3));
  Rec.branch((2u << 16) | 100, true);
  Rec.branch((2u << 16) | 100, false);
  Rec.stmt(7); // Fallback id.
  EXPECT_EQ(Probes.value(), P0) << "nothing is charged per probe";
  (void)Rec.takeTrace();
  EXPECT_EQ(Probes.value() - P0, 13u);
  EXPECT_EQ(Ids.value() - I0, 6u);
  (void)Rec.takeTrace();
  EXPECT_EQ(Probes.value() - P0, 13u);
  telemetry::setEnabled(false);
}

TEST(Tracefile, MergeSameSetsAndFingerprintMatchSetSemantics) {
  Rng R(24);
  for (int Round = 0; Round != 300; ++Round) {
    SetRecorder RefA, RefB;
    Tracefile A, B;
    auto Fill = [&](Tracefile &T, SetRecorder &Ref, size_t N) {
      for (size_t I = 0; I != N; ++I) {
        uint32_t Id = static_cast<uint32_t>(R.nextBelow(64));
        if (R.nextBool()) {
          T.addStmt(Id);
          Ref.stmt(Id);
        } else {
          bool Taken = R.nextBool();
          T.addBranch(Id, Taken);
          Ref.branch(Id, Taken);
        }
      }
    };
    Fill(A, RefA, R.nextBelow(40));
    Fill(B, RefB, R.nextBelow(40));
    expectMatches(A, RefA);

    SetRecorder RefU = RefA;
    RefU.Stmts.insert(RefB.Stmts.begin(), RefB.Stmts.end());
    RefU.Branches.insert(RefB.Branches.begin(), RefB.Branches.end());
    expectMatches(A.mergedWith(B), RefU);
    Tracefile InPlace = A;
    InPlace.merge(B);
    expectMatches(InPlace, RefU);
    EXPECT_TRUE(InPlace.covers(A));
    EXPECT_TRUE(InPlace.covers(B));
    EXPECT_EQ(A.covers(B), A.mergedWith(B).sameSets(A));

    bool SameRef = RefA.Stmts == RefB.Stmts && RefA.Branches == RefB.Branches;
    EXPECT_EQ(A.sameSets(B), SameRef);
    EXPECT_EQ(A.fingerprint() == B.fingerprint(), SameRef);
  }
}
