//===- coverage/Probes.h - Coverage probe macros for the reference JVM ---===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper instruments HotSpot's classfile/ package with GCOV and reads
/// LCOV statement/branch statistics. Our substitute is explicit probes in
/// the mini JVM's classfile-processing code: each translation unit picks a
/// unique file id (CF_COV_FILE), and probe ids are (file id << 16 | line),
/// giving the same "which source statements / branch directions ran"
/// signal at nanosecond cost.
///
/// The full id layout. Every id is (file id << 16) | site; the site space
/// of each file is split into the segments below, and each segment is a
/// dense range of the CoverageRecorder bitmap (Tracefile.h, slotOf), so a
/// probe costs one bit test. Branch probes store (id << 1 | taken).
///
///   file 1, FormatChecker.cpp
///     0x0000-0x1FFF  `__LINE__` probes
///   file 2, Verifier.cpp
///     0x0000-0x1FFF  `__LINE__` probes
///     0x8000-0x80FF  per-opcode dispatch: 0x8000 | opcode
///     0xA000-0xA0FF  field access: (type kind << 2) | (array ? 2 : 0)
///                    | (op & 1)
///     0xB000-0xB1FF  invoke: (min(args, 7) << 6) | (return kind << 2)
///                    | (op & 3)
///     0xC000-0xC0FF  type merge: (kind A << 4) | kind B
///   file 3, Vm.cpp
///     0x0000-0x1FFF  `__LINE__` probes
///     0x4000-0x40FF  abort census: (error kind << 3) | phase
///     0xE000-0xE7FF  parser paths: 0xE0xx constant-pool tags, 0xE1xx
///                    class flag bits, 0xE2xx/0xE3xx/0xE4xx method/field/
///                    interface count buckets, 0xE5xx method flag bits,
///                    0xE600/0xE601 Code and throws branches, 0xE7xx
///                    field flag bits
///   file 4, Interp.cpp and the execution tiers (jvm/ExecProbes.h)
///     0x0000-0x1FFF  `__LINE__` probes
///     0x4000-0x40FF  named execution sites
///     0x8000-0x80FF  per-opcode dispatch: 0x8000 | opcode
///
/// Any other id (a new file id, a site outside these segments, a
/// hand-built id in tests) is still recorded exactly, through the
/// recorder's ordered fallback set, at std::set cost. A new probe range
/// belongs in this table and in CoverageRecorder::Segments.
///
/// Usage inside a class with a `CoverageRecorder *Cov` member:
/// \code
///   CF_COV_FILE(3);
///   COV_STMT(Cov);                          // statement probe
///   if (COV_BRANCH(Cov, Flags & ACC_STATIC)) // branch probe, both arms
///     ...
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_COVERAGE_PROBES_H
#define CLASSFUZZ_COVERAGE_PROBES_H

#include "coverage/Tracefile.h"

namespace classfuzz {

/// Records a branch outcome and passes the condition through, so probes
/// can wrap conditions in place.
inline bool covBranch(CoverageRecorder *Cov, uint32_t SiteId, bool Taken) {
  if (Cov)
    Cov->branch(SiteId, Taken);
  return Taken;
}

inline void covStmt(CoverageRecorder *Cov, uint32_t Id) {
  if (Cov)
    Cov->stmt(Id);
}

} // namespace classfuzz

/// Declares this translation unit's probe namespace. \p Id must be unique
/// across the jvm module: 1=FormatChecker, 2=Verifier, 3=Vm, 4=Interp
/// (the execution tiers' named sites in jvm/ExecProbes.h share 4). Ids
/// 1-4 are the recorder's dense files; see the layout table above.
#define CF_COV_FILE(Id)                                                        \
  namespace {                                                                  \
  constexpr uint32_t CovFileId = (Id);                                         \
  }

/// Statement probe at the current line.
#define COV_STMT(Cov)                                                          \
  ::classfuzz::covStmt((Cov), (CovFileId << 16) | __LINE__)

/// Branch probe at the current line; evaluates to the condition.
#define COV_BRANCH(Cov, Taken)                                                 \
  ::classfuzz::covBranch((Cov), (CovFileId << 16) | __LINE__, (Taken))

#endif // CLASSFUZZ_COVERAGE_PROBES_H
