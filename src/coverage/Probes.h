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
/// (the execution tiers' named sites in jvm/ExecProbes.h share 4).
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
