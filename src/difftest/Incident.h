//===- difftest/Incident.h - Discrepancy incident bundles ----------------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Incident bundles (DESIGN.md §9): when a differential run surfaces a
/// discrepancy (or a profile aborts with InternalError), the campaign
/// dumps a self-contained directory holding everything needed to triage
/// and replay the finding offline:
///
///   incident-NNNN-<encoded>/
///     mutant.class    raw mutant bytes as tested
///     lineage.json    provenance + environment spec (fuzzing/Provenance.h)
///     outcomes.json   per-profile results + the encoded sequence
///     replay.sh       runs `classfuzz replay .` from the bundle
///     flightrec.jsonl last N flight-recorder events, when armed
///     reduced.class   reducer output, when the reducer ran
///     analysis.json   static-analyzer report, for self-check bundles
///
/// Self-check bundles (a predict-vs-observe mismatch of the static
/// analyzer, DESIGN.md §11) use the "selfcheck-NNNN-<encoded>" prefix
/// instead of "incident-".
///
/// Every file is deterministic -- no timestamps, no absolute paths, no
/// host names -- so for a fixed campaign seed the bundle's contents are
/// byte-identical across runs and --jobs values.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_DIFFTEST_INCIDENT_H
#define CLASSFUZZ_DIFFTEST_INCIDENT_H

#include "difftest/DiffTest.h"
#include "fuzzing/Provenance.h"
#include "support/Result.h"

#include <string>
#include <vector>

namespace classfuzz {

/// Everything one incident captures.
struct Incident {
  std::string MutantName;
  Bytes MutantData;
  DiffOutcome Outcome;
  /// Names of the profiles Outcome ran on, in Encoded order.
  std::vector<std::string> ProfileNames;
  /// Execution tier of each profile ("threaded"/"baseline"), in Encoded
  /// order. Empty entries (or a short vector) default to
  /// "threaded" in outcomes.json, so pre-tier callers stay valid.
  std::vector<std::string> ProfileTiers;
  Provenance Prov;
  CampaignEnvSpec Env;
  /// Reduced classfile when the reducer ran and shrank the mutant.
  Bytes Reduced;
  bool HasReduced = false;
  /// Static-analyzer report (analysis.json), when the bundle latches a
  /// predict-vs-observe self-check mismatch. Empty skips the file.
  std::string AnalysisJson;
  /// Self-check bundles are named "selfcheck-NNNN-<encoded>" so a
  /// directory of incidents separates oracle bugs from JVM
  /// discrepancies at a glance.
  bool SelfCheck = false;
  /// How many trailing flight-recorder events to embed (0 skips the
  /// file even when the recorder is armed).
  size_t FlightTail = 64;
};

/// Renders outcomes.json: the encoded sequence, discrepancy flag, and
/// each profile's full result. Stable formatting, byte-identical for
/// equal inputs.
std::string outcomesJson(const Incident &Inc);

/// Writes the bundle directory `incident-NNNN-<encoded>` under \p Dir
/// (created if needed) and returns its path. Also records an
/// IncidentDumped flight event. Fails on I/O errors with a diagnostic.
Result<std::string> writeIncidentBundle(const std::string &Dir, size_t Index,
                                        const Incident &Inc);

} // namespace classfuzz

#endif // CLASSFUZZ_DIFFTEST_INCIDENT_H
