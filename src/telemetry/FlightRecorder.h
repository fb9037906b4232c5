//===- telemetry/FlightRecorder.h - Lock-free event ring buffers ---------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flight recorder: fixed-capacity lock-free ring buffers of recent
/// compact telemetry events, one ring per thread lane, merged on dump.
/// Incident bundles (difftest/Incident.h) embed the tail of the merged
/// stream so a discrepancy arrives with the campaign's last moments
/// attached (DESIGN.md §9).
///
/// Contract:
///
///  * **One relaxed load when disabled.** record() is inline and checks
///    a single relaxed atomic flag before touching anything else; a
///    disabled recorder costs nothing beyond that load (benchmarked by
///    bench_micro_flightrecorder).
///  * **Wait-free when enabled.** Each thread owns a lane (registered on
///    first record); writing an event is a global sequence fetch_add
///    plus five relaxed word stores into the lane's ring. No locks, no
///    allocation after lane registration, no clock read -- events are
///    ordered by sequence number, not wall time, so dumps taken from
///    deterministic record sites are byte-identical across runs and
///    --jobs values (the campaign records at its commit stage, the
///    difftest defers worker-side events to its in-order walk).
///  * **Bounded.** Rings hold the most recent `capacity` events per
///    lane; older entries are overwritten. snapshot() merges all lanes
///    in global sequence order. Concurrent writers can tear an entry
///    mid-overwrite; snapshot discards entries whose sequence stamp is
///    inconsistent instead of reporting garbage.
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_TELEMETRY_FLIGHTRECORDER_H
#define CLASSFUZZ_TELEMETRY_FLIGHTRECORDER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace classfuzz {
namespace telemetry {

/// Small dense integer id for the calling thread, assigned on first
/// use: the process main thread (or whichever thread asks first) gets
/// lane 0, workers get 1, 2, ... Lanes are never reused; both the
/// flight recorder and the Perfetto exporter key per-thread tracks off
/// this id.
uint32_t threadLane();

/// What a flight event describes. Payload words A/B/C are
/// kind-specific; flightEventFieldNames() documents them for rendering.
enum class FlightKind : uint16_t {
  None = 0,
  /// Campaign iteration committed: A=iteration, B=mutator index,
  /// C=packed outcome (bit0 produced, bit1 representative, bits8..15
  /// MutationResult).
  Iteration,
  /// Mutant accepted into TestClasses: A=iteration, B=GenClasses index,
  /// C=FNV-1a hash of the mutant bytes.
  Accepted,
  /// Differential outcome: A=encoded sequence packed as decimal digits
  /// (first profile in the most significant digit), B=1 when a
  /// discrepancy, C=FNV-1a hash of the class name.
  DiffOutcome,
  /// A profile aborted inside the modeled VM with InternalError during
  /// differential execution: A=profile index, B=JvmPhase, C=FNV-1a hash
  /// of the class name.
  VmInternalError,
  /// Reducer oracle query committed: A=query index, B=candidate size in
  /// bytes, C=1 when the candidate kept the discrepancy.
  ReducerQuery,
  /// Reducer kept a deletion: A=hierarchy level (0 methods, 1 fields,
  /// 2 interfaces, 3 throws, 4 statements), B=flattened start index,
  /// C=elements deleted.
  ReducerKept,
  /// Incident bundle written: A=incident index, B=FNV-1a hash of the
  /// class name.
  IncidentDumped,
  /// Tier-diff pair disagreement (same policy, interpreter vs baseline
  /// tier): A=interpreter-tier encoded phase, B=baseline-tier encoded
  /// phase, C=FNV-1a hash of the class name.
  TierDisagreement,
};

const char *flightKindName(FlightKind Kind);
/// Field names of A/B/C for \p Kind (always three entries; unused
/// fields are named "-" and omitted from renderings).
const char *const *flightEventFieldNames(FlightKind Kind);

/// One recorded event, as returned by snapshot().
struct FlightEvent {
  uint64_t Seq = 0; ///< Global record order (deterministic sites only).
  uint32_t Lane = 0;
  FlightKind Kind = FlightKind::None;
  uint64_t A = 0, B = 0, C = 0;
};

/// The recorder. One process-wide instance (flightRecorder()); the CLI
/// arms it for --incidents runs.
class FlightRecorder {
public:
  /// Arms the recorder with rings of \p CapacityPerLane events
  /// (rounded up to a power of two, min 16). Existing lane contents are
  /// discarded. Not thread-safe against concurrent record(); arm
  /// before the run.
  void enable(size_t CapacityPerLane = 1024);
  /// Disarms and drops all recorded events.
  void disable();
  bool enabled() const { return Enabled.load(std::memory_order_relaxed); }

  /// Records one event. The disabled path is exactly one relaxed load.
  void record(FlightKind Kind, uint64_t A = 0, uint64_t B = 0,
              uint64_t C = 0) {
    if (!Enabled.load(std::memory_order_relaxed))
      return;
    recordEnabled(Kind, A, B, C);
  }

  /// Merges every lane's surviving events in global sequence order,
  /// keeping only the last \p LastN (0 = all). Safe to call while other
  /// threads record; torn entries are dropped.
  std::vector<FlightEvent> snapshot(size_t LastN = 0) const;

  /// Renders events as JSONL, one object per line:
  /// {"seq":N,"lane":L,"kind":"...","<field>":V,...}. Stable across
  /// runs (no timestamps), so dumps from deterministic record sites are
  /// byte-identical.
  static std::string renderJsonl(const std::vector<FlightEvent> &Events);

private:
  struct Lane;

  void recordEnabled(FlightKind Kind, uint64_t A, uint64_t B, uint64_t C);
  Lane &laneForThisThread();

  std::atomic<bool> Enabled{false};
  std::atomic<uint64_t> NextSeq{0};
  /// Bumped by enable()/disable(); invalidates per-thread lane caches
  /// so a recycled recorder never serves dangling lane pointers.
  std::atomic<uint64_t> Generation{0};
  size_t Capacity = 0; ///< Power of two; fixed while enabled.
  mutable std::mutex LanesM; ///< Guards Lanes registration/iteration.
  std::vector<std::unique_ptr<Lane>> Lanes;
};

/// The process-wide recorder.
FlightRecorder &flightRecorder();

} // namespace telemetry
} // namespace classfuzz

#endif // CLASSFUZZ_TELEMETRY_FLIGHTRECORDER_H
