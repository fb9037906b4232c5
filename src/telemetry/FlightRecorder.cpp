//===- telemetry/FlightRecorder.cpp ----------------------------------------===//

#include "telemetry/FlightRecorder.h"

#include <algorithm>
#include <bit>

using namespace classfuzz;
using namespace classfuzz::telemetry;

uint32_t telemetry::threadLane() {
  static std::atomic<uint32_t> NextLane{0};
  thread_local uint32_t Lane =
      NextLane.fetch_add(1, std::memory_order_relaxed);
  return Lane;
}

const char *telemetry::flightKindName(FlightKind Kind) {
  switch (Kind) {
  case FlightKind::None:
    return "none";
  case FlightKind::Iteration:
    return "iteration";
  case FlightKind::Accepted:
    return "accepted";
  case FlightKind::DiffOutcome:
    return "diff_outcome";
  case FlightKind::VmInternalError:
    return "vm_internal_error";
  case FlightKind::ReducerQuery:
    return "reducer_query";
  case FlightKind::ReducerKept:
    return "reducer_kept";
  case FlightKind::IncidentDumped:
    return "incident_dumped";
  case FlightKind::TierDisagreement:
    return "tier_disagreement";
  }
  return "?";
}

const char *const *telemetry::flightEventFieldNames(FlightKind Kind) {
  static const char *const Iteration[] = {"iter", "mutator", "outcome"};
  static const char *const Accepted[] = {"iter", "gen_index", "class_hash"};
  static const char *const DiffOutcome[] = {"encoded", "discrepancy",
                                            "class_hash"};
  static const char *const VmInternal[] = {"profile", "phase", "class_hash"};
  static const char *const ReducerQuery[] = {"query", "size", "kept"};
  static const char *const ReducerKept[] = {"level", "start", "len"};
  static const char *const Incident[] = {"incident", "class_hash", "-"};
  static const char *const TierDis[] = {"interp_phase", "baseline_phase",
                                        "class_hash"};
  static const char *const Unused[] = {"-", "-", "-"};
  switch (Kind) {
  case FlightKind::Iteration:
    return Iteration;
  case FlightKind::Accepted:
    return Accepted;
  case FlightKind::DiffOutcome:
    return DiffOutcome;
  case FlightKind::VmInternalError:
    return VmInternal;
  case FlightKind::ReducerQuery:
    return ReducerQuery;
  case FlightKind::ReducerKept:
    return ReducerKept;
  case FlightKind::IncidentDumped:
    return Incident;
  case FlightKind::TierDisagreement:
    return TierDis;
  case FlightKind::None:
    break;
  }
  return Unused;
}

/// One ring. An entry is five atomic words; word 0 is the sequence
/// stamp (Seq + 1, 0 = never written) published with release order
/// after the payload words, seqlock-style, so a concurrent snapshot can
/// detect and drop entries torn by an in-progress overwrite.
struct FlightRecorder::Lane {
  static constexpr size_t WordsPerEntry = 5;

  explicit Lane(size_t Capacity)
      : Capacity(Capacity),
        Words(new std::atomic<uint64_t>[Capacity * WordsPerEntry]) {
    for (size_t I = 0; I != Capacity * WordsPerEntry; ++I)
      Words[I].store(0, std::memory_order_relaxed);
  }

  void push(uint64_t Seq, FlightKind Kind, uint64_t A, uint64_t B,
            uint64_t C) {
    size_t Slot = static_cast<size_t>(
                      Head.fetch_add(1, std::memory_order_relaxed)) &
                  (Capacity - 1);
    std::atomic<uint64_t> *E = &Words[Slot * WordsPerEntry];
    E[0].store(0, std::memory_order_release); // Invalidate during rewrite.
    E[1].store(static_cast<uint64_t>(Kind), std::memory_order_relaxed);
    E[2].store(A, std::memory_order_relaxed);
    E[3].store(B, std::memory_order_relaxed);
    E[4].store(C, std::memory_order_relaxed);
    E[0].store(Seq + 1, std::memory_order_release); // Publish.
  }

  void collect(uint32_t LaneId, std::vector<FlightEvent> &Out) const {
    for (size_t Slot = 0; Slot != Capacity; ++Slot) {
      const std::atomic<uint64_t> *E = &Words[Slot * WordsPerEntry];
      uint64_t Stamp = E[0].load(std::memory_order_acquire);
      if (Stamp == 0)
        continue;
      FlightEvent Ev;
      Ev.Kind = static_cast<FlightKind>(
          E[1].load(std::memory_order_relaxed));
      Ev.A = E[2].load(std::memory_order_relaxed);
      Ev.B = E[3].load(std::memory_order_relaxed);
      Ev.C = E[4].load(std::memory_order_relaxed);
      // Drop entries overwritten mid-read.
      if (E[0].load(std::memory_order_acquire) != Stamp)
        continue;
      Ev.Seq = Stamp - 1;
      Ev.Lane = LaneId;
      Out.push_back(Ev);
    }
  }

  size_t Capacity;
  std::atomic<uint64_t> Head{0};
  std::unique_ptr<std::atomic<uint64_t>[]> Words;
};

void FlightRecorder::enable(size_t CapacityPerLane) {
  // Pin the arming thread (the campaign driver) to the lowest free
  // lane before any worker can register one, so the lane ids in dumped
  // flight streams do not depend on worker startup timing.
  threadLane();
  std::lock_guard<std::mutex> Lock(LanesM);
  Capacity = std::max<size_t>(16, std::bit_ceil(CapacityPerLane));
  Lanes.clear();
  NextSeq.store(0, std::memory_order_relaxed);
  Generation.fetch_add(1, std::memory_order_relaxed);
  Enabled.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disable() {
  std::lock_guard<std::mutex> Lock(LanesM);
  Enabled.store(false, std::memory_order_relaxed);
  Generation.fetch_add(1, std::memory_order_relaxed);
  Lanes.clear();
}

FlightRecorder::Lane &FlightRecorder::laneForThisThread() {
  uint32_t Id = threadLane();
  std::lock_guard<std::mutex> Lock(LanesM);
  if (Lanes.size() <= Id)
    Lanes.resize(Id + 1);
  if (!Lanes[Id])
    Lanes[Id] = std::make_unique<Lane>(Capacity);
  return *Lanes[Id];
}

void FlightRecorder::recordEnabled(FlightKind Kind, uint64_t A, uint64_t B,
                                   uint64_t C) {
  // Per-(recorder, generation, thread) lane cache: registration takes
  // the mutex once per thread per enable(); subsequent records are
  // wait-free. The generation check keeps the cached pointer from
  // dangling across enable()/disable() cycles.
  struct Cached {
    FlightRecorder *R = nullptr;
    uint64_t Gen = 0;
    Lane *L = nullptr;
  };
  thread_local Cached TL;
  uint64_t Gen = Generation.load(std::memory_order_relaxed);
  if (TL.R != this || TL.Gen != Gen || !TL.L) {
    TL.R = this;
    TL.Gen = Gen;
    TL.L = &laneForThisThread();
  }
  uint64_t Seq = NextSeq.fetch_add(1, std::memory_order_relaxed);
  TL.L->push(Seq, Kind, A, B, C);
}

std::vector<FlightEvent> FlightRecorder::snapshot(size_t LastN) const {
  std::vector<FlightEvent> Out;
  {
    std::lock_guard<std::mutex> Lock(LanesM);
    for (size_t Id = 0; Id != Lanes.size(); ++Id)
      if (Lanes[Id])
        Lanes[Id]->collect(static_cast<uint32_t>(Id), Out);
  }
  std::sort(Out.begin(), Out.end(),
            [](const FlightEvent &X, const FlightEvent &Y) {
              return X.Seq < Y.Seq;
            });
  if (LastN != 0 && Out.size() > LastN)
    Out.erase(Out.begin(), Out.end() - static_cast<ptrdiff_t>(LastN));
  return Out;
}

std::string FlightRecorder::renderJsonl(
    const std::vector<FlightEvent> &Events) {
  std::string Out;
  for (const FlightEvent &Ev : Events) {
    Out += "{\"seq\":";
    Out += std::to_string(Ev.Seq);
    Out += ",\"lane\":";
    Out += std::to_string(Ev.Lane);
    Out += ",\"kind\":\"";
    Out += flightKindName(Ev.Kind);
    Out += "\"";
    const char *const *Fields = flightEventFieldNames(Ev.Kind);
    const uint64_t Values[3] = {Ev.A, Ev.B, Ev.C};
    for (size_t I = 0; I != 3; ++I) {
      if (Fields[I][0] == '-')
        continue;
      Out += ",\"";
      Out += Fields[I];
      Out += "\":";
      Out += std::to_string(Values[I]);
    }
    Out += "}\n";
  }
  return Out;
}

FlightRecorder &telemetry::flightRecorder() {
  static FlightRecorder Recorder;
  return Recorder;
}
