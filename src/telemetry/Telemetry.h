//===- telemetry/Telemetry.h - Metrics, timers, and event traces ---------===//
//
// Part of classfuzz-cpp (PLDI 2016 classfuzz reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The observability layer: a process-wide MetricRegistry of named
/// counters, gauges, latency histograms, and dense counter grids; scoped
/// PhaseTimers; and a structured JSONL EventSink.
///
/// Design constraints (see DESIGN.md §8):
///
///  * **Observation only.** Telemetry never draws from an Rng, never
///    synchronizes stages of the campaign pipeline, and never feeds back
///    into control flow, so a campaign's committed trajectory is
///    bit-identical with telemetry enabled or disabled.
///  * **Near-zero cost when disabled.** The instrumented hot paths guard
///    on telemetry::enabled() -- one relaxed atomic load and a
///    predictable branch -- before touching any metric. PhaseTimer reads
///    no clock when disabled.
///  * **Thread-safe when enabled.** All metric mutation is relaxed
///    atomics; registration and snapshots take the registry mutex.
///    Registered metric references stay valid for the process lifetime
///    (reset() zeroes values, it never invalidates references).
///
//===----------------------------------------------------------------------===//

#ifndef CLASSFUZZ_TELEMETRY_TELEMETRY_H
#define CLASSFUZZ_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace classfuzz {
namespace telemetry {

/// True when instrumentation should record. Off by default; the CLI
/// turns it on when --stats-json / --trace-events is given.
inline std::atomic<bool> &enabledFlag() {
  static std::atomic<bool> Flag{false};
  return Flag;
}
inline bool enabled() {
  return enabledFlag().load(std::memory_order_relaxed);
}
inline void setEnabled(bool On) {
  enabledFlag().store(On, std::memory_order_relaxed);
}

/// A monotonically increasing event count.
class Counter {
public:
  void inc(uint64_t N = 1) { V.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> V{0};
};

/// A last-written / high-water value.
class Gauge {
public:
  void set(int64_t Value) { V.store(Value, std::memory_order_relaxed); }
  /// Raises the gauge to \p Value when larger (high-water semantics).
  void recordMax(int64_t Value) {
    int64_t Cur = V.load(std::memory_order_relaxed);
    while (Value > Cur &&
           !V.compare_exchange_weak(Cur, Value, std::memory_order_relaxed))
      ;
  }
  int64_t value() const { return V.load(std::memory_order_relaxed); }
  void reset() { V.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> V{0};
};

/// A log2-bucketed histogram of non-negative samples (typically
/// nanoseconds or sizes). Bucket B counts samples in [2^(B-1), 2^B);
/// bucket 0 counts zeros and ones. Recording is wait-free; aggregates
/// (count/sum/min/max/mean/percentile) are exact except percentile,
/// which is bucket-resolution.
class Histogram {
public:
  static constexpr size_t NumBuckets = 64;

  void record(uint64_t Sample);
  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t min() const;
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  double mean() const;
  /// Upper bound of the bucket holding the q-quantile sample (q in
  /// [0,1]); 0 when empty.
  uint64_t percentileUpperBound(double Q) const;
  /// The q-quantile estimate (q in [0,1]): the quantile rank's position
  /// within its log2 bucket, linearly interpolated across the bucket's
  /// value range and clamped into [min(), max()]. Exact for single-
  /// bucket distributions; bucket-resolution otherwise. 0 when empty.
  /// Feeds the p50/p90/p99 rows of the --stats-json snapshot.
  uint64_t quantile(double Q) const;
  uint64_t bucketCount(size_t Bucket) const {
    return Buckets[Bucket].load(std::memory_order_relaxed);
  }
  void reset();

private:
  std::atomic<uint64_t> Buckets[NumBuckets]{};
  std::atomic<uint64_t> Count{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Min{UINT64_MAX};
  std::atomic<uint64_t> Max{0};
};

/// A dense 2D table of counters with labeled axes -- e.g. the VM's
/// abort counts keyed JvmPhase x JvmErrorKind. One relaxed increment on
/// the hot path; labels are only evaluated at snapshot time. Snapshots
/// emit only non-zero cells as "<name>.<row-label>.<col-label>".
class CounterGrid {
public:
  using LabelFn = std::function<std::string(size_t)>;

  CounterGrid(size_t Rows, size_t Cols, LabelFn RowLabel, LabelFn ColLabel);

  void inc(size_t Row, size_t Col, uint64_t N = 1) {
    if (Row < Rows && Col < Cols)
      Cells[Row * Cols + Col].fetch_add(N, std::memory_order_relaxed);
  }
  uint64_t value(size_t Row, size_t Col) const {
    return Row < Rows && Col < Cols
               ? Cells[Row * Cols + Col].load(std::memory_order_relaxed)
               : 0;
  }
  size_t rows() const { return Rows; }
  size_t cols() const { return Cols; }
  std::string rowLabel(size_t Row) const { return RowLabel(Row); }
  std::string colLabel(size_t Col) const { return ColLabel(Col); }
  void reset();

private:
  size_t Rows, Cols;
  LabelFn RowLabel, ColLabel;
  std::unique_ptr<std::atomic<uint64_t>[]> Cells;
};

/// The process-wide registry. Lookup registers on first use and returns
/// a stable reference; hot paths should look up once (function-local
/// static or a cached reference) and then mutate lock-free.
class MetricRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);
  /// Registers (or fetches) a grid; dimensions and labels are fixed by
  /// the first registration.
  CounterGrid &grid(const std::string &Name, size_t Rows, size_t Cols,
                    CounterGrid::LabelFn RowLabel,
                    CounterGrid::LabelFn ColLabel);

  /// One JSON object snapshot of every registered metric, keys sorted:
  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// min,max,mean,p50,p99}},"grids":{name:{row.col:count}}}.
  ///
  /// A non-empty \p NamePrefixes restricts every section to metrics
  /// whose name starts with a comma-separated prefix from the list
  /// (e.g. "campaign.dd" or "campaign.,frontier."), yielding a snapshot
  /// free of timing histograms and other run-to-run noise -- the CLI's
  /// --stats-filter, which CI byte-compares across --jobs values.
  std::string snapshotJson(const std::string &NamePrefixes = "") const;
  /// As above with the prefix list pre-split; an empty list selects
  /// everything.
  std::string snapshotJson(const std::vector<std::string> &Prefixes) const;

  /// The current value of every counter and gauge whose name starts
  /// with one of \p Prefixes (empty = all), as one sorted name->value
  /// map. Histograms and grids are deliberately out of scope: this is
  /// the deterministic scalar view the time-series sampler snapshots
  /// per commit.
  std::map<std::string, int64_t>
  scalarValues(const std::vector<std::string> &Prefixes) const;

  /// Zeroes every metric's value. References handed out earlier remain
  /// valid (tests and repeated campaigns rely on this).
  void reset();

private:
  mutable std::mutex M;
  std::map<std::string, std::unique_ptr<Counter>> Counters;
  std::map<std::string, std::unique_ptr<Gauge>> Gauges;
  std::map<std::string, std::unique_ptr<Histogram>> Histograms;
  std::map<std::string, std::unique_ptr<CounterGrid>> Grids;
};

/// The global registry instance.
MetricRegistry &metrics();

// ---- structured events ----------------------------------------------------

/// Sink for structured trace events; write() receives one complete JSON
/// object per call (no trailing newline).
class EventSink {
public:
  virtual ~EventSink() = default;
  virtual void write(const std::string &JsonObject) = 0;
};

/// JSONL sink over a stdio FILE (owned; closed on destruction unless
/// it is stdout/stderr). Writes are serialized by an internal mutex.
///
/// Write failures (disk full, closed pipe) are detected on every
/// fwrite/fputc: the first failure is reported once to stderr (with the
/// stream description and errno), the sink latches into a failed state,
/// and all further events are counted as dropped instead of silently
/// truncating the JSONL stream mid-object. fclose failure on
/// destruction (deferred flush errors) is reported the same way.
///
/// Failure state is mirrored into the registry while the run is live
/// (telemetry.sink_failed gauge, telemetry.sink_dropped_events counter)
/// so --stats-json exposes it; the destructor path never touches the
/// registry (the global sink can outlive it during static teardown).
class FileEventSink : public EventSink {
public:
  /// \p Description names the stream in failure diagnostics (typically
  /// the --trace-events path).
  explicit FileEventSink(std::FILE *F, bool Close = true,
                         std::string Description = "event stream")
      : F(F), Close(Close), Description(std::move(Description)) {}
  ~FileEventSink() override;
  void write(const std::string &JsonObject) override;

  /// True once any write (or the final close) failed.
  bool failed() const { return Failed.load(std::memory_order_relaxed); }
  /// Events discarded after the failure latched.
  uint64_t droppedEvents() const {
    return Dropped.load(std::memory_order_relaxed);
  }

private:
  /// \p TouchMetrics must be false on the destructor path (see class
  /// comment).
  void reportFailure(const char *Op, bool TouchMetrics);

  std::FILE *F;
  bool Close;
  std::string Description;
  std::mutex M;
  std::atomic<bool> Failed{false};
  std::atomic<uint64_t> Dropped{0};
};

/// Installs the global event sink (nullptr uninstalls). Not
/// thread-safe against concurrent emitters; install before the run.
void setEventSink(std::unique_ptr<EventSink> Sink);
EventSink *eventSink();

/// Escapes \p S for inclusion in a JSON string literal.
std::string jsonEscape(const std::string &S);

/// Builds one {"type":...,"k":v,...} event and emits it to the global
/// sink on emit(). Cheap to construct; call only under
/// `if (telemetry::eventSink())` on hot paths.
class EventBuilder {
public:
  explicit EventBuilder(const char *Type);
  EventBuilder &field(const char *Key, const std::string &Value);
  EventBuilder &field(const char *Key, const char *Value);
  EventBuilder &field(const char *Key, uint64_t Value);
  EventBuilder &field(const char *Key, int64_t Value);
  EventBuilder &field(const char *Key, int Value) {
    return field(Key, static_cast<int64_t>(Value));
  }
  EventBuilder &field(const char *Key, double Value);
  EventBuilder &field(const char *Key, bool Value);
  /// Writes the event to the global sink, if one is installed.
  void emit();

private:
  std::string Json;
};

// ---- scoped timing --------------------------------------------------------

/// True when the Perfetto span collector (telemetry/PerfettoTrace.h) is
/// armed; one relaxed atomic load. Named PhaseTimers feed it.
bool spanCollectionEnabled();

/// Appends one completed span to the collector: \p Name over
/// [Start, End), attributed to the calling thread's lane. Implemented
/// in PerfettoTrace.cpp.
void recordSpan(const char *Name,
                std::chrono::steady_clock::time_point Start,
                std::chrono::steady_clock::time_point End);

/// RAII latency probe: records elapsed nanoseconds into a Histogram on
/// destruction (or stop()). When telemetry is disabled at construction
/// the timer is inert and never reads the clock.
///
/// A timer constructed with a span name additionally emits a
/// [start, stop) span onto the calling thread's track when the Perfetto
/// collector is armed (--trace-perfetto), making pipeline overlap
/// visible in ui.perfetto.dev. The extra cost is one relaxed load per
/// stop when the collector is idle.
class PhaseTimer {
public:
  explicit PhaseTimer(Histogram &H, const char *SpanName = nullptr)
      : H(enabled() ? &H : nullptr), SpanName(SpanName),
        Start(this->H ? std::chrono::steady_clock::now()
                      : std::chrono::steady_clock::time_point()) {}
  PhaseTimer(const PhaseTimer &) = delete;
  PhaseTimer &operator=(const PhaseTimer &) = delete;
  ~PhaseTimer() { stop(); }

  /// Records now and disarms; subsequent stop() calls are no-ops.
  void stop() {
    if (!H)
      return;
    auto End = std::chrono::steady_clock::now();
    H->record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(End - Start)
            .count()));
    if (SpanName && spanCollectionEnabled())
      recordSpan(SpanName, Start, End);
    H = nullptr;
  }

private:
  Histogram *H;
  const char *SpanName;
  std::chrono::steady_clock::time_point Start;
};

} // namespace telemetry
} // namespace classfuzz

#endif // CLASSFUZZ_TELEMETRY_TELEMETRY_H
