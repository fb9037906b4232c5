//===- telemetry/Telemetry.cpp ---------------------------------------------===//

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <sstream>

using namespace classfuzz;
using namespace classfuzz::telemetry;

// ---- Histogram ------------------------------------------------------------

namespace {

/// Bucket index of a sample: 0 for {0,1}, else 1 + floor(log2(S)), so
/// bucket B holds [2^(B-1), 2^B) and percentileUpperBound's 2^B is a
/// true upper bound. The top bucket absorbs the overflow range.
size_t bucketOf(uint64_t Sample) {
  if (Sample <= 1)
    return 0;
  return std::min<size_t>(Histogram::NumBuckets - 1,
                          static_cast<size_t>(std::bit_width(Sample)));
}

} // namespace

void Histogram::record(uint64_t Sample) {
  Buckets[bucketOf(Sample)].fetch_add(1, std::memory_order_relaxed);
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Sample, std::memory_order_relaxed);
  uint64_t CurMin = Min.load(std::memory_order_relaxed);
  while (Sample < CurMin && !Min.compare_exchange_weak(
                                CurMin, Sample, std::memory_order_relaxed))
    ;
  uint64_t CurMax = Max.load(std::memory_order_relaxed);
  while (Sample > CurMax && !Max.compare_exchange_weak(
                                CurMax, Sample, std::memory_order_relaxed))
    ;
}

uint64_t Histogram::min() const {
  uint64_t V = Min.load(std::memory_order_relaxed);
  return V == UINT64_MAX ? 0 : V;
}

double Histogram::mean() const {
  uint64_t N = count();
  return N == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(N);
}

uint64_t Histogram::percentileUpperBound(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  // Rank of the quantile sample, 1-based.
  uint64_t Target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(Q * static_cast<double>(N))));
  uint64_t Seen = 0;
  for (size_t B = 0; B != NumBuckets; ++B) {
    Seen += Buckets[B].load(std::memory_order_relaxed);
    if (Seen >= Target)
      return B == 0 ? 1 : (B >= 63 ? UINT64_MAX : (uint64_t{1} << B));
  }
  return max();
}

uint64_t Histogram::quantile(double Q) const {
  uint64_t N = count();
  if (N == 0)
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  uint64_t Target = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(Q * static_cast<double>(N))));
  uint64_t Seen = 0;
  for (size_t B = 0; B != NumBuckets; ++B) {
    uint64_t InBucket = Buckets[B].load(std::memory_order_relaxed);
    if (InBucket == 0)
      continue;
    if (Seen + InBucket < Target) {
      Seen += InBucket;
      continue;
    }
    // The target rank falls in bucket B: interpolate its position
    // within the bucket's value range [Lo, Hi].
    double Lo = B == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(B) - 1);
    double Hi = B == 0   ? 1.0
                : B >= 63 ? static_cast<double>(max())
                          : std::ldexp(1.0, static_cast<int>(B));
    double Fraction = static_cast<double>(Target - Seen) /
                      static_cast<double>(InBucket);
    double V = Lo + (Hi - Lo) * Fraction;
    uint64_t Out = static_cast<uint64_t>(V);
    // Interpolation cannot beat the exact extremes.
    return std::clamp(Out, min(), max());
  }
  return max();
}

void Histogram::reset() {
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Min.store(UINT64_MAX, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

// ---- CounterGrid ----------------------------------------------------------

CounterGrid::CounterGrid(size_t Rows, size_t Cols, LabelFn RowLabel,
                         LabelFn ColLabel)
    : Rows(Rows), Cols(Cols), RowLabel(std::move(RowLabel)),
      ColLabel(std::move(ColLabel)),
      Cells(new std::atomic<uint64_t>[Rows * Cols]) {
  for (size_t I = 0; I != Rows * Cols; ++I)
    Cells[I].store(0, std::memory_order_relaxed);
}

void CounterGrid::reset() {
  for (size_t I = 0; I != Rows * Cols; ++I)
    Cells[I].store(0, std::memory_order_relaxed);
}

// ---- MetricRegistry -------------------------------------------------------

Counter &MetricRegistry::counter(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricRegistry::gauge(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricRegistry::histogram(const std::string &Name) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>();
  return *Slot;
}

CounterGrid &MetricRegistry::grid(const std::string &Name, size_t Rows,
                                  size_t Cols,
                                  CounterGrid::LabelFn RowLabel,
                                  CounterGrid::LabelFn ColLabel) {
  std::lock_guard<std::mutex> Lock(M);
  auto &Slot = Grids[Name];
  if (!Slot)
    Slot = std::make_unique<CounterGrid>(Rows, Cols, std::move(RowLabel),
                                         std::move(ColLabel));
  return *Slot;
}

namespace {

void appendJsonNumber(std::ostringstream &OS, double V) {
  // JSON has no NaN/Inf; clamp to null-ish zero.
  if (!std::isfinite(V)) {
    OS << 0;
    return;
  }
  OS << V;
}

std::vector<std::string> splitPrefixList(const std::string &List) {
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= List.size()) {
    size_t Comma = List.find(',', Start);
    if (Comma == std::string::npos)
      Comma = List.size();
    if (Comma > Start)
      Out.push_back(List.substr(Start, Comma - Start));
    Start = Comma + 1;
  }
  return Out;
}

bool startsWithAny(const std::string &Name,
                   const std::vector<std::string> &Prefixes) {
  for (const std::string &P : Prefixes)
    if (Name.compare(0, P.size(), P) == 0)
      return true;
  return false;
}

} // namespace

std::string
MetricRegistry::snapshotJson(const std::string &NamePrefixes) const {
  return snapshotJson(splitPrefixList(NamePrefixes));
}

std::string
MetricRegistry::snapshotJson(const std::vector<std::string> &Prefixes) const {
  std::lock_guard<std::mutex> Lock(M);
  auto Selected = [&Prefixes](const std::string &Name) {
    return Prefixes.empty() || startsWithAny(Name, Prefixes);
  };
  std::ostringstream OS;
  OS << "{";

  OS << "\"counters\":{";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    if (!Selected(Name))
      continue;
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name)
       << "\":" << C->value();
    First = false;
  }
  OS << "},";

  OS << "\"gauges\":{";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    if (!Selected(Name))
      continue;
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name)
       << "\":" << G->value();
    First = false;
  }
  OS << "},";

  OS << "\"histograms\":{";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    if (!Selected(Name))
      continue;
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name) << "\":{"
       << "\"count\":" << H->count() << ",\"sum\":" << H->sum()
       << ",\"min\":" << H->min() << ",\"max\":" << H->max()
       << ",\"mean\":";
    appendJsonNumber(OS, H->mean());
    OS << ",\"p50\":" << H->quantile(0.50) << ",\"p90\":" << H->quantile(0.90)
       << ",\"p99\":" << H->quantile(0.99) << "}";
    First = false;
  }
  OS << "},";

  OS << "\"grids\":{";
  First = true;
  for (const auto &[Name, G] : Grids) {
    if (!Selected(Name))
      continue;
    OS << (First ? "" : ",") << "\"" << jsonEscape(Name) << "\":{";
    bool FirstCell = true;
    for (size_t Row = 0; Row != G->rows(); ++Row) {
      for (size_t Col = 0; Col != G->cols(); ++Col) {
        uint64_t V = G->value(Row, Col);
        if (V == 0)
          continue;
        OS << (FirstCell ? "" : ",") << "\""
           << jsonEscape(G->rowLabel(Row)) << "."
           << jsonEscape(G->colLabel(Col)) << "\":" << V;
        FirstCell = false;
      }
    }
    OS << "}";
    First = false;
  }
  OS << "}";

  OS << "}";
  return OS.str();
}

std::map<std::string, int64_t> MetricRegistry::scalarValues(
    const std::vector<std::string> &Prefixes) const {
  std::lock_guard<std::mutex> Lock(M);
  auto Selected = [&](const std::string &Name) {
    return Prefixes.empty() || startsWithAny(Name, Prefixes);
  };
  std::map<std::string, int64_t> Out;
  for (const auto &[Name, C] : Counters)
    if (Selected(Name))
      Out[Name] = static_cast<int64_t>(C->value());
  for (const auto &[Name, G] : Gauges)
    if (Selected(Name))
      Out[Name] = G->value();
  return Out;
}

void MetricRegistry::reset() {
  std::lock_guard<std::mutex> Lock(M);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
  for (auto &[Name, G] : Grids)
    G->reset();
}

MetricRegistry &telemetry::metrics() {
  static MetricRegistry Registry;
  return Registry;
}

// ---- events ---------------------------------------------------------------

FileEventSink::~FileEventSink() {
  if (F && Close && F != stdout && F != stderr) {
    // The global sink can be torn down after the registry during static
    // destruction, so this path must not touch metrics.
    if (std::fclose(F) != 0)
      reportFailure("fclose", /*TouchMetrics=*/false);
  }
  uint64_t N = Dropped.load(std::memory_order_relaxed);
  if (N != 0)
    std::fprintf(stderr, "telemetry: dropped %llu event(s) after %s failed\n",
                 static_cast<unsigned long long>(N), Description.c_str());
}

void FileEventSink::write(const std::string &JsonObject) {
  std::lock_guard<std::mutex> Lock(M);
  if (!F)
    return;
  if (Failed.load(std::memory_order_relaxed)) {
    Dropped.fetch_add(1, std::memory_order_relaxed);
    if (enabled())
      metrics().counter("telemetry.sink_dropped_events").inc();
    return;
  }
  if (std::fwrite(JsonObject.data(), 1, JsonObject.size(), F) !=
          JsonObject.size() ||
      std::fputc('\n', F) == EOF) {
    reportFailure("fwrite", /*TouchMetrics=*/true);
    Dropped.fetch_add(1, std::memory_order_relaxed);
    if (enabled())
      metrics().counter("telemetry.sink_dropped_events").inc();
  }
}

void FileEventSink::reportFailure(const char *Op, bool TouchMetrics) {
  if (TouchMetrics && enabled())
    metrics().gauge("telemetry.sink_failed").set(1);
  // Latch first so concurrent writers race to at most one report.
  if (Failed.exchange(true, std::memory_order_relaxed))
    return;
  std::fprintf(stderr,
               "telemetry: %s failed on %s (%s); further events will be "
               "dropped\n",
               Op, Description.c_str(),
               errno != 0 ? std::strerror(errno) : "unknown error");
}

namespace {
std::unique_ptr<EventSink> GlobalSink;
} // namespace

void telemetry::setEventSink(std::unique_ptr<EventSink> Sink) {
  GlobalSink = std::move(Sink);
}

EventSink *telemetry::eventSink() { return GlobalSink.get(); }

std::string telemetry::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\r':
      Out += "\\r";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

EventBuilder::EventBuilder(const char *Type) {
  Json = "{\"type\":\"";
  Json += jsonEscape(Type);
  Json += "\"";
}

EventBuilder &EventBuilder::field(const char *Key, const std::string &Value) {
  Json += ",\"";
  Json += jsonEscape(Key);
  Json += "\":\"";
  Json += jsonEscape(Value);
  Json += "\"";
  return *this;
}

EventBuilder &EventBuilder::field(const char *Key, const char *Value) {
  return field(Key, std::string(Value));
}

EventBuilder &EventBuilder::field(const char *Key, uint64_t Value) {
  Json += ",\"";
  Json += jsonEscape(Key);
  Json += "\":";
  Json += std::to_string(Value);
  return *this;
}

EventBuilder &EventBuilder::field(const char *Key, int64_t Value) {
  Json += ",\"";
  Json += jsonEscape(Key);
  Json += "\":";
  Json += std::to_string(Value);
  return *this;
}

EventBuilder &EventBuilder::field(const char *Key, double Value) {
  Json += ",\"";
  Json += jsonEscape(Key);
  Json += "\":";
  if (std::isfinite(Value)) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
    Json += Buf;
  } else {
    Json += "0";
  }
  return *this;
}

EventBuilder &EventBuilder::field(const char *Key, bool Value) {
  Json += ",\"";
  Json += jsonEscape(Key);
  Json += "\":";
  Json += Value ? "true" : "false";
  return *this;
}

void EventBuilder::emit() {
  if (EventSink *Sink = eventSink())
    Sink->write(Json + "}");
}
