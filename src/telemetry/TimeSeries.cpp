//===- telemetry/TimeSeries.cpp -------------------------------------------===//

#include "telemetry/TimeSeries.h"

#include "telemetry/Telemetry.h"

using namespace classfuzz;
using namespace classfuzz::telemetry;

TimeSeriesSampler::TimeSeriesSampler(Options Opts, std::FILE *Stream)
    : Opts(std::move(Opts)), Stream(Stream) {
  if (this->Opts.SampleEvery == 0)
    this->Opts.SampleEvery = 1;
}

TimeSeriesSampler::~TimeSeriesSampler() {
  if (Stream)
    std::fclose(Stream);
}

void TimeSeriesSampler::onCommit(uint64_t CommittedIterations) {
  if (Finished || CommittedIterations == 0 ||
      CommittedIterations % Opts.SampleEvery != 0)
    return;
  sample(CommittedIterations, /*Final=*/false);
}

void TimeSeriesSampler::finish(uint64_t CommittedIterations) {
  if (Finished)
    return;
  sample(CommittedIterations, /*Final=*/true);
  Finished = true;
  if (Stream) {
    std::fclose(Stream);
    Stream = nullptr;
  }
}

void TimeSeriesSampler::sample(uint64_t Iter, bool Final) {
  std::map<std::string, int64_t> Now =
      metrics().scalarValues(Opts.Prefixes);

  std::string Row = "{\"type\":\"ts\",\"iter\":" + std::to_string(Iter);
  if (Final)
    Row += ",\"final\":true";
  Row += ",\"m\":{";
  bool First = true;
  for (const auto &[Name, V] : Now) {
    auto It = Last.find(Name);
    if (It != Last.end() && It->second == V)
      continue; // delta encoding: unchanged keys are omitted
    if (It == Last.end() && V == 0)
      continue; // never-seen zeros carry no information
    if (!First)
      Row += ",";
    First = false;
    Row += "\"" + jsonEscape(Name) + "\":" + std::to_string(V);
  }
  Row += "}}";

  Last = std::move(Now);
  Rows.push_back(Row);
  if (Stream) {
    std::fputs(Row.c_str(), Stream);
    std::fputc('\n', Stream);
    std::fflush(Stream);
  }
}

SaturationDetector::SaturationDetector(Options Opts) : Opts(std::move(Opts)) {
  if (this->Opts.Window == 0)
    this->Opts.Window = 1;
  Ring.assign(this->Opts.Window, 0);
}

bool SaturationDetector::onCommit(const Signals &S) {
  ++Commits;
  uint64_t Discoveries = S.NewBranches + S.NewTuples + S.Discrepancies;
  InWindow -= Ring[Next];
  Ring[Next] = Discoveries;
  InWindow += Discoveries;
  Next = (Next + 1) % Ring.size();
  if (Next == 0)
    Full = true;
  if (Latched || !Full || InWindow >= Opts.MinDiscoveries)
    return false;
  Latched = true;
  PlateauIter = Commits;
  return true;
}

double SaturationDetector::discoveryRatePerK() const {
  size_t Span = Full ? Ring.size() : Next;
  if (Span == 0)
    return 0.0;
  return 1000.0 * static_cast<double>(InWindow) / static_cast<double>(Span);
}
