// Measurement helpers of the repository benchmark: sample sets with
// percentiles, an in-memory span store for the traced run, and deltas of
// the library's process-wide metrics registry.
#ifndef SLUGGER_PERFBENCH_MEASURE_HPP_
#define SLUGGER_PERFBENCH_MEASURE_HPP_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// A set of timings (or other values) in the order they were taken.
/// Quantiles interpolate linearly between order statistics, like Python's
/// statistics.quantiles with method="inclusive".
class Samples {
 public:
  void Add(double v) {
    values_.push_back(v);
    sorted_.clear();
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const {
    double s = 0.0;
    for (double v : values_) s += v;
    return s;
  }
  double Quantile(double q) const {
    if (sorted_.size() != values_.size()) {
      sorted_ = values_;
      std::sort(sorted_.begin(), sorted_.end());
    }
    return QuantileOfSorted(sorted_, q);
  }
  double Median() const { return Quantile(0.5); }

  /// Splits the samples, in the order they were taken, into consecutive
  /// windows of `window` samples (a last, partial one is left out) and
  /// returns the median over the windows of each window's `q` quantile.
  /// A slow stretch of the host moves only the windows it falls in.
  double WindowedQuantile(double q, size_t window) const {
    return OverWindows(window, [q](std::vector<double> w) {
      std::sort(w.begin(), w.end());
      return QuantileOfSorted(w, q);
    });
  }
  /// The median over the windows of each window's mean.
  double WindowedMean(size_t window) const {
    return OverWindows(window, [](const std::vector<double>& w) {
      double s = 0.0;
      for (double v : w) s += v;
      return s / static_cast<double>(w.size());
    });
  }

 private:
  template <typename Stat>
  double OverWindows(size_t window, Stat stat) const {
    Samples per_window;
    for (size_t i = 0; window > 0 && i + window <= values_.size();
         i += window) {
      per_window.Add(stat(std::vector<double>(values_.begin() + i,
                                              values_.begin() + i + window)));
    }
    return per_window.Median();
  }
  static double QuantileOfSorted(const std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    const double pos = q * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
  }

  std::vector<double> values_;
  mutable std::vector<double> sorted_;
};

/// Spans recorded by the benchmark around each public library call. One
/// top-level operation (a build, a query, an edit step) opens a root span
/// and gets a fresh op id; the library calls it makes are its children.
/// Spans live in memory and are written out when the run ends, so the
/// library's own bounded span ring never drops them.
class Tracer {
 public:
  struct Record {
    const char* name;
    int32_t parent;  ///< index into records, -1 for a root span
    uint64_t op;
    double start;    ///< seconds since the tracer was created
    double end;
  };

  /// RAII span: records on destruction when tracing was on at opening.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) tracer_->Close(index_);
    }

   private:
    friend class Tracer;
    Span(Tracer* tracer, int32_t index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int32_t index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Starts a new top-level operation. With tracing enabled, `traced`
  /// decides whether its spans are recorded: the traced run records every
  /// other operation so the untraced half measures the tracing overhead.
  void BeginOp(bool traced) {
    ++op_;
    recording_ = enabled_ && traced;
  }
  Span Open(const char* name) {
    if (!recording_) return Span(nullptr, -1);
    const int32_t parent = open_.empty() ? -1 : open_.back();
    records_.push_back(Record{name, parent, op_, Now(), 0.0});
    const int32_t index = static_cast<int32_t>(records_.size() - 1);
    open_.push_back(index);
    return Span(this, index);
  }

  size_t num_spans() const { return records_.size(); }

  /// Self time per layer: each span's duration minus the part its child
  /// spans cover, summed by the layer prefix of its name ("core" for
  /// "core.summarize").
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<double> child(records_.size(), 0.0);
    for (const Record& r : records_) {
      if (r.parent >= 0) child[static_cast<size_t>(r.parent)] += r.end - r.start;
    }
    std::map<std::string, double> self;
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      const std::string name(r.name);
      self[name.substr(0, name.find('.'))] += (r.end - r.start) - child[i];
    }
    return self;
  }

  /// Writes one line per span: id, parent, op, name, start, end (seconds).
  bool WriteCsv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id,parent,op,name,start_s,end_s\n");
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      std::fprintf(f, "%zu,%d,%llu,%s,%.9f,%.9f\n", i, r.parent,
                   static_cast<unsigned long long>(r.op), r.name, r.start,
                   r.end);
    }
    return std::fclose(f) == 0;
  }

 private:
  double Now() const { return SecondsSince(origin_); }
  void Close(int32_t index) {
    records_[static_cast<size_t>(index)].end = Now();
    open_.pop_back();
  }

  bool enabled_;
  bool recording_ = false;
  uint64_t op_ = 0;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int32_t> open_;
};

/// A point-in-time read of every metric in the library's global registry:
/// counters and gauges by name, histograms as "<name>.sum" (seconds) and
/// "<name>.count". Reading never registers a metric.
class RegistryReading {
 public:
  static RegistryReading Now() {
    RegistryReading r;
    for (const auto& e : slugger::obs::MetricsRegistry::Global().Collect()) {
      using Kind = slugger::obs::MetricsRegistry::Kind;
      switch (e.kind) {
        case Kind::kCounter:
          r.values_[e.name] = static_cast<double>(e.counter->Value());
          break;
        case Kind::kGauge:
          r.values_[e.name] = static_cast<double>(e.gauge->Value());
          break;
        case Kind::kHistogram: {
          const auto snap = e.histogram->Snapshot();
          r.values_[e.name + ".sum"] = snap.sum;
          r.values_[e.name + ".count"] = static_cast<double>(snap.count);
          break;
        }
      }
    }
    return r;
  }
  double Get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
  }
  /// this - earlier, for a counter or histogram field.
  double Since(const RegistryReading& earlier, const std::string& name) const {
    return Get(name) - earlier.Get(name);
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench

#endif  // SLUGGER_PERFBENCH_MEASURE_HPP_
