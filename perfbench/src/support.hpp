// Shared plumbing of the repository benchmark: clocks, order statistics,
// the in-memory span recorder of traced runs, the RSS sampler, the metric
// set printed as the result line, and the serial reference outputs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "image/image.hpp"
#include "sharpen/params.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process (monotonic).
[[nodiscard]] double now_s();

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// One input of a workload with its precomputed expected output.
struct Frame {
  sharp::img::ImageU8 image;
  sharp::SharpenParams params;
  sharp::img::ImageU8 expected;  ///< serial CpuPipeline output
  double mean_edge = 0.0;        ///< reference reduction result
};

/// Serial CpuPipeline reference for `f.image`/`f.params`.
void compute_reference(Frame& f);

/// Spans of a traced run, kept in memory and written at exit. Times are
/// now_s() seconds; parent 0 means a root span.
class Tracer {
 public:
  struct Span {
    std::uint64_t id = 0;
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    std::uint64_t parent = 0;
    std::uint64_t request = 0;
  };

  void enable(bool on) { on_ = on; }
  [[nodiscard]] bool on() const { return on_; }
  /// A fresh span id, so children can name a parent that has not ended.
  [[nodiscard]] std::uint64_t new_id() { return next_id_.fetch_add(1); }
  /// Records a finished span under `id` (a new id when 0); returns the id,
  /// or 0 when tracing is off.
  std::uint64_t add(std::string name, double start_s, double end_s,
                    std::uint64_t parent = 0, std::uint64_t request = 0,
                    std::uint64_t id = 0);
  /// Median self time (duration minus the part covered by children) of
  /// the spans whose name starts with `layer`, in milliseconds.
  [[nodiscard]] double self_ms(const std::string& layer) const;
  /// Chrome-trace JSON ("X" events; parent and request ids as args).
  void write(const std::string& path) const;

 private:
  bool on_ = false;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

[[nodiscard]] Tracer& tracer();

/// Times a call into one layer as a span when tracing is on.
class Scoped {
 public:
  Scoped(std::string name, std::uint64_t parent = 0,
         std::uint64_t request = 0);
  ~Scoped();
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  /// Ends the span now (idempotent).
  void end();
  /// Parent id for child spans (0 when tracing is off).
  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  std::string name_;
  std::uint64_t parent_;
  std::uint64_t request_;
  double start_s_;
  std::uint64_t id_;
  bool ended_ = false;
};

/// Samples resident set size every few milliseconds on its own thread;
/// peak_growth_mb() is the highest sample above the RSS at construction.
class RssSampler {
 public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  [[nodiscard]] double peak_growth_mb() const;

 private:
  double base_mb_;
  std::atomic<double> peak_mb_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

[[nodiscard]] double rss_mb();

/// Named metrics of one run, printed in insertion-independent order.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] double get(const std::string& name) const {
    return values_.at(name).first;
  }
  [[nodiscard]] std::string json() const;
  [[nodiscard]] std::string table() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Records that the run measured something other than the configuration
/// it claims to measure (a fallback engine path, a generator that fell
/// behind, a wrong pixel): the result line then reports correct=false.
void mark_invalid(const std::string& why);
[[nodiscard]] std::vector<std::string> invalid_reasons();

}  // namespace perfbench
