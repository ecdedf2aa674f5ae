// Measurement harness shared by every workload: run options, robust
// statistics (median, quartiles, the tail-percentile rule), the result
// report with its environment block, an in-memory span log written as
// Perfetto JSON, and the digests the output checks compare.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace is2::serve {
struct GranuleProduct;
}

namespace perfbench {

/// Command-line options. Workload parameters (rates, limits, tail
/// percentiles) are constants beside each workload, not options.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string data_dir;      ///< campaign cache (persists across runs)
  std::string work_dir;      ///< scratch for this run (disk tiers, traces)
  std::string git_sha = "unknown";
};

/// Median and quartiles (linear interpolation between order statistics,
/// the same rule as util::percentile).
struct Summary {
  std::size_t n = 0;
  double median = 0.0, q1 = 0.0, q3 = 0.0, min = 0.0, max = 0.0;
};
Summary summarize(std::vector<double> values);

/// A tail percentile with the number of samples strictly beyond it.
struct Tail {
  double pct = 0.0;     ///< 100 = the maximum
  double value = 0.0;
  std::size_t beyond = 0;
};
/// Value at `pct` (100 = max) and the count of samples above it.
Tail tail_at(const std::vector<double>& values, double pct);
/// The highest of p90 / p99 / p99.9 that still has at least `min_beyond`
/// samples strictly beyond it; pct = 0 when none qualifies.
Tail highest_qualifying_tail(const std::vector<double>& values, std::size_t min_beyond = 10);

/// The fixed tail percentile of every workload. Serve runs keep at least 10
/// samples beyond p90. Batch and train runs hold fewer than 100 operations,
/// so no percentile has 10 beyond; p90 (2-3 beyond) is used there because
/// the run maximum swung by up to 25 % from run to run.
inline constexpr double kTailPct = 90.0;

/// Set-up is repeated this many times per run and its median reported.
inline constexpr int kSetupRepeats = 9;

/// Time `setup` kSetupRepeats times and return the median in seconds.
/// `teardown` (untimed) destroys the previous system under test first.
double median_setup_s(const std::function<void()>& setup, const std::function<void()>& teardown);

/// Peak resident set size of this process in MiB (VmHWM).
double peak_rss_mb();
/// Restart the VmHWM peak from the current resident set, so workload
/// generation (campaign simulation, labeling) does not count.
void reset_peak_rss();

/// Ordered name -> (value, unit) metrics plus free-form detail for the
/// report line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void detail(const std::string& key, const std::string& json_value);
  void detail(const std::string& key, double value);
  void fail(const std::string& what);  ///< record an output-check failure

  bool correct() const { return failures_.empty(); }
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// The detailed report (environment, details, every metric, failures).
  std::string detail_json(const Options& opt) const;
  /// The contract line: {"correct","attempted","failed","metrics"}.
  std::string result_json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> details_;
  std::vector<std::string> failures_;
};

/// Environment block: cores, inherited OMP_NUM_THREADS, compiler, ISA
/// flags the library was compiled with, build type, git sha.
std::string env_json(const Options& opt);

/// Spans recorded by the benchmark around its own calls into each layer.
/// Thread-safe; kept in memory and written once at the end.
class SpanLog {
 public:
  SpanLog();

  /// Open span id for a new span whose parent is `parent` (0 = the
  /// innermost span open on this thread, or none).
  std::uint32_t open(const char* name, std::uint32_t parent = 0);
  void close(std::uint32_t id);
  /// Record a span measured elsewhere (times in ms on this log's clock).
  std::uint32_t emit(const char* name, double start_ms, double end_ms, std::uint32_t parent);
  double now_ms() const { return clock_.millis(); }

  std::vector<is2::obs::Span> spans() const;
  /// Self time per span name: duration minus the union of its children's
  /// intervals, summed over spans of that name (ms), and the call count.
  std::map<std::string, std::pair<double, std::size_t>> self_times() const;
  /// Share of [root.start, root.end] during which at least one span other
  /// than the root and the spans named in `containers` is open.
  double covered_fraction(std::uint32_t root, const std::vector<std::string>& containers) const;

  void write_perfetto(const std::string& path) const;

 private:
  struct Open {
    is2::obs::Span span;
    bool closed = false;
  };
  is2::util::Timer clock_;
  mutable std::mutex mutex_;
  std::vector<Open> spans_;  ///< index = id - 1
};

/// RAII span; a null log makes it a no-op (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint32_t parent = 0)
      : log_(log), id_(log ? log->open(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
};

/// Order-sensitive 64-bit digest over raw bytes (FNV-1a).
class Digest {
 public:
  void add_bytes(const void* data, std::size_t n);
  template <typename T>
  void add(const T& v) {
    add_bytes(&v, sizeof v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// Field-wise digest of a served product (segments, classes, sea surface,
/// freeboard points): equal digests mean bit-identical science output.
std::uint64_t product_digest(const is2::serve::GranuleProduct& product);

}  // namespace perfbench
