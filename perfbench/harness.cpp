#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/export.hpp"
#include "serve/product_cache.hpp"
#include "util/stats.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.15g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

thread_local std::vector<std::uint32_t> tl_open;  // innermost open span last

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.min = values.front();
  s.max = values.back();
  s.median = is2::util::percentile(values, 50.0);
  s.q1 = is2::util::percentile(values, 25.0);
  s.q3 = is2::util::percentile(values, 75.0);
  return s;
}

Tail tail_at(const std::vector<double>& values, double pct) {
  Tail t;
  t.pct = pct;
  if (values.empty()) return t;
  t.value = pct >= 100.0 ? *std::max_element(values.begin(), values.end())
                         : is2::util::percentile(values, pct);
  t.beyond = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > t.value; }));
  return t;
}

Tail highest_qualifying_tail(const std::vector<double>& values, std::size_t min_beyond) {
  Tail best;
  for (const double pct : {90.0, 99.0, 99.9}) {
    const Tail t = tail_at(values, pct);
    if (t.beyond >= min_beyond) best = t;
  }
  return best;
}

double median_setup_s(const std::function<void()>& setup, const std::function<void()>& teardown) {
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    teardown();
    is2::util::Timer t;
    setup();
    times.push_back(t.seconds());
  }
  return summarize(times).median;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  return 0.0;
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void Report::metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) fail("metric " + name + " is not finite");
  metrics_.push_back({name, {value, unit}});
}

void Report::detail(const std::string& key, const std::string& json_value) {
  details_.emplace_back(key, json_value);
}

void Report::detail(const std::string& key, double value) { detail(key, num(value)); }

void Report::fail(const std::string& what) {
  failures_.push_back(what);
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", what.c_str());
}

std::string Report::detail_json(const Options& opt) const {
  std::ostringstream o;
  o << "{\"workload\":" << quoted(opt.workload) << ",\"seed\":" << opt.seed
    << ",\"seconds\":" << num(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"env\":" << env_json(opt) << ",\"details\":{";
  for (std::size_t i = 0; i < details_.size(); ++i)
    o << (i ? "," : "") << quoted(details_[i].first) << ":" << details_[i].second;
  o << "},\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i) o << (i ? "," : "") << quoted(failures_[i]);
  o << "]}";
  return o.str();
}

std::string Report::result_json() const {
  std::ostringstream o;
  o << "{\"correct\":" << (correct() ? "true" : "false") << ",\"attempted\":" << attempted
    << ",\"failed\":" << failed << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    o << (i ? "," : "") << quoted(metrics_[i].first) << ":{\"value\":"
      << num(metrics_[i].second.first) << ",\"unit\":" << quoted(metrics_[i].second.second)
      << "}";
  o << "}}";
  return o.str();
}

std::string env_json(const Options& opt) {
  std::vector<std::string> isa;
#ifdef __SSE2__
  isa.push_back("sse2");
#endif
#ifdef __SSE4_2__
  isa.push_back("sse4.2");
#endif
#ifdef __AVX__
  isa.push_back("avx");
#endif
#ifdef __AVX2__
  isa.push_back("avx2");
#endif
#ifdef __FMA__
  isa.push_back("fma");
#endif
#ifdef __AVX512F__
  isa.push_back("avx512f");
#endif
  std::ostringstream o;
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  o << "{\"cores\":" << std::thread::hardware_concurrency()
    << ",\"omp_num_threads_env\":" << (omp_env ? quoted(omp_env) : "null");
#ifdef _OPENMP
  o << ",\"openmp\":true,\"omp_max_threads\":" << omp_get_max_threads();
#else
  o << ",\"openmp\":false";
#endif
  o << ",\"compiler\":" << quoted(__VERSION__) << ",\"isa\":[";
  for (std::size_t i = 0; i < isa.size(); ++i) o << (i ? "," : "") << quoted(isa[i]);
  o << "],\"build_type\":" << quoted(PERFBENCH_BUILD_TYPE)
    << ",\"cxx_flags\":" << quoted(PERFBENCH_CXX_FLAGS) << ",\"git_sha\":" << quoted(opt.git_sha)
    << "}";
  return o.str();
}

SpanLog::SpanLog() { spans_.reserve(4096); }

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent) {
  if (parent == 0 && !tl_open.empty()) parent = tl_open.back();
  Open o;
  o.span.set_name(name);
  o.span.parent_id = parent;
  o.span.thread = is2::obs::this_thread_ordinal();
  o.span.trace_id = 1;
  std::uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    o.span.start_ms = clock_.millis();
    spans_.push_back(o);
    id = static_cast<std::uint32_t>(spans_.size());
    spans_.back().span.span_id = id;
  }
  tl_open.push_back(id);
  return id;
}

void SpanLog::close(std::uint32_t id) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Open& o = spans_.at(id - 1);
    o.span.dur_ms = clock_.millis() - o.span.start_ms;
    o.closed = true;
  }
  const auto it = std::find(tl_open.rbegin(), tl_open.rend(), id);
  if (it != tl_open.rend()) tl_open.erase(std::next(it).base());
}

std::uint32_t SpanLog::emit(const char* name, double start_ms, double end_ms,
                            std::uint32_t parent) {
  Open o;
  o.span.set_name(name);
  o.span.parent_id = parent;
  o.span.thread = is2::obs::this_thread_ordinal();
  o.span.trace_id = 1;
  o.span.start_ms = start_ms;
  o.span.dur_ms = std::max(0.0, end_ms - start_ms);
  o.closed = true;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(o);
  spans_.back().span.span_id = static_cast<std::uint32_t>(spans_.size());
  return spans_.back().span.span_id;
}

std::vector<is2::obs::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<is2::obs::Span> out;
  out.reserve(spans_.size());
  for (const auto& o : spans_)
    if (o.closed) out.push_back(o.span);
  return out;
}

namespace {

/// Length of the union of [a, b) intervals.
double union_length(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, cur_a = 0.0, cur_b = -1.0;
  bool any = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!any || a > cur_b) {
      if (any) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      any = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (any) total += cur_b - cur_a;
  return total;
}

}  // namespace

std::map<std::string, std::pair<double, std::size_t>> SpanLog::self_times() const {
  const std::vector<is2::obs::Span> all = spans();
  std::map<std::uint32_t, std::vector<std::pair<double, double>>> children;
  for (const auto& s : all)
    if (s.parent_id) children[s.parent_id].push_back({s.start_ms, s.start_ms + s.dur_ms});
  std::map<std::string, std::pair<double, std::size_t>> out;
  for (const auto& s : all) {
    double covered = 0.0;
    if (const auto it = children.find(s.span_id); it != children.end()) {
      std::vector<std::pair<double, double>> clipped;
      for (const auto& [a, b] : it->second)
        clipped.push_back({std::max(a, s.start_ms), std::min(b, s.start_ms + s.dur_ms)});
      covered = union_length(std::move(clipped));
    }
    auto& slot = out[s.name];
    slot.first += s.dur_ms - covered;
    slot.second += 1;
  }
  return out;
}

double SpanLog::covered_fraction(std::uint32_t root,
                                 const std::vector<std::string>& containers) const {
  const std::vector<is2::obs::Span> all = spans();
  const auto rit = std::find_if(all.begin(), all.end(),
                                [&](const is2::obs::Span& s) { return s.span_id == root; });
  if (rit == all.end() || rit->dur_ms <= 0.0) return 0.0;
  const double a0 = rit->start_ms, b0 = rit->start_ms + rit->dur_ms;
  std::vector<std::pair<double, double>> iv;
  for (const auto& s : all) {
    if (s.span_id == root) continue;
    if (std::find(containers.begin(), containers.end(), s.name) != containers.end()) continue;
    const double a = std::max(a0, s.start_ms), b = std::min(b0, s.start_ms + s.dur_ms);
    if (b > a) iv.push_back({a, b});
  }
  return union_length(std::move(iv)) / (b0 - a0);
}

void SpanLog::write_perfetto(const std::string& path) const {
  std::ofstream out(path);
  out << is2::obs::to_perfetto(spans(), is2::obs::thread_labels());
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
}

void Digest::add_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

std::uint64_t product_digest(const is2::serve::GranuleProduct& p) {
  Digest d;
  d.add(p.kind);
  d.add(p.segments.size());
  for (const auto& s : p.segments) {
    for (const double v : {s.s, s.t, s.x, s.y, s.h_mean, s.h_median, s.h_std, s.h_min,
                           s.photon_rate, s.bckgrd_rate})
      d.add(v);
    d.add(s.n_photons);
    d.add(s.truth);
  }
  d.add(p.classes.size());
  for (const auto c : p.classes) d.add(c);
  d.add(p.sea_surface.points().size());
  for (const auto& q : p.sea_surface.points()) {
    for (const double v : {q.s, q.h_ref, q.sigma}) d.add(v);
    d.add(q.n_leads);
    d.add(q.n_water_segments);
    d.add(q.interpolated);
  }
  d.add(p.freeboard.points.size());
  for (const auto& q : p.freeboard.points) {
    for (const double v : {q.s, q.x, q.y, q.freeboard}) d.add(v);
    d.add(q.cls);
    d.add(q.truth);
  }
  return d.value();
}

}  // namespace perfbench
