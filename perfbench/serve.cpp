// serve_cold and serve_zipf: open-loop Poisson traffic from one generator
// thread into a GranuleService (cold) or a 3-node serve::Cluster (Zipf).
//
// Latency is timed from each request's due time, not from when the
// generator got round to sending it, so a stall that delays later sends
// still counts against them; how late the generator ran is reported as
// bench.generator_lag_p99_ms. A harvester thread polls the outstanding
// futures and stamps each the moment it is ready.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "baseline/decision_tree.hpp"
#include "campaign.hpp"
#include "h5lite/granule_io.hpp"
#include "mapred/engine.hpp"
#include "nn/serialize.hpp"
#include "pipeline/classifier.hpp"
#include "pipeline/product_builder.hpp"
#include "schedule.hpp"
#include "serve/cluster.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace is2;
using Clock = std::chrono::steady_clock;
using serve::ProductRequest;

namespace {

const seasurface::Method kMethods[] = {
    seasurface::Method::MinElevation, seasurface::Method::AverageElevation,
    seasurface::Method::NearestMinElevation, seasurface::Method::NasaEquation};

/// Goodput counts a request only when it resolved within this limit of its
/// due time: about 3x a cold build.
constexpr double kLimitMs = 1000.0;

// serve_cold: 3 workers with a disk tier. Both tiers hold about eight
// standard-scale products, far fewer than the 96-key cycle, so no request
// can hit either tier.
constexpr std::size_t kColdWorkers = 3;
/// ~70 % of the ~7.5 cold builds/s these 3 workers sustain back to back.
constexpr double kColdRate = 5.25;
constexpr std::size_t kColdCacheBytes = 32u << 20;
constexpr std::size_t kColdDiskBytes = 32u << 20;
constexpr std::size_t kColdWarmupRequests = 6;
constexpr std::size_t kColdChecks = 2;

// serve_zipf: 3 nodes x 1 worker, shared disk. Each node's RAM tier is one
// LRU list holding about one standard-scale product, so only back-to-back
// repeats of the Zipf head hit RAM and most reads go to the disk tier.
constexpr std::size_t kZipfNodes = 3;
constexpr std::size_t kZipfNodeCacheBytes = 4u << 20;
/// Base arrival rate before the 4x bursts: 13.75 req/s on average, ~5 % of
/// the 248 req/s this mix sustains closed-loop with one request in flight
/// per node (4-core VM). Of the rates tried (10, 30, 90) it is the one whose
/// latency stays steady from run to run; at this load nothing queues for
/// long, so goodput_per_s equals the offered rate and latency is the
/// metric that moves.
constexpr double kZipfRate = 10.0;
constexpr double kZipfS = 1.1;
constexpr double kZipfBurstFactor = 4.0;
constexpr std::size_t kZipfChecks = 3;

struct ServeInputs {
  CampaignData campaign;
  resample::FeatureScaler scaler;
  h5::File weights;
  baseline::DecisionTree tree;
};

/// Workload generation (untimed): campaign, labels, the trained serving
/// model and, when asked, the fitted decision tree.
ServeInputs prepare_inputs(const Options& opt, bool with_tree) {
  ServeInputs in;
  in.campaign = load_or_generate_campaign(opt.data_dir);
  const LabeledWindows labeled = load_or_build_windows(in.campaign);
  in.scaler = labeled.scaler;
  nn::Sequential model = load_or_train_serve_model(in.campaign, labeled);
  in.weights = nn::weights_to_file(model);
  if (with_tree)
    in.tree.fit(labeled.tree_x, resample::FeatureRow::kDim, labeled.tree_y, atl03::kNumClasses);
  return in;
}

serve::GranuleService::ModelFactory model_factory(const ServeInputs& in) {
  return [&in] {
    nn::Sequential m = make_model(in.campaign.config);
    nn::weights_from_file(m, in.weights);
    return m;
  };
}

enum class Status { ok, shed, deadline, error };

struct Outcome {
  double latency_ms = std::numeric_limits<double>::quiet_NaN();
  double lag_ms = 0.0;
  double queue_wait_ms = 0.0;
  double service_ms = 0.0;
  serve::ServedFrom source = serve::ServedFrom::build;
  Status status = Status::ok;
  std::shared_ptr<const serve::GranuleProduct> product;  ///< kept for checked requests only
};

using SubmitFn = std::function<std::optional<serve::ProductFuture>(const ProductRequest&)>;

/// Fire `requests[i]` at `due_s[i]` after `start` without ever blocking on
/// a response; returns once every future resolved.
std::vector<Outcome> run_open_loop(const std::vector<double>& due_s,
                                   const std::vector<ProductRequest>& requests,
                                   const SubmitFn& submit, const std::set<std::size_t>& keep) {
  std::vector<Outcome> out(requests.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due_at = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };
  auto finish = [&](std::size_t i, const serve::ProductFuture& f, Clock::time_point ready) {
    Outcome& o = out[i];
    o.latency_ms = std::chrono::duration<double, std::milli>(ready - due_at(i)).count();
    try {
      const serve::ProductResponse& r = f.get();
      o.source = r.source;
      o.queue_wait_ms = r.queue_wait_ms;
      o.service_ms = r.service_ms;
      if (keep.count(i)) o.product = r.product;
    } catch (const serve::ShedError&) {
      o.status = Status::shed;
    } catch (const serve::DeadlineError&) {
      o.status = Status::deadline;
    } catch (const std::exception&) {
      o.status = Status::error;
    }
  };

  struct Pending {
    std::size_t i;
    serve::ProductFuture f;
  };
  std::mutex mu;
  std::vector<Pending> inbox;
  bool done = false;
  std::thread harvester([&] {
    std::vector<Pending> mine;
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        for (auto& p : inbox) mine.push_back(std::move(p));
        inbox.clear();
        if (done && mine.empty()) return;
      }
      for (auto it = mine.begin(); it != mine.end();) {
        if (it->f.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
          finish(it->i, it->f, Clock::now());
          it = mine.erase(it);
        } else {
          ++it;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });

  for (std::size_t i = 0; i < requests.size(); ++i) {
    std::this_thread::sleep_until(due_at(i));
    out[i].lag_ms = std::chrono::duration<double, std::milli>(Clock::now() - due_at(i)).count();
    std::optional<serve::ProductFuture> f;
    try {
      f = submit(requests[i]);
    } catch (const std::exception&) {
      out[i].status = Status::error;
      out[i].latency_ms = 0.0;
      continue;
    }
    if (!f) {
      out[i].status = Status::shed;
      out[i].latency_ms = 0.0;
      continue;
    }
    if (f->wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
      finish(i, *f, Clock::now());
      continue;
    }
    std::lock_guard<std::mutex> lock(mu);
    inbox.push_back({i, std::move(*f)});
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  harvester.join();
  return out;
}

/// Layer timings of one direct ProductBuilder::build (the check path).
struct DirectBuild {
  std::uint64_t digest = 0;
  double decode_ms = 0.0;  ///< sum of h5::load_granule over the beam's chunks
  double merge_ms = 0.0;   ///< ShardIndex::load_merged minus the decodes
  std::uintmax_t bytes = 0;
  std::size_t raw_photons = 0, selected_photons = 0, windows = 0, points = 0;
  pipeline::StageTrace trace;
  pipeline::Backend backend = pipeline::Backend::nn;
  pipeline::ProductKind kind = pipeline::ProductKind::freeboard;
};

/// Build `r` from the shards with a fresh builder and backend: the ground
/// truth every served product must equal bit for bit.
DirectBuild direct_build(const ServeInputs& in, const serve::ShardIndex& index,
                         const ProductRequest& r, SpanLog* log) {
  ScopedSpan root(log, "check.direct_build");
  DirectBuild d;
  d.backend = r.backend;
  d.kind = r.kind;
  const std::vector<std::string>* files = index.find(r.granule_id, r.beam);
  if (!files) throw std::runtime_error("direct_build: unknown beam");
  for (const auto& f : *files) {
    ScopedSpan s(log, "h5lite.decode");
    util::Timer t;
    const atl03::Granule g = h5::load_granule(f);
    d.decode_ms += t.millis();
    d.raw_photons += g.total_photons();
    d.bytes += std::filesystem::file_size(f);
  }
  util::Timer t;
  atl03::Granule merged;
  {
    ScopedSpan s(log, "h5lite.merge");
    merged = serve::ShardIndex::load_merged(*files);
  }
  d.merge_ms = std::max(0.0, t.millis() - d.decode_ms);

  const pipeline::ProductBuilder builder(in.campaign.config, in.campaign.corrections);
  std::unique_ptr<pipeline::ClassifierBackend> backend;
  if (r.backend == pipeline::Backend::nn)
    backend = std::make_unique<pipeline::NnBackend>(model_factory(in), in.scaler,
                                                    in.campaign.config.sequence_window);
  else
    backend = std::make_unique<pipeline::DecisionTreeBackend>(in.tree);
  pipeline::Artifacts art = pipeline::Artifacts::from_beam(merged, merged.beams.at(0));
  {
    ScopedSpan s(log, "pipeline.build");
    builder.build(art, r.kind, backend.get(), r.method, &d.trace);
  }
  d.selected_photons = art.preprocessed().size();
  d.windows = art.features_out().size();

  serve::GranuleProduct p;
  p.granule_id = r.granule_id;
  p.beam = r.beam;
  p.kind = r.kind;
  p.segments = std::move(art.segments);
  p.classes = std::move(art.classes);
  if (r.kind >= pipeline::ProductKind::seasurface) p.sea_surface = std::move(art.sea_surface);
  if (r.kind >= pipeline::ProductKind::freeboard) p.freeboard = std::move(art.freeboard);
  d.points = p.freeboard.points.size();
  d.digest = product_digest(p);
  return d;
}

/// Seeded sample of served requests to check, preferring one per backend.
std::set<std::size_t> pick_checks(const std::vector<ProductRequest>& requests, std::size_t n,
                                  std::uint64_t seed) {
  std::vector<std::size_t> order(requests.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng = util::Rng(seed).fork(0xC4ECull);
  rng.shuffle(order);
  std::set<std::size_t> out;
  for (const auto backend : {pipeline::Backend::nn, pipeline::Backend::decision_tree})
    for (const std::size_t i : order)
      if (requests[i].backend == backend) {
        out.insert(i);
        break;
      }
  for (const std::size_t i : order) {
    if (out.size() >= n) break;
    out.insert(i);
  }
  while (out.size() > n) out.erase(std::prev(out.end()));
  return out;
}

/// Service-side counters of the measured phase over one or more nodes:
/// every figure is the node's metrics after the run minus its metrics
/// before it, so warm-up builds count nowhere.
struct Fleet {
  std::vector<serve::ServiceMetrics> before, after;  ///< per node
  serve::DiskCacheStats disk;                   ///< the (shared) disk tier, measured phase
  std::optional<serve::ClusterMetrics> cluster;  ///< router counters, measured phase

  /// Sum of one counter over the nodes (a member pointer or a callable).
  template <typename F>
  std::uint64_t sum(F counter) const {
    std::uint64_t s = 0;
    for (std::size_t i = 0; i < after.size(); ++i)
      s += std::invoke(counter, after[i]) - std::invoke(counter, before[i]);
    return s;
  }
  /// Count-weighted mean of one StageLatency over the nodes (ms).
  template <typename F>
  double mean_ms(F stage) const {
    double total = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < after.size(); ++i) {
      const pipeline::StageLatency& a = stage(after[i]);
      const pipeline::StageLatency& b = stage(before[i]);
      total += a.stats.sum() - b.stats.sum();
      n += a.stats.count() - b.stats.count();
    }
    return n ? total / static_cast<double>(n) : 0.0;
  }
};

serve::DiskCacheStats disk_delta(serve::DiskCacheStats after, const serve::DiskCacheStats& before) {
  after.hits -= before.hits;
  after.misses -= before.misses;
  after.writes -= before.writes;
  return after;
}

void check_products(const ServeInputs& in, const serve::ShardIndex& index,
                    const std::vector<ProductRequest>& requests,
                    const std::vector<Outcome>& outcomes, const std::set<std::size_t>& checks,
                    SpanLog* log, Report& report, std::vector<DirectBuild>& builds) {
  for (const std::size_t i : checks) {
    if (outcomes[i].status != Status::ok || !outcomes[i].product) continue;
    DirectBuild d = direct_build(in, index, requests[i], log);
    if (d.digest != product_digest(*outcomes[i].product)) {
      ++report.failed;
      report.fail("served product " + std::to_string(i) + " (" + requests[i].granule_id + "/" +
                  atl03::beam_name(requests[i].beam) + ", " +
                  pipeline::product_kind_name(requests[i].kind) + ", " +
                  pipeline::backend_name(requests[i].backend) +
                  ") differs from a direct ProductBuilder::build");
    }
    builds.push_back(std::move(d));
  }
}

struct Traffic {
  std::vector<double> due_s;
  std::vector<ProductRequest> requests;
  double duration_s = 0.0;
};

/// End-to-end metrics (untraced) or per-layer metrics (traced) of a run.
void report_serve(const Options& opt, const ServeInputs& in, const Traffic& traffic,
                  double rate, const std::vector<Outcome>& outcomes, double wall_s,
                  double setup_s, const Fleet& fleet, const std::vector<DirectBuild>& builds,
                  Report& report) {
  std::vector<double> latency, lag, queue_wait;
  std::size_t good = 0, shed = 0, deadline = 0, errors = 0, fresh_builds = 0;
  for (const auto& o : outcomes) {
    lag.push_back(o.lag_ms);
    switch (o.status) {
      case Status::ok: break;
      case Status::shed: ++shed; continue;
      case Status::deadline: ++deadline; continue;
      case Status::error: ++errors; continue;
    }
    latency.push_back(o.latency_ms);
    if (o.latency_ms <= kLimitMs) ++good;
    if (o.source != serve::ServedFrom::ram) queue_wait.push_back(o.queue_wait_ms);
    if (o.source == serve::ServedFrom::build) ++fresh_builds;
  }
  const std::size_t n = outcomes.size();
  report.attempted += n;
  report.failed += shed + deadline + errors;
  const std::uint64_t resumed = fleet.sum(&serve::ServiceMetrics::resumed_builds);
  const double miss_ratio =
      n ? static_cast<double>(fresh_builds - std::min<std::uint64_t>(resumed, fresh_builds)) /
              static_cast<double>(n)
        : 0.0;
  const Summary lat = summarize(latency);
  const Tail tail = tail_at(latency, kTailPct);
  report.detail("rate_per_s", rate);
  report.detail("limit_ms", kLimitMs);
  report.detail("requests", static_cast<double>(n));
  report.detail("offered_rps", static_cast<double>(n) / traffic.duration_s);
  report.detail("shed", static_cast<double>(shed));
  report.detail("deadline_expired", static_cast<double>(deadline));
  report.detail("errors", static_cast<double>(errors));
  std::string deciles = "[";
  for (int d = 1; d < 10; ++d) {
    if (d > 1) deciles += ",";
    deciles += std::to_string(tail_at(latency, d * 10.0).value);
  }
  report.detail("latency_ms_deciles", deciles + "]");
  report.detail("latency_ms_q1", lat.q1);
  report.detail("latency_ms_q3", lat.q3);
  report.detail("latency_ms_max", lat.max);
  report.detail("tail_pct", tail.pct);
  report.detail("tail_beyond", static_cast<double>(tail.beyond));
  report.detail("tail_rule_pct", highest_qualifying_tail(latency).pct);
  report.detail("miss_ratio", miss_ratio);
  report.detail("tail_valid", tail.beyond >= 10 ? "true" : "false");

  if (!opt.trace) {
    report.metric("goodput_per_s", static_cast<double>(good) / wall_s, "1/s");
    report.metric("latency_p50_ms", lat.median, "ms");
    report.metric("latency_tail_ms", tail.value, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  using pipeline::StageId;
  auto stage = [](StageId id) {
    return [id](const serve::ServiceMetrics& m) -> const pipeline::StageLatency& {
      return m.builder[static_cast<std::size_t>(id)];
    };
  };
  const std::uint64_t requests = fleet.sum(&serve::ServiceMetrics::requests);
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  double decode = 0, merge = 0, raw = 0, selected = 0, bytes = 0, segments = 0, features = 0,
         nn_ms = 0, nn_windows = 0, tree_ms = 0, points = 0;
  std::size_t nn_n = 0, tree_n = 0, fb_n = 0;
  for (const auto& d : builds) {
    decode += d.decode_ms;
    merge += d.merge_ms;
    raw += static_cast<double>(d.raw_photons);
    selected += static_cast<double>(d.selected_photons);
    bytes += static_cast<double>(d.bytes);
    segments += static_cast<double>(d.windows);
    features += d.trace.at(StageId::features);
    if (d.kind == pipeline::ProductKind::freeboard) {
      points += static_cast<double>(d.points);
      ++fb_n;
    }
    if (d.backend == pipeline::Backend::nn) {
      nn_ms += d.trace.at(StageId::classify);
      nn_windows += static_cast<double>(d.windows);
      ++nn_n;
    } else {
      tree_ms += d.trace.at(StageId::classify);
      ++tree_n;
    }
  }
  const double nb = static_cast<double>(std::max<std::size_t>(builds.size(), 1));
  const Summary qw = summarize(queue_wait);
  report.metric("h5lite.decode_ms", decode / nb, "ms");
  report.metric("h5lite.merge_ms", merge / nb, "ms");
  report.metric("h5lite.bytes_read", bytes / nb, "B");
  report.metric("atl03.preprocess_ms", fleet.mean_ms(stage(StageId::preprocess)), "ms");
  report.metric("atl03.photons_selected_ratio", ratio(selected, raw), "ratio");
  report.metric("resample.resample_ms", fleet.mean_ms(stage(StageId::resample)), "ms");
  report.metric("resample.fpb_ms", fleet.mean_ms(stage(StageId::fpb)), "ms");
  report.metric("resample.segments", segments / nb, "count");
  report.metric("pipeline.features_ms", features / nb, "ms");
  report.metric("pipeline.classify_nn_ms", nn_n ? nn_ms / static_cast<double>(nn_n) : 0.0, "ms");
  report.metric("pipeline.classify_tree_ms", tree_n ? tree_ms / static_cast<double>(tree_n) : 0.0,
                "ms");
  report.metric("nn.windows",
                static_cast<double>(fleet.sum(&serve::ServiceMetrics::inference_windows)), "count");
  report.metric("nn.windows_per_s", ratio(nn_windows, nn_ms / 1e3), "1/s");
  nn::Sequential probe = make_model(in.campaign.config);
  report.metric("nn.macs_per_window", macs_per_window(probe, in.campaign.config.sequence_window),
                "count");
  report.metric("seasurface.ms", fleet.mean_ms(stage(StageId::seasurface)), "ms");
  report.metric("freeboard.ms", fleet.mean_ms(stage(StageId::freeboard)), "ms");
  report.metric("freeboard.points", fb_n ? points / static_cast<double>(fb_n) : 0.0, "count");
  report.metric("serve.queue_wait_p50_ms", qw.median, "ms");
  report.metric("serve.queue_wait_p99_ms", tail_at(queue_wait, 99.0).value, "ms");
  report.metric("serve.shard_load_ms",
                fleet.mean_ms([](const serve::ServiceMetrics& m) -> const pipeline::StageLatency& {
                  return m.load;
                }),
                "ms");
  report.metric("serve.build_ms",
                fleet.mean_ms([](const serve::ServiceMetrics& m) -> const pipeline::StageLatency& {
                  return m.total;
                }),
                "ms");
  report.metric("serve.disk_load_ms",
                fleet.mean_ms([](const serve::ServiceMetrics& m) -> const pipeline::StageLatency& {
                  return m.disk_load;
                }),
                "ms");
  report.metric("serve.ram_hit_ratio",
                ratio(static_cast<double>(fleet.sum(&serve::ServiceMetrics::fast_hits)),
                      static_cast<double>(requests)),
                "ratio");
  report.metric("serve.disk_hit_ratio",
                ratio(static_cast<double>(fleet.disk.hits), static_cast<double>(requests)),
                "ratio");
  report.metric("serve.miss_ratio", miss_ratio, "ratio");
  report.metric("serve.resumed_builds", static_cast<double>(resumed), "count");
  report.metric("serve.coalesced",
                static_cast<double>(fleet.sum([](const serve::ServiceMetrics& m) {
                  return m.scheduler.coalesced;
                })),
                "count");
  report.metric("serve.shed",
                static_cast<double>(fleet.sum([](const serve::ServiceMetrics& m) {
                  return m.scheduler.rejected + m.scheduler.displaced;
                })),
                "count");
  report.metric("serve.deadline_expired",
                static_cast<double>(fleet.sum([](const serve::ServiceMetrics& m) {
                  return m.scheduler.deadline_expired;
                })),
                "count");
  report.metric("serve.writebacks", static_cast<double>(fleet.disk.writes), "count");
  report.metric("serve.writeback_failures",
                static_cast<double>(fleet.sum(&serve::ServiceMetrics::writeback_failures)),
                "count");
  if (fleet.cluster) {
    const serve::ClusterMetrics& cm = *fleet.cluster;
    report.metric("cluster.peer_fetch_ratio",
                  ratio(static_cast<double>(cm.peer_fetches), static_cast<double>(cm.requests)),
                  "ratio");
    report.metric("cluster.replica_routes", static_cast<double>(cm.replica_routes), "count");
    report.metric("cluster.imbalance", cm.imbalance(), "ratio");
  }
  report.metric("bench.generator_lag_p99_ms", tail_at(lag, 99.0).value, "ms");
}

/// Spans for the traced serve run, recorded after the fact from the
/// timestamps every run takes: one root per request (due -> ready) with
/// the generator lag, queue wait and execution the service reported.
void record_request_spans(SpanLog& log, double start_ms, const Traffic& traffic,
                          const std::vector<Outcome>& outcomes, double& covered) {
  double root_total = 0.0, child_total = 0.0;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.status != Status::ok) continue;
    const double due = start_ms + traffic.due_s[i] * 1e3;
    const std::uint32_t root = log.emit("request", due, due + o.latency_ms, 0);
    const double sent = due + std::min(o.lag_ms, o.latency_ms);
    log.emit("bench.generator_lag", due, sent, root);
    double t = sent;
    if (o.service_ms > 0.0) {
      log.emit("serve.queue_wait", t, t + o.queue_wait_ms, root);
      t += o.queue_wait_ms;
      log.emit(o.source == serve::ServedFrom::disk ? "serve.disk_load" : "serve.build", t,
               t + o.service_ms - o.queue_wait_ms, root);
      t += o.service_ms - o.queue_wait_ms;
    }
    root_total += o.latency_ms;
    child_total += std::min(t, due + o.latency_ms) - due;
  }
  covered = root_total > 0 ? child_total / root_total : 0.0;
}

void finish_traced(const Options& opt, SpanLog& log, const char* name, double start_ms,
                   const Traffic& traffic, const std::vector<Outcome>& outcomes, double wall_s,
                   Report& report) {
  util::Timer t;
  double covered = 0.0;
  record_request_spans(log, start_ms, traffic, outcomes, covered);
  const double record_s = t.seconds();
  report.metric("bench.attributed_fraction", covered, "ratio");
  report.metric("bench.trace_overhead", 1.0 + record_s / wall_s, "ratio");
  const std::string path = opt.work_dir + "/trace_" + name + ".json";
  log.write_perfetto(path);
  report.detail("perfetto", "\"" + path + "\"");
}

void empty_dir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

}  // namespace

void run_serve_cold(const Options& opt, Report& report) {
  util::Timer phase;
  const ServeInputs in = prepare_inputs(opt, /*with_tree=*/false);
  report.detail("prep_s", phase.seconds());
  reset_peak_rss();

  serve::ShardIndex index;
  std::unique_ptr<serve::GranuleService> service;
  serve::ServiceConfig cfg;
  cfg.workers = kColdWorkers;
  cfg.queue_capacity = 1024;
  cfg.cache_bytes = kColdCacheBytes;
  cfg.disk_cache_dir = opt.work_dir + "/serve_cold_disk";
  cfg.disk_cache_bytes = kColdDiskBytes;
  const double setup_s = median_setup_s(
      [&] {
        index = serve::ShardIndex::build(in.campaign.shards.files);
        service = std::make_unique<serve::GranuleService>(cfg, in.campaign.config,
                                                          in.campaign.corrections, index,
                                                          model_factory(in), in.scaler);
      },
      [&] {
        service.reset();
        empty_dir(cfg.disk_cache_dir);
      });

  // Universe: every (granule, strong beam) x sea-surface method, freeboard
  // kind, nn backend. Keys cycle through one seeded permutation.
  std::vector<ProductRequest> universe;
  for (const auto& [granule, beam] : index.entries())
    for (const auto method : kMethods) {
      ProductRequest r;
      r.granule_id = granule;
      r.beam = beam;
      r.method = method;
      r.priority = serve::Priority::interactive;
      universe.push_back(r);
    }

  ArrivalConfig arrivals;
  arrivals.duration_s = opt.seconds;
  arrivals.rate = kColdRate;
  Traffic traffic;
  traffic.duration_s = opt.seconds;
  traffic.due_s = arrival_times(arrivals, opt.seed);
  const std::vector<std::size_t> keys =
      cyclic_keys(kColdWarmupRequests + traffic.due_s.size(), universe.size(), opt.seed);

  // Warm-up: a few closed-loop cold builds (code, page cache, allocator)
  // on keys the measured phase reaches again only after a full cycle.
  phase.reset();
  std::vector<serve::ProductFuture> warm;
  for (std::size_t i = 0; i < kColdWarmupRequests; ++i)
    warm.push_back(service->submit(universe[keys[i]]));
  for (auto& f : warm) f.get();
  service->wait_disk_writebacks();
  const serve::ServiceMetrics before = service->metrics();

  for (std::size_t i = 0; i < traffic.due_s.size(); ++i)
    traffic.requests.push_back(universe[keys[kColdWarmupRequests + i]]);
  const std::set<std::size_t> checks = pick_checks(traffic.requests, kColdChecks, opt.seed);
  report.detail("workers", static_cast<double>(kColdWorkers));

  report.detail("warmup_s", phase.seconds());
  SpanLog log;
  const double start_ms = log.now_ms();
  util::Timer wall;
  const std::vector<Outcome> outcomes = run_open_loop(
      traffic.due_s, traffic.requests,
      [&](const ProductRequest& r) { return service->try_submit(r); }, checks);
  const double wall_s = wall.seconds();
  service->wait_disk_writebacks();

  Fleet fleet;
  fleet.before.push_back(before);
  fleet.after.push_back(service->metrics());
  fleet.disk = disk_delta(fleet.after[0].disk, before.disk);

  const std::uint64_t ram_hits = fleet.sum(&serve::ServiceMetrics::fast_hits);
  const std::uint64_t resumed = fleet.sum(&serve::ServiceMetrics::resumed_builds);
  if (ram_hits != 0 || fleet.disk.hits != 0 || resumed != 0) {
    ++report.failed;
    report.fail("serve_cold: a request hit a cache tier or resumed (ram " +
                std::to_string(ram_hits) + ", disk " + std::to_string(fleet.disk.hits) +
                ", resumed " + std::to_string(resumed) + ")");
  }
  report.detail("measure_s", wall_s);
  phase.reset();
  std::vector<DirectBuild> builds;
  check_products(in, index, traffic.requests, outcomes, checks, opt.trace ? &log : nullptr,
                 report, builds);
  report.detail("checks_s", phase.seconds());
  report_serve(opt, in, traffic, kColdRate, outcomes, wall_s, setup_s, fleet, builds, report);
  if (opt.trace) finish_traced(opt, log, "serve_cold", start_ms, traffic, outcomes, wall_s, report);
  service->shutdown();
}

void run_serve_zipf(const Options& opt, Report& report) {
  util::Timer phase;
  const ServeInputs in = prepare_inputs(opt, /*with_tree=*/true);
  report.detail("prep_s", phase.seconds());
  reset_peak_rss();

  serve::ShardIndex index;
  std::unique_ptr<serve::Cluster> cluster;
  serve::ClusterConfig cfg;
  cfg.nodes = kZipfNodes;
  cfg.node.workers = 1;
  cfg.node.queue_capacity = 1024;
  cfg.node.cache_bytes = kZipfNodeCacheBytes;
  cfg.node.cache_shards = 1;
  cfg.shared_disk_dir = opt.work_dir + "/serve_zipf_disk";
  const double setup_s = median_setup_s(
      [&] {
        index = serve::ShardIndex::build(in.campaign.shards.files);
        cluster = std::make_unique<serve::Cluster>(
            cfg, in.campaign.config, in.campaign.corrections, index, model_factory(in),
            in.scaler, [&in] { return in.tree; });
      },
      [&] {
        cluster.reset();
        empty_dir(cfg.shared_disk_dir);
      });

  // Universe: beams x methods x all three kinds x both backends.
  std::vector<ProductRequest> universe;
  std::vector<ProductRequest> prefixes;  // classification prefix per beam and backend
  for (const auto& [granule, beam] : index.entries()) {
    for (const auto method : kMethods)
      for (const auto kind : {pipeline::ProductKind::classification,
                              pipeline::ProductKind::seasurface, pipeline::ProductKind::freeboard})
        for (const auto backend : {pipeline::Backend::nn, pipeline::Backend::decision_tree}) {
          ProductRequest r;
          r.granule_id = granule;
          r.beam = beam;
          r.method = method;
          r.kind = kind;
          r.backend = backend;
          r.priority = serve::Priority::interactive;
          universe.push_back(r);
        }
    for (const auto backend : {pipeline::Backend::nn, pipeline::Backend::decision_tree}) {
      ProductRequest p;
      p.granule_id = granule;
      p.beam = beam;
      p.kind = pipeline::ProductKind::classification;
      p.backend = backend;
      prefixes.push_back(p);
    }
  }

  // Warm-up: prefetch every beam's classification prefix, both backends,
  // onto its owner (the shard IO + classify). Measured traffic then reads:
  // RAM and peer hits, disk hits, and deeper kinds resumed from a prefix.
  phase.reset();
  {
    mapred::Engine engine({1, kZipfNodes});
    cluster->warm(prefixes, engine);
    cluster->wait_disk_writebacks();
  }
  const serve::ClusterMetrics before = cluster->metrics();

  ArrivalConfig arrivals;
  arrivals.duration_s = opt.seconds;
  arrivals.rate = kZipfRate;
  arrivals.burst_factor = kZipfBurstFactor;
  Traffic traffic;
  traffic.duration_s = opt.seconds;
  traffic.due_s = arrival_times(arrivals, opt.seed);
  for (const std::size_t k : zipf_keys(traffic.due_s.size(), universe.size(), kZipfS, opt.seed))
    traffic.requests.push_back(universe[k]);
  const std::set<std::size_t> checks = pick_checks(traffic.requests, kZipfChecks, opt.seed);
  report.detail("zipf_s", kZipfS);
  report.detail("burst_factor", kZipfBurstFactor);
  report.detail("node_cache_bytes", static_cast<double>(kZipfNodeCacheBytes));

  report.detail("warmup_s", phase.seconds());
  SpanLog log;
  const double start_ms = log.now_ms();
  util::Timer wall;
  const std::vector<Outcome> outcomes = run_open_loop(
      traffic.due_s, traffic.requests,
      [&](const ProductRequest& r) { return cluster->try_submit(r); }, checks);
  const double wall_s = wall.seconds();
  cluster->wait_disk_writebacks();

  serve::ClusterMetrics cm = cluster->metrics();
  Fleet fleet;
  fleet.before = before.nodes;
  fleet.after = cm.nodes;
  fleet.disk = disk_delta(cm.shared_disk, before.shared_disk);
  cm.requests -= before.requests;
  cm.peer_probes -= before.peer_probes;
  cm.peer_fetches -= before.peer_fetches;
  cm.replica_routes -= before.replica_routes;
  for (std::size_t i = 0; i < cm.routed.size(); ++i) cm.routed[i] -= before.routed[i];
  fleet.cluster = cm;

  // The workload is meant to exercise every read path; say when it did not.
  const std::uint64_t ram_hits = fleet.sum(&serve::ServiceMetrics::fast_hits);
  const std::uint64_t resumed = fleet.sum(&serve::ServiceMetrics::resumed_builds);
  report.detail("ram_hits", static_cast<double>(ram_hits));
  report.detail("disk_hits", static_cast<double>(fleet.disk.hits));
  report.detail("resumed_builds", static_cast<double>(resumed));
  report.detail("peer_fetches", static_cast<double>(cm.peer_fetches));
  const bool all_paths = ram_hits && fleet.disk.hits && resumed && cm.peer_fetches;
  report.detail("read_paths_exercised", all_paths ? "true" : "false");
  if (!all_paths)
    std::fprintf(stderr, "[perfbench] serve_zipf: ram hits, disk hits, resumes or peer fetches "
                         "is zero; the run is too short for the Zipf head to turn hot\n");

  report.detail("measure_s", wall_s);
  phase.reset();
  std::vector<DirectBuild> builds;
  check_products(in, index, traffic.requests, outcomes, checks, opt.trace ? &log : nullptr,
                 report, builds);
  report.detail("checks_s", phase.seconds());
  report_serve(opt, in, traffic, kZipfRate, outcomes, wall_s, setup_s, fleet, builds, report);
  if (opt.trace) finish_traced(opt, log, "serve_zipf", start_ms, traffic, outcomes, wall_s, report);
  cluster->shutdown();
}

}  // namespace perfbench
