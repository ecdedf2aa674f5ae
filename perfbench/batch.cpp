// batch_freeboard: the paper's Table V job (core::run_freeboard_job) over
// the standard 8-pair campaign on a 2 executors x 2 cores engine, as closed
// back-to-back jobs after one warm-up job. The job's input is the campaign
// itself, so the run seed does not change it: partition order (and with it
// task placement over the executors) stays the campaign's.
//
// The traced job is the benchmark's own composition of the same reduce
// step through mapred::run_map_reduce, with a span around every call into
// a layer (h5lite decode, each pipeline stage, auto-label). It must agree
// with run_freeboard_job bit for bit, which is also what proves the spans
// time the job the untraced runs measure.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "campaign.hpp"
#include "core/pipeline.hpp"
#include "h5lite/granule_io.hpp"
#include "label/autolabel.hpp"
#include "mapred/engine.hpp"
#include "pipeline/product_builder.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace is2;

namespace {

constexpr mapred::ClusterTopology kTopology{2, 2};

}  // namespace

bool same_job_result(const core::FreeboardJobStats& a, const core::FreeboardJobStats& b) {
  if (a.points != b.points) return false;
  if (std::memcmp(&a.mean_freeboard, &b.mean_freeboard, sizeof(double)) != 0) return false;
  if (a.distribution.bins() != b.distribution.bins()) return false;
  for (std::size_t i = 0; i < a.distribution.bins(); ++i)
    if (a.distribution.count(i) != b.distribution.count(i)) return false;
  return a.distribution.total() == b.distribution.total();
}

namespace {

struct TracedCounts {
  std::size_t raw_photons = 0, selected_photons = 0, segments = 0, partitions = 0;
};

/// The Table V reduce step, composed from the layers' public calls with a
/// span around each. Mirrors core::run_freeboard_job exactly (same builder
/// stages, same auto-label seeds, same partition-order merge).
core::FreeboardJobStats traced_job(mapred::Engine& engine, const CampaignData& c, SpanLog& log,
                                   TracedCounts& counts, std::uint32_t& root_id) {
  ScopedSpan root(&log, "job");
  root_id = root.id();
  const pipeline::ProductBuilder builder(c.config, c.corrections);
  const core::ShardSet& shards = c.shards;

  struct PartitionOut {
    std::size_t points = 0, raw = 0, selected = 0, segments = 0;
    double fb_sum = 0.0;
    util::Histogram dist{-0.2, 1.2, 56};
  };

  std::uint32_t stage = log.open("mapred.load", root.id());
  const std::uint32_t load_stage = stage;
  std::uint32_t reduce_stage = 0;
  auto result = mapred::run_map_reduce<atl03::Granule, PartitionOut>(
      engine, shards.files.size(),
      [&](std::size_t i) {
        ScopedSpan span(&log, "h5lite.decode", load_stage);
        return h5::load_granule(shards.files[i]);
      },
      [&](std::vector<atl03::Granule>&) {
        log.close(stage);
        stage = log.open("mapred.map", root.id());
        log.close(stage);
        reduce_stage = stage = log.open("mapred.reduce", root.id());
      },
      [&](atl03::Granule& shard, std::size_t i) {
        ScopedSpan task(&log, "mapred.task", reduce_stage);
        PartitionOut out;
        if (shard.beams.size() != 1) throw std::invalid_argument("shard must hold one beam");
        pipeline::Artifacts art = pipeline::Artifacts::from_beam(shard, shard.beams[0]);
        {
          ScopedSpan s(&log, "atl03.preprocess");
          builder.run_until(art, pipeline::StageId::preprocess);
        }
        {
          ScopedSpan s(&log, "resample.resample");
          builder.run_until(art, pipeline::StageId::resample);
        }
        {
          ScopedSpan s(&log, "resample.fpb");
          builder.run_until(art, pipeline::StageId::fpb);
        }
        out.raw = shard.beams[0].size();
        out.selected = art.preprocessed().size();
        out.segments = art.segments_out().size();

        const std::size_t pair = shards.pair_of_file[i];
        label::AutoLabelConfig al = c.config.autolabel;
        if (al.feature_gap_m < 0.0) al.feature_gap_m = c.config.segmenter.window_m * 1.5;
        al.seed = c.config.seed ^ util::hash64(i * 67 + 9);
        al.overlay.shift = c.drifts[pair];
        label::LabeledBeam lb;
        {
          ScopedSpan s(&log, "label.autolabel");
          lb = label::auto_label(c.rasters[pair], art.take_segments(), al);
        }
        pipeline::Artifacts tail =
            pipeline::Artifacts::resume(std::move(lb.segments), std::move(lb.labels));
        {
          ScopedSpan s(&log, "seasurface");
          builder.build(tail, pipeline::ProductKind::seasurface, nullptr,
                        seasurface::Method::NasaEquation);
        }
        {
          ScopedSpan s(&log, "freeboard");
          builder.build(tail, pipeline::ProductKind::freeboard, nullptr,
                        seasurface::Method::NasaEquation);
        }
        const freeboard::FreeboardProduct& product = tail.freeboard_out();
        out.points = product.points.size();
        for (const auto& p : product.points) {
          out.fb_sum += p.freeboard;
          out.dist.add(p.freeboard);
        }
        return out;
      });
  log.close(stage);

  core::FreeboardJobStats stats;
  stats.timing = result.timing;
  double fb_sum = 0.0;
  for (const auto& p : result.results) {
    stats.points += p.points;
    fb_sum += p.fb_sum;
    stats.distribution.merge(p.dist);
    counts.raw_photons += p.raw;
    counts.selected_photons += p.selected;
    counts.segments += p.segments;
    ++counts.partitions;
  }
  stats.mean_freeboard = stats.points ? fb_sum / static_cast<double>(stats.points) : 0.0;
  return stats;
}

}  // namespace

void run_batch_freeboard(const Options& opt, Report& report) {
  util::Timer phase;
  load_or_generate_campaign(opt.data_dir);  // generation: untimed
  report.detail("prep_s", phase.seconds());
  reset_peak_rss();

  CampaignData c;
  std::unique_ptr<mapred::Engine> engine;
  const double setup_s = median_setup_s(
      [&] {
        c = load_or_generate_campaign(opt.data_dir);
        engine = std::make_unique<mapred::Engine>(kTopology);
      },
      [&] {
        engine.reset();
        c = CampaignData();
      });

  auto job = [&] {
    return core::run_freeboard_job(*engine, c.shards, c.rasters, c.drifts, c.corrections,
                                   c.config);
  };
  phase.reset();
  const core::FreeboardJobStats reference = job();  // warm-up (page cache, allocator)
  report.detail("warmup_s", phase.seconds());
  if (reference.points == 0) report.fail("warm-up job produced no freeboard points");

  SpanLog log;
  std::vector<double> wall_s, traced_wall_s, unattributed_s, load_s, reduce_s;
  std::vector<double> idle_fraction, task_skew, covered;
  TracedCounts counts;
  util::Timer run;
  bool traced_turn = false;
  while (run.seconds() < opt.seconds || wall_s.size() < 3 ||
         (opt.trace && traced_wall_s.size() < 2)) {
    ++report.attempted;
    core::FreeboardJobStats stats;
    if (opt.trace && traced_turn) {
      const double t0 = log.now_ms();
      std::uint32_t root = 0;
      util::Timer t;
      stats = traced_job(*engine, c, log, counts, root);
      traced_wall_s.push_back(t.seconds());
      covered.push_back(log.covered_fraction(
          root, {"mapred.load", "mapred.map", "mapred.reduce", "mapred.task"}));
      // Busy time of load + reduce tasks against the slots those stages held.
      double busy_ms = 0.0, max_task = 0.0, sum_task = 0.0;
      std::size_t n_task = 0;
      for (const auto& s : log.spans()) {
        if (s.start_ms < t0) continue;
        const std::string name = s.name;
        if (name == "h5lite.decode" || name == "mapred.task") busy_ms += s.dur_ms;
        if (name == "mapred.task") {
          max_task = std::max(max_task, s.dur_ms);
          sum_task += s.dur_ms;
          ++n_task;
        }
      }
      const double slots_ms = static_cast<double>(kTopology.total_workers()) * 1e3 *
                              (stats.timing.load_s + stats.timing.reduce_s);
      idle_fraction.push_back(slots_ms > 0 ? 1.0 - busy_ms / slots_ms : 0.0);
      task_skew.push_back(n_task ? max_task / (sum_task / static_cast<double>(n_task)) : 0.0);
    } else {
      util::Timer t;
      stats = job();
      const double wall = t.seconds();
      wall_s.push_back(wall);
      unattributed_s.push_back(wall - stats.timing.load_s - stats.timing.map_s -
                               stats.timing.reduce_s);
      load_s.push_back(stats.timing.load_s);
      reduce_s.push_back(stats.timing.reduce_s);
    }
    traced_turn = !traced_turn;
    if (!same_job_result(stats, reference)) {
      ++report.failed;
      report.fail("freeboard job result differs from the warm-up job (points " +
                  std::to_string(stats.points) + " vs " + std::to_string(reference.points) + ")");
    }
  }

  report.detail("measure_s", run.seconds());
  const Summary wall = summarize(wall_s);
  const double photons = static_cast<double>(c.photons);
  report.detail("jobs", static_cast<double>(wall_s.size()));
  report.detail("photons_per_job", photons);
  report.detail("freeboard_points", static_cast<double>(reference.points));
  report.detail("mean_freeboard_m", reference.mean_freeboard);
  report.detail("job_wall_s_q1", wall.q1);
  report.detail("job_wall_s_q3", wall.q3);

  if (!opt.trace) {
    const Tail tail = tail_at(wall_s, kTailPct);
    report.detail("tail_pct", tail.pct);
    report.detail("tail_beyond", static_cast<double>(tail.beyond));
    report.metric("goodput_per_s", photons / wall.median, "1/s");
    report.metric("latency_p50_ms", wall.median * 1e3, "ms");
    report.metric("latency_tail_ms", tail.value * 1e3, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  std::uintmax_t bytes = 0;
  for (const auto& f : c.shards.files) bytes += std::filesystem::file_size(f);
  const auto self = log.self_times();
  auto mean_self = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() || it->second.second == 0
               ? 0.0
               : it->second.first / static_cast<double>(it->second.second);
  };
  const double parts = static_cast<double>(std::max<std::size_t>(counts.partitions, 1));
  report.metric("h5lite.decode_ms", mean_self("h5lite.decode"), "ms");
  report.metric("h5lite.bytes_read", static_cast<double>(bytes), "B");
  report.metric("mapred.load_s", summarize(load_s).median, "s");
  report.metric("mapred.reduce_s", summarize(reduce_s).median, "s");
  report.metric("mapred.idle_fraction", summarize(idle_fraction).median, "ratio");
  report.metric("mapred.task_skew", summarize(task_skew).median, "ratio");
  report.metric("core.unattributed_s", summarize(unattributed_s).median, "s");
  report.metric("atl03.preprocess_ms", mean_self("atl03.preprocess"), "ms");
  report.metric("atl03.photons_selected_ratio",
                counts.raw_photons ? static_cast<double>(counts.selected_photons) /
                                         static_cast<double>(counts.raw_photons)
                                   : 0.0,
                "ratio");
  report.metric("resample.resample_ms", mean_self("resample.resample"), "ms");
  report.metric("resample.fpb_ms", mean_self("resample.fpb"), "ms");
  report.metric("resample.segments", static_cast<double>(counts.segments) / parts, "count");
  report.metric("label.autolabel_ms", mean_self("label.autolabel"), "ms");
  report.metric("seasurface.ms", mean_self("seasurface"), "ms");
  report.metric("freeboard.ms", mean_self("freeboard"), "ms");
  report.metric("freeboard.points",
                static_cast<double>(reference.points) / static_cast<double>(c.shards.files.size()),
                "count");
  report.metric("bench.attributed_fraction", summarize(covered).median, "ratio");
  report.metric("bench.trace_overhead", summarize(traced_wall_s).median / wall.median, "ratio");
  const std::string trace_path = opt.work_dir + "/trace_batch_freeboard.json";
  log.write_perfetto(trace_path);
  report.detail("perfetto", "\"" + trace_path + "\"");
}

}  // namespace perfbench
