// train_dist: dist::train_distributed at 2 ranks (2 rank threads plus 2
// comm workers on 4 cores) on labeled windows drawn from the campaign.
// Each repeat trains a fresh model for a fixed number of epochs; repeats
// run back to back for the run's duration. Wall clock is measured next to
// the trainer's own CPU-time critical-path model.
#include <algorithm>

#include "campaign.hpp"
#include "dist/trainer.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace is2;

namespace {

constexpr int kRanks = 2;
constexpr std::size_t kEpochs = 6;
constexpr std::size_t kTrainWindows = 8'000;
constexpr std::size_t kTestWindows = 2'000;
/// Test accuracy every repeat must reach (against the auto-labels).
constexpr double kMinAccuracy = 0.95;

std::uint64_t weights_digest(nn::Sequential& model) {
  Digest d;
  for (const auto& p : model.params())
    d.add_bytes(p.value->data(), p.value->size() * sizeof(float));
  return d.value();
}

}  // namespace

void run_train_dist(const Options& opt, Report& report) {
  const CampaignData c = load_or_generate_campaign(opt.data_dir);
  load_or_build_windows(c);  // generation: untimed
  reset_peak_rss();

  nn::Dataset train, test;
  const double setup_s = median_setup_s(
      [&] {
        const LabeledWindows labeled = load_or_build_windows(c);
        std::vector<std::size_t> order(labeled.windows.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        util::Rng rng = util::Rng(opt.seed).fork(0x7A1Dull);
        rng.shuffle(order);
        const std::size_t n_train = std::min(kTrainWindows, order.size() / 2);
        const std::size_t n_test = std::min(kTestWindows, order.size() - n_train);
        train = labeled.windows.subset({order.begin(), order.begin() + n_train});
        test = labeled.windows.subset(
            {order.begin() + n_train, order.begin() + n_train + n_test});
      },
      [] {});

  dist::TrainerConfig cfg;
  cfg.ranks = kRanks;
  cfg.epochs = kEpochs;
  cfg.batch_per_rank = 32;
  cfg.shuffle_seed = opt.seed;
  const auto factory = [&c] { return make_model(c.config); };

  // Warm-up repeat: its weights are the reference every repeat must match.
  dist::TrainResult first = dist::train_distributed(factory, train, test, cfg);
  const std::uint64_t reference = weights_digest(first.model);

  SpanLog log;
  std::vector<double> wall_s, traced_wall_s, model_s, epoch_s, accuracy, covered;
  std::size_t floats_reduced = first.floats_reduced;
  util::Timer run;
  bool traced_turn = false;
  while (run.seconds() < opt.seconds || wall_s.size() < 3 ||
         (opt.trace && traced_wall_s.size() < 2)) {
    ++report.attempted;
    const bool traced = opt.trace && traced_turn;
    traced_turn = !traced_turn;
    SpanLog* l = traced ? &log : nullptr;
    util::Timer t;
    dist::TrainResult r;
    std::uint64_t digest = 0;
    std::uint32_t root_id = 0;
    {
      ScopedSpan root(l, "repeat");
      root_id = root.id();
      {
        ScopedSpan s(l, "dist.train_distributed");
        r = dist::train_distributed(factory, train, test, cfg);
      }
      ScopedSpan s(l, "check.weights");
      digest = weights_digest(r.model);
    }
    const double wall = t.seconds();
    if (traced) {
      traced_wall_s.push_back(wall);
      covered.push_back(log.covered_fraction(root_id, {}));
    } else {
      wall_s.push_back(wall);
    }
    model_s.push_back(r.total_time_s);
    for (const double e : r.epoch_times_s) epoch_s.push_back(e);
    accuracy.push_back(r.test_metrics.accuracy);
    floats_reduced = r.floats_reduced;
    const bool ok = digest == reference && r.test_metrics.accuracy >= kMinAccuracy;
    if (!ok) {
      ++report.failed;
      report.fail(digest != reference
                      ? "train_dist: final weights differ between repeats"
                      : "train_dist: test accuracy " + std::to_string(r.test_metrics.accuracy) +
                            " below " + std::to_string(kMinAccuracy));
    }
  }

  const double samples = static_cast<double>(kEpochs * train.size());
  const Summary wall = summarize(wall_s);
  const Summary acc = summarize(accuracy);
  report.detail("repeats", static_cast<double>(wall_s.size()));
  report.detail("train_windows", static_cast<double>(train.size()));
  report.detail("test_windows", static_cast<double>(test.size()));
  report.detail("ranks", kRanks);
  report.detail("epochs_per_repeat", static_cast<double>(kEpochs));
  report.detail("accuracy_min", acc.min);
  report.detail("accuracy_median", acc.median);
  report.detail("accuracy_bound", kMinAccuracy);
  report.detail("repeat_wall_s_q1", wall.q1);
  report.detail("repeat_wall_s_q3", wall.q3);

  if (!opt.trace) {
    const Tail tail = tail_at(wall_s, kTailPct);
    report.detail("tail_pct", tail.pct);
    report.detail("tail_beyond", static_cast<double>(tail.beyond));
    report.metric("goodput_per_s", samples / wall.median, "1/s");
    report.metric("latency_p50_ms", wall.median * 1e3, "ms");
    report.metric("latency_tail_ms", tail.value * 1e3, "ms");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  nn::Sequential probe = make_model(c.config);
  report.metric("nn.windows", samples, "count");
  report.metric("nn.windows_per_s", samples / wall.median, "1/s");
  report.metric("nn.macs_per_window", macs_per_window(probe, c.config.sequence_window), "count");
  report.metric("dist.epoch_s", summarize(epoch_s).median, "s");
  report.metric("dist.floats_reduced", static_cast<double>(floats_reduced), "count");
  report.metric("dist.critical_path_s", summarize(model_s).median, "s");
  report.metric("dist.wall_over_model", wall.median / summarize(model_s).median, "ratio");
  report.metric("bench.attributed_fraction", summarize(covered).median, "ratio");
  report.metric("bench.trace_overhead", summarize(traced_wall_s).median / wall.median, "ratio");
  const std::string path = opt.work_dir + "/trace_train_dist.json";
  log.write_perfetto(path);
  report.detail("perfetto", "\"" + path + "\"");
}

}  // namespace perfbench
