// Self-tests of the benchmark's own machinery:
//  * the tail-percentile rule (highest of p90/p99/p99.9 with >= 10 beyond),
//  * schedule determinism for a given seed,
//  * a perturbed product or job result is caught by the output checks,
//  * the freeboard job agrees bit for bit between a 1x1 engine and the
//    2x2 topology on a reduced shard set.
//
//   perfbench_selftest <data-dir> <campaign-seed>     (run.py --selftest)
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign.hpp"
#include "core/pipeline.hpp"
#include "h5lite/granule_io.hpp"
#include "label/autolabel.hpp"
#include "mapred/engine.hpp"
#include "pipeline/product_builder.hpp"
#include "schedule.hpp"
#include "serve/product_cache.hpp"
#include "workloads.hpp"

namespace {

using namespace is2;
using namespace perfbench;

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted input
  return v;
}

void test_tail_rule() {
  check(highest_qualifying_tail(ramp(50)).pct == 0.0, "50 samples: no percentile has 10 beyond");
  const Tail t100 = highest_qualifying_tail(ramp(100));
  check(t100.pct == 90.0 && t100.beyond == 10, "100 samples: p90 with 10 beyond");
  check(highest_qualifying_tail(ramp(900)).pct == 90.0, "900 samples: p99 has only 9 beyond");
  const Tail t1000 = highest_qualifying_tail(ramp(1000));
  check(t1000.pct == 99.0 && t1000.beyond == 10, "1000 samples: p99 with 10 beyond");
  check(highest_qualifying_tail(ramp(10000)).pct == 99.9, "10000 samples: p99.9");
  const Tail max = tail_at(ramp(7), 100.0);
  check(max.value == 7.0 && max.beyond == 0, "pct 100 is the maximum");
  const Summary s = summarize(ramp(5));
  check(s.median == 3.0 && s.q1 == 2.0 && s.q3 == 4.0, "median and quartiles");
}

void test_schedules() {
  ArrivalConfig a;
  a.duration_s = 20.0;
  a.rate = 10.0;
  a.burst_factor = 4.0;
  const auto t1 = arrival_times(a, 7), t2 = arrival_times(a, 7), t3 = arrival_times(a, 8);
  check(t1 == t2, "arrival times are a function of the seed");
  check(t1 != t3, "another seed gives other arrival times");
  check(t1.size() == static_cast<std::size_t>(std::llround(a.mean_count())) &&
            t1.size() == t3.size(),
        "every seed offers the same number of requests");
  bool sorted = true;
  for (std::size_t i = 1; i < t1.size(); ++i) sorted &= t1[i - 1] <= t1[i];
  check(sorted && t1.front() >= 0.0 && t1.back() < a.duration_s, "arrivals sorted inside the run");
  std::size_t in_burst = 0;
  for (const double t : t1) in_burst += a.rate_at(t) > a.rate;
  check(in_burst > t1.size() / 4, "bursts carry their share of arrivals");

  const auto k1 = cyclic_keys(250, 96, 3);
  check(k1 == cyclic_keys(250, 96, 3) && k1 != cyclic_keys(250, 96, 4),
        "cyclic key draws are a function of the seed");
  bool distance_ok = true;
  for (std::size_t i = 0; i < k1.size(); ++i)
    for (std::size_t j = i + 1; j < std::min(k1.size(), i + 96); ++j) distance_ok &= k1[i] != k1[j];
  check(distance_ok, "a cyclic key repeats only after the whole universe");

  const auto z1 = zipf_keys(2000, 576, 1.1, 5);
  check(z1 == zipf_keys(2000, 576, 1.1, 5) && z1 != zipf_keys(2000, 576, 1.1, 6),
        "zipf key draws are a function of the seed");
  std::vector<std::size_t> counts(576);
  for (const auto k : z1) ++counts[k];
  std::sort(counts.rbegin(), counts.rend());
  check(counts[0] > 200 && counts[0] > 2 * counts[2], "zipf head dominates");
}

/// Freeboard product of one shard through the builder, resumed from the
/// auto-label classes (the batch job's reduce step on one partition).
serve::GranuleProduct shard_product(const CampaignData& c, std::size_t i) {
  const atl03::Granule shard = h5::load_granule(c.shards.files[i]);
  const pipeline::ProductBuilder builder(c.config, c.corrections);
  pipeline::Artifacts art = pipeline::Artifacts::from_beam(shard, shard.beams.at(0));
  builder.run_until(art, pipeline::StageId::fpb);
  label::AutoLabelConfig al = c.config.autolabel;
  al.overlay.shift = c.drifts[c.shards.pair_of_file[i]];
  label::LabeledBeam lb = label::auto_label(c.rasters[c.shards.pair_of_file[i]],
                                            art.take_segments(), al);
  pipeline::Artifacts tail =
      pipeline::Artifacts::resume(std::move(lb.segments), std::move(lb.labels));
  builder.build(tail, pipeline::ProductKind::freeboard, nullptr, seasurface::Method::NasaEquation);
  serve::GranuleProduct p;
  p.segments = std::move(tail.segments);
  p.classes = std::move(tail.classes);
  p.sea_surface = std::move(tail.sea_surface);
  p.freeboard = std::move(tail.freeboard);
  return p;
}

void test_output_checks(const CampaignData& c) {
  const serve::GranuleProduct a = shard_product(c, 0);
  const serve::GranuleProduct b = shard_product(c, 0);
  check(!a.freeboard.points.empty() && product_digest(a) == product_digest(b),
        "identical builds give identical product digests");
  serve::GranuleProduct p = a;
  p.freeboard.points[p.freeboard.points.size() / 2].freeboard =
      std::nextafter(p.freeboard.points[p.freeboard.points.size() / 2].freeboard, 1e9);
  check(product_digest(p) != product_digest(a), "a one-ulp freeboard change is caught");
  p = a;
  p.segments.back().h_mean += 1e-12;
  check(product_digest(p) != product_digest(a), "a perturbed segment height is caught");
  p = a;
  p.classes[0] = p.classes[0] == atl03::SurfaceClass::ThickIce ? atl03::SurfaceClass::ThinIce
                                                               : atl03::SurfaceClass::ThickIce;
  check(product_digest(p) != product_digest(a), "a flipped class is caught");
  p = a;
  p.freeboard.points.pop_back();
  check(product_digest(p) != product_digest(a), "a dropped freeboard point is caught");
}

void test_topologies(const CampaignData& c) {
  // Reduced shard set: the first two pairs' shards (24 partitions).
  CampaignData small = c;
  small.shards = {};
  for (std::size_t i = 0; i < c.shards.files.size(); ++i)
    if (c.shards.pair_of_file[i] < 2) {
      small.shards.files.push_back(c.shards.files[i]);
      small.shards.pair_of_file.push_back(c.shards.pair_of_file[i]);
    }
  auto job = [&](mapred::ClusterTopology topology) {
    mapred::Engine engine(topology);
    return core::run_freeboard_job(engine, small.shards, small.rasters, small.drifts,
                                   small.corrections, small.config);
  };
  const core::FreeboardJobStats one = job({1, 1}), four = job({2, 2});
  check(one.points > 0 && same_job_result(one, four),
        "freeboard job: 1x1 engine == 2x2 engine on " + std::to_string(small.shards.files.size()) +
            " partitions");
  core::FreeboardJobStats perturbed = four;
  perturbed.mean_freeboard = std::nextafter(perturbed.mean_freeboard, 1e9);
  check(!same_job_result(one, perturbed), "a one-ulp change of the mean freeboard is caught");
  perturbed = four;
  perturbed.distribution.add(0.5);
  check(!same_job_result(one, perturbed), "an extra histogram sample is caught");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_selftest <data-dir>\n");
    return 2;
  }
  test_tail_rule();
  test_schedules();
  const CampaignData c = load_or_generate_campaign(argv[1]);
  test_output_checks(c);
  test_topologies(c);
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "OK", failures);
  return failures ? 1 : 0;
}
