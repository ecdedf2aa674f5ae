// Seeded workload generation for the open-loop serving workloads: arrival
// times and key draws are pure functions of the seed, fixed before the
// first request is sent, so the program under test only ever sees the
// generated requests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

struct ArrivalConfig {
  double duration_s = 10.0;
  double rate = 5.0;           ///< base arrivals per second
  double burst_factor = 1.0;   ///< rate multiplier inside a burst (1 = none)
  double burst_every_s = 2.0;  ///< burst start-to-start period
  double burst_len_s = 0.25;

  /// Expected arrivals over the duration, bursts included.
  double mean_count() const;
  double rate_at(double t) const;
};

/// Sorted arrival times in [0, duration): round(mean_count()) independent
/// draws from the density proportional to rate_at(t) — a Poisson process
/// conditioned on its count, so every seed offers the same number of
/// requests and only their timing varies.
std::vector<double> arrival_times(const ArrivalConfig& config, std::uint64_t seed);

/// `n` draws over a universe of `universe` keys, cycling through one seeded
/// permutation: a key repeats only after every other key was drawn.
std::vector<std::size_t> cyclic_keys(std::size_t n, std::size_t universe, std::uint64_t seed);

/// `n` Zipf(s) draws over a universe whose popularity ranking is a seeded
/// permutation (which key is the head depends on the seed).
std::vector<std::size_t> zipf_keys(std::size_t n, std::size_t universe, double s,
                                   std::uint64_t seed);

}  // namespace perfbench
