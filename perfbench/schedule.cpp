#include "schedule.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/rng.hpp"

namespace perfbench {

double ArrivalConfig::mean_count() const {
  double burst_time = 0.0;
  if (burst_factor != 1.0 && burst_every_s > 0.0) {
    const double full = std::floor(duration_s / burst_every_s);
    burst_time = full * burst_len_s +
                 std::min(burst_len_s, duration_s - full * burst_every_s);
  }
  return rate * (duration_s + (burst_factor - 1.0) * burst_time);
}

double ArrivalConfig::rate_at(double t) const {
  if (burst_factor == 1.0 || burst_every_s <= 0.0) return rate;
  return std::fmod(t, burst_every_s) < burst_len_s ? rate * burst_factor : rate;
}

std::vector<double> arrival_times(const ArrivalConfig& config, std::uint64_t seed) {
  if (config.duration_s <= 0.0 || config.rate <= 0.0 || config.burst_factor < 1.0)
    throw std::invalid_argument("arrival_times: duration, rate and burst factor must be positive");
  is2::util::Rng rng = is2::util::Rng(seed).fork(0xA11Full);
  const auto n = static_cast<std::size_t>(std::llround(config.mean_count()));
  const double peak = config.rate * config.burst_factor;
  std::vector<double> out;
  out.reserve(n);
  while (out.size() < n) {  // rejection sampling against the peak rate
    const double t = rng.uniform(0.0, config.duration_s);
    if (rng.uniform() * peak < config.rate_at(t)) out.push_back(t);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> cyclic_keys(std::size_t n, std::size_t universe, std::uint64_t seed) {
  if (universe == 0) throw std::invalid_argument("cyclic_keys: empty universe");
  std::vector<std::size_t> perm(universe);
  std::iota(perm.begin(), perm.end(), 0);
  is2::util::Rng rng = is2::util::Rng(seed).fork(0xC7C1Eull);
  rng.shuffle(perm);
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = perm[i % universe];
  return out;
}

std::vector<std::size_t> zipf_keys(std::size_t n, std::size_t universe, double s,
                                   std::uint64_t seed) {
  if (universe == 0) throw std::invalid_argument("zipf_keys: empty universe");
  std::vector<double> cdf(universe);
  double total = 0.0;
  for (std::size_t k = 0; k < universe; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  std::vector<std::size_t> rank_to_key(universe);
  std::iota(rank_to_key.begin(), rank_to_key.end(), 0);
  is2::util::Rng rng = is2::util::Rng(seed).fork(0x21FFull);
  rng.shuffle(rank_to_key);
  std::vector<std::size_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = rng.uniform() * total;
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
    out[i] = rank_to_key[std::min(rank, universe - 1)];
  }
  return out;
}

}  // namespace perfbench
