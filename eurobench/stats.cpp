#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace eurobench {

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> percentile(std::vector<double> v, double p) {
  if (v.empty() || p <= 0.0 || p >= 100.0) return std::nullopt;
  const std::size_t rank = nearest_rank(v.size(), p);
  if (v.size() - rank < kMinBeyond) return std::nullopt;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1),
                   v.end());
  return v[rank - 1];
}

std::size_t min_samples_for(double p) {
  std::size_t n = 1;
  while (n - nearest_rank(n, p) < kMinBeyond) ++n;
  return n;
}

std::vector<double> interleaved_minima(const std::vector<double>& series,
                                       std::size_t groups) {
  std::vector<double> out;
  for (std::size_t g = 0; g < groups && g < series.size(); ++g) {
    double best = series[g];
    for (std::size_t i = g + groups; i < series.size(); i += groups) {
      best = std::min(best, series[i]);
    }
    out.push_back(best);
  }
  return out;
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("geomean of no samples");
  double log_sum = 0.0;
  for (const double x : v) {
    if (!(x > 0.0)) throw std::invalid_argument("geomean of a non-positive value");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(v.size()));
}

std::vector<bool> label_cold(const std::vector<std::size_t>& keys) {
  std::vector<bool> cold(keys.size(), false);
  std::unordered_set<std::size_t> seen;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cold[i] = seen.insert(keys[i]).second;
  }
  return cold;
}

std::uint64_t SplitMix::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15uLL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9uLL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBuLL;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix a(seed);
  SplitMix b(a.next() ^ (stream * 0xD1B54A32D192ED03uLL));
  return b.next();
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     std::size_t n) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("rate must be positive");
  const double window_ms = static_cast<double>(n) / rate_per_s * 1000.0;
  SplitMix rng(seed);
  std::vector<double> due(n);
  for (double& t : due) t = rng.uniform() * window_ms;
  std::sort(due.begin(), due.end());
  return due;
}

std::vector<std::size_t> zipf_repeats(std::size_t n_keys,
                                      std::size_t n_repeats, double s) {
  if (n_keys == 0) throw std::invalid_argument("Zipf over no ranks");
  std::vector<double> weight(n_keys);
  double sum = 0.0;
  for (std::size_t r = 0; r < n_keys; ++r) {
    weight[r] = 1.0 / std::pow(static_cast<double>(r + 1), s);
    sum += weight[r];
  }
  std::vector<std::size_t> count(n_keys);
  std::vector<std::pair<double, std::size_t>> remainder(n_keys);
  std::size_t given = 0;
  for (std::size_t r = 0; r < n_keys; ++r) {
    const double exact = static_cast<double>(n_repeats) * weight[r] / sum;
    count[r] = static_cast<std::size_t>(exact);
    given += count[r];
    remainder[r] = {exact - static_cast<double>(count[r]), r};
  }
  std::stable_sort(remainder.begin(), remainder.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; given < n_repeats; ++i, ++given) {
    ++count[remainder[i].second];
  }
  return count;
}

std::vector<std::size_t> course_sequence(std::size_t n_keys,
                                         std::size_t n_repeats, double s,
                                         std::uint64_t seed) {
  const std::vector<std::size_t> repeats = zipf_repeats(n_keys, n_repeats, s);
  std::vector<std::size_t> jobs;
  jobs.reserve(n_keys + n_repeats);
  for (std::size_t k = 0; k < n_keys; ++k) jobs.insert(jobs.end(), repeats[k] + 1, k);
  std::vector<std::size_t> out;
  out.reserve(jobs.size());
  for (const std::size_t i : permutation(jobs.size(), seed)) out.push_back(jobs[i]);
  return out;
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> p(n);
  std::iota(p.begin(), p.end(), std::size_t{0});
  SplitMix rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next() % i);
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

}  // namespace eurobench
