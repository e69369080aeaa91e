// Metric arithmetic and input generation for the EuroChip benchmark.
//
// Everything here is a pure function of its arguments (no clocks, no
// program calls), so selftest.cpp can check it on its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace eurobench {

/// Tail percentiles are reported only when at least this many samples lie
/// beyond them.
inline constexpr std::size_t kMinBeyond = 10;

/// Median of `v` (mean of the two middle samples for an even count).
/// Requires a non-empty input.
[[nodiscard]] double median(std::vector<double> v);

/// Nearest-rank percentile: the sample at 1-based rank ceil(p/100 * n) of
/// the sorted input. Empty when fewer than kMinBeyond samples lie above
/// that rank, i.e. when the tail the percentile stands for is too thin to
/// report.
[[nodiscard]] std::optional<double> percentile(std::vector<double> v,
                                               double p);

/// Smallest sample count for which percentile(v, p) is reportable.
[[nodiscard]] std::size_t min_samples_for(double p);

/// Best-of-N per group: the smallest value of each of `groups` interleaved
/// groups of `series` (group g holds positions g, g + groups, ...). Empty
/// groups are skipped.
[[nodiscard]] std::vector<double> interleaved_minima(
    const std::vector<double>& series, std::size_t groups);

/// Geometric mean. Requires a non-empty input of positive values.
[[nodiscard]] double geomean(const std::vector<double>& v);

/// cold[i] is true when keys[i] occurs for the first time at position i.
[[nodiscard]] std::vector<bool> label_cold(const std::vector<std::size_t>& keys);

/// Deterministic 64-bit generator (splitmix64); the benchmark's inputs
/// depend only on the seeds fed to it.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();

 private:
  std::uint64_t state_;
};

/// Stream seed for sub-input `stream` of a run seeded with `seed`.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Due times, in ms, of `n` arrivals of a Poisson process at `rate_per_s`
/// conditioned on exactly `n` arrivals in the window [0, n / rate_per_s):
/// sorted uniform draws from `seed`. Gaps are exponential with mean
/// 1 / rate_per_s while the window's length stays fixed.
[[nodiscard]] std::vector<double> poisson_schedule(std::uint64_t seed,
                                                   double rate_per_s,
                                                   std::size_t n);

/// Repeat counts of a course's keys: `n_repeats` shared among ranks
/// 0..n_keys-1 in proportion to Zipf(s) weights 1 / (r+1)^s, rounded by
/// largest remainder (ties to the lower rank), so they sum to `n_repeats`.
[[nodiscard]] std::vector<std::size_t> zipf_repeats(std::size_t n_keys,
                                                    std::size_t n_repeats,
                                                    double s);

/// A course's key sequence over ranks 0..n_keys-1: every key once plus its
/// zipf_repeats() count of repeats, in an order drawn from `seed`. The
/// multiset of jobs is the same for every seed; a key's first occurrence
/// is its cold job.
[[nodiscard]] std::vector<std::size_t> course_sequence(std::size_t n_keys,
                                                       std::size_t n_repeats,
                                                       double s,
                                                       std::uint64_t seed);

/// Fisher-Yates permutation of 0..n-1 drawn from `seed`.
[[nodiscard]] std::vector<std::size_t> permutation(std::size_t n,
                                                   std::uint64_t seed);

}  // namespace eurobench
