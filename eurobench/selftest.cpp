// Self-tests for the benchmark's metric code (stats.hpp). run.py runs this
// binary after every build and refuses to benchmark if it fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b, double rel) {
  return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());  // order must not matter
  return v;
}

void test_median() {
  expect(eurobench::median({3.0, 1.0, 2.0}) == 2.0, "median of odd count");
  expect(eurobench::median({4.0, 1.0, 3.0, 2.0}) == 2.5, "median of even count");
  bool threw = false;
  try {
    (void)eurobench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of no samples throws");
}

void test_percentile() {
  using eurobench::percentile;
  // 200 samples: p95 is rank 190 with exactly ten samples above it.
  const auto p95 = percentile(one_to(200), 95.0);
  expect(p95.has_value() && *p95 == 190.0, "p95 of 200 samples is rank 190");
  expect(!percentile(one_to(199), 95.0).has_value(),
         "p95 of 199 samples leaves nine beyond and is refused");
  expect(percentile(one_to(1000), 99.0).value_or(0.0) == 990.0,
         "p99 of 1000 samples is rank 990");
  expect(!percentile(one_to(999), 99.0).has_value(),
         "p99 of 999 samples is refused");
  expect(percentile(one_to(20), 50.0).value_or(0.0) == 10.0,
         "p50 of 20 samples is rank 10");
  expect(!percentile(one_to(19), 50.0).has_value(),
         "p50 of 19 samples leaves nine beyond and is refused");
  expect(!percentile({}, 50.0).has_value(), "percentile of nothing is empty");
  expect(eurobench::min_samples_for(95.0) == 200, "p95 needs 200 samples");
  expect(eurobench::min_samples_for(99.0) == 1000, "p99 needs 1000 samples");
  expect(eurobench::min_samples_for(50.0) == 20, "p50 needs 20 samples");
  // Whatever the count, a reported percentile has >= 10 samples above it.
  for (std::size_t n = 1; n <= 400; ++n) {
    for (const double p : {50.0, 90.0, 95.0}) {
      const auto v = percentile(one_to(n), p);
      if (!v) continue;
      const auto above = static_cast<std::size_t>(n - static_cast<std::size_t>(*v));
      if (above < eurobench::kMinBeyond) {
        expect(false, "a reported percentile has ten samples beyond it");
        return;
      }
    }
  }
}

void test_interleaved_minima() {
  using eurobench::interleaved_minima;
  const std::vector<double> series = {5, 9, 1, 8, 7, 2, 6, 3};
  // Groups of three: {5, 8, 6}, {9, 7, 3}, {1, 2}.
  expect(interleaved_minima(series, 3) == std::vector<double>({5, 3, 1}),
         "best of each interleaved group");
  expect(interleaved_minima({4, 2}, 8) == std::vector<double>({4, 2}),
         "groups without members are skipped");
  expect(interleaved_minima({}, 8).empty(), "no series, no minima");
}

void test_geomean() {
  expect(near(eurobench::geomean({1.0, 100.0}), 10.0, 1e-12), "geomean 1,100");
  expect(near(eurobench::geomean({2.0, 8.0}), 4.0, 1e-12), "geomean 2,8");
  expect(near(eurobench::geomean({5.0}), 5.0, 1e-12), "geomean of one value");
  expect(near(eurobench::geomean({1e-3, 1e3, 7.0}), std::cbrt(7.0), 1e-9),
         "reciprocal values cancel");
  bool threw = false;
  try {
    (void)eurobench::geomean({1.0, 0.0});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "geomean rejects a zero");
}

void test_label_cold() {
  const std::vector<bool> got = eurobench::label_cold({3, 1, 3, 2, 1, 3});
  const std::vector<bool> want = {true, true, false, true, false, false};
  expect(got == want, "first occurrence of a key is cold, repeats are warm");
  expect(eurobench::label_cold({}).empty(), "no keys, no labels");
}

void test_poisson() {
  using eurobench::poisson_schedule;
  const auto a = poisson_schedule(42, 100.0, 20000);
  const auto b = poisson_schedule(42, 100.0, 20000);
  const auto c = poisson_schedule(43, 100.0, 20000);
  expect(a == b, "same seed gives the same schedule");
  expect(a != c, "another seed gives another schedule");
  expect(std::is_sorted(a.begin(), a.end()) && a.front() >= 0.0,
         "due times increase from zero");
  expect(a.back() < 200000.0 && a.back() > 199000.0,
         "n arrivals fill the window n / rate");
  std::size_t short_gaps = 0;
  double prev = 0.0;
  for (const double t : a) {
    if (t - prev < 10.0) ++short_gaps;
    prev = t;
  }
  // Mean gap 10 ms at 100/s; P(gap < mean) = 1 - 1/e for exponential gaps.
  expect(near(static_cast<double>(short_gaps) / 20000.0, 1.0 - std::exp(-1.0),
              0.03),
         "gaps are exponential");
}

void test_course_sequence() {
  using eurobench::course_sequence;
  const auto counts = eurobench::zipf_repeats(240, 160, 0.8);
  expect(std::accumulate(counts.begin(), counts.end(), std::size_t{0}) == 160,
         "repeat counts sum to the repeats");
  expect(std::is_sorted(counts.rbegin(), counts.rend()),
         "repeat counts do not grow with rank");
  expect(counts[0] > 5 * counts[200] + 5, "repeats favour popular keys");
  // Weights 1 / (r+1)^1 over 4 ranks: 12 / 25, 6 / 25, 4 / 25, 3 / 25 of
  // 10 repeats are 4.8, 2.4, 1.6, 1.2; the largest remainders go to ranks
  // 0 and 2.
  expect(eurobench::zipf_repeats(4, 10, 1.0) == std::vector<std::size_t>({5, 2, 2, 1}),
         "largest-remainder rounding");

  const auto a = course_sequence(240, 160, 0.8, 5);
  expect(a == course_sequence(240, 160, 0.8, 5), "same seed, same sequence");
  expect(a != course_sequence(240, 160, 0.8, 6), "another seed, another sequence");
  expect(a.size() == 400, "keys plus repeats");
  const std::vector<bool> cold = eurobench::label_cold(a);
  const auto n_cold = static_cast<std::size_t>(std::count(cold.begin(), cold.end(), true));
  expect(n_cold == 240, "every key is cold exactly once");
  expect(cold.front(), "the first job is cold");
  // The seed sets the order only: every seed submits the same jobs.
  auto sorted_a = a;
  auto sorted_b = course_sequence(240, 160, 0.8, 6);
  std::sort(sorted_a.begin(), sorted_a.end());
  std::sort(sorted_b.begin(), sorted_b.end());
  expect(sorted_a == sorted_b, "the multiset of jobs does not depend on the seed");
  std::vector<std::size_t> per_key(240, 0);
  for (const std::size_t k : a) ++per_key[k];
  bool match = true;
  for (std::size_t k = 0; k < 240; ++k) match &= per_key[k] == counts[k] + 1;
  expect(match, "each key is submitted once plus its repeat count");
}

void test_permutation() {
  const auto p = eurobench::permutation(50, 9);
  auto sorted = p;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::size_t> iota(50);
  std::iota(iota.begin(), iota.end(), std::size_t{0});
  expect(sorted == iota, "permutation holds every index once");
  expect(p == eurobench::permutation(50, 9), "permutation is seeded");
  expect(eurobench::mix_seed(1, 0) != eurobench::mix_seed(1, 1) &&
             eurobench::mix_seed(1, 0) == eurobench::mix_seed(1, 0),
         "stream seeds are distinct and repeatable");
}

}  // namespace

int main() {
  test_median();
  test_percentile();
  test_interleaved_minima();
  test_geomean();
  test_label_cold();
  test_poisson();
  test_course_sequence();
  test_permutation();
  if (g_failures > 0) {
    std::fprintf(stderr, "eurobench self-test: %d failure(s)\n", g_failures);
    return 1;
  }
  std::printf("eurobench self-test: ok\n");
  return 0;
}
