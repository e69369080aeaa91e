// Shared vocabulary of the EuroChip benchmark's workloads.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace eurobench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where a traced run writes its Perfetto JSON.
  std::string trace_dir = ".";
};

/// One reported number. `samples` is how many measurements the value was
/// reduced from; `better` is "lower" or "higher" for end-to-end metrics and
/// empty for per-layer ones.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string better;
};

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Correctness gates that did not hold; the run is incorrect if any.
  std::vector<std::string> gate_failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Host and configuration facts printed with the result.
  std::vector<std::pair<std::string, std::string>> host;
  /// Free-form lines printed before the metric table.
  std::vector<std::string> notes;
};

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Logical CPUs the benchmark may keep busy.
[[nodiscard]] int host_cpus();

/// Restricts the calling thread to one of the CPUs it could use when the
/// process started: the `slot`-th of them, modulo their count.
void pin_calling_thread(std::size_t slot);

/// Lets the calling thread use every CPU it could use when the process
/// started.
void unpin_calling_thread();

/// Peak resident set size of this process, MB: the largest since the
/// process started or since the last reset_peak_rss().
[[nodiscard]] double peak_rss_mb();

/// Returns freed heap memory to the system and restarts the peak resident
/// set size from the current one (Linux /proc/self/clear_refs).
void reset_peak_rss();

/// The value of a tail percentile; throws std::runtime_error naming the
/// metric when the sample count cannot support it.
[[nodiscard]] double tail(const std::string& metric, std::vector<double> v,
                          double p);

/// Median, throwing std::runtime_error naming the metric on no samples.
[[nodiscard]] double mid(const std::string& metric, std::vector<double> v);

/// Appends a workload's value for a metric; main.cpp adds unit and
/// direction from the metric catalogue.
void add(std::vector<Metric>& to, std::string name, double value,
         std::size_t samples);

/// Per-layer metric name of each reference-flow step's time, by step name.
[[nodiscard]] const std::map<std::string, std::string>& step_metric_names();

Outcome run_flow_workload(const Args& args);
Outcome run_fed_workload(const Args& args);

}  // namespace eurobench
