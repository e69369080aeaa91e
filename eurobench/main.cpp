// EuroChip benchmark: entry point.
//
//   eurobench --workload <flow_small|fed_course> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints the host, the run's notes, every metric with its unit, sample
// count and direction, any failed correctness gate, and as the last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits 2 without a result line on bad arguments or when a
// metric cannot be measured.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using eurobench::Metric;
using eurobench::Outcome;

struct Spec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" / "higher"; empty for per-layer metrics
};

// Keep in step with BENCHMARK.json.
const std::vector<Spec>& end_to_end_specs() {
  static const std::vector<Spec> specs = {
      {"setup_s", "s", "lower"},
      {"pass_ms", "ms", "lower"},
      {"completed_share", "share", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"qor.area_um2", "um2", "lower"},
      {"qor.fmax_mhz", "MHz", "higher"},
      {"qor.wirelength_dbu", "dbu", "lower"},
      {"job_latency_p50_ms", "ms", "lower"},
      {"job_latency_p95_ms", "ms", "lower"},
      {"cold_job_latency_p50_ms", "ms", "lower"},
      {"warm_job_latency_p50_ms", "ms", "lower"},
  };
  return specs;
}

const std::vector<Spec>& per_layer_specs() {
  static const std::vector<Spec> specs = {
      {"power.ms", "ms", ""},
      {"power.net_cycles", "count", ""},
      {"power.ns_per_net_cycle", "ns", ""},
      {"power.total_uw", "uW", ""},
      {"synth.map_ms", "ms", ""},
      {"synth.aig_ands", "count", ""},
      {"synth.map_cells", "count", ""},
      {"synth.map_ns_per_and", "ns", ""},
      {"synth.elaborate_ms", "ms", ""},
      {"synth.synth_ms", "ms", ""},
      {"synth.dft_ms", "ms", ""},
      {"pdk.library_ms", "ms", ""},
      {"cts.ms", "ms", ""},
      {"drc.ms", "ms", ""},
      {"gds.ms", "ms", ""},
      {"timing.sta_ms", "ms", ""},
      {"timing.endpoints", "count", ""},
      {"place.ms", "ms", ""},
      {"place.cells", "count", ""},
      {"place.hpwl", "dbu", ""},
      {"route.ms", "ms", ""},
      {"route.failed_calls", "count", ""},
      {"route.failed_ms", "ms", ""},
      {"route.iterations", "count", ""},
      {"route.max_congestion", "ratio", ""},
      {"flow.overhead_ms", "ms", ""},
      {"trace.overhead_share", "share", ""},
      {"place.speedup_tN", "x", ""},
      {"route.speedup_tN", "x", ""},
      {"power.speedup_tN", "x", ""},
      {"synth.map.speedup_tN", "x", ""},
      {"timing.sta.speedup_tN", "x", ""},
      {"flow.cache.l1_hit_ratio", "ratio", ""},
      {"flow.cache.l2_hit_ratio", "ratio", ""},
      {"flow.cache.stores", "count", ""},
      {"flow.cache.evictions", "count", ""},
      {"flow.cache.prefix_steps_mean", "count", ""},
      {"hub.queue_wait_ms_p50", "ms", ""},
      {"hub.queue_wait_ms_p95", "ms", ""},
      {"hub.run_ms_cold_p50", "ms", ""},
      {"hub.run_ms_warm_p50", "ms", ""},
      {"fed.submit_us_p50", "us", ""},
      {"fed.submit_us_p99", "us", ""},
      {"fed.settle_lag_ms_p50", "ms", ""},
      {"fed.stolen", "count", ""},
      {"fed.steal_returned", "count", ""},
      {"fed.generator_lag_ms", "ms", ""},
  };
  return specs;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "eurobench: %s\nusage: eurobench --workload "
               "<flow_small|fed_course> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n",
               why.c_str());
  std::exit(2);
}

eurobench::Args parse(int argc, char** argv) {
  eurobench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// Orders the workload's metrics by the catalogue and fills unit and
/// direction. End-to-end metrics must all be present; a per-layer metric
/// the workload has no layer for reads 0 with 0 samples.
std::vector<Metric> catalogue(const std::vector<Metric>& measured,
                              const std::vector<Spec>& specs, bool required) {
  std::map<std::string, Metric> by_name;
  for (const Metric& m : measured) by_name[m.name] = m;
  std::vector<Metric> out;
  for (const Spec& s : specs) {
    const auto it = by_name.find(s.name);
    if (it == by_name.end() && required) {
      throw std::runtime_error(std::string("metric not measured: ") + s.name);
    }
    Metric m = it == by_name.end() ? Metric{s.name, 0.0, "", 0, ""} : it->second;
    m.unit = s.unit;
    m.better = s.better;
    out.push_back(m);
    if (it != by_name.end()) by_name.erase(it);
  }
  if (!by_name.empty()) {
    throw std::runtime_error("metric missing from the catalogue: " + by_name.begin()->first);
  }
  return out;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const eurobench::Args args = parse(argc, argv);
  Outcome out;
  std::vector<Metric> metrics;
  try {
    if (args.workload == "flow_small") {
      out = eurobench::run_flow_workload(args);
    } else if (args.workload == "fed_course") {
      out = eurobench::run_fed_workload(args);
    } else {
      usage("unknown workload " + args.workload);
    }
    metrics = args.trace ? catalogue(out.per_layer, per_layer_specs(), false)
                         : catalogue(out.end_to_end, end_to_end_specs(), true);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eurobench: %s\n", e.what());
    return 2;
  }
  if (out.attempted == 0) {
    std::fprintf(stderr, "eurobench: no operation was attempted\n");
    return 2;
  }

  std::printf("eurobench %s seed=%llu seconds=%g trace=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: nproc=%d build_type=%s", eurobench::host_cpus(),
              EUROBENCH_BUILD_TYPE);
  for (const auto& [key, value] : out.host) {
    std::printf(" | %s=%s", key.c_str(), value.c_str());
  }
  std::printf("\n");
  for (const std::string& note : out.notes) std::printf("note: %s\n", note.c_str());
  std::printf("%-30s %22s %-6s %8s  %s\n", "metric", "value", "unit", "samples",
              args.trace ? "" : "better");
  for (const Metric& m : metrics) {
    std::printf("%-30s %22.6f %-6s %8zu  %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples,
                m.samples == 0 ? "(no such layer on this workload)" : m.better.c_str());
  }
  std::printf("operations: %zu attempted, %zu failed\n", out.attempted, out.failed);
  for (const std::string& g : out.gate_failures) {
    std::printf("GATE FAILED: %s\n", g.c_str());
  }

  std::string json = "{\"correct\": ";
  json += out.gate_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + json_escape(metrics[i].name) + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" +
            json_escape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
