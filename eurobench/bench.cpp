#include "bench.hpp"

#include <malloc.h>
#include <sched.h>

#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "stats.hpp"

namespace eurobench {

int host_cpus() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

const cpu_set_t& start_cpus() {
  static const cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    if (sched_getaffinity(0, sizeof s, &s) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    return s;
  }();
  return set;
}

}  // namespace

void pin_calling_thread(std::size_t slot) {
  const cpu_set_t& all = start_cpus();
  std::size_t k = slot % static_cast<std::size_t>(CPU_COUNT(&all));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &all) || k-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

void unpin_calling_thread() {
  const cpu_set_t& all = start_cpus();
  if (sched_setaffinity(0, sizeof all, &all) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) throw std::runtime_error("cannot reset the peak RSS");
}

double tail(const std::string& metric, std::vector<double> v, double p) {
  const std::size_t n = v.size();
  const auto value = percentile(std::move(v), p);
  if (!value) {
    throw std::runtime_error(metric + ": " + std::to_string(n) +
                             " samples cannot support a p" +
                             std::to_string(static_cast<int>(p)) + " (needs " +
                             std::to_string(min_samples_for(p)) + ")");
  }
  return *value;
}

double mid(const std::string& metric, std::vector<double> v) {
  if (v.empty()) throw std::runtime_error(metric + ": no samples");
  return median(std::move(v));
}

void add(std::vector<Metric>& to, std::string name, double value,
         std::size_t samples) {
  to.push_back({std::move(name), value, "", samples, ""});
}

const std::map<std::string, std::string>& step_metric_names() {
  static const std::map<std::string, std::string> names = {
      {"library", "pdk.library_ms"}, {"elaborate", "synth.elaborate_ms"},
      {"synth", "synth.synth_ms"},   {"map", "synth.map_ms"},
      {"dft", "synth.dft_ms"},       {"place", "place.ms"},
      {"cts", "cts.ms"},             {"route", "route.ms"},
      {"sta", "timing.sta_ms"},      {"power", "power.ms"},
      {"drc", "drc.ms"},             {"gds", "gds.ms"},
  };
  return names;
}

}  // namespace eurobench
