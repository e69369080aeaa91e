// flow_small: closed-loop passes over the standard catalog through the
// reference flow, one flow at a time, at one thread.
//
// A pass runs every (design, preset) pair of standard_catalog(1) once, in
// an order drawn from the seed. The first pass is the warm-up: it is not
// part of pass_ms, and its flows are the cold (first-seen) operations.
//
// The traced run (--trace 1) repeats cycles of three passes: an untraced
// pass at one thread, a traced pass at nproc threads (for speedup_tN), and
// a traced pass at one thread.
// Traced passes use a copy of reference_template() whose step bodies are
// wrapped in a util::trace::Span and timed; names and fingerprints are
// kept, so cache keys do not change.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/digest.hpp"
#include "eurochip/util/trace.hpp"
#include "stats.hpp"

namespace eurobench {
namespace {

using namespace eurochip;  // NOLINT(google-build-using-namespace)

/// Timed passes are split into this many interleaved groups for best-of-N
/// timing; it is also the least number of timed passes.
constexpr std::size_t kPassGroups = 8;
constexpr int kScale = 1;  ///< standard_catalog scale

/// What the wrapped steps of one pass measured, summed over its flows.
struct PassLayers {
  std::map<std::string, double> step_ms;
  double route_failed_calls = 0.0;
  double route_failed_ms = 0.0;
  double route_iterations = 0.0;
  double route_max_congestion = 0.0;
  double aig_ands = 0.0;
  double map_cells = 0.0;
  double place_cells = 0.0;
  double hpwl = 0.0;
  double endpoints = 0.0;
  double net_cycles = 0.0;
  double power_uw = 0.0;

  [[nodiscard]] double step_sum() const {
    double sum = 0.0;
    for (const auto& [name, ms] : step_ms) sum += ms;
    return sum;
  }
};

/// Where the wrapped steps of the pass in progress record. Flows of a pass
/// run one after another and every step returns on the calling thread, so
/// one sink needs no locking.
struct StepSink {
  PassLayers* current = nullptr;
};

void record_step(const std::string& name, double ms, const util::Status& s,
                 const flow::FlowContext& ctx, PassLayers& out) {
  out.step_ms[name] += ms;
  const flow::FlowArtifacts& a = ctx.artifacts;
  if (!s.ok()) {
    if (name == "route") {
      out.route_failed_calls += 1.0;
      out.route_failed_ms += ms;
    }
    return;
  }
  if (name == "synth" && a.aig) {
    out.aig_ands += static_cast<double>(a.aig->num_ands());
  } else if (name == "map" && a.mapped) {
    out.map_cells += static_cast<double>(a.mapped->num_cells());
  } else if (name == "place" && a.placed) {
    out.place_cells += static_cast<double>(a.placed->netlist->num_cells());
    out.hpwl += static_cast<double>(a.placed->total_hpwl());
  } else if (name == "route" && a.routed) {
    out.route_iterations += a.routed->iterations_used;
    out.route_max_congestion =
        std::max(out.route_max_congestion, a.routed->max_congestion);
  } else if (name == "sta") {
    out.endpoints += static_cast<double>(a.timing.num_endpoints);
  } else if (name == "power") {
    const power::PowerOptions po =
        ctx.config.power_options.value_or(power::PowerOptions{});
    out.net_cycles += static_cast<double>(a.power.nets_analyzed) *
                      static_cast<double>(po.activity_cycles);
    out.power_uw += a.power.total_uw;
  }
}

/// reference_template() with every step body timed and wrapped in a span.
flow::FlowTemplate traced_template(StepSink* sink) {
  const flow::FlowTemplate base = flow::reference_template();
  flow::FlowTemplate wrapped(base.name());
  for (const flow::FlowStep& step : base.steps()) {
    auto run = [inner = step.run, name = step.name,
                sink](flow::FlowContext& ctx) -> util::Status {
      util::trace::Span span("bench.step:" + name, "bench");
      const auto t0 = Clock::now();
      util::Status s = inner(ctx);
      const double ms = ms_between(t0, Clock::now());
      if (sink->current != nullptr) record_step(name, ms, s, ctx, *sink->current);
      return s;
    };
    wrapped.add_step({step.name, std::move(run), step.fingerprint});
  }
  return wrapped;
}

struct Case {
  std::string name;
  rtl::Module module;
  flow::FlowConfig config;
};

/// Everything the workload builds before its first flow. Thread counts are
/// set per pass.
struct Setup {
  std::vector<Case> cases;
  flow::FlowTemplate plain;
};

Setup make_setup() {
  auto node = pdk::standard_node("sky130ish");
  if (!node.ok()) throw std::runtime_error("node sky130ish: " + node.status().to_string());
  std::vector<Case> cases;
  for (const flow::FlowQuality q :
       {flow::FlowQuality::kOpen, flow::FlowQuality::kCommercial}) {
    for (rtl::designs::CatalogEntry& e : rtl::designs::standard_catalog(kScale)) {
      Case c{e.name + "/" + flow::to_string(q), std::move(e.module), {}};
      c.config.node = *node;
      c.config.quality = q;
      cases.push_back(std::move(c));
    }
  }
  return {std::move(cases), flow::reference_template()};
}

struct PassOut {
  double wall_ms = 0.0;
  double exec_ms = 0.0;             ///< sum of execute() call times
  std::vector<double> flow_ms;      ///< by case index
  std::vector<bool> ok;             ///< by case index
  std::vector<util::Digest> sig;    ///< by case index
  std::vector<flow::PpaReport> ppa; ///< by case index
  std::vector<std::string> error;   ///< by case index
  std::size_t failed = 0;
  PassLayers layers;
};

util::Digest signature_of(const util::Result<flow::FlowResult>& r) {
  util::Hasher h;
  if (!r.ok()) {
    h.str("error").u8(static_cast<std::uint8_t>(r.status().code()));
    h.str(r.status().message());
    return h.finalize();
  }
  const flow::FlowArtifacts& a = r->artifacts;
  h.str("ok");
  if (a.mapped) h.digest(flow::digest_of(*a.mapped));
  if (a.placed) h.digest(flow::digest_of(*a.placed));
  if (a.routed) h.digest(flow::digest_of(*a.routed));
  h.u64(a.gds_bytes.size());
  return h.finalize();
}

/// Runs pass number `pass`, its flows in an order drawn from the seed. The
/// pass clock covers only the execute() calls and the loop around them;
/// signatures are taken after it stops. A one-thread pass is pinned to a
/// CPU that changes from pass to pass: a shared host slows single CPUs for
/// seconds at a time, and best-of-N over every CPU keeps such a spell from
/// setting a one-thread figure.
PassOut run_pass(const flow::FlowTemplate& tmpl, const std::vector<Case>& cases,
                 std::uint64_t seed, std::size_t pass, int threads,
                 StepSink* sink) {
  const std::size_t n = cases.size();
  const std::vector<std::size_t> order = permutation(n, mix_seed(seed, pass));
  if (threads == 1) {
    pin_calling_thread(pass);
  } else {
    unpin_calling_thread();
  }
  PassOut out;
  out.flow_ms.assign(n, 0.0);
  out.ok.assign(n, false);
  out.sig.assign(n, {});
  out.ppa.assign(n, {});
  out.error.assign(n, {});
  std::vector<std::pair<std::size_t, util::Result<flow::FlowResult>>> done;
  done.reserve(n);
  if (sink != nullptr) sink->current = &out.layers;

  const auto start = Clock::now();
  for (const std::size_t i : order) {
    flow::FlowConfig cfg = cases[i].config;
    cfg.threads = threads;
    const auto t0 = Clock::now();
    done.emplace_back(i, tmpl.execute(cases[i].module, std::move(cfg)));
    const double ms = ms_between(t0, Clock::now());
    out.flow_ms[i] = ms;
    out.exec_ms += ms;
  }
  out.wall_ms = ms_between(start, Clock::now());
  if (sink != nullptr) sink->current = nullptr;

  for (auto& [i, r] : done) {
    out.sig[i] = signature_of(r);
    out.ok[i] = r.ok();
    if (r.ok()) {
      out.ppa[i] = r->ppa;
    } else {
      out.error[i] = r.status().to_string();
      ++out.failed;
    }
  }
  return out;
}

/// Gate: every pass reproduces the warm-up pass's artifacts bit for bit.
void check_signatures(const PassOut& base, const PassOut& pass,
                      const std::vector<Case>& cases, const std::string& label,
                      Outcome& out) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (pass.sig[i] == base.sig[i]) continue;
    out.gate_failures.push_back(label + ": " + cases[i].name +
                                " artifacts differ from the warm-up pass");
  }
}

/// Gate: a completed flow reports a plausible PPA and a GDS stream.
void check_ppa(const PassOut& pass, const std::vector<Case>& cases,
               Outcome& out) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!pass.ok[i]) continue;
    const flow::PpaReport& p = pass.ppa[i];
    if (p.area_um2 > 0.0 && p.fmax_mhz > 0.0 && p.wirelength_dbu > 0 &&
        p.gds_bytes > 0.0 && p.cell_count > 0) {
      continue;
    }
    out.gate_failures.push_back(cases[i].name + ": completed with an empty PPA or GDS");
  }
}

std::vector<double> column(const std::vector<PassOut>& passes,
                           double (*get)(const PassOut&)) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const PassOut& p : passes) v.push_back(get(p));
  return v;
}

std::vector<double> step_column(const std::vector<PassOut>& passes,
                                const std::string& step) {
  std::vector<double> v;
  v.reserve(passes.size());
  for (const PassOut& p : passes) {
    const auto it = p.layers.step_ms.find(step);
    v.push_back(it == p.layers.step_ms.end() ? 0.0 : it->second);
  }
  return v;
}

/// Gate: every flow completes, as all of them do at seed. Later passes
/// reproduce the warm-up pass's outcome (check_signatures), so checking it
/// suffices.
void check_failures(const PassOut& warm, const std::vector<Case>& cases,
                    Outcome& out) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!warm.ok[i]) {
      out.gate_failures.push_back(cases[i].name + " failed: " + warm.error[i]);
    }
  }
}

void end_to_end_metrics(const std::vector<Case>& cases,
                        const std::vector<double>& setup_s,
                        const PassOut& warm, const std::vector<PassOut>& timed,
                        Outcome& out) {
  // QoR is taken over every flow; check_failures gates on any failing.
  std::vector<double> area, fmax, wirelength;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (!warm.ok[i]) continue;
    area.push_back(warm.ppa[i].area_um2);
    fmax.push_back(warm.ppa[i].fmax_mhz);
    wirelength.push_back(static_cast<double>(warm.ppa[i].wirelength_dbu));
  }
  // Times are best-of-N, so interference from other processes on the host
  // does not set the figure. pass_ms is the sum of each flow's best time
  // over the timed passes: a short flow often runs clear of interference
  // where a whole pass seldom does. A flow's latency samples are its best
  // time in each of kPassGroups interleaved groups of passes, which leaves
  // enough samples for a p95.
  double pass_best = 0.0;
  std::vector<double> latency;
  std::size_t latency_samples = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    std::vector<double> series;
    for (const PassOut& p : timed) series.push_back(p.flow_ms[i]);
    pass_best += *std::min_element(series.begin(), series.end());
    if (!timed.front().ok[i]) continue;
    latency_samples += series.size();
    for (const double best : interleaved_minima(series, kPassGroups)) {
      latency.push_back(best);
    }
  }
  auto& e = out.end_to_end;
  add(e, "setup_s", *std::min_element(setup_s.begin(), setup_s.end()), setup_s.size());
  add(e, "pass_ms", pass_best, timed.size());
  add(e, "completed_share",
      static_cast<double>(out.attempted - out.failed) /
          static_cast<double>(out.attempted),
      out.attempted);
  add(e, "peak_rss_mb", peak_rss_mb(), 1);
  add(e, "qor.area_um2", geomean(area), area.size());
  add(e, "qor.fmax_mhz", geomean(fmax), fmax.size());
  add(e, "qor.wirelength_dbu", geomean(wirelength), wirelength.size());
  const double p50 = mid("job_latency_p50_ms", latency);
  add(e, "job_latency_p50_ms", p50, latency_samples);
  add(e, "job_latency_p95_ms", tail("job_latency_p95_ms", latency, 95.0),
      latency_samples);
  // No cache is attached: every flow does the full work of a first
  // submission and every timed flow repeats an earlier pair, so cold and
  // warm latency are the same figure here.
  add(e, "cold_job_latency_p50_ms", p50, latency_samples);
  add(e, "warm_job_latency_p50_ms", p50, latency_samples);
}

void per_layer_metrics(int other_threads, const std::vector<PassOut>& untraced,
                       const std::vector<PassOut>& traced,
                       const std::vector<PassOut>& other, Outcome& out) {
  auto& l = out.per_layer;
  const std::size_t n = traced.size();
  for (const auto& [step, metric] : step_metric_names()) {
    add(l, metric, mid(metric, step_column(traced, step)), n);
  }
  const PassLayers& c = traced.front().layers;  // counters repeat every pass
  const double power_ms = mid("power.ms", step_column(traced, "power"));
  const double map_ms = mid("synth.map_ms", step_column(traced, "map"));
  add(l, "power.net_cycles", c.net_cycles, 1);
  add(l, "power.ns_per_net_cycle",
      c.net_cycles > 0.0 ? power_ms * 1e6 / c.net_cycles : 0.0, n);
  add(l, "power.total_uw", c.power_uw, 1);
  add(l, "synth.aig_ands", c.aig_ands, 1);
  add(l, "synth.map_cells", c.map_cells, 1);
  add(l, "synth.map_ns_per_and", c.aig_ands > 0.0 ? map_ms * 1e6 / c.aig_ands : 0.0, n);
  add(l, "timing.endpoints", c.endpoints, 1);
  add(l, "place.cells", c.place_cells, 1);
  add(l, "place.hpwl", c.hpwl, 1);
  add(l, "route.failed_calls", c.route_failed_calls, 1);
  add(l, "route.failed_ms",
      mid("route.failed_ms", column(traced, [](const PassOut& p) {
            return p.layers.route_failed_ms;
          })),
      n);
  add(l, "route.iterations", c.route_iterations, 1);
  add(l, "route.max_congestion", c.route_max_congestion, 1);
  add(l, "flow.overhead_ms",
      mid("flow.overhead_ms", column(traced, [](const PassOut& p) {
            return p.exec_ms - p.layers.step_sum();
          })),
      n);
  const double traced_ms =
      mid("traced pass_ms", column(traced, [](const PassOut& p) { return p.wall_ms; }));
  const double untraced_ms =
      mid("untraced pass_ms", column(untraced, [](const PassOut& p) { return p.wall_ms; }));
  add(l, "trace.overhead_share", traced_ms / untraced_ms - 1.0, n + untraced.size());

  // Speed-up of a step at nproc threads over one thread.
  const std::vector<PassOut>& at_one = traced;
  const std::vector<PassOut>& at_n = other;
  for (const auto& [step, metric] :
       std::vector<std::pair<std::string, std::string>>{
           {"place", "place"}, {"route", "route"}, {"power", "power"},
           {"map", "synth.map"}, {"sta", "timing.sta"}}) {
    const double t1 = mid(metric, step_column(at_one, step));
    const double tn = mid(metric, step_column(at_n, step));
    add(l, metric + ".speedup_tN", tn > 0.0 ? t1 / tn : 0.0,
        at_one.size() + at_n.size());
  }
  out.notes.push_back("speedup_tN compares 1 thread with " +
                      std::to_string(other_threads) + " threads");
}

/// Gate and report: the wrapped step times must cover the execute() calls.
/// The uncovered share, flow.overhead_ms over execute() time, may be at
/// most 5%, so an unwrapped or missing step shows. The leftover, pass wall
/// time minus execute() time, is the benchmark's own loop; it is printed.
void check_accounting(const std::vector<PassOut>& traced, Outcome& out) {
  double wall = 0.0, exec = 0.0, steps = 0.0;
  for (const PassOut& p : traced) {
    wall += p.wall_ms;
    exec += p.exec_ms;
    steps += p.layers.step_sum();
  }
  const double overhead = exec - steps;
  char line[256];
  std::snprintf(line, sizeof line,
                "accounting over %zu traced passes: steps %.2f ms + flow "
                "overhead %.2f ms (%.2f%%) = execute() %.2f ms of %.2f ms "
                "wall, leftover %.3f ms (%.3f%%)",
                traced.size(), steps, overhead, 100.0 * overhead / exec, exec,
                wall, wall - exec, 100.0 * (wall - exec) / wall);
  out.notes.emplace_back(line);
  if (overhead > 0.05 * exec) {
    out.gate_failures.emplace_back(
        "wrapped step times cover less than 95% of the execute() time");
  }
}

}  // namespace

Outcome run_flow_workload(const Args& args) {
  constexpr int threads = 1;
  const int other_threads = host_cpus();

  Outcome out;
  out.host = {{"flow_threads", std::to_string(threads)},
              {"hub_workers", "none (flows run in the benchmark process)"},
              {"cache", "none"},
              {"catalog_scale", std::to_string(kScale)},
              {"loop", "closed, one flow at a time"}};

  // Set-up: generate the catalog, look up the node, build the template.
  // It is timed once before the first flow and twice after each timed pass,
  // up to kSetups times, so its samples see the same host conditions as
  // the passes do; setup_s is the best of them.
  constexpr std::size_t kSetups = 100;
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const auto t0 = Clock::now();
    Setup s = make_setup();
    setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    return s;
  };
  const Setup setup = timed_setup();
  const std::vector<Case>& cases = setup.cases;

  const auto start = Clock::now();
  const auto elapsed_s = [&] { return ms_between(start, Clock::now()) / 1000.0; };
  std::size_t pass_index = 0;
  const PassOut warm = run_pass(setup.plain, cases,
                                args.seed, pass_index++, threads, nullptr);
  check_ppa(warm, cases, out);
  check_failures(warm, cases, out);

  if (!args.trace) {
    std::vector<PassOut> timed;
    while (timed.size() < kPassGroups || elapsed_s() < args.seconds) {
      timed.push_back(run_pass(setup.plain, cases,
                               args.seed, pass_index++, threads, nullptr));
      check_signatures(warm, timed.back(), cases, "pass " + std::to_string(timed.size()), out);
      out.attempted += cases.size();
      out.failed += timed.back().failed;
      for (int k = 0; k < 2 && setup_s.size() < kSetups; ++k) (void)timed_setup();
    }
    std::vector<double> walls = column(timed, [](const PassOut& p) { return p.wall_ms; });
    std::sort(walls.begin(), walls.end());
    char line[160];
    std::snprintf(line, sizeof line, "pass wall ms: min %.2f, p25 %.2f, median %.2f, p75 %.2f, max %.2f",
                  walls.front(), walls[walls.size() / 4], walls[walls.size() / 2],
                  walls[walls.size() * 3 / 4], walls.back());
    out.notes.emplace_back(line);
    end_to_end_metrics(cases, setup_s, warm, timed, out);
    return out;
  }

  StepSink sink;
  const flow::FlowTemplate wrapped = traced_template(&sink);
  std::vector<PassOut> untraced, traced, other;
  const auto traced_pass = [&](int t) {
    util::trace::clear();
    util::trace::start();
    PassOut p = run_pass(wrapped, cases,
                         args.seed, pass_index++, t,
                         &sink);
    util::trace::stop();
    return p;
  };
  while (traced.size() < 3 || elapsed_s() < args.seconds) {
    untraced.push_back(run_pass(setup.plain, cases,
                                args.seed, pass_index++, threads, nullptr));
    other.push_back(traced_pass(other_threads));
    traced.push_back(traced_pass(threads));
    for (const std::vector<PassOut>* set : {&untraced, &other, &traced}) {
      const PassOut& p = set->back();
      check_signatures(warm, p, cases,
                       "threads " + std::to_string(set == &other ? other_threads : threads),
                       out);
      out.attempted += cases.size();
      out.failed += p.failed;
    }
  }
  const std::string trace_path = args.trace_dir + "/" + args.workload + ".perfetto.json";
  if (!util::trace::export_chrome_json_file(trace_path)) {
    out.gate_failures.push_back("could not write " + trace_path);
  } else {
    out.notes.push_back("Perfetto trace of the last traced pass: " + trace_path);
  }
  util::trace::clear();
  check_accounting(traced, out);
  per_layer_metrics(other_threads, untraced, traced, other, out);
  return out;
}

}  // namespace eurobench
