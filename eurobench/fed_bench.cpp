// fed_course: open-loop course traffic into a two-hub FederatedService.
//
// A run is a series of sessions. Each session builds a fresh federation
// (empty L1 and L2 caches), then one thread submits the session's flow jobs
// at Poisson arrival times (kRatePerS) and polls every outstanding job with
// wait_for(id, 0), so no job's observed settle time waits behind another's.
// Jobs carry (design, preset, utilization) keys: every key of the course is
// submitted once, plus kRepeats repeats shared among the keys by Zipf
// weights over a popularity order that is fixed across seeds
// (course_sequence); the seed sets the order of the jobs only. A job is
// cold when its key is seen for the first time in the session, warm
// otherwise; that labelling comes from the generated sequence, not from the
// cache. Each job's work function is wrapped to time it and to open a
// util::trace::Span around it.
//
// The traced run (--trace 1) pairs sessions: the same inputs run once with
// tracing off and once with it on.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "eurochip/fed/federation.hpp"
#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/trace.hpp"
#include "stats.hpp"

namespace eurobench {
namespace {

using namespace eurochip;  // NOLINT(google-build-using-namespace)

// About half the cold federation throughput measured on a 4-core host
// (~215 all-cold jobs/s on two single-worker hubs).
constexpr double kRatePerS = 100.0;
// 180 keys, each cold once, plus 120 warm repeats: 60% of the jobs are
// cold, and a session lasts 3 s. Every session holds the same jobs, so
// runs with different seeds differ in job order and arrival times only.
constexpr std::size_t kRepeats = 120;
constexpr double kZipfExponent = 0.8;
constexpr double kUtilizations[] = {0.50, 0.55, 0.60};
constexpr std::uint64_t kPopularitySeed = 0xC0DE5EEDuLL;
constexpr int kMinSessions = 4;  // >= 1000 jobs, enough for a p99
constexpr double kSessionTimeoutMs = 120000.0;
// Poll interval of the submitting thread.
constexpr double kPollMs = 0.1;

struct Key {
  std::size_t design = 0;
  flow::FlowQuality quality = flow::FlowQuality::kOpen;
  double utilization = 0.6;
};

/// The course's designs and keys, in popularity order.
struct Universe {
  pdk::TechnologyNode node;
  std::vector<std::shared_ptr<const rtl::Module>> designs;
  std::vector<std::string> design_names;
  std::vector<Key> keys;  ///< by popularity rank
};

Universe make_universe() {
  Universe u;
  auto node = pdk::standard_node("sky130ish");
  if (!node.ok()) throw std::runtime_error("node sky130ish: " + node.status().to_string());
  u.node = *node;
  // Catalog scales 1 and 2; designs the scale does not change (fsm, crc8)
  // appear once, so a key never aliases another in the cache.
  std::vector<util::Digest> seen;
  for (const int scale : {1, 2}) {
    for (rtl::designs::CatalogEntry& e : rtl::designs::standard_catalog(scale)) {
      const util::Digest d = flow::digest_of(e.module);
      if (std::find(seen.begin(), seen.end(), d) != seen.end()) continue;
      seen.push_back(d);
      u.design_names.push_back(e.name + "@" + std::to_string(scale));
      u.designs.push_back(std::make_shared<const rtl::Module>(std::move(e.module)));
    }
  }
  std::vector<Key> keys;
  for (std::size_t d = 0; d < u.designs.size(); ++d) {
    for (const flow::FlowQuality q :
         {flow::FlowQuality::kOpen, flow::FlowQuality::kCommercial}) {
      for (const double util : kUtilizations) keys.push_back({d, q, util});
    }
  }
  for (const std::size_t i : permutation(keys.size(), kPopularitySeed)) {
    u.keys.push_back(keys[i]);
  }
  return u;
}

std::string key_name(const Universe& u, std::size_t k) {
  const Key& key = u.keys[k];
  char util[16];
  std::snprintf(util, sizeof util, "%.2f", key.utilization);
  return u.design_names[key.design] + "/" + flow::to_string(key.quality) +
         "/u" + util;
}

/// Keys that fail in route at seed: the router's known routability defect
/// (ROADMAP open item 2). They count as failed operations; any other failed
/// job fails a correctness gate. QoR is taken over the other keys, a fixed
/// set, so that it stays comparable when these start to complete.
bool known_route_failure(const std::string& key) {
  static const std::set<std::string> keys = {
      "multiplier@2/open/u0.50", "multiplier@2/open/u0.55",
      "multiplier@2/open/u0.60", "mini_cpu@2/open/u0.55",
      "mini_cpu@2/open/u0.60"};
  return keys.count(key) > 0;
}

/// Times the wrapped work function of one job, on the benchmark's clock.
struct JobProbe {
  std::atomic<double> start_ms{-1.0};
  std::atomic<double> end_ms{-1.0};
};

struct Job {
  std::size_t key = 0;
  bool cold = false;
  double due_ms = 0.0;
  double submit_us = 0.0;
  double lag_ms = 0.0;  ///< submission start minus due time
  bool admitted = false;
  fed::FedJobId id = 0;
  double settled_ms = -1.0;
  std::shared_ptr<JobProbe> probe = std::make_shared<JobProbe>();
  hub::JobRecord record;
};

struct Session {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;  ///< from the start of set-up to shutdown
  std::vector<Job> jobs;
  fed::FederatedService::Stats fed;
  flow::FlowCache::Stats l1;  ///< summed over hubs
  bool timed_out = false;
};

hub::JobSpec job_spec(const Universe& u, const Job& job, Clock::time_point epoch) {
  const Key& key = u.keys[job.key];
  flow::FlowConfig cfg;
  cfg.node = u.node;
  cfg.quality = key.quality;
  cfg.utilization = key.utilization;
  cfg.threads = 1;
  hub::JobSpec spec =
      hub::make_flow_job(key_name(u, job.key), u.designs[key.design], cfg);
  spec.work = [inner = std::move(spec.work), probe = job.probe, epoch,
               name = spec.name](hub::JobContext& ctx) -> util::Status {
    util::trace::Span span;
    if (util::trace::enabled()) span.begin("bench.job:" + name, "bench");
    double unset = -1.0;
    probe->start_ms.compare_exchange_strong(unset, ms_between(epoch, Clock::now()));
    util::Status s = inner(ctx);
    probe->end_ms.store(ms_between(epoch, Clock::now()));
    return s;
  };
  return spec;
}

Session run_session(std::uint64_t seed, bool traced) {
  Session out;
  reset_peak_rss();
  const auto setup_start = Clock::now();
  const Universe u = make_universe();
  const std::vector<std::size_t> keys =
      course_sequence(u.keys.size(), kRepeats, kZipfExponent, mix_seed(seed, 0));
  const std::vector<bool> cold = label_cold(keys);
  const std::vector<double> due =
      poisson_schedule(mix_seed(seed, 1), kRatePerS, keys.size());
  out.jobs.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out.jobs[i].key = keys[i];
    out.jobs[i].cold = cold[i];
    out.jobs[i].due_ms = due[i];
  }
  fed::FederatedService::Options opts;
  opts.hubs = 2;
  opts.hub_options.capacity = 1;
  opts.remote.sleep_on_transfer = false;
  fed::FederatedService service(opts);
  out.setup_s = ms_between(setup_start, Clock::now()) / 1000.0;

  if (traced) {
    util::trace::clear();
    util::trace::start();
  }
  const auto epoch = Clock::now();
  const auto now_ms = [&] { return ms_between(epoch, Clock::now()); };
  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  while (next < out.jobs.size() || !outstanding.empty()) {
    while (next < out.jobs.size() && out.jobs[next].due_ms <= now_ms()) {
      Job& job = out.jobs[next++];
      hub::JobSpec spec = job_spec(u, job, epoch);
      const double t0 = now_ms();
      job.lag_ms = t0 - job.due_ms;
      auto id = service.submit(std::move(spec));
      job.submit_us = (now_ms() - t0) * 1000.0;
      if (!id.ok()) {
        job.record.status = id.status();
        job.settled_ms = now_ms();
        continue;
      }
      job.admitted = true;
      job.id = *id;
      outstanding.push_back(static_cast<std::size_t>(&job - out.jobs.data()));
    }
    for (std::size_t k = 0; k < outstanding.size();) {
      Job& job = out.jobs[outstanding[k]];
      auto record = service.wait_for(job.id, 0.0);
      const bool pending =
          !record.ok() && record.status().code() == util::ErrorCode::kDeadlineExceeded;
      if (pending) {
        ++k;
        continue;
      }
      job.settled_ms = now_ms();
      if (record.ok()) {
        job.record = std::move(*record);
      } else {
        job.record.state = hub::JobState::kFailed;
        job.record.status = record.status();
      }
      outstanding[k] = outstanding.back();
      outstanding.pop_back();
    }
    if (now_ms() > kSessionTimeoutMs) {
      out.timed_out = true;
      break;
    }
    const double wake = next < out.jobs.size()
                            ? std::min(out.jobs[next].due_ms, now_ms() + kPollMs)
                            : now_ms() + kPollMs;
    const double sleep_ms = wake - now_ms();
    if (sleep_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(sleep_ms));
    }
  }
  if (traced) util::trace::stop();

  out.fed = service.stats();
  for (std::size_t h = 0; h < service.num_hubs(); ++h) {
    const flow::FlowCache::Stats s = service.l1_cache(h).stats();
    out.l1.hits += s.hits;
    out.l1.misses += s.misses;
    out.l1.remote_hits += s.remote_hits;
    out.l1.stores += s.stores;
    out.l1.evictions += s.evictions;
  }
  service.shutdown(out.timed_out ? hub::JobServer::DrainMode::kCancelPending
                                  : hub::JobServer::DrainMode::kDrain);
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

bool succeeded(const Job& job) {
  return job.admitted && job.record.state == hub::JobState::kSucceeded;
}

/// Gates: every repeat of a key returns what its first run returned —
/// the same outcome and, when it completed, the same artifact digest —
/// within a session and across sessions. Every job settles exactly once.
void check_sessions(const Universe& u, const std::vector<Session>& sessions,
                    Outcome& out) {
  struct First {
    hub::JobState state;
    util::Digest digest;
  };
  std::map<std::size_t, First> first;
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const Session& session = sessions[s];
    if (session.timed_out) {
      out.gate_failures.push_back("session " + std::to_string(s) +
                                  " did not settle every job in time");
    }
    if (session.fed.duplicate_settlements != 0) {
      out.gate_failures.push_back("session " + std::to_string(s) +
                                  " settled a job twice");
    }
    for (const Job& job : session.jobs) {
      if (!job.admitted || job.settled_ms < 0.0) continue;
      const auto [it, inserted] =
          first.emplace(job.key, First{job.record.state, job.record.artifact_digest});
      if (inserted) continue;
      if (it->second.state != job.record.state ||
          it->second.digest != job.record.artifact_digest) {
        out.gate_failures.push_back(
            "session " + std::to_string(s) + ": " + key_name(u, job.key) +
            (job.cold ? " (cold)" : " (warm)") +
            " differs from the first run of its key");
      }
    }
  }
}

template <class Pred, class Get>
std::vector<double> collect(const std::vector<Session>& sessions, Pred pred, Get get) {
  std::vector<double> v;
  for (const Session& s : sessions) {
    for (const Job& job : s.jobs) {
      if (pred(job)) v.push_back(get(job));
    }
  }
  return v;
}

double latency_ms(const Job& job) { return job.settled_ms - job.due_ms; }
double run_ms(const Job& job) { return job.probe->end_ms - job.probe->start_ms; }

/// An operation of the course: a key's cold job (its first in a session)
/// or its warm jobs (the repeats). Every session holds the same operations
/// with the same number of jobs each.
using Op = std::pair<std::size_t, bool>;  // (key, cold)

/// Each operation's best (lowest) `get` over the jobs of all sessions that
/// pass `pred`, and how many cold and warm jobs that was.
struct BestOf {
  std::map<Op, double> best;
  std::size_t cold_samples = 0;
  std::size_t warm_samples = 0;
};

template <class Pred, class Get>
BestOf best_by_op(const std::vector<Session>& sessions, Pred pred, Get get) {
  BestOf out;
  for (const Session& s : sessions) {
    for (const Job& job : s.jobs) {
      if (!pred(job)) continue;
      ++(job.cold ? out.cold_samples : out.warm_samples);
      const double v = get(job);
      const auto [it, inserted] = out.best.emplace(Op{job.key, job.cold}, v);
      if (!inserted) it->second = std::min(it->second, v);
    }
  }
  return out;
}

/// One session's jobs, each with its operation's best value; the jobs of
/// an operation without a value are left out.
std::vector<double> per_job(const Session& session, const BestOf& b) {
  std::vector<double> v;
  for (const Job& job : session.jobs) {
    const auto it = b.best.find(Op{job.key, job.cold});
    if (it != b.best.end()) v.push_back(it->second);
  }
  return v;
}

/// The best values of the cold or of the warm operations.
std::vector<double> of_kind(const BestOf& b, bool cold) {
  std::vector<double> v;
  for (const auto& [op, value] : b.best) {
    if (op.second == cold) v.push_back(value);
  }
  return v;
}

void end_to_end_metrics(const Universe& u, const std::vector<Session>& sessions,
                        Outcome& out) {
  std::vector<double> setup_s, rss_mb;
  for (const Session& s : sessions) {
    setup_s.push_back(s.setup_s);
    rss_mb.push_back(s.peak_rss_mb);
  }
  // QoR over the fixed set of keys outside the known failures, once each.
  // Every session submits every key, and a failure among them is a gate
  // failure (run_fed_workload), so the set is complete unless a gate failed.
  std::map<std::size_t, flow::PpaReport> ppa;
  for (const Session& s : sessions) {
    for (const Job& job : s.jobs) {
      if (succeeded(job) && !known_route_failure(key_name(u, job.key))) {
        ppa.emplace(job.key, job.record.ppa);
      }
    }
  }
  std::vector<double> area, fmax, wirelength;
  for (const auto& [key, p] : ppa) {
    area.push_back(p.area_um2);
    fmax.push_back(p.fmax_mhz);
    wirelength.push_back(static_cast<double>(p.wirelength_dbu));
  }
  // Times are best-of-N per operation, as the flow workloads take each
  // flow's best time: an operation's time is its best over the run's
  // sessions, so neither a slow spell of a CPU on the host nor arriving
  // behind a long job sets it. Queueing shows in the hub.queue_wait_*
  // layer metrics. pass_ms is the summed work time (the wrapped work
  // functions, run on the hubs' workers) of one session's jobs: the
  // program's cost of one pass over the course, whatever the arrival
  // schedule. The job percentiles are over one session's jobs; the cold and
  // warm ones over the operations.
  const auto ran = [](const Job& j) { return j.admitted && j.probe->end_ms >= 0.0; };
  const BestOf work = best_by_op(sessions, ran, run_ms);
  const BestOf latency = best_by_op(sessions, succeeded, latency_ms);
  double pass_ms = 0.0;
  for (const double ms : per_job(sessions.front(), work)) pass_ms += ms;
  const std::vector<double> job_ms = per_job(sessions.front(), latency);
  const std::vector<double> cold_ms = of_kind(latency, true);
  const std::vector<double> warm_ms = of_kind(latency, false);
  const auto best = [](const std::vector<double>& v) {
    return *std::min_element(v.begin(), v.end());
  };
  auto& e = out.end_to_end;
  add(e, "setup_s", best(setup_s), setup_s.size());
  add(e, "pass_ms", pass_ms, work.cold_samples + work.warm_samples);
  add(e, "completed_share",
      static_cast<double>(out.attempted - out.failed) /
          static_cast<double>(out.attempted),
      out.attempted);
  // The peak resident set of one session, median over sessions: freed
  // heap is handed back between sessions, so one session's allocator
  // leftovers do not set the next one's figure.
  add(e, "peak_rss_mb", mid("peak_rss_mb", rss_mb), rss_mb.size());
  add(e, "qor.area_um2", geomean(area), area.size());
  add(e, "qor.fmax_mhz", geomean(fmax), fmax.size());
  add(e, "qor.wirelength_dbu", geomean(wirelength), wirelength.size());
  const std::size_t n = latency.cold_samples + latency.warm_samples;
  add(e, "job_latency_p50_ms", mid("job_latency_p50_ms", job_ms), n);
  add(e, "job_latency_p95_ms", tail("job_latency_p95_ms", job_ms, 95.0), n);
  add(e, "cold_job_latency_p50_ms", mid("cold_job_latency_p50_ms", cold_ms),
      latency.cold_samples);
  add(e, "warm_job_latency_p50_ms", mid("warm_job_latency_p50_ms", warm_ms),
      latency.warm_samples);
}

void per_layer_metrics(const std::vector<Session>& sessions,
                       const std::vector<Session>& untraced,
                       const std::vector<Session>& traced, Outcome& out) {
  auto& l = out.per_layer;
  // Step times as the program's StepRecords report them, executed steps
  // only (cache restores excluded), per settled job.
  std::map<std::string, double> step_ms;
  std::size_t settled = 0;
  double overhead_ms = 0.0, prefix_steps = 0.0;
  for (const Session& s : sessions) {
    for (const Job& job : s.jobs) {
      if (!job.admitted || job.probe->end_ms < 0.0) continue;
      ++settled;
      double executed = 0.0;
      for (const flow::StepRecord& r : job.record.steps) {
        if (r.cached) continue;
        step_ms[r.name] += r.runtime_ms;
        executed += r.runtime_ms;
      }
      if (succeeded(job)) overhead_ms += run_ms(job) - executed;
      prefix_steps += static_cast<double>(job.record.cache_hits);
    }
  }
  const double per_job = settled > 0 ? 1.0 / static_cast<double>(settled) : 0.0;
  for (const auto& [step, metric] : step_metric_names()) {
    add(l, metric, step_ms[step] * per_job, settled);
  }
  add(l, "flow.overhead_ms", overhead_ms * per_job, settled);

  // A job that fails reports no step records; the jobs that failed in route
  // and their work time, per session, stand in for the route layer's failed
  // calls.
  std::vector<double> failed_calls, failed_ms;
  for (const Session& s : sessions) {
    double calls = 0.0, ms = 0.0;
    for (const Job& job : s.jobs) {
      if (succeeded(job) || !job.admitted || job.probe->end_ms < 0.0 ||
          job.record.status.message().find("flow step 'route'") == std::string::npos) {
        continue;
      }
      calls += 1.0;
      ms += run_ms(job);
    }
    failed_calls.push_back(calls);
    failed_ms.push_back(ms);
  }
  add(l, "route.failed_calls", mid("route.failed_calls", failed_calls), sessions.size());
  add(l, "route.failed_ms", mid("route.failed_ms", failed_ms), sessions.size());

  flow::FlowCache::Stats l1;
  double stolen = 0.0, returned = 0.0;
  for (const Session& s : sessions) {
    l1.hits += s.l1.hits;
    l1.misses += s.l1.misses;
    l1.remote_hits += s.l1.remote_hits;
    l1.stores += s.l1.stores;
    l1.evictions += s.l1.evictions;
    stolen += static_cast<double>(s.fed.stolen);
    returned += static_cast<double>(s.fed.steal_returned);
  }
  const double lookups = static_cast<double>(l1.hits + l1.remote_hits + l1.misses);
  const double l1_misses = static_cast<double>(l1.remote_hits + l1.misses);
  add(l, "flow.cache.l1_hit_ratio",
      lookups > 0 ? static_cast<double>(l1.hits) / lookups : 0.0,
      static_cast<std::size_t>(lookups));
  add(l, "flow.cache.l2_hit_ratio",
      l1_misses > 0 ? static_cast<double>(l1.remote_hits) / l1_misses : 0.0,
      static_cast<std::size_t>(l1_misses));
  add(l, "flow.cache.stores", static_cast<double>(l1.stores), sessions.size());
  add(l, "flow.cache.evictions", static_cast<double>(l1.evictions), sessions.size());
  add(l, "flow.cache.prefix_steps_mean", prefix_steps * per_job, settled);

  const auto ran = [](const Job& j) { return j.admitted && j.probe->start_ms >= 0.0; };
  const auto queue = collect(sessions, ran,
                             [](const Job& j) { return j.probe->start_ms - j.due_ms; });
  add(l, "hub.queue_wait_ms_p50", mid("hub.queue_wait_ms_p50", queue), queue.size());
  add(l, "hub.queue_wait_ms_p95", tail("hub.queue_wait_ms_p95", queue, 95.0), queue.size());
  const auto run_cold = collect(
      sessions, [&](const Job& j) { return ran(j) && j.cold; }, run_ms);
  const auto run_warm = collect(
      sessions, [&](const Job& j) { return ran(j) && !j.cold; }, run_ms);
  add(l, "hub.run_ms_cold_p50", mid("hub.run_ms_cold_p50", run_cold), run_cold.size());
  add(l, "hub.run_ms_warm_p50", mid("hub.run_ms_warm_p50", run_warm), run_warm.size());

  const auto submitted = [](const Job& j) { return j.settled_ms >= 0.0; };
  const auto submit_us = collect(sessions, submitted, [](const Job& j) { return j.submit_us; });
  add(l, "fed.submit_us_p50", mid("fed.submit_us_p50", submit_us), submit_us.size());
  add(l, "fed.submit_us_p99", tail("fed.submit_us_p99", submit_us, 99.0), submit_us.size());
  const auto lag = collect(
      sessions, [&](const Job& j) { return ran(j) && j.probe->end_ms >= 0.0; },
      [](const Job& j) { return j.settled_ms - j.probe->end_ms; });
  add(l, "fed.settle_lag_ms_p50", mid("fed.settle_lag_ms_p50", lag), lag.size());
  add(l, "fed.stolen", stolen, sessions.size());
  add(l, "fed.steal_returned", returned, sessions.size());
  const auto gen = collect(sessions, submitted, [](const Job& j) { return j.lag_ms; });
  add(l, "fed.generator_lag_ms", *std::max_element(gen.begin(), gen.end()), gen.size());

  // Tracing cost: the same inputs' cold work, traced over untraced.
  const auto cold_work = [&](const std::vector<Session>& set) {
    const auto v = collect(set, [&](const Job& j) { return ran(j) && j.cold; }, run_ms);
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum;
  };
  if (!traced.empty()) {
    add(l, "trace.overhead_share", cold_work(traced) / cold_work(untraced) - 1.0,
        traced.size() + untraced.size());
  }
}

}  // namespace

Outcome run_fed_workload(const Args& args) {
  Outcome out;
  out.host = {{"flow_threads", "1"},
              {"hub_workers", "2 hubs x 1 worker"},
              {"cache", "default L1 per hub + shared L2, empty at the start of each session"},
              {"loop", "open, Poisson " + std::to_string(static_cast<int>(kRatePerS)) +
                           " jobs/s, every key once + " + std::to_string(kRepeats) +
                           " repeats per session"}};
  const auto start = Clock::now();
  const auto elapsed_s = [&] { return ms_between(start, Clock::now()) / 1000.0; };
  std::vector<Session> sessions, untraced, traced;
  for (std::uint64_t index = 0;
       static_cast<int>(sessions.size()) < kMinSessions || elapsed_s() < args.seconds;
       ++index) {
    const std::uint64_t seed = mix_seed(args.seed, index);
    if (!args.trace) {
      sessions.push_back(run_session(seed, false));
      continue;
    }
    untraced.push_back(run_session(seed, false));
    traced.push_back(run_session(seed, true));
    sessions.push_back(untraced.back());
    sessions.push_back(traced.back());
  }
  if (args.trace) {
    const std::string path = args.trace_dir + "/" + args.workload + ".perfetto.json";
    if (!util::trace::export_chrome_json_file(path)) {
      out.gate_failures.push_back("could not write " + path);
    } else {
      out.notes.push_back("Perfetto trace of the last traced session: " + path);
    }
    util::trace::clear();
  }

  const Universe u = make_universe();
  std::map<std::string, std::size_t> failures;
  std::size_t cold_jobs = 0;
  for (const Session& s : sessions) {
    for (const Job& job : s.jobs) {
      ++out.attempted;
      cold_jobs += job.cold ? 1 : 0;
      if (succeeded(job)) continue;
      ++out.failed;
      const std::string name = key_name(u, job.key);
      const std::string what = name + ": " + job.record.status.to_string();
      // A job outside the known failures must come back completed.
      if (!known_route_failure(name) && failures.count(what) == 0) {
        out.gate_failures.push_back(what);
      }
      ++failures[what];
    }
  }
  out.notes.push_back(std::to_string(sessions.size()) + " sessions, " +
                      std::to_string(out.attempted) + " jobs, " +
                      std::to_string(cold_jobs) + " cold");
  for (const auto& [what, count] : failures) {
    out.notes.push_back("failed operation x" + std::to_string(count) + ": " + what);
  }
  for (std::size_t k = 0; k < u.keys.size(); ++k) {
    const std::string name = key_name(u, k);
    if (!known_route_failure(name)) continue;
    bool completed = false;
    for (const Session& s : sessions) {
      for (const Job& job : s.jobs) completed |= job.key == k && succeeded(job);
    }
    out.notes.push_back("known routability defect: " + name + ": " +
                        (completed ? "now completes" : "fails"));
  }
  check_sessions(u, sessions, out);
  if (!args.trace) end_to_end_metrics(u, sessions, out);
  else per_layer_metrics(sessions, untraced, traced, out);
  return out;
}

}  // namespace eurobench
