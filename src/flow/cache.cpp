#include "eurochip/flow/cache.hpp"

#include <algorithm>

#include "eurochip/flow/serialize.hpp"
#include "eurochip/util/fault.hpp"
#include "eurochip/util/trace.hpp"

namespace eurochip::flow {

namespace {

// --- resident-size estimation -------------------------------------------
//
// The byte budget is enforced against an estimate of the snapshot's heap
// footprint: container element counts times element sizes plus string
// payloads. It undercounts allocator slack and overcounts nothing large;
// good enough to keep a shared cache bounded.

std::size_t approx_bytes(const std::string& s) { return s.size(); }

std::size_t approx_bytes(const netlist::CellLibrary& lib) {
  // NLDM tables are small fixed grids; 512 bytes/cell is a generous flat
  // estimate that avoids reaching into NldmTable internals.
  return lib.size() * (sizeof(netlist::LibraryCell) + 512);
}

std::size_t approx_bytes(const synth::Aig& aig) {
  return aig.num_nodes() * (sizeof(synth::AigNode) + 2 * sizeof(std::uint64_t));
}

std::size_t approx_bytes(const netlist::Netlist& nl) {
  // The SoA netlist accounts for its own flat arrays exactly.
  return sizeof(netlist::Netlist) + nl.memory_bytes();
}

std::size_t approx_bytes(const place::PlacedDesign& placed) {
  return sizeof(place::PlacedDesign) +
         (placed.cell_origin.size() + placed.input_pad.size() +
          placed.output_pad.size()) *
             sizeof(util::Point) +
         placed.floorplan.rows().size() * 4 * sizeof(std::int64_t);
}

std::size_t approx_bytes(const cts::ClockTree& tree) {
  std::size_t total = sizeof(cts::ClockTree);
  for (const cts::TreeNode& n : tree.nodes) {
    total += sizeof(cts::TreeNode) + n.children.size() * sizeof(std::uint32_t) +
             n.sinks.size() * sizeof(netlist::CellId);
  }
  return total;
}

std::size_t approx_bytes(const route::RoutedDesign& routed) {
  std::size_t total = sizeof(route::RoutedDesign) +
                      routed.nets.size() * sizeof(route::NetRoute);
  for (const route::NetRoute& n : routed.nets) {
    total += n.waypoints.size() * sizeof(route::RoutePoint) +
             n.seg_begin.size() * sizeof(std::uint32_t);
  }
  return total;
}

std::size_t approx_bytes(const timing::TimingReport& t) {
  std::size_t total = sizeof(timing::TimingReport);
  for (const timing::Endpoint& e : t.endpoints) {
    total += sizeof(timing::Endpoint) + approx_bytes(e.name);
  }
  for (const timing::PathStep& s : t.critical_path) {
    total += sizeof(timing::PathStep) + approx_bytes(s.point);
  }
  return total;
}

std::size_t approx_bytes(const drc::DrcReport& d) {
  std::size_t total = sizeof(drc::DrcReport);
  for (const drc::Violation& v : d.violations) {
    total += sizeof(drc::Violation) + approx_bytes(v.detail);
  }
  return total;
}

std::size_t approx_bytes(const std::vector<StepRecord>& steps) {
  std::size_t total = 0;
  for (const StepRecord& s : steps) {
    total += sizeof(StepRecord) + approx_bytes(s.name) + approx_bytes(s.detail);
  }
  return total;
}

}  // namespace

// --- Snapshot ------------------------------------------------------------
//
// The run's FlowArtifacts by value: copying one copies pointers to the
// immutable heap artifacts, so store and restore never duplicate them and
// the cross-references inside (mapped -> library, placed -> mapped,
// routed -> placed) stay valid. `design` is deliberately NOT captured —
// the content digest in the key already guarantees the caller's design is
// equivalent, and holding a borrowed pointer would dangle.
struct FlowCache::Snapshot {
  FlowArtifacts artifacts;
  std::vector<StepRecord> steps;
  std::size_t bytes = 0;
};

FlowCache::FlowCache() : FlowCache(Options{}) {}

FlowCache::FlowCache(Options options) : options_(options) {}

FlowCache::~FlowCache() = default;

std::shared_ptr<const FlowCache::Snapshot> FlowCache::snapshot_of(
    FlowArtifacts artifacts, std::vector<StepRecord> steps) {
  auto snap = std::make_shared<Snapshot>();
  snap->artifacts = std::move(artifacts);
  snap->artifacts.design = nullptr;
  snap->steps = std::move(steps);
  // Charged for every artifact it references, shared or not.
  const FlowArtifacts& a = snap->artifacts;
  std::size_t bytes = sizeof(Snapshot) + a.gds_bytes.size() +
                      approx_bytes(snap->steps) + approx_bytes(a.timing) +
                      approx_bytes(a.drc);
  if (a.library) bytes += approx_bytes(*a.library);
  if (a.aig) bytes += approx_bytes(*a.aig);
  if (a.mapped) bytes += approx_bytes(*a.mapped);
  if (a.placed) bytes += approx_bytes(*a.placed);
  if (a.clock_tree) bytes += approx_bytes(*a.clock_tree);
  if (a.routed) bytes += approx_bytes(*a.routed);
  if (a.symbols) bytes += a.symbols->memory_bytes();
  snap->bytes = bytes;
  return snap;
}

void FlowCache::restore(const Snapshot& snap, FlowContext& ctx) {
  const rtl::Module* design = ctx.artifacts.design;
  ctx.artifacts = snap.artifacts;
  ctx.artifacts.design = design;
  ctx.steps = snap.steps;
  for (StepRecord& rec : ctx.steps) rec.cached = true;
}

bool FlowCache::lookup(const util::Digest& key, FlowContext& ctx) {
  util::trace::Span span;
  if (util::trace::enabled()) span.begin("cache.lookup", "flow.cache");
  // Fault site "flowcache.lookup": the cache is an accelerator, so a
  // status fault degrades to a miss instead of failing the flow (kThrow
  // still propagates — that is the exception-isolation scenario).
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("flowcache.lookup").ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      ++misses_;
      if (span.active()) span.annotate("hit", std::string("degraded-miss"));
      return false;
    }
  }
  std::shared_ptr<const Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it == index_.end()) {
      // Local miss: try the second-level tier (outside the lock, below)
      // before deciding between remote_hits_ and misses_.
      if (options_.second_level == nullptr) {
        ++misses_;
        if (span.active()) span.annotate("hit", false);
        return false;
      }
    } else {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      snap = it->second.snapshot;
      ++hits_;
    }
  }
  if (!snap) {
    // Second-level probe: rebuild the state from the tier's blob chain.
    // Anything missing or undecodable degrades to a miss — the tier is an
    // optimization, never trusted.
    std::size_t links = 0;
    bool corrupt = false;
    snap = fetch_chain(key, &links, &corrupt);
    if (!snap) {
      std::lock_guard<std::mutex> lock(mu_);
      if (corrupt) ++remote_errors_;
      ++misses_;
      if (span.active()) {
        if (corrupt) {
          span.annotate("hit", std::string("remote-error"));
        } else {
          span.annotate("hit", false);
        }
      }
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++remote_hits_;
    }
    if (span.active()) {
      span.annotate("hit", std::string("remote"));
      span.annotate("bytes", static_cast<std::uint64_t>(snap->bytes));
      span.annotate("chain_links", static_cast<std::uint64_t>(links));
    }
    // Re-admit locally so the next lookup skips the network. admit_local
    // does not publish back — the tier just served these blobs.
    restore(*snap, ctx);
    admit_local(key, std::move(snap));
    return true;
  }
  if (span.active()) {
    span.annotate("hit", true);
    span.annotate("bytes", static_cast<std::uint64_t>(snap->bytes));
  }
  // Restore outside the lock; `snap` keeps the entry alive even if a
  // concurrent store evicts it.
  restore(*snap, ctx);
  return true;
}

void FlowCache::store(const util::Digest& key, const FlowContext& ctx,
                      const std::optional<util::Digest>& parent) {
  util::trace::Span span;
  if (util::trace::enabled()) span.begin("cache.store", "flow.cache");
  // Fault site "flowcache.store": a status fault skips admission — the
  // flow stays correct, only future lookups lose the snapshot.
  if (util::FaultInjector* fi = util::FaultInjector::installed()) {
    if (!fi->check("flowcache.store").ok()) {
      if (span.active()) span.annotate("admitted", std::string("degraded-skip"));
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      if (span.active()) span.annotate("admitted", std::string("already-present"));
      return;
    }
  }
  // Snapshot outside the lock. A racing store of the same key is resolved
  // in admit_local: first writer wins.
  std::shared_ptr<const Snapshot> snap = snapshot_of(ctx.artifacts, ctx.steps);
  if (span.active()) {
    span.annotate("bytes", static_cast<std::uint64_t>(snap->bytes));
  }
  const bool over_budget = snap->bytes > options_.max_bytes;
  if (span.active()) {
    if (over_budget) {
      span.annotate("admitted", std::string("over-budget"));
    } else {
      span.annotate("admitted", true);
    }
  }
  if (!over_budget) admit_local(key, std::move(snap));
  // Publish to the second-level tier even when over the local budget: the
  // tier has its own (typically larger) budget and serves every peer. The
  // blob is encoded against the parent's resident snapshot, so it carries
  // only what this step added; without one it is a self-contained root.
  if (options_.second_level != nullptr) {
    std::shared_ptr<const Snapshot> base;
    if (parent) {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = index_.find(*parent);
      if (it != index_.end()) base = it->second.snapshot;
    }
    BlobParent link;
    if (base) link = {*parent, &base->artifacts, base->steps.size()};
    std::vector<std::uint8_t> blob =
        serialize_blob(ctx.artifacts, ctx.steps, base ? &link : nullptr);
    if (span.active()) {
      span.annotate("l2_bytes", static_cast<std::uint64_t>(blob.size()));
    }
    options_.second_level->publish(key, std::move(blob));
  }
}

std::shared_ptr<const FlowCache::Snapshot> FlowCache::fetch_chain(
    const util::Digest& key, std::size_t* links, bool* corrupt) {
  // Walk parent keys back, tip first, until a key resident in L1 or a
  // root blob ends the chain.
  std::vector<util::Digest> keys{key};
  std::vector<Blob> chain;
  std::shared_ptr<const Snapshot> base;
  for (;;) {
    std::vector<std::uint8_t> bytes;
    if (!options_.second_level->fetch(keys.back(), &bytes)) return nullptr;
    auto blob = Blob::open(std::move(bytes));
    if (!blob.ok()) {
      *corrupt = true;
      return nullptr;
    }
    const std::optional<util::Digest> parent = blob->parent();
    chain.push_back(std::move(*blob));
    if (!parent) break;
    // Keys chain by hashing their parent, so a repeat means a bad producer.
    if (std::find(keys.begin(), keys.end(), *parent) != keys.end()) {
      *corrupt = true;
      return nullptr;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      const auto it = index_.find(*parent);
      if (it != index_.end()) {
        base = it->second.snapshot;
        break;
      }
    }
    keys.push_back(*parent);
  }
  // Decode root-first on top of the base, whose artifacts the rebuilt
  // state shares wherever a link does not replace them.
  FlowArtifacts artifacts;
  std::vector<StepRecord> steps;
  if (base) {
    artifacts = base->artifacts;
    steps = base->steps;
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!it->apply(artifacts, steps).ok()) {
      *corrupt = true;
      return nullptr;
    }
  }
  *links = chain.size();
  return snapshot_of(std::move(artifacts), std::move(steps));
}

void FlowCache::admit_local(const util::Digest& key,
                            std::shared_ptr<const Snapshot> snap) {
  if (snap->bytes > options_.max_bytes) return;  // would evict everything
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    return;
  }
  lru_.push_front(key);
  bytes_ += snap->bytes;
  index_.emplace(key, Entry{lru_.begin(), std::move(snap)});
  ++stores_;
  evict_to_budget_locked();
}

void FlowCache::evict_to_budget_locked() {
  while (bytes_ > options_.max_bytes && !lru_.empty()) {
    const util::Digest victim = lru_.back();
    const auto it = index_.find(victim);
    if (it != index_.end()) {
      bytes_ -= it->second.snapshot->bytes;
      index_.erase(it);
      ++evictions_;
    }
    lru_.pop_back();
  }
}

bool FlowCache::contains(const util::Digest& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.find(key) != index_.end();
}

void FlowCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
  bytes_ = 0;
}

FlowCache::Stats FlowCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.stores = stores_;
  s.evictions = evictions_;
  s.remote_hits = remote_hits_;
  s.remote_errors = remote_errors_;
  s.bytes = bytes_;
  s.entries = index_.size();
  return s;
}

}  // namespace eurochip::flow
