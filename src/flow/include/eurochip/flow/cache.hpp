// FlowCache: a thread-safe, content-addressed, byte-budgeted (LRU) cache
// of per-stage flow artifacts, shared by all hub::JobServer workers.
//
// Motivation (paper Recommendations 4/7): a shared enablement hub runs the
// same flow templates over and over — campaigns, PPA sweeps, tiered-access
// traces resubmit identical stage prefixes hundreds of times. Instead of
// recomputing RTL->GDSII from scratch per job, FlowTemplate::execute keys
// every step with a stable digest chain
//
//   key_0   = H(design digest, node digest)
//   key_i   = H(key_{i-1}, step name, stage-relevant FlowConfig knobs)
//
// and consults the cache deepest-prefix-first: a hit restores the cached
// FlowContext snapshot and execution resumes at the first stale step.
// After each completed step the post-step snapshot is stored under that
// step's key.
//
// Artifacts are immutable once published (see FlowArtifacts), so a
// snapshot holds the run's artifact pointers: store and restore copy
// pointers, and shared ownership keeps a result valid past eviction.
//
// Second level: with Options::second_level set, each store also publishes
// one blob per step (flow::serialize_blob) holding only what the step
// added to its parent step's state, plus the parent's key. An L1 miss
// walks those parent keys back through the tier until it reaches a key
// resident in L1 (whose artifacts the rebuilt state then shares) or a
// root blob, decodes the links root-first and re-admits the result.
//
// Thread-safety: all public methods are safe from any thread. One mutex
// guards the index/LRU list; snapshots are immutable once stored
// (shared_ptr<const Snapshot>), so restores happen outside the lock and
// eviction during a concurrent restore is harmless.
//
// Eviction: strict LRU over an approximate byte budget (Options::max_bytes,
// sized via approx_bytes estimates of the artifact containers). Each
// snapshot is charged for every artifact it references, shared or not, so
// Stats::bytes bounds resident memory from above. A snapshot larger than
// the whole budget is not admitted. Keys are 128-bit content
// digests (util::Digest); collisions are cache-poisoning, not correctness
// hazards the design accepts silently — at 128 bits they are negligible.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/util/digest.hpp"

namespace eurochip::flow {

/// A second-level blob store behind a FlowCache — in a federation, the
/// remote cache tier shared by all hubs (fed::RemoteCache). Keys are the
/// same content digests as the L1; values are flow::serialize_blob() byte
/// streams, each one link of a step's parent chain. Implementations must
/// be safe to call from any thread.
///
/// The contract is deliberately lossy: fetch() may miss for any reason
/// (eviction, network fault, corruption) and publish() is fire-and-forget —
/// FlowCache treats the tier as an optimization, never as ground truth.
class CacheTier {
 public:
  virtual ~CacheTier() = default;

  /// On hit, fills `out` with the stored bytes and returns true.
  virtual bool fetch(const util::Digest& key,
                     std::vector<std::uint8_t>* out) = 0;

  /// Offers `bytes` for storage under `key`. May be dropped silently.
  /// Taken by value so a freshly serialized blob moves into storage.
  virtual void publish(const util::Digest& key,
                       std::vector<std::uint8_t> bytes) = 0;

  /// True if `key` is resident, without fetching (no side effects). The
  /// default says no — a tier that cannot answer cheaply just makes
  /// resumability probes (FlowTemplate::cached_prefix_depth) conservative.
  [[nodiscard]] virtual bool contains(const util::Digest& key) const {
    (void)key;
    return false;
  }
};

class FlowCache {
 public:
  struct Options {
    /// Approximate cap on resident snapshot bytes. LRU entries are evicted
    /// until the estimate fits.
    std::size_t max_bytes = 256u << 20;
    /// Optional second-level tier (borrowed; must outlive the cache). On a
    /// local miss, lookup() rebuilds the state from the tier's blob chain
    /// and — if every link is present and decodes cleanly — re-admits the
    /// snapshot locally; store() publishes each step's blob to the tier.
    /// A missing link is a plain miss; a link that fails to decode
    /// (truncation, corruption, version skew) counts as remote_errors and
    /// degrades to a plain miss.
    CacheTier* second_level = nullptr;
  };

  struct Stats {
    std::uint64_t hits = 0;        ///< lookup() found the key locally
    std::uint64_t misses = 0;      ///< lookup() probes that found nothing
    std::uint64_t stores = 0;      ///< snapshots admitted
    std::uint64_t evictions = 0;   ///< entries dropped for the byte budget
    std::uint64_t remote_hits = 0;    ///< misses rescued by second_level
    std::uint64_t remote_errors = 0;  ///< misses on a link that failed to decode
    std::size_t bytes = 0;         ///< resident estimate (upper bound)
    std::size_t entries = 0;       ///< current entry count
  };

  FlowCache();  ///< default Options
  explicit FlowCache(Options options);
  ~FlowCache();

  FlowCache(const FlowCache&) = delete;
  FlowCache& operator=(const FlowCache&) = delete;

  /// On hit, points `ctx` at the stored snapshot's artifacts and copies its
  /// step records (`ctx.artifacts.design` is left untouched), then returns
  /// true. On miss returns false and leaves `ctx` unchanged.
  bool lookup(const util::Digest& key, FlowContext& ctx);

  /// Admits a snapshot sharing `ctx`'s artifacts under `key`. No-op (LRU
  /// touch only) if the key is already present; no-op if the snapshot alone
  /// exceeds the byte budget. `parent` is the previous step's key: the
  /// second-level blob then carries only what this step added to the state
  /// stored there (if that state is still resident; else the whole state).
  void store(const util::Digest& key, const FlowContext& ctx,
             const std::optional<util::Digest>& parent = std::nullopt);

  /// True if `key` is resident (no LRU touch, no restore).
  [[nodiscard]] bool contains(const util::Digest& key) const;

  /// The second-level tier this cache was built over (null if none).
  [[nodiscard]] CacheTier* second_level() const {
    return options_.second_level;
  }

  void clear();

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t max_bytes() const { return options_.max_bytes; }

 private:
  struct Snapshot;

  static std::shared_ptr<const Snapshot> snapshot_of(
      FlowArtifacts artifacts, std::vector<StepRecord> steps);
  static void restore(const Snapshot& snap, FlowContext& ctx);

  /// Rebuilds the state under `key` from second_level's blob chain. Null
  /// on a miss; `*corrupt` is set when a link failed to open or decode
  /// rather than being absent. `*links` counts the blobs decoded.
  std::shared_ptr<const Snapshot> fetch_chain(const util::Digest& key,
                                              std::size_t* links,
                                              bool* corrupt);

  /// Admits an already-built snapshot under the L1 policy (presence check,
  /// budget check, LRU insert). Shared by store() and the L2 re-admission
  /// path; does NOT publish to second_level.
  void admit_local(const util::Digest& key,
                   std::shared_ptr<const Snapshot> snap);

  void evict_to_budget_locked();

  Options options_;
  mutable std::mutex mu_;
  /// MRU at front. The map owns iterators into this list.
  std::list<util::Digest> lru_;
  struct Entry {
    std::list<util::Digest>::iterator lru_it;
    std::shared_ptr<const Snapshot> snapshot;
  };
  std::unordered_map<util::Digest, Entry, util::DigestHash> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t stores_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t remote_hits_ = 0;
  std::uint64_t remote_errors_ = 0;
};

}  // namespace eurochip::flow
