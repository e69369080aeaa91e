// FlowCache: content-addressed keying, invalidation, LRU eviction, and
// concurrent sharing across flow runs and JobServer workers.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "eurochip/flow/cache.hpp"
#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/hub/job.hpp"
#include "eurochip/hub/server.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/digest.hpp"
#include "eurochip/util/wire.hpp"

namespace eurochip {
namespace {

flow::FlowConfig base_config() {
  flow::FlowConfig cfg;
  cfg.node = pdk::standard_node("sky130ish").value();
  cfg.quality = flow::FlowQuality::kOpen;
  cfg.seed = 7;
  return cfg;
}

// --- digest layer -------------------------------------------------------

TEST(DigestTest, HasherIsDeterministic) {
  util::Hasher a, b;
  a.str("hello").u64(42).f64(1.5).boolean(true);
  b.str("hello").u64(42).f64(1.5).boolean(true);
  EXPECT_EQ(a.finalize().hex(), b.finalize().hex());
}

TEST(DigestTest, HexSpellsHiThenLoMostSignificantNibbleFirst) {
  const util::Digest d{0x0123456789abcdefuLL, 0xfedcba9876543210uLL};
  EXPECT_EQ(d.hex(), "0123456789abcdeffedcba9876543210");
}

TEST(DigestTest, ChecksumCatchesEveryBitFlipAndTruncation) {
  std::vector<std::uint8_t> bytes(70);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  // Lengths 0..70 cover whole 16-byte rounds and every tail length.
  for (std::size_t n = 0; n <= bytes.size(); ++n) {
    const util::Digest d = util::checksum(bytes.data(), n);
    EXPECT_EQ(util::checksum(bytes.data(), n), d);
    if (n > 0) EXPECT_FALSE(util::checksum(bytes.data(), n - 1) == d) << n;
    for (std::size_t pos = 0; pos < n; ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        auto flipped = bytes;
        flipped[pos] ^= static_cast<std::uint8_t>(1u << bit);
        EXPECT_FALSE(util::checksum(flipped.data(), n) == d)
            << "n=" << n << " pos=" << pos << " bit=" << bit;
      }
    }
  }
}

TEST(DigestTest, DifferentInputsDiffer) {
  util::Hasher a, b, c;
  a.str("hello");
  b.str("hellp");
  c.str("hell").str("o");  // length-prefixing: concatenation != split
  const auto da = a.finalize(), db = b.finalize(), dc = c.finalize();
  EXPECT_NE(da, db);
  EXPECT_NE(da, dc);
}

TEST(DigestTest, CanonicalDoubles) {
  util::Hasher a, b;
  a.f64(0.0);
  b.f64(-0.0);
  EXPECT_EQ(a.finalize(), b.finalize());  // -0.0 canonicalized to +0.0
}

TEST(DigestTest, ModuleDigestIsContentBased) {
  const auto m1 = rtl::designs::counter(8);
  const auto m2 = rtl::designs::counter(8);
  const auto m3 = rtl::designs::counter(9);
  EXPECT_EQ(flow::digest_of(m1), flow::digest_of(m2));
  EXPECT_NE(flow::digest_of(m1), flow::digest_of(m3));
  EXPECT_NE(flow::digest_of(m1), flow::digest_of(rtl::designs::adder(8)));
}

TEST(DigestTest, NodeDigestDistinguishesNodes) {
  const auto a = pdk::standard_node("sky130ish").value();
  const auto b = pdk::standard_node("ihp130ish").value();
  EXPECT_EQ(flow::digest_of(a), flow::digest_of(a));
  EXPECT_NE(flow::digest_of(a), flow::digest_of(b));
}

// --- end-to-end keying through FlowTemplate::execute --------------------

TEST(FlowCacheTest, WarmRerunHitsEveryStep) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;

  const auto cold = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_EQ(cold->cache_hits, 0u);
  EXPECT_EQ(cache.stats().stores, cold->steps.size());

  const auto warm = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_hits, warm->steps.size());
  for (const auto& s : warm->steps) EXPECT_TRUE(s.cached) << s.name;

  // Identical results, not just "a" result.
  EXPECT_EQ(warm->ppa.cell_count, cold->ppa.cell_count);
  EXPECT_DOUBLE_EQ(warm->ppa.area_um2, cold->ppa.area_um2);
  EXPECT_DOUBLE_EQ(warm->ppa.wns_ps, cold->ppa.wns_ps);
  EXPECT_DOUBLE_EQ(warm->ppa.power_uw, cold->ppa.power_uw);
  EXPECT_EQ(warm->ppa.wirelength_dbu, cold->ppa.wirelength_dbu);
  EXPECT_EQ(warm->ppa.gds_bytes, cold->ppa.gds_bytes);
  EXPECT_GE(cache.stats().hits, 1u);
}

TEST(FlowCacheTest, SeedChangeInvalidatesFromPlace) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());

  cfg.seed = 8;  // only place's fingerprint includes the seed
  const auto r = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(r.ok());
  // library, elaborate, synth, map, dft are seed-independent.
  EXPECT_EQ(r->cache_hits, 5u);
}

TEST(FlowCacheTest, ClockChangeInvalidatesFromMap) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());

  cfg.clock_period_ps = cfg.effective_clock_ps() * 2.0;
  const auto r = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(r.ok());
  // library, elaborate, synth survive; map keys on the effective clock.
  EXPECT_EQ(r->cache_hits, 3u);
}

TEST(FlowCacheTest, DesignOrNodeChangeMissesEntirely) {
  flow::FlowCache cache;
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(rtl::designs::counter(8), cfg).ok());

  const auto other = flow::run_reference_flow(rtl::designs::adder(8), cfg);
  ASSERT_TRUE(other.ok());
  EXPECT_EQ(other->cache_hits, 0u);

  auto cfg2 = cfg;
  cfg2.node = pdk::standard_node("ihp130ish").value();
  const auto r = flow::run_reference_flow(rtl::designs::counter(8), cfg2);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->cache_hits, 0u);
}

TEST(FlowCacheTest, QualityChangeMissesFromSynth) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());

  cfg.quality = flow::FlowQuality::kCommercial;
  const auto r = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(r.ok());
  // Only library + elaborate are quality-independent.
  EXPECT_EQ(r->cache_hits, 2u);
}

TEST(FlowCacheTest, CustomStepBreaksKeyChain) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;

  auto t = flow::reference_template();
  ASSERT_TRUE(t.replace_step("synth", [](flow::FlowContext&) {
    return util::Status::Ok();
  }));
  ASSERT_TRUE(t.execute(m, cfg).ok());
  // Only steps upstream of the opaque step are keyable.
  EXPECT_EQ(cache.stats().stores, 2u);  // library, elaborate

  const auto warm = t.execute(m, cfg);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm->cache_hits, 2u);
}

TEST(FlowCacheTest, RestoredArtifactsAreSharedWithTheColdRun) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  const auto cold = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(cold.ok());

  const auto warm = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(warm.ok());
  const auto& a = warm->artifacts;
  ASSERT_NE(a.mapped, nullptr);
  ASSERT_NE(a.placed, nullptr);
  ASSERT_NE(a.routed, nullptr);
  // Immutable artifacts are shared, not copied, across the cache...
  EXPECT_EQ(a.mapped.get(), cold->artifacts.mapped.get());
  EXPECT_EQ(a.placed.get(), cold->artifacts.placed.get());
  EXPECT_EQ(a.routed.get(), cold->artifacts.routed.get());
  // ...and internal cross-references point inside the same set.
  EXPECT_EQ(&a.mapped->library(), a.library.get());
  EXPECT_EQ(a.placed->netlist, a.mapped.get());
  EXPECT_EQ(a.routed->placed, a.placed.get());
}

// --- copy before change ---------------------------------------------------
//
// Steps that change an earlier artifact (synth: the AIG; dft: the mapped
// netlist; map/dft/sta: the symbol overlay) must publish a changed copy,
// never write through the pointer they share with earlier snapshots. Run A
// fills the cache, run B resumes from A's snapshots and re-runs a changing
// step with a different knob, and then every one of A's snapshots is
// restored into a template cut after its step and compared with the same
// cut template run without a cache.

/// reference_template() cut after its first `n` steps. Step names and
/// fingerprints are kept, so its keys are a prefix of the full chain.
flow::FlowTemplate reference_prefix(std::size_t n) {
  const flow::FlowTemplate full = flow::reference_template();
  flow::FlowTemplate t(full.name());
  for (std::size_t i = 0; i < n; ++i) t.add_step(full.steps()[i]);
  return t;
}

template <typename T>
std::vector<std::uint8_t> wire_bytes(const T& artifact) {
  util::WireWriter w;
  flow::serialize(w, artifact);
  return w.take();
}

void expect_same_artifacts(const flow::FlowArtifacts& got,
                           const flow::FlowArtifacts& want,
                           const std::string& where) {
  SCOPED_TRACE(where);
  ASSERT_EQ(got.aig != nullptr, want.aig != nullptr);
  ASSERT_EQ(got.mapped != nullptr, want.mapped != nullptr);
  ASSERT_EQ(got.placed != nullptr, want.placed != nullptr);
  ASSERT_EQ(got.routed != nullptr, want.routed != nullptr);
  ASSERT_EQ(got.symbols != nullptr, want.symbols != nullptr);
  if (want.aig) EXPECT_EQ(wire_bytes(*got.aig), wire_bytes(*want.aig));
  if (want.mapped) {
    EXPECT_EQ(flow::digest_of(*got.mapped), flow::digest_of(*want.mapped));
  }
  if (want.placed) {
    EXPECT_EQ(flow::digest_of(*got.placed), flow::digest_of(*want.placed));
  }
  if (want.routed) {
    EXPECT_EQ(flow::digest_of(*got.routed), flow::digest_of(*want.routed));
  }
  if (want.symbols) {
    EXPECT_EQ(wire_bytes(*got.symbols), wire_bytes(*want.symbols));
  }
}

/// Runs A, then each of `b_configs` (B) on one cache, then checks that
/// every one of A's snapshots still restores to exactly what a cache-less
/// run of the same prefix produces (C).
void expect_snapshots_survive_reruns(
    const rtl::Module& m, const flow::FlowConfig& a_config,
    const std::vector<flow::FlowConfig>& b_configs) {
  flow::FlowCache cache;
  flow::FlowConfig a = a_config;
  a.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, a).ok());
  for (flow::FlowConfig b : b_configs) {
    b.cache = &cache;
    const auto rb = flow::run_reference_flow(m, b);
    ASSERT_TRUE(rb.ok()) << rb.status().to_string();
    ASSERT_GT(rb->cache_hits, 0u);
    ASSERT_LT(rb->cache_hits, rb->steps.size());
  }
  const std::size_t n = flow::reference_template().steps().size();
  for (std::size_t k = 1; k <= n; ++k) {
    const flow::FlowTemplate prefix = reference_prefix(k);
    const auto c = prefix.execute(m, a);
    ASSERT_TRUE(c.ok()) << c.status().to_string();
    ASSERT_EQ(c->cache_hits, k);
    flow::FlowConfig uncached = a;
    uncached.cache = nullptr;
    const auto fresh = prefix.execute(m, uncached);
    ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
    expect_same_artifacts(c->artifacts, fresh->artifacts,
                          "snapshot after " + prefix.steps().back().name);
  }
}

TEST(FlowCacheTest, SynthRerunLeavesSharedAigUntouched) {
  const auto m = rtl::designs::counter(8);
  auto b = base_config();
  b.synth_iterations = 4;
  expect_snapshots_survive_reruns(m, base_config(), {b});
}

TEST(FlowCacheTest, ScanInsertionLeavesSharedNetlistUntouched) {
  const auto m = rtl::designs::counter(8);
  auto b = base_config();
  b.insert_scan = true;
  const auto scanned = flow::run_reference_flow(m, b);
  ASSERT_TRUE(scanned.ok());
  ASSERT_FALSE(scanned->artifacts.mapped->sequential_cells().empty());
  expect_snapshots_survive_reruns(m, base_config(), {b});
}

TEST(FlowCacheTest, SymbolRecordersLeaveSharedTableUntouched) {
  const auto m = rtl::designs::counter(8);
  const auto a = base_config();
  const flow::EffortKnobs k = flow::knobs_for(a.quality, a.seed, a.utilization);
  auto remap = a;  // re-runs map (and dft, sta) over the synth snapshot
  remap.map_options = k.map_options;
  remap.map_options->objective = synth::MapObjective::kDelay;
  auto rescan = a;  // re-runs dft (and sta) over the map snapshot
  rescan.insert_scan = true;
  auto reroute = a;  // re-runs sta over the cts snapshot
  reroute.route_options = k.route_options;
  reroute.route_options->max_ripup_iterations += 2;
  expect_snapshots_survive_reruns(m, a, {remap, rescan, reroute});
}

// --- second-level blob chains -----------------------------------------------
//
// With a second-level tier, each store publishes one blob holding what its
// step added plus the parent step's key; an L1 miss rebuilds the state by
// walking that chain. These tests run a publisher flow into an in-memory
// tier and then restore from the tier alone into cold L1s.

/// An in-memory CacheTier whose blobs a test can drop or damage. The tests
/// using it are single-threaded.
class MapTier : public flow::CacheTier {
 public:
  bool fetch(const util::Digest& key,
             std::vector<std::uint8_t>* out) override {
    ++fetches;
    const auto it = blobs.find(key);
    if (it == blobs.end()) return false;
    *out = it->second;
    return true;
  }
  void publish(const util::Digest& key,
               std::vector<std::uint8_t> bytes) override {
    blobs.emplace(key, std::move(bytes));  // first publish wins
  }
  [[nodiscard]] bool contains(const util::Digest& key) const override {
    return blobs.count(key) > 0;
  }

  std::unordered_map<util::Digest, std::vector<std::uint8_t>,
                     util::DigestHash>
      blobs;
  std::size_t fetches = 0;
};

flow::FlowCache::Options over(MapTier* tier) {
  return flow::FlowCache::Options{.max_bytes = 64u << 20,
                                  .second_level = tier};
}

std::vector<util::Digest> reference_keys(const rtl::Module& m,
                                         const flow::FlowConfig& cfg) {
  std::vector<util::Digest> keys;
  std::vector<bool> keyable;
  flow::reference_template().step_keys(m, cfg, &keys, &keyable);
  return keys;
}

/// Everything a restored run must share with a cache-less one: artifacts,
/// reports, GDS, step names and PPA, bit for bit.
void expect_same_result(const flow::FlowResult& got,
                        const flow::FlowResult& want,
                        const std::string& where) {
  SCOPED_TRACE(where);
  expect_same_artifacts(got.artifacts, want.artifacts, where);
  const flow::FlowArtifacts& g = got.artifacts;
  const flow::FlowArtifacts& w = want.artifacts;
  ASSERT_EQ(g.library != nullptr, w.library != nullptr);
  ASSERT_EQ(g.clock_tree != nullptr, w.clock_tree != nullptr);
  if (w.library) EXPECT_EQ(wire_bytes(*g.library), wire_bytes(*w.library));
  if (w.clock_tree) {
    EXPECT_EQ(wire_bytes(*g.clock_tree), wire_bytes(*w.clock_tree));
  }
  EXPECT_EQ(wire_bytes(g.timing), wire_bytes(w.timing));
  EXPECT_EQ(wire_bytes(g.power), wire_bytes(w.power));
  EXPECT_EQ(wire_bytes(g.drc), wire_bytes(w.drc));
  EXPECT_EQ(g.gds_bytes, w.gds_bytes);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (std::size_t i = 0; i < got.steps.size(); ++i) {
    EXPECT_EQ(got.steps[i].name, want.steps[i].name);
    EXPECT_EQ(got.steps[i].detail, want.steps[i].detail);
  }
  EXPECT_EQ(got.ppa.cell_count, want.ppa.cell_count);
  EXPECT_EQ(got.ppa.area_um2, want.ppa.area_um2);
  EXPECT_EQ(got.ppa.die_area_mm2, want.ppa.die_area_mm2);
  EXPECT_EQ(got.ppa.wns_ps, want.ppa.wns_ps);
  EXPECT_EQ(got.ppa.fmax_mhz, want.ppa.fmax_mhz);
  EXPECT_EQ(got.ppa.power_uw, want.ppa.power_uw);
  EXPECT_EQ(got.ppa.leakage_uw, want.ppa.leakage_uw);
  EXPECT_EQ(got.ppa.wirelength_dbu, want.ppa.wirelength_dbu);
  EXPECT_EQ(got.ppa.drc_violations, want.ppa.drc_violations);
  EXPECT_EQ(got.ppa.gds_bytes, want.ppa.gds_bytes);
  EXPECT_EQ(got.ppa.clock_skew_ps, want.ppa.clock_skew_ps);
  EXPECT_EQ(got.ppa.clock_buffers, want.ppa.clock_buffers);
}

TEST(FlowCacheChainTest, L2OnlyRestoresMatchColdRunsAtEveryDepth) {
  const auto m = rtl::designs::counter(8);
  const std::size_t n = flow::reference_template().steps().size();
  for (const flow::FlowQuality quality :
       {flow::FlowQuality::kOpen, flow::FlowQuality::kCommercial}) {
    for (const bool scan : {false, true}) {
      SCOPED_TRACE(std::string(flow::to_string(quality)) +
                   (scan ? " +scan" : ""));
      auto cfg = base_config();
      cfg.quality = quality;
      cfg.insert_scan = scan;
      MapTier tier;
      {
        flow::FlowCache publisher(over(&tier));
        auto pub = cfg;
        pub.cache = &publisher;
        ASSERT_TRUE(flow::run_reference_flow(m, pub).ok());
      }
      // One blob per step, under exactly the step keys.
      ASSERT_EQ(tier.blobs.size(), n);
      for (const util::Digest& key : reference_keys(m, cfg)) {
        EXPECT_TRUE(tier.contains(key));
      }
      for (std::size_t k = 1; k <= n; ++k) {
        const flow::FlowTemplate prefix = reference_prefix(k);
        flow::FlowCache cold_l1(over(&tier));
        auto warm_cfg = cfg;
        warm_cfg.cache = &cold_l1;
        tier.fetches = 0;
        const auto warm = prefix.execute(m, warm_cfg);
        ASSERT_TRUE(warm.ok()) << warm.status().to_string();
        ASSERT_EQ(warm->cache_hits, k);
        EXPECT_EQ(cold_l1.stats().remote_hits, 1u);
        EXPECT_EQ(tier.fetches, k) << "one fetch per link, root to tip";
        auto plain = cfg;
        plain.cache = nullptr;
        const auto fresh = prefix.execute(m, plain);
        ASSERT_TRUE(fresh.ok()) << fresh.status().to_string();
        expect_same_result(*warm, *fresh,
                           "restored after " + prefix.steps().back().name);
      }
    }
  }
}

TEST(FlowCacheChainTest, EvictedMiddleLinkIsACleanMissAndRepublishes) {
  const auto m = rtl::designs::counter(8);
  const auto cfg = base_config();
  const std::size_t n = flow::reference_template().steps().size();
  MapTier tier;
  flow::FlowCache publisher(over(&tier));
  auto pub = cfg;
  pub.cache = &publisher;
  const auto first = flow::run_reference_flow(m, pub);
  ASSERT_TRUE(first.ok());

  const std::vector<util::Digest> keys = reference_keys(m, cfg);
  const std::size_t middle = 5;  // place
  ASSERT_EQ(flow::reference_template().steps()[middle].name, "place");
  ASSERT_EQ(tier.blobs.erase(keys[middle]), 1u);

  // Every deeper probe misses at the gap; the dft state still restores.
  flow::FlowCache second_l1(over(&tier));
  auto second_cfg = cfg;
  second_cfg.cache = &second_l1;
  const auto second = flow::run_reference_flow(m, second_cfg);
  ASSERT_TRUE(second.ok()) << second.status().to_string();
  EXPECT_EQ(second->cache_hits, middle);
  EXPECT_EQ(second_l1.stats().remote_errors, 0u);
  EXPECT_EQ(second_l1.stats().remote_hits, 1u);
  expect_same_result(*second, *first, "recomputed past the gap");
  EXPECT_TRUE(tier.contains(keys[middle])) << "recomputed step republished";

  // The mended chain serves the whole flow again.
  flow::FlowCache third_l1(over(&tier));
  auto third_cfg = cfg;
  third_cfg.cache = &third_l1;
  const auto third = flow::run_reference_flow(m, third_cfg);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->cache_hits, n);
  expect_same_result(*third, *first, "restored over the mended chain");
}

TEST(FlowCacheChainTest, DamagedLinkIsARemoteErrorNeverAWrongArtifact) {
  const auto m = rtl::designs::counter(8);
  const auto cfg = base_config();
  const std::size_t n = flow::reference_template().steps().size();
  MapTier tier;
  flow::FlowCache publisher(over(&tier));
  auto pub = cfg;
  pub.cache = &publisher;
  const auto first = flow::run_reference_flow(m, pub);
  ASSERT_TRUE(first.ok());
  const std::vector<util::Digest> keys = reference_keys(m, cfg);

  for (std::size_t i = 0; i < n; ++i) {
    for (const bool truncate : {false, true}) {
      SCOPED_TRACE("link " + std::to_string(i) +
                   (truncate ? " truncated" : " flipped"));
      MapTier damaged = tier;
      std::vector<std::uint8_t>& blob = damaged.blobs.at(keys[i]);
      if (truncate) {
        blob.resize(blob.size() / 2);
      } else {
        blob[blob.size() / 2] ^= 0x5Au;
      }
      flow::FlowCache l1(over(&damaged));
      auto run_cfg = cfg;
      run_cfg.cache = &l1;
      const auto r = flow::run_reference_flow(m, run_cfg);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      // Each probe at or past the damaged link fails on it; the run
      // resumes right before it.
      EXPECT_EQ(l1.stats().remote_errors, n - i);
      EXPECT_EQ(r->cache_hits, i);
      expect_same_result(*r, *first, "run over a damaged chain");
    }
  }
}

TEST(FlowCacheChainTest, RestoreOverResidentAncestorSharesItsObjects) {
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  const std::size_t n = flow::reference_template().steps().size();
  MapTier tier;
  {
    flow::FlowCache publisher(over(&tier));
    auto pub = cfg;
    pub.cache = &publisher;
    ASSERT_TRUE(flow::run_reference_flow(m, pub).ok());
  }
  flow::FlowCache l1(over(&tier));
  cfg.cache = &l1;
  const std::size_t head_steps = 4;  // library .. map
  const auto head = reference_prefix(head_steps).execute(m, cfg);
  ASSERT_TRUE(head.ok());
  ASSERT_EQ(head->cache_hits, head_steps);

  tier.fetches = 0;
  const auto full = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->cache_hits, n);
  // Only the links above the resident map state crossed the tier...
  EXPECT_EQ(tier.fetches, n - head_steps);
  // ...and the rebuilt state shares that state's objects.
  const flow::FlowArtifacts& a = full->artifacts;
  EXPECT_EQ(a.library.get(), head->artifacts.library.get());
  EXPECT_EQ(a.aig.get(), head->artifacts.aig.get());
  EXPECT_EQ(a.mapped.get(), head->artifacts.mapped.get());
  EXPECT_EQ(a.placed->netlist, a.mapped.get());
  EXPECT_EQ(a.routed->placed, a.placed.get());
}

// --- direct cache mechanics ---------------------------------------------

flow::FlowContext synthetic_ctx(std::size_t gds_kb) {
  flow::FlowContext ctx;
  ctx.artifacts.gds_bytes.assign(gds_kb * 1024, 0xAB);
  flow::StepRecord rec;
  rec.name = "gds";
  ctx.steps.push_back(rec);
  return ctx;
}

util::Digest key_of(std::uint64_t i) {
  util::Hasher h;
  h.str("test-key").u64(i);
  return h.finalize();
}

TEST(FlowCacheTest, LruEvictionRespectsByteBudget) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 300 * 1024;  // fits ~3 x 64 KiB snapshots + overhead
  flow::FlowCache cache(opt);

  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto ctx = synthetic_ctx(64);
    cache.store(key_of(i), ctx);
  }
  const auto st = cache.stats();
  EXPECT_EQ(st.stores, 8u);
  EXPECT_GT(st.evictions, 0u);
  EXPECT_LE(st.bytes, opt.max_bytes);
  EXPECT_EQ(st.entries, st.stores - st.evictions);
  // Oldest keys evicted first, newest resident.
  EXPECT_FALSE(cache.contains(key_of(0)));
  EXPECT_TRUE(cache.contains(key_of(7)));
}

TEST(FlowCacheTest, LookupTouchesLruOrder) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 300 * 1024;
  flow::FlowCache cache(opt);
  cache.store(key_of(1), synthetic_ctx(64));
  cache.store(key_of(2), synthetic_ctx(64));
  cache.store(key_of(3), synthetic_ctx(64));

  flow::FlowContext scratch;
  ASSERT_TRUE(cache.lookup(key_of(1), scratch));  // 1 becomes MRU

  cache.store(key_of(4), synthetic_ctx(64));
  cache.store(key_of(5), synthetic_ctx(64));
  EXPECT_TRUE(cache.contains(key_of(1)));   // touched, survived
  EXPECT_FALSE(cache.contains(key_of(2)));  // LRU victim
}

TEST(FlowCacheTest, OversizedSnapshotNotAdmitted) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 16 * 1024;
  flow::FlowCache cache(opt);
  cache.store(key_of(1), synthetic_ctx(64));  // 64 KiB > 16 KiB budget
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_FALSE(cache.contains(key_of(1)));
}

TEST(FlowCacheTest, MissLeavesContextUntouched) {
  flow::FlowCache cache;
  flow::FlowContext ctx = synthetic_ctx(1);
  EXPECT_FALSE(cache.lookup(key_of(99), ctx));
  EXPECT_EQ(ctx.artifacts.gds_bytes.size(), 1024u);
  EXPECT_EQ(ctx.steps.size(), 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(FlowCacheTest, ClearResetsResidency) {
  flow::FlowCache cache;
  cache.store(key_of(1), synthetic_ctx(4));
  ASSERT_TRUE(cache.contains(key_of(1)));
  cache.clear();
  EXPECT_FALSE(cache.contains(key_of(1)));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

// --- lifetime -------------------------------------------------------------

TEST(FlowCacheTest, WarmResultOutlivesEveryCacheEntry) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 4u << 20;
  flow::FlowCache cache(opt);
  const auto m = rtl::designs::counter(8);
  auto cfg = base_config();
  cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(m, cfg).ok());
  const auto warm = flow::run_reference_flow(m, cfg);
  ASSERT_TRUE(warm.ok());
  ASSERT_EQ(warm->cache_hits, warm->steps.size());
  const flow::FlowArtifacts& a = warm->artifacts;
  ASSERT_NE(a.mapped, nullptr);
  ASSERT_NE(a.placed, nullptr);
  ASSERT_NE(a.routed, nullptr);
  const util::Digest mapped = flow::digest_of(*a.mapped);
  const util::Digest placed = flow::digest_of(*a.placed);
  const util::Digest routed = flow::digest_of(*a.routed);
  const std::string report = flow::render_report(*warm, cfg);

  // Evict every snapshot of the run by flooding the LRU, then clear.
  std::vector<util::Digest> keys;
  std::vector<bool> keyable;
  flow::reference_template().step_keys(m, cfg, &keys, &keyable);
  const auto any_resident = [&] {
    for (const util::Digest& key : keys) {
      if (cache.contains(key)) return true;
    }
    return false;
  };
  for (std::uint64_t i = 0; any_resident(); ++i) {
    ASSERT_LT(i, 1000u);
    cache.store(key_of(i), synthetic_ctx(64));
  }
  EXPECT_GT(cache.stats().evictions, 0u);
  cache.clear();
  ASSERT_EQ(cache.stats().entries, 0u);

  EXPECT_EQ(flow::digest_of(*a.mapped), mapped);
  EXPECT_EQ(flow::digest_of(*a.placed), placed);
  EXPECT_EQ(flow::digest_of(*a.routed), routed);
  EXPECT_EQ(flow::render_report(*warm, cfg), report);
  EXPECT_EQ(&a.mapped->library(), a.library.get());
  EXPECT_EQ(a.placed->netlist, a.mapped.get());
  EXPECT_EQ(a.routed->placed, a.placed.get());
}

// --- concurrency (primary TSan target) ----------------------------------

TEST(FlowCacheTest, ConcurrentRunsShareOneCache) {
  flow::FlowCache cache;
  const auto m = rtl::designs::counter(6);
  auto cfg = base_config();
  cfg.cache = &cache;
  const std::size_t n = flow::reference_template().steps().size();

  // Two waves of 8 concurrent runs. The first races cold stores against
  // probes (how many of its runs hit depends on scheduling); every run of
  // the second starts after the first has stored all of its snapshots, so
  // it must restore the full prefix.
  const auto wave = [&] {
    std::vector<std::optional<util::Result<flow::FlowResult>>> out(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < out.size(); ++t) {
      threads.emplace_back(
          [&, t] { out[t] = flow::run_reference_flow(m, cfg); });
    }
    for (auto& th : threads) th.join();
    return out;
  };
  const auto first = wave();
  const auto second = wave();
  ASSERT_TRUE(first[0]->ok());
  const util::Digest routed = flow::digest_of(*(*first[0])->artifacts.routed);
  for (const auto* w : {&first, &second}) {
    for (const auto& r : *w) {
      ASSERT_TRUE(r->ok()) << r->status().to_string();
      EXPECT_EQ(flow::digest_of(*(*r)->artifacts.routed), routed);
    }
  }
  for (const auto& r : second) EXPECT_EQ((*r)->cache_hits, n);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(FlowCacheTest, ConcurrentStoreAndEvictionIsSafe) {
  flow::FlowCache::Options opt;
  opt.max_bytes = 200 * 1024;  // force constant eviction churn
  flow::FlowCache cache(opt);

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 32; ++i) {
        const std::uint64_t k = static_cast<std::uint64_t>(t) * 100 + i;
        cache.store(key_of(k), synthetic_ctx(32));
        flow::FlowContext scratch;
        cache.lookup(key_of(k), scratch);
        (void)cache.contains(key_of(k % 7));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(cache.stats().bytes, opt.max_bytes);
}

// --- hub integration ----------------------------------------------------

TEST(FlowCacheTest, JobServerRecordsCacheHitsAndMetrics) {
  flow::FlowCache cache;
  hub::JobServer::Options opt;
  opt.capacity = 2;
  opt.cache = &cache;
  hub::JobServer server(opt);

  auto design = std::make_shared<rtl::Module>(rtl::designs::counter(8));
  const auto cfg = base_config();

  const auto id1 = server.submit(hub::make_flow_job("cold", design, cfg));
  ASSERT_TRUE(id1.ok());
  const auto rec1 = server.wait(*id1);
  ASSERT_TRUE(rec1.ok());
  EXPECT_EQ(rec1->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec1->cache_hits, 0u);

  const auto id2 = server.submit(hub::make_flow_job("warm", design, cfg));
  ASSERT_TRUE(id2.ok());
  const auto rec2 = server.wait(*id2);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec2->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec2->cache_hits, rec2->steps.size());

  // Mirrored metrics: deltas synced after each job.
  EXPECT_GE(server.metrics().counter("flow_cache_hits"), 1u);
  EXPECT_GT(server.metrics().counter("flow_cache_stores"), 0u);
  EXPECT_GT(server.metrics().gauge("flow_cache_entries"), 0.0);
  server.shutdown();
}

TEST(FlowCacheTest, SetCacheRebaselinesTheMetricsMirror) {
  // Regression: a cache attached AFTER construction (set_cache) must be
  // re-baselined exactly like one attached at construction — a server
  // joining a warm shared cache must not claim the pre-existing totals
  // as its own activity.
  flow::FlowCache cache;
  auto design = std::make_shared<rtl::Module>(rtl::designs::counter(8));
  auto warm_cfg = base_config();
  warm_cfg.cache = &cache;
  ASSERT_TRUE(flow::run_reference_flow(*design, warm_cfg).ok());
  const auto warm = cache.stats();
  ASSERT_GT(warm.stores, 0u);

  hub::JobServer::Options opt;
  opt.capacity = 1;  // constructed WITHOUT a cache
  hub::JobServer server(opt);
  server.set_cache(&cache);

  const auto id = server.submit(hub::make_flow_job("warm", design,
                                                   base_config()));
  ASSERT_TRUE(id.ok());
  const auto rec = server.wait(*id);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec->cache_hits, rec->steps.size()) << "cache must be attached";

  // The fully warm job stored nothing new: without re-baselining the
  // mirror would report the warm-up run's stores here.
  EXPECT_EQ(server.metrics().counter("flow_cache_stores"), 0u);
  EXPECT_GE(server.metrics().counter("flow_cache_hits"), 1u);

  // Detaching re-baselines too; later jobs run uncached.
  server.set_cache(nullptr);
  const auto id2 = server.submit(hub::make_flow_job("cold", design,
                                                    base_config()));
  ASSERT_TRUE(id2.ok());
  const auto rec2 = server.wait(*id2);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(rec2->state, hub::JobState::kSucceeded);
  EXPECT_EQ(rec2->cache_hits, 0u);
  server.shutdown();
}

}  // namespace
}  // namespace eurochip
