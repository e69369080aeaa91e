// Wire-format round trips for every flow artifact (flow/serialize.hpp):
// a deserialized artifact must be indistinguishable from the original —
// equal content digests where digest_of exists, byte-identical
// re-serialization everywhere — chains of per-step blobs must rebuild every
// state while shipping each artifact once, and corrupt/truncated streams
// must be rejected with a Status, never a crash.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eurochip/flow/fingerprint.hpp"
#include "eurochip/flow/flow.hpp"
#include "eurochip/flow/serialize.hpp"
#include "eurochip/pdk/registry.hpp"
#include "eurochip/rtl/designs.hpp"
#include "eurochip/util/wire.hpp"

namespace eurochip {
namespace {

// One reference-flow run on a sequential design (counter has flops, so
// every artifact — clock tree included — is populated), shared by all
// round-trip tests.
struct Baked {
  std::unique_ptr<rtl::Module> design;
  flow::FlowContext ctx;
};

const Baked& baked() {
  static const Baked* b = [] {
    auto* out = new Baked;
    out->design = std::make_unique<rtl::Module>(rtl::designs::counter(8));
    flow::FlowConfig cfg;
    cfg.node = pdk::standard_node("sky130ish").value();
    cfg.quality = flow::FlowQuality::kOpen;
    cfg.seed = 11;
    auto res = flow::run_reference_flow(*out->design, cfg);
    if (!res.ok()) {
      ADD_FAILURE() << "reference flow failed: " << res.status().to_string();
    } else {
      out->ctx.config = cfg;
      out->ctx.artifacts = std::move(res->artifacts);
      out->ctx.steps = std::move(res->steps);
    }
    out->ctx.artifacts.design = out->design.get();
    return out;
  }();
  return *b;
}

template <typename T>
std::vector<std::uint8_t> bytes_of(const T& value) {
  util::WireWriter w;
  flow::serialize(w, value);
  return std::move(w).take();
}

TEST(SerializeTest, LibraryRoundTripIsByteStable) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.library, nullptr);
  const auto bytes = bytes_of(*a.library);
  util::WireReader r(bytes);
  auto lib = flow::deserialize_library(r);
  ASSERT_TRUE(lib.ok()) << lib.status().to_string();
  EXPECT_EQ(lib->name(), a.library->name());
  EXPECT_EQ(lib->size(), a.library->size());
  EXPECT_EQ(bytes_of(*lib), bytes);  // re-encoding is the identity
}

TEST(SerializeTest, AigRoundTripIsByteStable) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.aig, nullptr);
  const auto bytes = bytes_of(*a.aig);
  util::WireReader r(bytes);
  auto aig = flow::deserialize_aig(r);
  ASSERT_TRUE(aig.ok()) << aig.status().to_string();
  EXPECT_EQ(aig->num_nodes(), a.aig->num_nodes());
  EXPECT_EQ(bytes_of(*aig), bytes);
}

TEST(SerializeTest, NetlistRoundTripPreservesDigest) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.mapped, nullptr);
  const auto bytes = bytes_of(*a.mapped);
  util::WireReader r(bytes);
  auto nl = flow::deserialize_netlist(r, a.library.get());
  ASSERT_TRUE(nl.ok()) << nl.status().to_string();
  EXPECT_EQ(flow::digest_of(*nl), flow::digest_of(*a.mapped));
  EXPECT_EQ(bytes_of(*nl), bytes);
}

TEST(SerializeTest, PlacedRoundTripPreservesDigest) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.placed, nullptr);
  const auto bytes = bytes_of(*a.placed);
  util::WireReader r(bytes);
  auto placed = flow::deserialize_placed(r, a.mapped.get());
  ASSERT_TRUE(placed.ok()) << placed.status().to_string();
  EXPECT_EQ(flow::digest_of(*placed), flow::digest_of(*a.placed));
  EXPECT_EQ(bytes_of(*placed), bytes);
}

TEST(SerializeTest, ClockTreeRoundTripIsByteStable) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.clock_tree, nullptr) << "counter is sequential; CTS expected";
  const auto bytes = bytes_of(*a.clock_tree);
  util::WireReader r(bytes);
  auto tree = flow::deserialize_clock_tree(r);
  ASSERT_TRUE(tree.ok()) << tree.status().to_string();
  EXPECT_EQ(tree->num_sinks, a.clock_tree->num_sinks);
  EXPECT_EQ(bytes_of(*tree), bytes);
}

TEST(SerializeTest, RoutedRoundTripPreservesDigest) {
  const auto& a = baked().ctx.artifacts;
  ASSERT_NE(a.routed, nullptr);
  const auto bytes = bytes_of(*a.routed);
  util::WireReader r(bytes);
  auto routed = flow::deserialize_routed(r, a.placed.get());
  ASSERT_TRUE(routed.ok()) << routed.status().to_string();
  EXPECT_EQ(flow::digest_of(*routed), flow::digest_of(*a.routed));
  EXPECT_EQ(bytes_of(*routed), bytes);
}

TEST(SerializeTest, ReportsRoundTripByteStable) {
  const auto& a = baked().ctx.artifacts;
  {
    const auto bytes = bytes_of(a.timing);
    util::WireReader r(bytes);
    auto t = flow::deserialize_timing(r);
    ASSERT_TRUE(t.ok()) << t.status().to_string();
    EXPECT_EQ(t->wns_ps, a.timing.wns_ps);
    EXPECT_EQ(t->endpoints.size(), a.timing.endpoints.size());
    EXPECT_EQ(bytes_of(*t), bytes);
  }
  {
    const auto bytes = bytes_of(a.power);
    util::WireReader r(bytes);
    auto p = flow::deserialize_power(r);
    ASSERT_TRUE(p.ok()) << p.status().to_string();
    EXPECT_EQ(p->total_uw, a.power.total_uw);
    EXPECT_EQ(bytes_of(*p), bytes);
  }
  {
    const auto bytes = bytes_of(a.drc);
    util::WireReader r(bytes);
    auto d = flow::deserialize_drc(r);
    ASSERT_TRUE(d.ok()) << d.status().to_string();
    EXPECT_EQ(d->violations.size(), a.drc.violations.size());
    EXPECT_EQ(bytes_of(*d), bytes);
  }
  {
    const auto bytes = bytes_of(baked().ctx.steps);
    util::WireReader r(bytes);
    auto s = flow::deserialize_steps(r);
    ASSERT_TRUE(s.ok()) << s.status().to_string();
    ASSERT_EQ(s->size(), baked().ctx.steps.size());
    for (std::size_t i = 0; i < s->size(); ++i) {
      EXPECT_EQ((*s)[i].name, baked().ctx.steps[i].name);
    }
    EXPECT_EQ(bytes_of(*s), bytes);
  }
}

/// Decodes a root blob onto an empty state.
util::Status decode_root(const std::vector<std::uint8_t>& bytes,
                         flow::FlowContext& out) {
  auto blob = flow::Blob::open(bytes);
  if (!blob.ok()) return blob.status();
  if (blob->parent()) return util::Status::Internal("not a root blob");
  return blob->apply(out.artifacts, out.steps);
}

TEST(SerializeSnapshotTest, RoundTripPreservesEveryArtifact) {
  const Baked& b = baked();
  const auto bytes = flow::serialize_blob(b.ctx.artifacts, b.ctx.steps);
  ASSERT_GT(bytes.size(), 24u);

  flow::FlowContext out;
  out.artifacts.design = b.design.get();
  const auto st = decode_root(bytes, out);
  ASSERT_TRUE(st.ok()) << st.to_string();

  ASSERT_NE(out.artifacts.mapped, nullptr);
  ASSERT_NE(out.artifacts.placed, nullptr);
  ASSERT_NE(out.artifacts.routed, nullptr);
  EXPECT_EQ(flow::digest_of(*out.artifacts.mapped),
            flow::digest_of(*b.ctx.artifacts.mapped));
  EXPECT_EQ(flow::digest_of(*out.artifacts.placed),
            flow::digest_of(*b.ctx.artifacts.placed));
  EXPECT_EQ(flow::digest_of(*out.artifacts.routed),
            flow::digest_of(*b.ctx.artifacts.routed));
  EXPECT_EQ(out.artifacts.gds_bytes, b.ctx.artifacts.gds_bytes);
  EXPECT_EQ(out.steps.size(), b.ctx.steps.size());
  EXPECT_EQ(out.artifacts.design, b.design.get());  // borrowed ptr untouched
  // Cross-references point inside the decoded set.
  EXPECT_EQ(&out.artifacts.mapped->library(), out.artifacts.library.get());
  EXPECT_EQ(out.artifacts.placed->netlist, out.artifacts.mapped.get());
  EXPECT_EQ(out.artifacts.routed->placed, out.artifacts.placed.get());

  // Serialization is deterministic: the decoded state re-encodes to the
  // identical byte stream (the property the content-addressed remote
  // cache relies on).
  EXPECT_EQ(flow::serialize_blob(out.artifacts, out.steps), bytes);
}

TEST(SerializeSnapshotTest, EveryTruncationIsRejectedCleanly) {
  const auto bytes =
      flow::serialize_blob(baked().ctx.artifacts, baked().ctx.steps);
  // Every prefix must fail with a Status (digest trailer or bounds check),
  // never crash. Stride keeps the loop fast on multi-KB streams.
  const std::size_t stride = bytes.size() / 257 + 1;
  for (std::size_t len = 0; len < bytes.size(); len += stride) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    flow::FlowContext out;
    EXPECT_FALSE(decode_root(prefix, out).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(SerializeSnapshotTest, EveryByteFlipIsRejected) {
  const auto bytes =
      flow::serialize_blob(baked().ctx.artifacts, baked().ctx.steps);
  const std::size_t stride = bytes.size() / 97 + 1;
  for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
    auto corrupt = bytes;
    corrupt[pos] ^= 0x5Au;
    flow::FlowContext out;
    EXPECT_FALSE(decode_root(corrupt, out).ok())
        << "flip at byte " << pos << " decoded";
  }
}

/// Appends the digest trailer a well-formed blob ends with.
std::vector<std::uint8_t> sealed(std::vector<std::uint8_t> payload) {
  const auto d = util::checksum(payload.data(), payload.size());
  util::WireWriter trailer;
  trailer.u64(d.hi);
  trailer.u64(d.lo);
  for (auto byte : std::move(trailer).take()) payload.push_back(byte);
  return payload;
}

TEST(SerializeSnapshotTest, WrongVersionIsRejected) {
  // A stream whose digest is valid but whose version is unknown must be
  // rejected by the header check, not mis-parsed.
  util::WireWriter w;
  w.u32(flow::kWireMagic);
  w.u32(flow::kWireVersion + 1);
  w.boolean(false);  // no parent
  w.u32(0);          // empty slot mask
  w.size(0);         // no step records
  EXPECT_FALSE(flow::Blob::open(sealed(std::move(w).take())).ok());
}

TEST(SerializeBlobTest, BodyPastTheSealedHeaderIsStillBoundsChecked) {
  // A valid trailer over a malformed body: the slot mask names unknown
  // slots, or an artifact is cut short. apply() must fail, not crash.
  for (const std::uint32_t mask : {1u << 20, 1u << 2, 1u << 10}) {
    util::WireWriter w;
    w.u32(flow::kWireMagic).u32(flow::kWireVersion);
    w.boolean(false);
    w.u32(mask);
    w.u64(1u << 30);  // a length prefix far past the end
    auto blob = flow::Blob::open(sealed(std::move(w).take()));
    ASSERT_TRUE(blob.ok()) << blob.status().to_string();
    flow::FlowContext out;
    EXPECT_FALSE(blob->apply(out.artifacts, out.steps).ok()) << mask;
  }
}

// --- chains of per-step blobs ----------------------------------------------

/// The baked run's final state split into the states after each step that
/// publishes a slot, sharing pointers exactly as a run does: each state
/// adds one artifact (and one step record) on top of the previous one.
std::vector<flow::FlowContext> staged_states() {
  const flow::FlowArtifacts& full = baked().ctx.artifacts;
  const std::vector<flow::StepRecord>& steps = baked().ctx.steps;
  std::vector<flow::FlowContext> states;
  flow::FlowContext cur;
  const auto push = [&] {
    cur.steps.assign(steps.begin(),
                     steps.begin() + static_cast<long>(std::min(
                                         states.size() + 1, steps.size())));
    states.push_back(cur);
  };
  cur.artifacts.library = full.library;
  push();
  cur.artifacts.symbols = full.symbols;
  push();
  cur.artifacts.aig = full.aig;
  push();
  cur.artifacts.mapped = full.mapped;
  push();
  cur.artifacts.placed = full.placed;
  push();
  cur.artifacts.clock_tree = full.clock_tree;
  push();
  cur.artifacts.routed = full.routed;
  push();
  cur.artifacts.timing = full.timing;
  push();
  cur.artifacts.power = full.power;
  push();
  cur.artifacts.drc = full.drc;
  push();
  cur.artifacts.gds_bytes = full.gds_bytes;
  push();
  return states;
}

util::Digest link_key(std::size_t i) {
  util::Hasher h;
  h.str("link").u64(i);
  return h.finalize();
}

std::vector<std::vector<std::uint8_t>> encode_chain(
    const std::vector<flow::FlowContext>& states) {
  std::vector<std::vector<std::uint8_t>> blobs;
  for (std::size_t i = 0; i < states.size(); ++i) {
    if (i == 0) {
      blobs.push_back(
          flow::serialize_blob(states[0].artifacts, states[0].steps));
      continue;
    }
    const flow::BlobParent parent{link_key(i - 1), &states[i - 1].artifacts,
                                  states[i - 1].steps.size()};
    blobs.push_back(flow::serialize_blob(states[i].artifacts,
                                         states[i].steps, &parent));
  }
  return blobs;
}

TEST(SerializeBlobTest, ChainOfDeltasRebuildsEveryState) {
  const auto states = staged_states();
  const auto blobs = encode_chain(states);
  const auto full = flow::serialize_blob(baked().ctx.artifacts,
                                         baked().ctx.steps);
  flow::FlowContext out;
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    SCOPED_TRACE("link " + std::to_string(i));
    auto blob = flow::Blob::open(blobs[i]);
    ASSERT_TRUE(blob.ok()) << blob.status().to_string();
    if (i == 0) {
      EXPECT_FALSE(blob->parent().has_value());
    } else {
      ASSERT_TRUE(blob->parent().has_value());
      EXPECT_EQ(*blob->parent(), link_key(i - 1));
    }
    const flow::FlowArtifacts before = out.artifacts;
    ASSERT_TRUE(blob->apply(out.artifacts, out.steps).ok());
    // The link replaced only its own slot; the rest is the parent's.
    if (before.library) EXPECT_EQ(out.artifacts.library, before.library);
    if (before.mapped) EXPECT_EQ(out.artifacts.mapped, before.mapped);
    if (before.placed) EXPECT_EQ(out.artifacts.placed, before.placed);
    EXPECT_EQ(out.steps.size(), states[i].steps.size());
    // A delta is cheaper than re-encoding the whole state.
    if (i > 0) EXPECT_LT(blobs[i].size(), full.size());
    // Re-encoding the decoded state as a root matches the original's.
    EXPECT_EQ(flow::serialize_blob(out.artifacts, out.steps),
              flow::serialize_blob(states[i].artifacts, states[i].steps));
  }
  const flow::FlowArtifacts& want = baked().ctx.artifacts;
  EXPECT_EQ(flow::digest_of(*out.artifacts.routed),
            flow::digest_of(*want.routed));
  EXPECT_EQ(out.artifacts.routed->placed, out.artifacts.placed.get());
  EXPECT_EQ(out.artifacts.placed->netlist, out.artifacts.mapped.get());
  EXPECT_EQ(&out.artifacts.mapped->library(), out.artifacts.library.get());
  std::size_t chain_bytes = 0;
  for (const auto& b : blobs) chain_bytes += b.size();
  // Each artifact ships once: the whole chain is about one root's size.
  EXPECT_LT(chain_bytes, full.size() + blobs.size() * 64);
}

TEST(SerializeBlobTest, UnchangedStateEncodesAnEmptyDelta) {
  const auto states = staged_states();
  const flow::FlowContext& last = states.back();
  const flow::BlobParent parent{link_key(0), &last.artifacts,
                                last.steps.size()};
  const auto bytes = flow::serialize_blob(last.artifacts, last.steps, &parent);
  // Header, parent key, mask, record count and trailer only.
  EXPECT_EQ(bytes.size(), 8u + 1u + 16u + 4u + 8u + 16u);
  auto blob = flow::Blob::open(bytes);
  ASSERT_TRUE(blob.ok());
  flow::FlowContext out = last;
  ASSERT_TRUE(blob->apply(out.artifacts, out.steps).ok());
  EXPECT_EQ(out.artifacts.routed, last.artifacts.routed);
  EXPECT_EQ(out.steps.size(), last.steps.size());
}

TEST(SerializeBlobTest, DroppedArtifactEncodesARoot) {
  const auto states = staged_states();
  flow::FlowContext child = states.back();
  child.artifacts.routed = nullptr;  // not expressible as an addition
  const flow::BlobParent parent{link_key(0), &states.back().artifacts,
                                states.back().steps.size()};
  auto blob = flow::Blob::open(
      flow::serialize_blob(child.artifacts, child.steps, &parent));
  ASSERT_TRUE(blob.ok());
  EXPECT_FALSE(blob->parent().has_value());
  flow::FlowContext out;
  ASSERT_TRUE(blob->apply(out.artifacts, out.steps).ok());
  EXPECT_EQ(out.artifacts.routed, nullptr);
  ASSERT_NE(out.artifacts.placed, nullptr);
  EXPECT_EQ(flow::digest_of(*out.artifacts.placed),
            flow::digest_of(*child.artifacts.placed));
}

TEST(SerializeBlobTest, EveryLinkRejectsFlipsAndTruncations) {
  const auto blobs = encode_chain(staged_states());
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    const auto& bytes = blobs[i];
    const std::size_t stride = bytes.size() / 31 + 1;
    for (std::size_t pos = 0; pos < bytes.size(); pos += stride) {
      auto corrupt = bytes;
      corrupt[pos] ^= 0x5Au;
      EXPECT_FALSE(flow::Blob::open(corrupt).ok())
          << "link " << i << ": flip at byte " << pos << " opened";
      std::vector<std::uint8_t> prefix(bytes.begin(),
                                       bytes.begin() + static_cast<long>(pos));
      EXPECT_FALSE(flow::Blob::open(prefix).ok())
          << "link " << i << ": prefix of " << pos << " bytes opened";
    }
  }
}

}  // namespace
}  // namespace eurochip
