// Wire-format (de)serialization of flow artifacts — the exchange format
// the federated second-level cache (fed::RemoteCache) stores in.
//
// Where FlowCache snapshots share in-memory artifacts, a federated hub
// needs artifacts as bytes. The L2 holds one blob per flow step, keyed by
// that step's cache key: serialize_blob() encodes only what the step added
// to its parent step's state (the artifacts it published and its step
// record) plus the parent's key, as a little-endian stream
// (util::WireWriter) with a magic/version header and a util::Digest
// trailer over the payload. A step's full state is the chain of blobs from
// a root (a blob without parent) to that step; Blob::open() verifies one
// link and names its parent, and Blob::apply() decodes it on top of the
// parent's rebuilt FlowArtifacts, publishing each new artifact as a fresh
// shared_ptr<const T> whose cross-references (mapped -> library, placed ->
// mapped, routed -> placed) point into that set.
//
// Determinism contract: serializing equal artifacts yields equal bytes,
// and a deserialized artifact is indistinguishable from the original to
// every downstream consumer — flow::digest_of() of a round-tripped
// netlist/placement/routing equals the original's digest (serialize_test
// enforces this per type and along whole chains). Corrupt or truncated
// input NEVER throws or crashes: it surfaces as a non-OK Status, which the
// cache tier treats as a miss.
//
// The per-type functions are exposed so tests can round-trip each artifact
// in isolation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/util/digest.hpp"
#include "eurochip/util/result.hpp"
#include "eurochip/util/wire.hpp"

namespace eurochip::flow {

/// Stream header: "ECFS" + format version. Bump the version on any layout
/// change; readers reject unknown versions (a federation can then roll
/// hubs forward without poisoning the shared cache).
inline constexpr std::uint32_t kWireMagic = 0x53464345u;  // "ECFS" LE
// v2: SoA netlist image; v3: routed geometry + dbg::SymbolTable;
// v4: one blob per step, holding only what the step added.
inline constexpr std::uint32_t kWireVersion = 4;

// --- per-artifact encoders ------------------------------------------------

void serialize(util::WireWriter& w, const netlist::CellLibrary& lib);
[[nodiscard]] util::Result<netlist::CellLibrary> deserialize_library(
    util::WireReader& r);

void serialize(util::WireWriter& w, const synth::Aig& aig);
/// Rebuilds by replaying the public construction API in node order; the
/// structural hash must reproduce every AND at its original id, so a
/// stream produced by a different strash implementation is rejected
/// rather than silently re-folded.
[[nodiscard]] util::Result<synth::Aig> deserialize_aig(util::WireReader& r);

void serialize(util::WireWriter& w, const netlist::Netlist& nl);
/// `library` is the (already deserialized) library the netlist indexes
/// into; borrowed, must outlive the netlist.
[[nodiscard]] util::Result<netlist::Netlist> deserialize_netlist(
    util::WireReader& r, const netlist::CellLibrary* library);

void serialize(util::WireWriter& w, const place::PlacedDesign& placed);
/// `netlist` is borrowed; net_pad_points is rebuilt, not shipped.
[[nodiscard]] util::Result<place::PlacedDesign> deserialize_placed(
    util::WireReader& r, const netlist::Netlist* netlist);

void serialize(util::WireWriter& w, const cts::ClockTree& tree);
[[nodiscard]] util::Result<cts::ClockTree> deserialize_clock_tree(
    util::WireReader& r);

void serialize(util::WireWriter& w, const route::RoutedDesign& routed);
[[nodiscard]] util::Result<route::RoutedDesign> deserialize_routed(
    util::WireReader& r, const place::PlacedDesign* placed);

void serialize(util::WireWriter& w, const timing::TimingReport& t);
[[nodiscard]] util::Result<timing::TimingReport> deserialize_timing(
    util::WireReader& r);

void serialize(util::WireWriter& w, const power::PowerReport& p);
[[nodiscard]] util::Result<power::PowerReport> deserialize_power(
    util::WireReader& r);

void serialize(util::WireWriter& w, const drc::DrcReport& d);
[[nodiscard]] util::Result<drc::DrcReport> deserialize_drc(
    util::WireReader& r);

void serialize(util::WireWriter& w, const std::vector<StepRecord>& steps);
[[nodiscard]] util::Result<std::vector<StepRecord>> deserialize_steps(
    util::WireReader& r);

void serialize(util::WireWriter& w, const dbg::SymbolTable& sym);
/// Every NameRef is validated against the shipped arena, so a corrupt
/// stream cannot produce out-of-range string views.
[[nodiscard]] util::Result<dbg::SymbolTable> deserialize_symbols(
    util::WireReader& r);

// --- per-step blobs (what RemoteCache stores) -----------------------------

/// The state a blob is encoded against: the parent step's cache key, the
/// artifacts stored under it and how many step records it holds.
struct BlobParent {
  util::Digest key;
  const FlowArtifacts* artifacts = nullptr;
  std::size_t steps = 0;
};

/// Encodes what `artifacts`/`steps` add on top of `parent` as one
/// self-verifying blob: each heap artifact whose pointer differs from the
/// parent's, each value report (timing, power, drc, gds) whose bytes
/// differ, and the step records past the parent's. Without a parent, or
/// when the state cannot be expressed against it (an artifact went null,
/// fewer step records), the blob is a root and carries the whole state.
[[nodiscard]] std::vector<std::uint8_t> serialize_blob(
    const FlowArtifacts& artifacts, const std::vector<StepRecord>& steps,
    const BlobParent* parent = nullptr);

/// A blob whose digest trailer, magic and version have been checked.
class Blob {
 public:
  /// Verifies the trailer before reading a byte of the payload, so a
  /// corrupt or truncated blob fails here with a Status.
  [[nodiscard]] static util::Result<Blob> open(
      std::vector<std::uint8_t> bytes);

  /// The parent step's key; empty for a root blob.
  [[nodiscard]] const std::optional<util::Digest>& parent() const {
    return parent_;
  }

  /// Decodes this step's artifacts and step records on top of the parent's
  /// rebuilt state in `artifacts`/`steps` (empty for a root). Slots the
  /// blob does not carry stay shared with the parent, and new artifacts'
  /// cross-references (mapped -> library, placed -> mapped, routed ->
  /// placed) resolve into the resulting set. On error the outputs may hold
  /// a partial state and must be discarded.
  [[nodiscard]] util::Status apply(FlowArtifacts& artifacts,
                                   std::vector<StepRecord>& steps) const;

 private:
  Blob() = default;

  std::vector<std::uint8_t> bytes_;
  std::optional<util::Digest> parent_;
  std::size_t body_ = 0;  ///< payload offset of the presence mask
};

}  // namespace eurochip::flow
