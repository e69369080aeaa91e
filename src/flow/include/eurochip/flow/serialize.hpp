// Wire-format (de)serialization of flow artifacts — the exchange format
// the federated second-level cache (fed::RemoteCache) stores snapshots in.
//
// Where FlowCache snapshots share in-memory artifacts, a federated hub
// needs artifacts as bytes: serialize_snapshot() flattens a FlowContext's
// artifacts + step records into a self-contained little-endian stream
// (util::WireWriter) with a magic/version header and a util::Digest
// trailer over the payload; deserialize_snapshot() verifies the trailer,
// publishes every artifact as a fresh shared_ptr<const T>, and points the
// cross-references (mapped -> library, placed -> mapped, routed -> placed)
// inside that set, the same shape a run's own FlowArtifacts have.
//
// Determinism contract: serializing equal artifacts yields equal bytes,
// and a deserialized artifact is indistinguishable from the original to
// every downstream consumer — flow::digest_of() of a round-tripped
// netlist/placement/routing equals the original's digest (serialize_test
// enforces this per type). Corrupt or truncated input NEVER throws or
// crashes: it surfaces as a non-OK Status, which the cache tier treats as
// a miss.
//
// The per-type functions are exposed (rather than just the snapshot pair)
// so tests can round-trip each artifact in isolation and so future remote
// services can ship individual artifacts.
#pragma once

#include <cstdint>
#include <vector>

#include "eurochip/flow/flow.hpp"
#include "eurochip/util/result.hpp"
#include "eurochip/util/wire.hpp"

namespace eurochip::flow {

/// Stream header: "ECFS" + format version. Bump the version on any layout
/// change; readers reject unknown versions (a federation can then roll
/// hubs forward without poisoning the shared cache).
inline constexpr std::uint32_t kWireMagic = 0x53464345u;  // "ECFS" LE
inline constexpr std::uint32_t kWireVersion =
    3;  // v2: SoA netlist image; v3: routed geometry + dbg::SymbolTable

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

// --- whole-snapshot convenience (what RemoteCache stores) -----------------

/// Flattens ctx.artifacts (except the borrowed `design` pointer) and
/// ctx.steps into one self-verifying byte stream.
[[nodiscard]] std::vector<std::uint8_t> serialize_snapshot(
    const FlowContext& ctx);

/// Verifies the digest trailer and header, then rebuilds artifacts +
/// steps into `ctx` (ctx.artifacts.design is left untouched). On any
/// error `ctx` may hold a partial restore and must be discarded.
[[nodiscard]] util::Status deserialize_snapshot(
    const std::vector<std::uint8_t>& bytes, FlowContext& ctx);

}  // namespace eurochip::flow
