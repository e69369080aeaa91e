#include "eurochip/flow/serialize.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <unordered_map>
#include <utility>

#include "eurochip/util/digest.hpp"

namespace eurochip::flow {

namespace {

util::Status bad(const std::string& what) {
  return util::Status::Internal("wire: " + what);
}

void write_point(util::WireWriter& w, const util::Point& p) {
  w.i64(p.x).i64(p.y);
}

util::Point read_point(util::WireReader& r) {
  util::Point p;
  p.x = r.i64();
  p.y = r.i64();
  return p;
}

void write_rect(util::WireWriter& w, const util::Rect& rect) {
  w.i64(rect.lx).i64(rect.ly).i64(rect.ux).i64(rect.uy);
}

util::Rect read_rect(util::WireReader& r) {
  util::Rect rect;
  rect.lx = r.i64();
  rect.ly = r.i64();
  rect.ux = r.i64();
  rect.uy = r.i64();
  return rect;
}

void write_doubles(util::WireWriter& w, const std::vector<double>& v) {
  w.size(v.size());
  for (const double x : v) w.f64(x);
}

std::vector<double> read_doubles(util::WireReader& r) {
  const std::size_t n = r.size();
  std::vector<double> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) v.push_back(r.f64());
  return v;
}

void write_table(util::WireWriter& w, const netlist::NldmTable& t) {
  write_doubles(w, t.slew_axis());
  write_doubles(w, t.load_axis());
  write_doubles(w, t.values());
}

/// NldmTable's constructor throws on inconsistent grids, so the vectors
/// are validated here first and a corrupt stream fails the reader instead.
util::Result<netlist::NldmTable> read_table(util::WireReader& r) {
  std::vector<double> slew = read_doubles(r);
  std::vector<double> load = read_doubles(r);
  std::vector<double> values = read_doubles(r);
  if (!r.ok()) return bad("truncated NLDM table");
  if (slew.empty() && load.empty() && values.empty()) {
    return netlist::NldmTable();  // default-constructed empty table
  }
  if (slew.empty() || load.empty() ||
      values.size() != slew.size() * load.size() ||
      !std::is_sorted(slew.begin(), slew.end()) ||
      !std::is_sorted(load.begin(), load.end())) {
    r.fail();
    return bad("inconsistent NLDM table");
  }
  return netlist::NldmTable(std::move(slew), std::move(load),
                            std::move(values));
}

}  // namespace

// --- CellLibrary ----------------------------------------------------------

void serialize(util::WireWriter& w, const netlist::CellLibrary& lib) {
  w.str(lib.name()).str(lib.node_name());
  w.i64(lib.row_height_dbu()).i64(lib.site_width_dbu());
  w.size(lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const netlist::LibraryCell& c = lib.cell(i);
    w.str(c.name).u8(static_cast<std::uint8_t>(c.fn));
    w.i64(c.drive_strength);
    w.f64(c.area_um2).f64(c.leakage_nw).f64(c.input_cap_ff);
    w.f64(c.output_cap_ff).f64(c.max_load_ff);
    w.i64(c.width_dbu);
    write_table(w, c.delay_ps);
    write_table(w, c.output_slew_ps);
  }
}

util::Result<netlist::CellLibrary> deserialize_library(util::WireReader& r) {
  std::string name = r.str();
  std::string node_name = r.str();
  const std::int64_t row_height = r.i64();
  const std::int64_t site_width = r.i64();
  netlist::CellLibrary lib(std::move(name), std::move(node_name), row_height,
                           site_width);
  const std::size_t n = r.size();
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    netlist::LibraryCell c;
    c.name = r.str();
    const std::uint8_t fn = r.u8();
    if (fn > static_cast<std::uint8_t>(netlist::CellFn::kDff)) {
      return bad("unknown cell function");
    }
    c.fn = static_cast<netlist::CellFn>(fn);
    c.drive_strength = static_cast<int>(r.i64());
    c.area_um2 = r.f64();
    c.leakage_nw = r.f64();
    c.input_cap_ff = r.f64();
    c.output_cap_ff = r.f64();
    c.max_load_ff = r.f64();
    c.width_dbu = r.i64();
    auto delay = read_table(r);
    if (!delay.ok()) return delay.status();
    c.delay_ps = std::move(*delay);
    auto slew = read_table(r);
    if (!slew.ok()) return slew.status();
    c.output_slew_ps = std::move(*slew);
    lib.add_cell(std::move(c));
  }
  if (!r.ok()) return bad("truncated library");
  return lib;
}

// --- Aig ------------------------------------------------------------------

void serialize(util::WireWriter& w, const synth::Aig& aig) {
  // Names live in parallel vectors keyed by position; index them by node
  // id once so the node loop stays O(1) per node.
  std::unordered_map<std::uint32_t, const std::string*> name_of;
  for (std::size_t i = 0; i < aig.inputs().size(); ++i) {
    name_of[aig.inputs()[i]] = &aig.input_names()[i];
  }
  for (std::size_t i = 0; i < aig.latches().size(); ++i) {
    name_of[aig.latches()[i]] = &aig.latch_names()[i];
  }
  w.size(aig.num_nodes());
  for (std::uint32_t id = 1; id < aig.num_nodes(); ++id) {
    const synth::AigNode& node = aig.node(id);
    w.u8(static_cast<std::uint8_t>(node.kind));
    switch (node.kind) {
      case synth::NodeKind::kInput:
        w.str(*name_of.at(id));
        break;
      case synth::NodeKind::kLatch:
        w.str(*name_of.at(id)).boolean(aig.latch_init(id));
        break;
      case synth::NodeKind::kAnd:
        w.u32(node.fanin0).u32(node.fanin1);
        break;
      case synth::NodeKind::kConst:
        break;  // only node 0; never reached for id >= 1
    }
  }
  w.size(aig.latches().size());
  for (const std::uint32_t latch : aig.latches()) {
    w.u32(aig.latch_next(latch));
  }
  w.size(aig.outputs().size());
  for (const synth::AigOutput& out : aig.outputs()) {
    w.str(out.name).u32(out.lit);
  }
}

util::Result<synth::Aig> deserialize_aig(util::WireReader& r) {
  synth::Aig aig;
  const std::size_t num_nodes = r.size();
  if (r.ok() && num_nodes == 0) return bad("AIG without constant node");
  for (std::uint32_t id = 1; id < num_nodes && r.ok(); ++id) {
    const std::uint8_t kind = r.u8();
    switch (static_cast<synth::NodeKind>(kind)) {
      case synth::NodeKind::kInput: {
        const synth::Lit lit = aig.add_input(r.str());
        if (synth::lit_node(lit) != id) return bad("AIG input id drift");
        break;
      }
      case synth::NodeKind::kLatch: {
        std::string name = r.str();
        const bool init = r.boolean();
        const synth::Lit lit = aig.add_latch(std::move(name), init);
        if (synth::lit_node(lit) != id) return bad("AIG latch id drift");
        break;
      }
      case synth::NodeKind::kAnd: {
        const synth::Lit f0 = r.u32();
        const synth::Lit f1 = r.u32();
        if (synth::lit_node(f0) >= id || synth::lit_node(f1) >= id) {
          return bad("AIG fanin ahead of node");
        }
        // Replay through the structural hash: the original graph already
        // survived folding, so and_() must recreate this exact node. Any
        // drift means the stream and this strash disagree — reject rather
        // than return a structurally different graph under the same key.
        const synth::Lit lit = aig.and_(f0, f1);
        if (lit != synth::make_lit(id, false)) {
          return bad("AIG strash replay mismatch");
        }
        break;
      }
      default:
        return bad("unknown AIG node kind");
    }
  }
  const std::size_t num_latches = r.size();
  if (r.ok() && num_latches != aig.latches().size()) {
    return bad("AIG latch count mismatch");
  }
  for (std::size_t i = 0; i < num_latches && r.ok(); ++i) {
    const synth::Lit next = r.u32();
    if (synth::lit_node(next) >= aig.num_nodes()) {
      return bad("AIG latch next out of range");
    }
    aig.set_latch_next(synth::make_lit(aig.latches()[i], false), next);
  }
  const std::size_t num_outputs = r.size();
  for (std::size_t i = 0; i < num_outputs && r.ok(); ++i) {
    std::string name = r.str();
    const synth::Lit lit = r.u32();
    if (synth::lit_node(lit) >= aig.num_nodes()) {
      return bad("AIG output out of range");
    }
    aig.add_output(std::move(name), lit);
  }
  if (!r.ok()) return bad("truncated AIG");
  return aig;
}

// --- Netlist --------------------------------------------------------------

// v2 codec: the netlist ships as its raw SoA image — one interned-name
// arena plus flat arrays (see netlist::RawNetlist) — so encode/decode is a
// handful of tight loops over PODs instead of per-object string and vector
// traffic. Sinks are written explicitly in chain order rather than rebuilt
// from fanins on load: rewire history leaves sinks ordered differently
// than pin-order reconstruction would, and digests hash sink order, so a
// round trip must preserve it to stay digest-equal.

void serialize(util::WireWriter& w, const netlist::Netlist& nl) {
  const netlist::RawNetlist raw = nl.to_raw();
  w.str(nl.name());
  w.str(raw.name_arena);
  w.size(raw.cell_lib.size());
  for (const netlist::NameRef n : raw.cell_name) w.u32(n.offset).u32(n.size);
  for (const std::uint32_t lib : raw.cell_lib) w.u32(lib);
  for (const std::uint32_t off : raw.cell_fanin_begin) w.u32(off);
  for (const netlist::NetId f : raw.fanin_pool) w.u32(f.value);
  for (const netlist::NetId o : raw.cell_output) w.u32(o.value);
  w.size(raw.net_driver_kind.size());
  for (const netlist::NameRef n : raw.net_name) w.u32(n.offset).u32(n.size);
  for (const netlist::DriverKind k : raw.net_driver_kind) {
    w.u8(static_cast<std::uint8_t>(k));
  }
  for (const netlist::CellId c : raw.net_driver_cell) w.u32(c.value);
  for (const std::uint8_t b : raw.net_is_output) w.u8(b);
  for (const std::uint32_t off : raw.sink_begin) w.u32(off);
  for (const netlist::PinRef& s : raw.sink_pool) w.u32(s.cell.value).u8(s.pin);
  const auto write_ports = [&w](const std::vector<netlist::Port>& ports) {
    w.size(ports.size());
    for (const netlist::Port& p : ports) w.str(p.name).u32(p.net.value);
  };
  write_ports(nl.inputs());
  write_ports(nl.outputs());
}

util::Result<netlist::Netlist> deserialize_netlist(
    util::WireReader& r, const netlist::CellLibrary* library) {
  if (library == nullptr) return bad("netlist without library");
  std::string name = r.str();
  netlist::RawNetlist raw;
  raw.name_arena = r.str();
  const std::size_t num_cells = r.size();
  raw.cell_name.reserve(num_cells);
  for (std::size_t i = 0; i < num_cells && r.ok(); ++i) {
    const std::uint32_t off = r.u32();
    raw.cell_name.push_back(netlist::NameRef{off, r.u32()});
  }
  raw.cell_lib.reserve(num_cells);
  for (std::size_t i = 0; i < num_cells && r.ok(); ++i) {
    raw.cell_lib.push_back(r.u32());
    if (r.ok() && raw.cell_lib.back() >= library->size()) {
      return bad("cell library index out of range");
    }
  }
  raw.cell_fanin_begin.reserve(num_cells + 1);
  for (std::size_t i = 0; i < num_cells + 1 && r.ok(); ++i) {
    raw.cell_fanin_begin.push_back(r.u32());
  }
  const std::size_t num_fanins =
      r.ok() && !raw.cell_fanin_begin.empty() ? raw.cell_fanin_begin.back() : 0;
  raw.fanin_pool.reserve(num_fanins);
  for (std::size_t i = 0; i < num_fanins && r.ok(); ++i) {
    raw.fanin_pool.push_back(netlist::NetId{r.u32()});
  }
  raw.cell_output.reserve(num_cells);
  for (std::size_t i = 0; i < num_cells && r.ok(); ++i) {
    raw.cell_output.push_back(netlist::NetId{r.u32()});
  }
  const std::size_t num_nets = r.size();
  raw.net_name.reserve(num_nets);
  for (std::size_t i = 0; i < num_nets && r.ok(); ++i) {
    const std::uint32_t off = r.u32();
    raw.net_name.push_back(netlist::NameRef{off, r.u32()});
  }
  raw.net_driver_kind.reserve(num_nets);
  for (std::size_t i = 0; i < num_nets && r.ok(); ++i) {
    const std::uint8_t kind = r.u8();
    if (r.ok() &&
        kind > static_cast<std::uint8_t>(netlist::DriverKind::kConst1)) {
      return bad("unknown net driver kind");
    }
    raw.net_driver_kind.push_back(static_cast<netlist::DriverKind>(kind));
  }
  raw.net_driver_cell.reserve(num_nets);
  for (std::size_t i = 0; i < num_nets && r.ok(); ++i) {
    raw.net_driver_cell.push_back(netlist::CellId{r.u32()});
  }
  raw.net_is_output.reserve(num_nets);
  for (std::size_t i = 0; i < num_nets && r.ok(); ++i) {
    raw.net_is_output.push_back(r.u8());
  }
  raw.sink_begin.reserve(num_nets + 1);
  for (std::size_t i = 0; i < num_nets + 1 && r.ok(); ++i) {
    raw.sink_begin.push_back(r.u32());
  }
  const std::size_t num_sinks =
      r.ok() && !raw.sink_begin.empty() ? raw.sink_begin.back() : 0;
  raw.sink_pool.reserve(num_sinks);
  for (std::size_t i = 0; i < num_sinks && r.ok(); ++i) {
    const std::uint32_t cell = r.u32();
    raw.sink_pool.push_back(
        netlist::PinRef{netlist::CellId{cell}, r.u8()});
  }
  const auto read_ports = [&r](std::vector<netlist::Port>& ports) {
    const std::size_t n = r.size();
    ports.reserve(n);
    for (std::size_t i = 0; i < n && r.ok(); ++i) {
      netlist::Port p;
      p.name = r.str();
      p.net = netlist::NetId{r.u32()};
      ports.push_back(std::move(p));
    }
  };
  read_ports(raw.inputs);
  read_ports(raw.outputs);
  if (!r.ok()) return bad("truncated netlist");
  for (const netlist::Port& p : raw.inputs) {
    if (p.net.valid() && p.net.value >= num_nets) {
      return bad("input port net out of range");
    }
  }
  for (const netlist::Port& p : raw.outputs) {
    if (p.net.valid() && p.net.value >= num_nets) {
      return bad("output port net out of range");
    }
  }
  // from_raw validates the shape (CSR monotonicity, name refs inside the
  // arena, ids in range); callers run check() for semantic invariants.
  return netlist::Netlist::from_raw(library, std::move(name), std::move(raw));
}

// --- PlacedDesign ---------------------------------------------------------

void serialize(util::WireWriter& w, const place::PlacedDesign& placed) {
  const place::Floorplan& fp = placed.floorplan;
  write_rect(w, fp.die());
  write_rect(w, fp.core());
  w.size(fp.rows().size());
  for (const place::Row& row : fp.rows()) write_rect(w, row.bounds);
  w.i64(fp.site_width()).i64(fp.row_height()).f64(fp.utilization());
  const auto write_points = [&w](const std::vector<util::Point>& pts) {
    w.size(pts.size());
    for (const util::Point& p : pts) write_point(w, p);
  };
  write_points(placed.cell_origin);
  write_points(placed.input_pad);
  write_points(placed.output_pad);
  // net_pad_points is derived; the reader rebuilds it via build_pad_index.
}

util::Result<place::PlacedDesign> deserialize_placed(
    util::WireReader& r, const netlist::Netlist* netlist) {
  place::PlacedDesign placed;
  placed.netlist = netlist;
  const util::Rect die = read_rect(r);
  const util::Rect core = read_rect(r);
  const std::size_t num_rows = r.size();
  std::vector<place::Row> rows;
  rows.reserve(num_rows);
  for (std::size_t i = 0; i < num_rows && r.ok(); ++i) {
    rows.push_back(place::Row{read_rect(r)});
  }
  const std::int64_t site_width = r.i64();
  const std::int64_t row_height = r.i64();
  const double utilization = r.f64();
  placed.floorplan = place::Floorplan::from_raw(
      die, core, std::move(rows), site_width, row_height, utilization);
  const auto read_points = [&r](std::vector<util::Point>& pts) {
    const std::size_t n = r.size();
    pts.reserve(n);
    for (std::size_t i = 0; i < n && r.ok(); ++i) {
      pts.push_back(read_point(r));
    }
  };
  read_points(placed.cell_origin);
  read_points(placed.input_pad);
  read_points(placed.output_pad);
  if (!r.ok()) return bad("truncated placement");
  if (netlist != nullptr) {
    if (placed.cell_origin.size() != netlist->num_cells() ||
        placed.input_pad.size() != netlist->inputs().size() ||
        placed.output_pad.size() != netlist->outputs().size()) {
      return bad("placement does not match netlist shape");
    }
    placed.build_pad_index();
  }
  return placed;
}

// --- ClockTree ------------------------------------------------------------

void serialize(util::WireWriter& w, const cts::ClockTree& tree) {
  w.size(tree.nodes.size());
  for (const cts::TreeNode& n : tree.nodes) {
    write_point(w, n.location);
    w.size(n.children.size());
    for (const std::uint32_t c : n.children) w.u32(c);
    w.size(n.sinks.size());
    for (const netlist::CellId s : n.sinks) w.u32(s.value);
    w.i64(n.level).f64(n.segment_length_um);
  }
  w.u64(tree.num_sinks);  // scalar count, not a container prefix
  w.i64(tree.buffer_count).i64(tree.depth);
  w.f64(tree.total_wirelength_um);
  w.f64(tree.max_insertion_delay_ps).f64(tree.min_insertion_delay_ps);
  w.f64(tree.clock_cap_ff);
}

util::Result<cts::ClockTree> deserialize_clock_tree(util::WireReader& r) {
  cts::ClockTree tree;
  const std::size_t num_nodes = r.size();
  tree.nodes.reserve(num_nodes);
  for (std::size_t i = 0; i < num_nodes && r.ok(); ++i) {
    cts::TreeNode n;
    n.location = read_point(r);
    const std::size_t children = r.size();
    n.children.reserve(children);
    for (std::size_t k = 0; k < children && r.ok(); ++k) {
      const std::uint32_t c = r.u32();
      if (c >= num_nodes) return bad("clock-tree child out of range");
      n.children.push_back(c);
    }
    const std::size_t sinks = r.size();
    n.sinks.reserve(sinks);
    for (std::size_t k = 0; k < sinks && r.ok(); ++k) {
      n.sinks.push_back(netlist::CellId{r.u32()});
    }
    n.level = static_cast<int>(r.i64());
    n.segment_length_um = r.f64();
    tree.nodes.push_back(std::move(n));
  }
  tree.num_sinks = static_cast<std::size_t>(r.u64());
  tree.buffer_count = static_cast<int>(r.i64());
  tree.depth = static_cast<int>(r.i64());
  tree.total_wirelength_um = r.f64();
  tree.max_insertion_delay_ps = r.f64();
  tree.min_insertion_delay_ps = r.f64();
  tree.clock_cap_ff = r.f64();
  if (!r.ok()) return bad("truncated clock tree");
  return tree;
}

// --- RoutedDesign ---------------------------------------------------------

void serialize(util::WireWriter& w, const route::RoutedDesign& routed) {
  w.size(routed.nets.size());
  for (const route::NetRoute& n : routed.nets) {
    w.u32(n.net.value).i64(n.wirelength_dbu).i64(n.vias).boolean(n.routed);
    // v3: the per-net geometry (bend waypoints in gcell coordinates plus
    // the CSR segment index) the debug service renders net_route from.
    w.size(n.waypoints.size());
    for (const route::RoutePoint& p : n.waypoints) {
      w.i64(p.x).i64(p.y);
    }
    w.size(n.seg_begin.size());
    for (const std::uint32_t s : n.seg_begin) w.u32(s);
  }
  w.i64(routed.gcell_dbu);
  w.i64(routed.total_wirelength_dbu).i64(routed.total_vias);
  w.i64(routed.overflowed_edges).i64(routed.iterations_used);
  w.f64(routed.max_congestion);
}

util::Result<route::RoutedDesign> deserialize_routed(
    util::WireReader& r, const place::PlacedDesign* placed) {
  route::RoutedDesign routed;
  routed.placed = placed;
  const std::size_t num_nets = r.size();
  routed.nets.reserve(num_nets);
  for (std::size_t i = 0; i < num_nets && r.ok(); ++i) {
    route::NetRoute n;
    n.net = netlist::NetId{r.u32()};
    n.wirelength_dbu = r.i64();
    n.vias = static_cast<int>(r.i64());
    n.routed = r.boolean();
    const std::size_t num_waypoints = r.size();
    n.waypoints.reserve(num_waypoints);
    for (std::size_t k = 0; k < num_waypoints && r.ok(); ++k) {
      route::RoutePoint p;
      p.x = static_cast<std::int32_t>(r.i64());
      p.y = static_cast<std::int32_t>(r.i64());
      n.waypoints.push_back(p);
    }
    const std::size_t num_segs = r.size();
    n.seg_begin.reserve(num_segs);
    for (std::size_t k = 0; k < num_segs && r.ok(); ++k) {
      const std::uint32_t s = r.u32();
      if (r.ok() && s > n.waypoints.size()) {
        return bad("routing segment index out of range");
      }
      n.seg_begin.push_back(s);
    }
    routed.nets.push_back(std::move(n));
  }
  routed.gcell_dbu = r.i64();
  routed.total_wirelength_dbu = r.i64();
  routed.total_vias = static_cast<int>(r.i64());
  routed.overflowed_edges = static_cast<int>(r.i64());
  routed.iterations_used = static_cast<int>(r.i64());
  routed.max_congestion = r.f64();
  if (!r.ok()) return bad("truncated routing");
  return routed;
}

// --- reports --------------------------------------------------------------

void serialize(util::WireWriter& w, const timing::TimingReport& t) {
  w.f64(t.wns_ps).f64(t.tns_ps).f64(t.clock_period_ps);
  w.f64(t.critical_path_delay_ps).f64(t.fmax_mhz);
  w.size(t.endpoints.size());
  for (const timing::Endpoint& e : t.endpoints) {
    w.str(e.name).f64(e.arrival_ps).f64(e.required_ps).f64(e.slack_ps);
  }
  w.size(t.critical_path.size());
  for (const timing::PathStep& s : t.critical_path) {
    w.str(s.point).f64(s.arrival_ps).f64(s.incr_ps);
  }
  w.u64(t.num_endpoints);  // scalar count
  w.f64(t.worst_hold_slack_ps);
  w.u64(t.hold_violations);  // scalar count
}

util::Result<timing::TimingReport> deserialize_timing(util::WireReader& r) {
  timing::TimingReport t;
  t.wns_ps = r.f64();
  t.tns_ps = r.f64();
  t.clock_period_ps = r.f64();
  t.critical_path_delay_ps = r.f64();
  t.fmax_mhz = r.f64();
  const std::size_t endpoints = r.size();
  t.endpoints.reserve(endpoints);
  for (std::size_t i = 0; i < endpoints && r.ok(); ++i) {
    timing::Endpoint e;
    e.name = r.str();
    e.arrival_ps = r.f64();
    e.required_ps = r.f64();
    e.slack_ps = r.f64();
    t.endpoints.push_back(std::move(e));
  }
  const std::size_t path = r.size();
  t.critical_path.reserve(path);
  for (std::size_t i = 0; i < path && r.ok(); ++i) {
    timing::PathStep s;
    s.point = r.str();
    s.arrival_ps = r.f64();
    s.incr_ps = r.f64();
    t.critical_path.push_back(std::move(s));
  }
  t.num_endpoints = static_cast<std::size_t>(r.u64());
  t.worst_hold_slack_ps = r.f64();
  t.hold_violations = static_cast<std::size_t>(r.u64());
  if (!r.ok()) return bad("truncated timing report");
  return t;
}

void serialize(util::WireWriter& w, const power::PowerReport& p) {
  w.f64(p.dynamic_uw).f64(p.leakage_uw).f64(p.clock_tree_uw);
  w.f64(p.total_uw).f64(p.average_activity);
  w.u64(p.nets_analyzed);  // scalar count
}

util::Result<power::PowerReport> deserialize_power(util::WireReader& r) {
  power::PowerReport p;
  p.dynamic_uw = r.f64();
  p.leakage_uw = r.f64();
  p.clock_tree_uw = r.f64();
  p.total_uw = r.f64();
  p.average_activity = r.f64();
  p.nets_analyzed = static_cast<std::size_t>(r.u64());
  if (!r.ok()) return bad("truncated power report");
  return p;
}

void serialize(util::WireWriter& w, const drc::DrcReport& d) {
  w.size(d.violations.size());
  for (const drc::Violation& v : d.violations) {
    w.u8(static_cast<std::uint8_t>(v.kind)).str(v.detail);
  }
  w.u64(d.cells_checked);  // scalar count
  w.u64(d.nets_checked);  // scalar count
}

util::Result<drc::DrcReport> deserialize_drc(util::WireReader& r) {
  drc::DrcReport d;
  const std::size_t n = r.size();
  d.violations.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(drc::ViolationKind::kOverflow)) {
      return bad("unknown DRC violation kind");
    }
    drc::Violation v;
    v.kind = static_cast<drc::ViolationKind>(kind);
    v.detail = r.str();
    d.violations.push_back(std::move(v));
  }
  d.cells_checked = static_cast<std::size_t>(r.u64());
  d.nets_checked = static_cast<std::size_t>(r.u64());
  if (!r.ok()) return bad("truncated DRC report");
  return d;
}

namespace {

void write_step(util::WireWriter& w, const StepRecord& s) {
  w.str(s.name).f64(s.runtime_ms).str(s.detail).boolean(s.cached);
}

}  // namespace

void serialize(util::WireWriter& w, const std::vector<StepRecord>& steps) {
  w.size(steps.size());
  for (const StepRecord& s : steps) write_step(w, s);
}

util::Result<std::vector<StepRecord>> deserialize_steps(util::WireReader& r) {
  const std::size_t n = r.size();
  std::vector<StepRecord> steps;
  steps.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    StepRecord s;
    s.name = r.str();
    s.runtime_ms = r.f64();
    s.detail = r.str();
    s.cached = r.boolean();
    steps.push_back(std::move(s));
  }
  if (!r.ok()) return bad("truncated step records");
  return steps;
}

// --- SymbolTable (wire v3) ------------------------------------------------

namespace {

void write_nameref(util::WireWriter& w, const netlist::NameRef& n) {
  w.u32(n.offset).u32(n.size);
}

void write_namerefs(util::WireWriter& w,
                    const std::vector<netlist::NameRef>& v) {
  w.size(v.size());
  for (const netlist::NameRef& n : v) write_nameref(w, n);
}

/// Reads a NameRef and bounds-checks it against the already-read arena, so
/// a corrupt stream can never mint a view outside it.
netlist::NameRef read_nameref(util::WireReader& r, std::size_t arena_size) {
  netlist::NameRef n;
  n.offset = r.u32();
  n.size = r.u32();
  if (r.ok() && (n.offset > arena_size || n.size > arena_size - n.offset)) {
    r.fail();
  }
  return n;
}

std::vector<netlist::NameRef> read_namerefs(util::WireReader& r,
                                            std::size_t arena_size) {
  const std::size_t n = r.size();
  std::vector<netlist::NameRef> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n && r.ok(); ++i) {
    v.push_back(read_nameref(r, arena_size));
  }
  return v;
}

}  // namespace

void serialize(util::WireWriter& w, const dbg::SymbolTable& sym) {
  w.str(sym.arena());
  w.u8(sym.stage_mask);
  w.size(sym.rtl_signals.size());
  for (const dbg::SymbolTable::RtlSignal& s : sym.rtl_signals) {
    write_nameref(w, s.name);
    w.u8(s.kind).i64(s.width);
  }
  w.size(sym.bits.size());
  for (const dbg::SymbolTable::Bit& b : sym.bits) {
    write_nameref(w, b.name);
    w.u8(static_cast<std::uint8_t>(b.kind));
    w.u32(b.net.value).u32(b.cell.value);
  }
  w.size(sym.cell_origin.size());
  for (const std::uint8_t o : sym.cell_origin) w.u8(o);
  write_nameref(w, sym.module_name);
  write_nameref(w, sym.clock_name);
  write_namerefs(w, sym.input_names);
  write_namerefs(w, sym.output_names);
  write_namerefs(w, sym.net_names);
  write_namerefs(w, sym.instance_names);
  write_doubles(w, sym.arrival_ps);
  write_doubles(w, sym.arrival_min_ps);
  w.size(sym.net_driven.size());
  for (const std::uint8_t d : sym.net_driven) w.u8(d);
}

util::Result<dbg::SymbolTable> deserialize_symbols(util::WireReader& r) {
  dbg::SymbolTable sym;
  sym.set_arena(r.str());
  const std::size_t arena_size = sym.arena().size();
  sym.stage_mask = r.u8();
  const std::size_t num_signals = r.size();
  sym.rtl_signals.reserve(num_signals);
  for (std::size_t i = 0; i < num_signals && r.ok(); ++i) {
    dbg::SymbolTable::RtlSignal s;
    s.name = read_nameref(r, arena_size);
    s.kind = r.u8();
    s.width = static_cast<std::int32_t>(r.i64());
    sym.rtl_signals.push_back(s);
  }
  const std::size_t num_bits = r.size();
  sym.bits.reserve(num_bits);
  for (std::size_t i = 0; i < num_bits && r.ok(); ++i) {
    dbg::SymbolTable::Bit b;
    b.name = read_nameref(r, arena_size);
    const std::uint8_t kind = r.u8();
    if (r.ok() &&
        kind > static_cast<std::uint8_t>(dbg::SymbolTable::BitKind::kReg)) {
      return bad("unknown symbol bit kind");
    }
    b.kind = static_cast<dbg::SymbolTable::BitKind>(kind);
    b.net = netlist::NetId{r.u32()};
    b.cell = netlist::CellId{r.u32()};
    sym.bits.push_back(b);
  }
  const std::size_t num_origins = r.size();
  sym.cell_origin.reserve(num_origins);
  for (std::size_t i = 0; i < num_origins && r.ok(); ++i) {
    sym.cell_origin.push_back(r.u8());
  }
  sym.module_name = read_nameref(r, arena_size);
  sym.clock_name = read_nameref(r, arena_size);
  sym.input_names = read_namerefs(r, arena_size);
  sym.output_names = read_namerefs(r, arena_size);
  sym.net_names = read_namerefs(r, arena_size);
  sym.instance_names = read_namerefs(r, arena_size);
  sym.arrival_ps = read_doubles(r);
  sym.arrival_min_ps = read_doubles(r);
  const std::size_t num_driven = r.size();
  sym.net_driven.reserve(num_driven);
  for (std::size_t i = 0; i < num_driven && r.ok(); ++i) {
    sym.net_driven.push_back(r.u8());
  }
  if (!r.ok()) return bad("truncated symbol table");
  return sym;
}

// --- per-step blobs -------------------------------------------------------

namespace {

/// One presence bit per artifact slot, in encoding order.
constexpr std::uint32_t kLibrary = 1u << 0;
constexpr std::uint32_t kAig = 1u << 1;
constexpr std::uint32_t kMapped = 1u << 2;
constexpr std::uint32_t kPlaced = 1u << 3;
constexpr std::uint32_t kClockTree = 1u << 4;
constexpr std::uint32_t kRouted = 1u << 5;
constexpr std::uint32_t kSymbols = 1u << 6;
constexpr std::uint32_t kTiming = 1u << 7;
constexpr std::uint32_t kPower = 1u << 8;
constexpr std::uint32_t kDrc = 1u << 9;
constexpr std::uint32_t kGds = 1u << 10;
constexpr std::uint32_t kAllSlots = (1u << 11) - 1;

constexpr std::size_t kTrailerBytes = 16;

template <typename T>
std::uint32_t if_new(std::uint32_t bit, const std::shared_ptr<const T>& mine,
                     const std::shared_ptr<const T>& parents) {
  return mine && mine != parents ? bit : 0;
}

/// Value reports are compared by their encoding, i.e. bit for bit.
template <typename T>
std::uint32_t if_new(std::uint32_t bit, const T& mine, const T& parents) {
  util::WireWriter a;
  util::WireWriter b;
  serialize(a, mine);
  serialize(b, parents);
  return a.buffer() != b.buffer() ? bit : 0;
}

/// True when `a` lacks an artifact `parent` holds, which a blob of
/// additions cannot express.
bool drops_a_slot(const FlowArtifacts& a, const FlowArtifacts& parent) {
  return (parent.library && !a.library) || (parent.aig && !a.aig) ||
         (parent.mapped && !a.mapped) || (parent.placed && !a.placed) ||
         (parent.clock_tree && !a.clock_tree) ||
         (parent.routed && !a.routed) || (parent.symbols && !a.symbols);
}

/// Publishes a decoded artifact into its slot, or passes the error on.
template <typename T>
util::Status put(util::Result<T> decoded, std::shared_ptr<const T>& slot) {
  if (!decoded.ok()) return decoded.status();
  slot = std::make_shared<const T>(std::move(*decoded));
  return util::Status::Ok();
}

template <typename T>
util::Status put(util::Result<T> decoded, T& slot) {
  if (!decoded.ok()) return decoded.status();
  slot = std::move(*decoded);
  return util::Status::Ok();
}

}  // namespace

std::vector<std::uint8_t> serialize_blob(const FlowArtifacts& a,
                                         const std::vector<StepRecord>& steps,
                                         const BlobParent* parent) {
  if (parent != nullptr && (drops_a_slot(a, *parent->artifacts) ||
                            steps.size() < parent->steps)) {
    parent = nullptr;  // encode a root instead
  }
  // A root is encoded against the empty state.
  const FlowArtifacts empty;
  const FlowArtifacts& p = parent != nullptr ? *parent->artifacts : empty;
  const std::size_t first_step = parent != nullptr ? parent->steps : 0;

  util::WireWriter w;
  w.u32(kWireMagic).u32(kWireVersion);
  w.boolean(parent != nullptr);
  if (parent != nullptr) w.u64(parent->key.hi).u64(parent->key.lo);
  const std::uint32_t mask =
      if_new(kLibrary, a.library, p.library) | if_new(kAig, a.aig, p.aig) |
      if_new(kMapped, a.mapped, p.mapped) |
      if_new(kPlaced, a.placed, p.placed) |
      if_new(kClockTree, a.clock_tree, p.clock_tree) |
      if_new(kRouted, a.routed, p.routed) |
      if_new(kSymbols, a.symbols, p.symbols) |
      if_new(kTiming, a.timing, p.timing) |
      if_new(kPower, a.power, p.power) | if_new(kDrc, a.drc, p.drc) |
      (a.gds_bytes != p.gds_bytes ? kGds : 0u);
  w.u32(mask);
  if (mask & kLibrary) serialize(w, *a.library);
  if (mask & kAig) serialize(w, *a.aig);
  if (mask & kMapped) serialize(w, *a.mapped);
  if (mask & kPlaced) serialize(w, *a.placed);
  if (mask & kClockTree) serialize(w, *a.clock_tree);
  if (mask & kRouted) serialize(w, *a.routed);
  if (mask & kSymbols) serialize(w, *a.symbols);
  if (mask & kTiming) serialize(w, a.timing);
  if (mask & kPower) serialize(w, a.power);
  if (mask & kDrc) serialize(w, a.drc);
  if (mask & kGds) w.blob(a.gds_bytes);
  w.size(steps.size() - first_step);
  for (std::size_t i = first_step; i < steps.size(); ++i) {
    write_step(w, steps[i]);
  }

  // Self-verification trailer: the transfer path (a remote cache, someday
  // a real network) is the one place bytes can rot undetected.
  const util::Digest d = util::checksum(w.buffer().data(), w.buffer().size());
  w.u64(d.hi).u64(d.lo);
  return w.take();
}

util::Result<Blob> Blob::open(std::vector<std::uint8_t> bytes) {
  if (bytes.size() < kTrailerBytes + 8 + 1 + 4) return bad("blob too short");
  const std::size_t payload_size = bytes.size() - kTrailerBytes;
  const util::Digest computed = util::checksum(bytes.data(), payload_size);
  util::WireReader trailer(bytes.data() + payload_size, kTrailerBytes);
  const util::Digest stored{trailer.u64(), trailer.u64()};
  if (!(computed == stored)) return bad("blob checksum mismatch");

  util::WireReader r(bytes.data(), payload_size);
  if (r.u32() != kWireMagic) return bad("bad blob magic");
  if (r.u32() != kWireVersion) return bad("unsupported blob version");
  Blob blob;
  if (r.boolean()) {
    util::Digest parent;
    parent.hi = r.u64();
    parent.lo = r.u64();
    blob.parent_ = parent;
  }
  if (!r.ok()) return bad("truncated blob header");
  blob.body_ = payload_size - r.remaining();
  blob.bytes_ = std::move(bytes);
  return blob;
}

util::Status Blob::apply(FlowArtifacts& a,
                         std::vector<StepRecord>& steps) const {
  util::WireReader r(bytes_.data() + body_,
                     bytes_.size() - kTrailerBytes - body_);
  const std::uint32_t mask = r.u32();
  if (!r.ok() || (mask & ~kAllSlots) != 0) return bad("bad blob slot mask");
  util::Status s;
  const auto has = [&](std::uint32_t slot) {
    return s.ok() && (mask & slot) != 0;
  };
  if (has(kLibrary)) s = put(deserialize_library(r), a.library);
  if (has(kAig)) s = put(deserialize_aig(r), a.aig);
  if (has(kMapped)) s = put(deserialize_netlist(r, a.library.get()), a.mapped);
  if (has(kPlaced)) {
    s = a.mapped ? put(deserialize_placed(r, a.mapped.get()), a.placed)
                 : bad("placement without netlist");
  }
  if (has(kClockTree)) s = put(deserialize_clock_tree(r), a.clock_tree);
  if (has(kRouted)) {
    s = a.placed ? put(deserialize_routed(r, a.placed.get()), a.routed)
                 : bad("routing without placement");
  }
  if (has(kSymbols)) s = put(deserialize_symbols(r), a.symbols);
  if (has(kTiming)) s = put(deserialize_timing(r), a.timing);
  if (has(kPower)) s = put(deserialize_power(r), a.power);
  if (has(kDrc)) s = put(deserialize_drc(r), a.drc);
  if (has(kGds)) a.gds_bytes = r.blob();
  if (!s.ok()) return s;
  auto added = deserialize_steps(r);
  if (!added.ok()) return added.status();
  steps.insert(steps.end(), std::make_move_iterator(added->begin()),
               std::make_move_iterator(added->end()));
  if (!r.ok()) return bad("truncated blob");
  if (r.remaining() != 0) return bad("trailing bytes in blob");
  return util::Status::Ok();
}

}  // namespace eurochip::flow
