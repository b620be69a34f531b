#include "serve/request.hpp"

#include <functional>
#include <stdexcept>
#include <vector>

#include "core/canon.hpp"

namespace gia::serve {

namespace json = core::json;

namespace {

/// One field enumeration drives all three renderings (canonical text, JSON
/// emission, JSON parsing), so the canonicalization can never drift from
/// the wire format: adding a knob to `walk` updates hash, writer and reader
/// together.
template <typename V>
void walk(FlowRequest& r, V& v) {
  {
    std::string t = tech::short_name(r.tech);
    v.token("tech", t, [&r](const std::string& s) {
      if (!tech::parse_kind(s, &r.tech)) {
        throw std::runtime_error("flow_request: unknown tech \"" + s + "\"");
      }
    });
  }
  auto& o = r.options;
  {
    std::string m =
        o.partition_mode == core::PartitionMode::Hierarchical ? "hierarchical" : "flattened";
    v.token("partition_mode", m, [&o](const std::string& s) {
      if (s == "hierarchical") {
        o.partition_mode = core::PartitionMode::Hierarchical;
      } else if (s == "flattened") {
        o.partition_mode = core::PartitionMode::Flattened;
      } else {
        throw std::runtime_error("flow_request: unknown partition_mode \"" + s + "\"");
      }
    });
  }
  v.begin("openpiton");
  v.field("tiles", o.openpiton.tiles);
  v.field("cluster_cells", o.openpiton.cluster_cells);
  v.field("seed", o.openpiton.seed);
  v.field("intra_nets_per_cluster", o.openpiton.intra_nets_per_cluster);
  v.end();

  v.begin("serdes");
  v.field("ratio", o.serdes.ratio);
  v.field("min_bits", o.serdes.min_bits);
  v.field("cells_per_lane", o.serdes.cells_per_lane);
  v.field("latency_cycles", o.serdes.latency_cycles);
  v.end();

  v.begin("fm");
  v.field("balance_tolerance", o.fm.balance_tolerance);
  v.field("target_memory_fraction", o.fm.target_memory_fraction);
  v.field("max_passes", o.fm.max_passes);
  v.field("seed", o.fm.seed);
  v.end();

  v.begin("pnr");
  v.field("target_freq_hz", o.pnr.target_freq_hz);
  v.field("logic_depth", o.pnr.logic_depth);
  v.field("memory_depth", o.pnr.memory_depth);
  v.field("aib_area_per_lane_um2", o.pnr.aib_area_per_lane_um2);
  v.field("aib_duty", o.pnr.aib_duty);
  v.field("tsv_stack_wl_factor", o.pnr.tsv_stack_wl_factor);
  v.begin("placer");
  v.field("packing_util", o.pnr.placer.packing_util);
  v.field("moves_per_cluster", o.pnr.placer.moves_per_cluster);
  v.field("t_start_frac", o.pnr.placer.t_start_frac);
  v.field("cooling", o.pnr.placer.cooling);
  v.field("seed", o.pnr.placer.seed);
  v.end();
  v.begin("congestion");
  v.field("tracks_per_um_per_layer", o.pnr.congestion.tracks_per_um_per_layer);
  v.field("signal_layers", o.pnr.congestion.signal_layers);
  v.field("usable_fraction", o.pnr.congestion.usable_fraction);
  v.field("detour_slope", o.pnr.congestion.detour_slope);
  v.end();
  v.begin("timing");
  v.field("stage_drive_ohm", o.pnr.timing.stage_drive_ohm);
  v.field("crit_net_scale", o.pnr.timing.crit_net_scale);
  v.field("fanout", o.pnr.timing.fanout);
  v.end();
  v.end();

  v.begin("router");
  v.field("grid_nx", o.router.grid_nx);
  v.field("grid_ny", o.router.grid_ny);
  v.field("usable_track_fraction", o.router.usable_track_fraction);
  v.field("die_capacity_factor", o.router.die_capacity_factor);
  v.field("congestion_weight", o.router.congestion_weight);
  v.field("via_cost_um", o.router.via_cost_um);
  v.field("wrong_way_penalty", o.router.wrong_way_penalty);
  v.field("overflow_penalty", o.router.overflow_penalty);
  v.field("reroute_passes", o.router.reroute_passes);
  // Post-schema knob: emitted only when set so every pre-existing request
  // (not just all-default ones) keeps its key.
  v.field_opt("any_angle", o.router.any_angle, o.router.any_angle);
  v.end();

  v.begin("thermal_mesh");
  v.field("nx", o.thermal_mesh.nx);
  v.field("ny", o.thermal_mesh.ny);
  v.field("logic_power_w", o.thermal_mesh.logic_power_w);
  v.field("memory_power_w", o.thermal_mesh.memory_power_w);
  v.field("interposer_power_w", o.thermal_mesh.interposer_power_w);
  v.field("board_margin_frac", o.thermal_mesh.board_margin_frac);
  v.field("thermal_via_fraction", o.thermal_mesh.thermal_via_fraction);
  v.field("board_thickness_um", o.thermal_mesh.board_thickness_um);
  v.field("board_k", o.thermal_mesh.board_k);
  v.field("power_seed", o.thermal_mesh.power_seed);
  v.end();

  v.field("with_eyes", o.with_eyes);
  v.field("with_thermal", o.with_thermal);
  v.field("eye_bits", o.eye_bits);
  v.field("rollup_activity_scale", o.rollup_activity_scale);

  // Optional N-chiplet system block. An all-default block is omitted from
  // canonical text and JSON so the request hashes to the legacy (pre-system)
  // form; readers enter the block only when the wire document carries it.
  {
    auto& s = o.system;
    if (v.begin_optional("system", !s.is_default())) {
      v.field("chiplets", s.chiplets);
      {
        std::string a = chiplet::to_string(s.arrangement);
        v.token("arrangement", a, [&s](const std::string& t) {
          if (!chiplet::parse_arrangement(t, &s.arrangement)) {
            throw std::runtime_error("flow_request: unknown system.arrangement \"" + t + "\"");
          }
        });
      }
      v.field("memory_every", s.memory_every);
      v.field("die_scale", s.die_scale);
      v.field("power_scale", s.power_scale);
      v.field("memory_die_scale", s.memory_die_scale);
      v.field("memory_power_scale", s.memory_power_scale);
      v.field("pitch_scale", s.pitch_scale);
      v.token("placed", s.placed, [&s](const std::string& t) { s.placed = t; });
      // Post-schema knob (same rule as router.any_angle): only non-empty
      // die_sizes render, so pre-floorplan system requests keep their keys.
      v.token_opt("die_sizes", s.die_sizes, !s.die_sizes.empty(),
                  [&s](const std::string& t) { s.die_sizes = t; });
      v.end();
    }
  }
}

// The "section.subsection.key=value" canonical rendering is
// core::canon::Writer -- shared with the stage graph's per-stage keys
// (core/stagegraph.cpp), so request keys and stage keys can never drift in
// formatting.

struct JsonWriter {
  std::string& out;

  void begin(const char* name) { json::open(out, name); }
  bool begin_optional(const char* name, bool nondefault) {
    if (nondefault) begin(name);
    return nondefault;
  }
  void end() { json::close(out); }
  void token(const char* name, std::string& cur, const std::function<void(const std::string&)>&) {
    json::put_s(out, name, cur);
  }
  void token_opt(const char* name, std::string& cur, bool nondefault,
                 const std::function<void(const std::string&)>& set) {
    if (nondefault) token(name, cur, set);
  }
  template <typename T>
  void field_opt(const char* name, T& x, bool nondefault) {
    if (nondefault) field(name, x);
  }
  void field(const char* name, int& x) { json::put_i(out, name, x); }
  void field(const char* name, unsigned& x) { json::put_u(out, name, x); }
  void field(const char* name, bool& x) { json::put_b(out, name, x); }
  void field(const char* name, double& x) { json::put_d(out, name, x); }
};

/// Structure-directed reader: absent objects/fields keep defaults, present
/// ones must consume every key they carry (typos fail loudly instead of
/// silently hashing as a default request).
struct JsonReader {
  struct Frame {
    const json::Value* obj = nullptr;  ///< null: section absent, all defaults
    std::vector<std::string> consumed;
  };
  std::vector<Frame> stack;

  explicit JsonReader(const json::Value& root) { stack.push_back({&root, {}}); }

  const json::Value* get(const char* name) {
    Frame& f = stack.back();
    if (f.obj == nullptr) return nullptr;
    const json::Value* v = f.obj->find(name);
    if (v != nullptr) f.consumed.emplace_back(name);
    return v;
  }
  void begin(const char* name) {
    const json::Value* v = get(name);
    if (v != nullptr && v->kind != json::Value::Kind::Object) {
      throw std::runtime_error(std::string("flow_request: \"") + name + "\" must be an object");
    }
    stack.push_back({v, {}});
  }
  /// Present-in-document gates entry (not the writer-side default test): an
  /// explicitly spelled all-default block parses fine and still hashes to
  /// the legacy key, because re-rendering omits it.
  bool begin_optional(const char* name, bool) {
    const json::Value* v = get(name);
    if (v == nullptr) return false;
    if (v->kind != json::Value::Kind::Object) {
      throw std::runtime_error(std::string("flow_request: \"") + name + "\" must be an object");
    }
    stack.push_back({v, {}});
    return true;
  }
  void end() {
    check_consumed();
    stack.pop_back();
  }
  void check_consumed() {
    const Frame& f = stack.back();
    if (f.obj == nullptr) return;
    for (const auto& [k, v] : f.obj->obj) {
      bool found = false;
      for (const auto& c : f.consumed) {
        if (c == k) {
          found = true;
          break;
        }
      }
      if (!found) throw std::runtime_error("flow_request: unknown key \"" + k + "\"");
    }
  }
  void token(const char* name, std::string&, const std::function<void(const std::string&)>& set) {
    if (const json::Value* v = get(name)) set(v->str);
  }
  /// Optional knobs always probe the document; absent keeps the default.
  void token_opt(const char* name, std::string& cur, bool,
                 const std::function<void(const std::string&)>& set) {
    token(name, cur, set);
  }
  template <typename T>
  void field_opt(const char* name, T& x, bool) {
    field(name, x);
  }
  void field(const char* name, int& x) {
    if (const json::Value* v = get(name)) x = static_cast<int>(v->as_i64());
  }
  void field(const char* name, unsigned& x) {
    if (const json::Value* v = get(name)) x = static_cast<unsigned>(v->as_u64());
  }
  void field(const char* name, bool& x) {
    if (const json::Value* v = get(name)) x = v->as_bool();
  }
  void field(const char* name, double& x) {
    if (const json::Value* v = get(name)) x = v->as_double();
  }
};

}  // namespace

std::string canonical_text(const FlowRequest& req) {
  FlowRequest copy = req;
  core::canon::Writer w;
  walk(copy, w);
  return w.out;
}

std::uint64_t fnv1a64(const std::string& bytes) { return core::canon::fnv1a64(bytes); }

std::uint64_t request_key(const FlowRequest& req) { return fnv1a64(canonical_text(req)); }

std::string key_hex(std::uint64_t key) { return core::canon::key_hex(key); }

void write_request(const FlowRequest& req, std::string& out) {
  FlowRequest copy = req;
  JsonWriter w{out};
  json::open(out);
  walk(copy, w);
  json::close(out);
}

std::string request_to_json(const FlowRequest& req) {
  std::string out;
  json::open(out);
  json::key(out, "flow_request");
  write_request(req, out);
  json::close(out);
  return out;
}

FlowRequest request_from_value(const json::Value& v) {
  const json::Value* inner = v.find("flow_request");
  const json::Value& obj = inner != nullptr ? *inner : v;
  if (obj.kind != json::Value::Kind::Object) {
    throw std::runtime_error("flow_request: expected an object");
  }
  FlowRequest req;
  JsonReader r(obj);
  walk(req, r);
  r.check_consumed();
  return req;
}

FlowRequest request_from_json(const std::string& text) {
  return request_from_value(json::parse(text));
}

}  // namespace gia::serve
