#include "dse/space.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "chiplet/system.hpp"
#include "core/canon.hpp"
#include "tech/technology.hpp"

namespace gia::dse {

namespace json = core::json;

namespace {

/// Registry row plus the binding that writes an axis value into a request.
/// Token and numeric setters are separate slots so the table stays a plain
/// aggregate of function pointers.
struct KnobBinding {
  KnobInfo info;
  void (*set_token)(serve::FlowRequest&, const std::string&) = nullptr;
  void (*set_num)(serve::FlowRequest&, double) = nullptr;
};

void set_tech(serve::FlowRequest& r, const std::string& s) {
  if (!tech::parse_kind(s, &r.tech)) {
    throw std::runtime_error("search space: unknown tech \"" + s + "\"");
  }
}

void set_arrangement(serve::FlowRequest& r, const std::string& s) {
  if (!chiplet::parse_arrangement(s, &r.options.system.arrangement)) {
    throw std::runtime_error("search space: unknown system.arrangement \"" + s + "\"");
  }
}

void set_die_sizes(serve::FlowRequest& r, const std::string& s) {
  r.options.system.die_sizes = s;
  // Eager syntax check (arity against chiplets is validated per point):
  // malformed axis values fail at spec-parse time, not mid-search.
  r.options.system.parsed_die_sizes();
}

const std::vector<KnobBinding>& bindings() {
  using R = serve::FlowRequest;
  static const std::vector<KnobBinding> table = {
      {{"tech", KnobType::Token}, set_tech, nullptr},
      {{"system.arrangement", KnobType::Token}, set_arrangement, nullptr},
      {{"system.chiplets", KnobType::Int}, nullptr,
       [](R& r, double v) { r.options.system.chiplets = static_cast<int>(v); }},
      {{"system.memory_every", KnobType::Int}, nullptr,
       [](R& r, double v) { r.options.system.memory_every = static_cast<int>(v); }},
      {{"system.pitch_scale", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.system.pitch_scale = v; }},
      {{"system.die_scale", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.system.die_scale = v; }},
      {{"system.power_scale", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.system.power_scale = v; }},
      {{"system.memory_die_scale", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.system.memory_die_scale = v; }},
      {{"system.memory_power_scale", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.system.memory_power_scale = v; }},
      {{"system.die_sizes", KnobType::Token}, set_die_sizes, nullptr},
      {{"serdes.ratio", KnobType::Int}, nullptr,
       [](R& r, double v) { r.options.serdes.ratio = static_cast<int>(v); }},
      {{"pnr.target_freq_hz", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.pnr.target_freq_hz = v; }},
      {{"router.congestion_weight", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.router.congestion_weight = v; }},
      {{"router.reroute_passes", KnobType::Int}, nullptr,
       [](R& r, double v) { r.options.router.reroute_passes = static_cast<int>(v); }},
      {{"router.any_angle", KnobType::Int}, nullptr,
       [](R& r, double v) { r.options.router.any_angle = v != 0.0; }},
      {{"thermal_mesh.thermal_via_fraction", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.thermal_mesh.thermal_via_fraction = v; }},
      {{"thermal_mesh.board_k", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.thermal_mesh.board_k = v; }},
      {{"thermal_mesh.logic_power_w", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.thermal_mesh.logic_power_w = v; }},
      {{"thermal_mesh.memory_power_w", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.thermal_mesh.memory_power_w = v; }},
      {{"eye_bits", KnobType::Int}, nullptr,
       [](R& r, double v) { r.options.eye_bits = static_cast<int>(v); }},
      {{"rollup_activity_scale", KnobType::Double}, nullptr,
       [](R& r, double v) { r.options.rollup_activity_scale = v; }},
  };
  return table;
}

const KnobBinding* binding_of(const std::string& name) {
  for (const auto& b : bindings()) {
    if (name == b.info.name) return &b;
  }
  return nullptr;
}

void apply_axis(serve::FlowRequest& r, const Axis& axis, std::size_t vi) {
  const KnobBinding* b = binding_of(axis.knob);
  if (b == nullptr) throw std::runtime_error("search space: unknown knob \"" + axis.knob + "\"");
  if (axis.type == KnobType::Token) {
    b->set_token(r, axis.tokens.at(vi));
  } else {
    b->set_num(r, axis.values.at(vi));
  }
}

std::string fmt_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string fmt_exact(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

[[noreturn]] void fail(const std::string& msg) { throw std::runtime_error("search: " + msg); }

/// Every key of `obj` must appear in `allowed` (strict reader contract).
void check_keys(const json::Value& obj, std::initializer_list<const char*> allowed,
                const char* where) {
  for (const auto& [k, v] : obj.obj) {
    bool found = false;
    for (const char* a : allowed) found |= (k == a);
    if (!found) fail(std::string(where) + ": unknown key \"" + k + "\"");
  }
}

/// Parse one axis value document (array or range object) against its knob.
Axis parse_axis(const std::string& name, const json::Value& v) {
  KnobInfo info;
  if (!knob_lookup(name, &info)) {
    fail("space: unknown knob \"" + name + "\" (not in the axis registry)");
  }
  Axis axis;
  axis.knob = name;
  axis.type = info.type;

  if (v.kind == json::Value::Kind::Array) {
    if (v.arr.empty()) fail("space." + name + ": axis must not be empty");
    for (const auto& e : v.arr) {
      if (info.type == KnobType::Token) {
        if (e.kind != json::Value::Kind::String) {
          fail("space." + name + ": token axis values must be strings");
        }
        // Validate the token eagerly: a typo'd technology fails at parse
        // time, not after half the search has run.
        serve::FlowRequest probe;
        binding_of(name)->set_token(probe, e.str);
        axis.tokens.push_back(e.str);
      } else {
        if (e.kind != json::Value::Kind::Number) {
          fail("space." + name + ": numeric axis values must be numbers");
        }
        const double x = e.as_double();
        if (!std::isfinite(x)) fail("space." + name + ": values must be finite");
        if (info.type == KnobType::Int && x != std::floor(x)) {
          fail("space." + name + ": integer knob requires integral values");
        }
        axis.values.push_back(x);
      }
    }
  } else if (v.kind == json::Value::Kind::Object) {
    if (info.type == KnobType::Token) {
      fail("space." + name + ": token axes take an array of names, not a range");
    }
    check_keys(v, {"min", "max", "steps", "scale"}, ("space." + name).c_str());
    const json::Value* pmin = v.find("min");
    const json::Value* pmax = v.find("max");
    const json::Value* psteps = v.find("steps");
    if (pmin == nullptr || pmax == nullptr || psteps == nullptr) {
      fail("space." + name + ": range needs min, max and steps");
    }
    const double lo = pmin->as_double(), hi = pmax->as_double();
    const std::int64_t steps = psteps->as_i64();
    bool log_scale = false;
    if (const json::Value* ps = v.find("scale")) {
      if (ps->str == "log") {
        log_scale = true;
      } else if (ps->str != "linear") {
        fail("space." + name + ": scale must be \"linear\" or \"log\"");
      }
    }
    if (!std::isfinite(lo) || !std::isfinite(hi) || lo >= hi) {
      fail("space." + name + ": range needs finite min < max");
    }
    if (steps < 2 || steps > 4096) fail("space." + name + ": steps must be in [2, 4096]");
    if (log_scale && lo <= 0) fail("space." + name + ": log scale needs min > 0");
    for (std::int64_t i = 0; i < steps; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(steps - 1);
      double x = log_scale ? std::exp(std::log(lo) + t * (std::log(hi) - std::log(lo)))
                           : lo + t * (hi - lo);
      if (info.type == KnobType::Int) x = std::round(x);
      axis.values.push_back(x);
    }
  } else {
    fail("space." + name + ": axis must be an array or a range object");
  }

  // Duplicate values would multiply the space without adding points.
  if (info.type == KnobType::Token) {
    for (std::size_t i = 0; i < axis.tokens.size(); ++i) {
      for (std::size_t j = i + 1; j < axis.tokens.size(); ++j) {
        if (axis.tokens[i] == axis.tokens[j]) {
          fail("space." + name + ": duplicate value \"" + axis.tokens[i] + "\"");
        }
      }
    }
  } else {
    for (std::size_t i = 0; i + 1 < axis.values.size(); ++i) {
      for (std::size_t j = i + 1; j < axis.values.size(); ++j) {
        if (axis.values[i] == axis.values[j]) {
          fail("space." + name + ": duplicate value " + fmt_g(axis.values[i]) +
               (info.type == KnobType::Int ? " (steps too fine for an integer knob?)" : ""));
        }
      }
    }
  }
  return axis;
}

core::Direction parse_direction(const std::string& s) {
  if (s == "min") return core::Direction::Minimize;
  if (s == "max") return core::Direction::Maximize;
  fail("objectives: direction must be \"min\" or \"max\", got \"" + s + "\"");
}

void require_known_metric(const std::string& metric, const char* where) {
  for (const auto& m : known_metrics()) {
    if (m == metric) return;
  }
  fail(std::string(where) + ": unknown metric \"" + metric + "\"");
}

}  // namespace

const std::vector<KnobInfo>& knob_registry() {
  static const std::vector<KnobInfo> reg = [] {
    std::vector<KnobInfo> r;
    for (const auto& b : bindings()) r.push_back(b.info);
    return r;
  }();
  return reg;
}

bool knob_lookup(const std::string& name, KnobInfo* out) {
  const KnobBinding* b = binding_of(name);
  if (b == nullptr) return false;
  *out = b->info;
  return true;
}

const std::vector<std::string>& known_metrics() {
  static const std::vector<std::string> m = {"power_mW",      "cost_usd",  "area_mm2",
                                             "fmax_MHz",      "hotspot_C", "eye_opening",
                                             "energy_pj_bit"};
  return m;
}

std::uint64_t SearchSpace::size() const {
  std::uint64_t n = 1;
  for (const auto& a : axes) {
    const std::uint64_t s = a.size();
    if (s == 0) return 0;
    if (n > std::numeric_limits<std::uint64_t>::max() / s) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    n *= s;
  }
  return n;
}

std::vector<std::size_t> SearchSpace::digits(std::uint64_t i) const {
  std::vector<std::size_t> d(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::uint64_t s = axes[a].size();
    d[a] = static_cast<std::size_t>(i % s);
    i /= s;
  }
  if (i != 0) throw std::out_of_range("SearchSpace: index past the end of the space");
  return d;
}

std::uint64_t SearchSpace::index_of(const std::vector<std::size_t>& d) const {
  std::uint64_t i = 0, stride = 1;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    i += stride * d[a];
    stride *= axes[a].size();
  }
  return i;
}

serve::FlowRequest SearchSpace::materialize(std::uint64_t i) const {
  const auto d = digits(i);
  serve::FlowRequest r = base;
  for (std::size_t a = 0; a < axes.size(); ++a) apply_axis(r, axes[a], d[a]);
  // `system.chiplets=N` without an arrangement axis means a grid, matching
  // the `giaflow flow --chiplets N` convention.
  if (r.options.system.chiplets != 2 && r.options.system.is_legacy()) {
    r.options.system.arrangement = chiplet::Arrangement::Grid;
  }
  return r;
}

std::string SearchSpace::label(std::uint64_t i) const {
  const auto d = digits(i);
  std::string out;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (!out.empty()) out.push_back(' ');
    out += axes[a].knob;
    out.push_back('=');
    out += axes[a].type == KnobType::Token ? axes[a].tokens[d[a]] : fmt_g(axes[a].values[d[a]]);
  }
  return out;
}

std::string SearchSpace::canonical_text() const {
  std::string out = serve::canonical_text(base);
  for (const auto& a : axes) {
    out += "axis.";
    out += a.knob;
    out.push_back('=');
    if (a.type == KnobType::Token) {
      for (std::size_t i = 0; i < a.tokens.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += a.tokens[i];
      }
    } else {
      for (std::size_t i = 0; i < a.values.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += fmt_exact(a.values[i]);
      }
    }
    out.push_back('\n');
  }
  return out;
}

std::uint64_t SearchSpace::key() const { return core::canon::fnv1a64(canonical_text()); }

std::string SearchSpec::canonical_text() const {
  std::string out = space.canonical_text();
  for (const auto& o : objectives) {
    out += "objective.";
    out += o.metric;
    out.push_back('=');
    out += o.direction == core::Direction::Minimize ? "min" : "max";
    out.push_back('\n');
  }
  for (const auto& c : constraints) {
    out += "constraint.";
    out += c.metric;
    out.push_back('=');
    if (c.has_min) out += "min:" + fmt_exact(c.min);
    if (c.has_min && c.has_max) out.push_back(',');
    if (c.has_max) out += "max:" + fmt_exact(c.max);
    out.push_back('\n');
  }
  out += "seed_points=" + std::to_string(seed_points) + "\n";
  out += "refine_rounds=" + std::to_string(refine_rounds) + "\n";
  out += "batch=" + std::to_string(batch) + "\n";
  out += "max_points=" + std::to_string(max_points) + "\n";
  out += std::string("point_events=") + (point_events ? "1" : "0") + "\n";
  return out;
}

std::uint64_t SearchSpec::key() const { return core::canon::fnv1a64(canonical_text()); }

SearchSpec spec_from_value(const json::Value& v) {
  const json::Value* inner = v.find("search");
  const json::Value& obj = inner != nullptr ? *inner : v;
  if (obj.kind != json::Value::Kind::Object) fail("expected an object");
  check_keys(obj,
             {"space", "base", "objectives", "constraints", "seed_points", "refine_rounds",
              "batch", "max_points", "point_events"},
             "search");

  SearchSpec spec;

  if (const json::Value* b = obj.find("base")) {
    spec.space.base = serve::request_from_value(*b);
  }

  const json::Value* sp = obj.find("space");
  if (sp == nullptr || sp->kind != json::Value::Kind::Object) {
    fail("space: required object mapping knob names to axis values");
  }
  if (sp->obj.empty()) fail("space: at least one axis is required");
  for (const auto& [name, av] : sp->obj) spec.space.axes.push_back(parse_axis(name, av));

  if (const json::Value* os = obj.find("objectives")) {
    if (os->kind != json::Value::Kind::Array || os->arr.empty()) {
      fail("objectives: must be a non-empty array");
    }
    for (const auto& e : os->arr) {
      if (e.kind != json::Value::Kind::Object) fail("objectives: entries must be objects");
      check_keys(e, {"metric", "direction"}, "objectives");
      const json::Value* m = e.find("metric");
      if (m == nullptr) fail("objectives: entries need a \"metric\"");
      require_known_metric(m->str, "objectives");
      core::Objective o;
      o.metric = m->str;
      if (const json::Value* d = e.find("direction")) o.direction = parse_direction(d->str);
      for (const auto& prev : spec.objectives) {
        if (prev.metric == o.metric) fail("objectives: duplicate metric \"" + o.metric + "\"");
      }
      spec.objectives.push_back(std::move(o));
    }
  } else {
    spec.objectives = {{"power_mW", core::Direction::Minimize},
                       {"cost_usd", core::Direction::Minimize},
                       {"area_mm2", core::Direction::Minimize}};
  }

  if (const json::Value* cs = obj.find("constraints")) {
    if (cs->kind != json::Value::Kind::Array) fail("constraints: must be an array");
    for (const auto& e : cs->arr) {
      if (e.kind != json::Value::Kind::Object) fail("constraints: entries must be objects");
      check_keys(e, {"metric", "min", "max"}, "constraints");
      const json::Value* m = e.find("metric");
      if (m == nullptr) fail("constraints: entries need a \"metric\"");
      require_known_metric(m->str, "constraints");
      Constraint c;
      c.metric = m->str;
      if (const json::Value* lo = e.find("min")) {
        c.has_min = true;
        c.min = lo->as_double();
      }
      if (const json::Value* hi = e.find("max")) {
        c.has_max = true;
        c.max = hi->as_double();
      }
      if (!c.has_min && !c.has_max) fail("constraints: need \"min\" and/or \"max\"");
      if (c.has_min && c.has_max && c.min > c.max) fail("constraints: min > max");
      spec.constraints.push_back(std::move(c));
    }
  }

  if (const json::Value* x = obj.find("seed_points")) {
    spec.seed_points = static_cast<int>(x->as_i64());
    if (spec.seed_points < 1) fail("seed_points must be >= 1");
  }
  if (const json::Value* x = obj.find("refine_rounds")) {
    spec.refine_rounds = static_cast<int>(x->as_i64());
    if (spec.refine_rounds < 0) fail("refine_rounds must be >= 0");
  }
  if (const json::Value* x = obj.find("batch")) {
    spec.batch = static_cast<int>(x->as_i64());
    if (spec.batch < 1) fail("batch must be >= 1");
  }
  if (const json::Value* x = obj.find("max_points")) spec.max_points = x->as_u64();
  if (const json::Value* x = obj.find("point_events")) spec.point_events = x->as_bool();

  // Objectives/constraints over the optional analyses imply those stages:
  // asking for hotspot_C without the thermal solve would make every point
  // silently unrankable on that axis.
  bool wants_thermal = false, wants_eyes = false;
  auto note = [&](const std::string& m) {
    wants_thermal |= (m == "hotspot_C");
    wants_eyes |= (m == "eye_opening");
  };
  for (const auto& o : spec.objectives) note(o.metric);
  for (const auto& c : spec.constraints) note(c.metric);
  if (wants_thermal) spec.space.base.options.with_thermal = true;
  if (wants_eyes) spec.space.base.options.with_eyes = true;

  return spec;
}

SearchSpec spec_from_json(const std::string& text) { return spec_from_value(json::parse(text)); }

std::string spec_to_json(const SearchSpec& spec) {
  std::string out;
  json::open(out);
  json::open(out, "search");
  json::open(out, "space");
  for (const auto& a : spec.space.axes) {
    json::open_array(out, a.knob);
    if (a.type == KnobType::Token) {
      for (const auto& t : a.tokens) json::item_s(out, t);
    } else {
      for (const double x : a.values) json::item_d(out, x);
    }
    json::close_array(out);
  }
  json::close(out);
  json::key(out, "base");
  serve::write_request(spec.space.base, out);
  json::open_array(out, "objectives");
  for (const auto& o : spec.objectives) {
    json::open(out);
    json::put_s(out, "metric", o.metric);
    json::put_s(out, "direction", o.direction == core::Direction::Minimize ? "min" : "max");
    json::close(out);
  }
  json::close_array(out);
  if (!spec.constraints.empty()) {
    json::open_array(out, "constraints");
    for (const Constraint& c : spec.constraints) {
      json::open(out);
      json::put_s(out, "metric", c.metric);
      if (c.has_min) json::put_d(out, "min", c.min);
      if (c.has_max) json::put_d(out, "max", c.max);
      json::close(out);
    }
    json::close_array(out);
  }
  json::put_i(out, "seed_points", spec.seed_points);
  json::put_i(out, "refine_rounds", spec.refine_rounds);
  json::put_i(out, "batch", spec.batch);
  json::put_u(out, "max_points", spec.max_points);
  json::put_b(out, "point_events", spec.point_events);
  json::close(out);
  json::close(out);
  return out;
}

}  // namespace gia::dse
