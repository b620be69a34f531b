#include "core/serialize.hpp"

#include <stdexcept>

#include "tech/library.hpp"

namespace gia::core {

namespace {

using json::close;
using json::close_array;
using json::item_d;
using json::key;
using json::open;
using json::open_array;
using json::put_b;
using json::put_d;
using json::put_i;
using json::put_null;
using json::put_s;

// Writers emit keys in a fixed order so the output is canonical.

void serdes_json(std::string& out, const netlist::SerDesReport& s) {
  open(out);
  put_i(out, "buses_serialized", s.buses_serialized);
  put_i(out, "wires_before", s.wires_before);
  put_i(out, "wires_after", s.wires_after);
  put_i(out, "serdes_instances_added", s.serdes_instances_added);
  put_i(out, "added_cells", s.added_cells);
  put_i(out, "latency_cycles", s.latency_cycles);
  close(out);
}

void bump_plan_json(std::string& out, const chiplet::BumpPlan& p) {
  open(out);
  put_i(out, "signal_bumps", p.signal_bumps);
  put_i(out, "pg_bumps", p.pg_bumps);
  put_d(out, "width_um", p.width_um);
  put_b(out, "bump_limited", p.bump_limited);
  close(out);
}

void pnr_json(std::string& out, const chiplet::ChipletPnrResult& c) {
  open(out);
  put_s(out, "side", c.side == netlist::ChipletSide::Logic ? "logic" : "memory");
  put_d(out, "fmax_hz", c.fmax_hz);
  put_d(out, "footprint_um", c.footprint_um);
  put_i(out, "cell_count", c.cell_count);
  put_d(out, "utilization", c.utilization);
  put_d(out, "wirelength_m", c.wirelength_m);
  open(out, "power");
  put_d(out, "internal_w", c.power.internal_w);
  put_d(out, "switching_w", c.power.switching_w);
  put_d(out, "leakage_w", c.power.leakage_w);
  put_d(out, "total_w", c.power.total_w);
  put_d(out, "pin_cap_f", c.power.pin_cap_f);
  put_d(out, "wire_cap_f", c.power.wire_cap_f);
  close(out);
  open(out, "congestion");
  put_d(out, "demand_um", c.congestion.demand_um);
  put_d(out, "capacity_um", c.congestion.capacity_um);
  put_d(out, "utilization", c.congestion.utilization);
  put_d(out, "detour_factor", c.congestion.detour_factor);
  close(out);
  put_i(out, "aib_lanes", c.aib_lanes);
  put_d(out, "aib_area_um2", c.aib_area_um2);
  put_d(out, "aib_area_frac", c.aib_area_frac);
  put_d(out, "aib_power_w", c.aib_power_w);
  put_d(out, "aib_power_frac", c.aib_power_frac);
  put_b(out, "timing_met", c.timing_met);
  close(out);
}

void interposer_json(std::string& out, const interposer::InterposerDesign& d) {
  open(out);
  open_array(out, "outline");
  item_d(out, d.floorplan.outline.lx);
  item_d(out, d.floorplan.outline.ly);
  item_d(out, d.floorplan.outline.ux);
  item_d(out, d.floorplan.outline.uy);
  close_array(out);
  const auto& s = d.routes.stats;
  open(out, "route_stats");
  put_d(out, "total_wl_um", s.total_wl_um);
  put_d(out, "min_wl_um", s.min_wl_um);
  put_d(out, "avg_wl_um", s.avg_wl_um);
  put_d(out, "max_wl_um", s.max_wl_um);
  put_i(out, "total_vias", s.total_vias);
  put_i(out, "vertical_via_pairs", s.vertical_via_pairs);
  put_i(out, "signal_layers_available", s.signal_layers_available);
  put_i(out, "signal_layers_used", s.signal_layers_used);
  put_i(out, "overflowed_cells", s.overflowed_cells);
  put_i(out, "routed_nets", s.routed_nets);
  close(out);
  close(out);
}

void link_json(std::string& out, const LinkStudy& l) {
  open(out);
  put_d(out, "length_um", l.spec.length_um);
  put_d(out, "bit_rate_hz", l.spec.bit_rate_hz);
  open(out, "result");
  put_d(out, "driver_delay_s", l.result.driver_delay_s);
  put_d(out, "interconnect_delay_s", l.result.interconnect_delay_s);
  put_d(out, "total_delay_s", l.result.total_delay_s);
  put_d(out, "driver_power_w", l.result.driver_power_w);
  put_d(out, "interconnect_power_w", l.result.interconnect_power_w);
  put_d(out, "total_power_w", l.result.total_power_w);
  close(out);
  if (l.eye.has_value()) {
    open(out, "eye");
    put_d(out, "width_s", l.eye->width_s);
    put_d(out, "height_v", l.eye->height_v);
    put_d(out, "ui_s", l.eye->ui_s);
    put_d(out, "mean_high_v", l.eye->mean_high_v);
    put_d(out, "mean_low_v", l.eye->mean_low_v);
    put_d(out, "sigma_high_v", l.eye->sigma_high_v);
    put_d(out, "sigma_low_v", l.eye->sigma_low_v);
    close(out);
  } else {
    put_null(out, "eye");
  }
  close(out);
}

void thermal_json(std::string& out, const thermal::ThermalReport& t) {
  open(out);
  open(out, "dies");
  for (const auto& [name, die] : t.dies) {
    open(out, name);
    put_d(out, "hotspot_c", die.hotspot_c);
    put_d(out, "average_c", die.average_c);
    close(out);
  }
  close(out);
  put_d(out, "interposer_hotspot_c", t.interposer_hotspot_c);
  put_d(out, "ambient_c", t.ambient_c);
  put_d(out, "hotspot_spread", t.hotspot_spread);
  close(out);
}

// --- Readers --------------------------------------------------------------

netlist::SerDesReport serdes_from(const json::Value& v) {
  netlist::SerDesReport s;
  s.buses_serialized = static_cast<int>(v.at("buses_serialized").as_i64());
  s.wires_before = static_cast<int>(v.at("wires_before").as_i64());
  s.wires_after = static_cast<int>(v.at("wires_after").as_i64());
  s.serdes_instances_added = static_cast<int>(v.at("serdes_instances_added").as_i64());
  s.added_cells = static_cast<int>(v.at("added_cells").as_i64());
  s.latency_cycles = static_cast<int>(v.at("latency_cycles").as_i64());
  return s;
}

chiplet::BumpPlan bump_plan_from(const json::Value& v) {
  chiplet::BumpPlan p;
  p.signal_bumps = static_cast<int>(v.at("signal_bumps").as_i64());
  p.pg_bumps = static_cast<int>(v.at("pg_bumps").as_i64());
  p.width_um = v.at("width_um").as_double();
  p.bump_limited = v.at("bump_limited").as_bool();
  return p;
}

chiplet::ChipletPnrResult pnr_from(const json::Value& v) {
  chiplet::ChipletPnrResult c;
  c.side = v.at("side").str == "logic" ? netlist::ChipletSide::Logic
                                       : netlist::ChipletSide::Memory;
  c.fmax_hz = v.at("fmax_hz").as_double();
  c.footprint_um = v.at("footprint_um").as_double();
  c.cell_count = static_cast<long>(v.at("cell_count").as_i64());
  c.utilization = v.at("utilization").as_double();
  c.wirelength_m = v.at("wirelength_m").as_double();
  const json::Value& p = v.at("power");
  c.power.internal_w = p.at("internal_w").as_double();
  c.power.switching_w = p.at("switching_w").as_double();
  c.power.leakage_w = p.at("leakage_w").as_double();
  c.power.total_w = p.at("total_w").as_double();
  c.power.pin_cap_f = p.at("pin_cap_f").as_double();
  c.power.wire_cap_f = p.at("wire_cap_f").as_double();
  const json::Value& g = v.at("congestion");
  c.congestion.demand_um = g.at("demand_um").as_double();
  c.congestion.capacity_um = g.at("capacity_um").as_double();
  c.congestion.utilization = g.at("utilization").as_double();
  c.congestion.detour_factor = g.at("detour_factor").as_double();
  c.aib_lanes = static_cast<int>(v.at("aib_lanes").as_i64());
  c.aib_area_um2 = v.at("aib_area_um2").as_double();
  c.aib_area_frac = v.at("aib_area_frac").as_double();
  c.aib_power_w = v.at("aib_power_w").as_double();
  c.aib_power_frac = v.at("aib_power_frac").as_double();
  c.timing_met = v.at("timing_met").as_bool();
  return c;
}

void interposer_from(const json::Value& v, interposer::InterposerDesign* d) {
  const json::Value& o = v.at("outline");
  if (o.arr.size() != 4) throw std::runtime_error("technology_result JSON: bad outline");
  d->floorplan.outline = {o.arr[0].as_double(), o.arr[1].as_double(), o.arr[2].as_double(),
                          o.arr[3].as_double()};
  const json::Value& s = v.at("route_stats");
  auto& st = d->routes.stats;
  st.total_wl_um = s.at("total_wl_um").as_double();
  st.min_wl_um = s.at("min_wl_um").as_double();
  st.avg_wl_um = s.at("avg_wl_um").as_double();
  st.max_wl_um = s.at("max_wl_um").as_double();
  st.total_vias = static_cast<int>(s.at("total_vias").as_i64());
  st.vertical_via_pairs = static_cast<int>(s.at("vertical_via_pairs").as_i64());
  st.signal_layers_available = static_cast<int>(s.at("signal_layers_available").as_i64());
  st.signal_layers_used = static_cast<int>(s.at("signal_layers_used").as_i64());
  st.overflowed_cells = static_cast<int>(s.at("overflowed_cells").as_i64());
  st.routed_nets = static_cast<int>(s.at("routed_nets").as_i64());
}

LinkStudy link_from(const json::Value& v) {
  LinkStudy l;
  l.spec.length_um = v.at("length_um").as_double();
  l.spec.bit_rate_hz = v.at("bit_rate_hz").as_double();
  const json::Value& r = v.at("result");
  l.result.driver_delay_s = r.at("driver_delay_s").as_double();
  l.result.interconnect_delay_s = r.at("interconnect_delay_s").as_double();
  l.result.total_delay_s = r.at("total_delay_s").as_double();
  l.result.driver_power_w = r.at("driver_power_w").as_double();
  l.result.interconnect_power_w = r.at("interconnect_power_w").as_double();
  l.result.total_power_w = r.at("total_power_w").as_double();
  const json::Value& e = v.at("eye");
  if (e.kind == json::Value::Kind::Object) {
    signal::EyeResult eye;
    eye.width_s = e.at("width_s").as_double();
    eye.height_v = e.at("height_v").as_double();
    eye.ui_s = e.at("ui_s").as_double();
    eye.mean_high_v = e.at("mean_high_v").as_double();
    eye.mean_low_v = e.at("mean_low_v").as_double();
    eye.sigma_high_v = e.at("sigma_high_v").as_double();
    eye.sigma_low_v = e.at("sigma_low_v").as_double();
    l.eye = eye;
  }
  return l;
}

thermal::ThermalReport thermal_from(const json::Value& v) {
  thermal::ThermalReport t;
  for (const auto& [name, die] : v.at("dies").obj) {
    thermal::DieThermal d;
    d.die = name;
    d.hotspot_c = die.at("hotspot_c").as_double();
    d.average_c = die.at("average_c").as_double();
    t.dies.emplace(name, d);
  }
  t.interposer_hotspot_c = v.at("interposer_hotspot_c").as_double();
  t.ambient_c = v.at("ambient_c").as_double();
  t.hotspot_spread = v.at("hotspot_spread").as_double();
  return t;
}

}  // namespace

std::string technology_result_to_json(const TechnologyResult& r) {
  std::string out;
  open(out);
  open(out, "technology_result");
  put_s(out, "tech", tech::short_name(r.technology.kind));

  key(out, "serdes");
  serdes_json(out, r.serdes);

  open(out, "partition");
  put_i(out, "cut_wires", r.partition.cut_wires);
  put_d(out, "memory_fraction", r.partition.memory_fraction);
  close(out);

  open(out, "plans");
  key(out, "logic");
  bump_plan_json(out, r.plans.logic);
  key(out, "memory");
  bump_plan_json(out, r.plans.memory);
  close(out);

  key(out, "logic");
  pnr_json(out, r.logic);
  key(out, "memory");
  pnr_json(out, r.memory);

  key(out, "interposer");
  interposer_json(out, r.interposer);

  key(out, "l2m");
  link_json(out, r.l2m);
  key(out, "l2l");
  link_json(out, r.l2l);

  open(out, "pdn_model");
  put_d(out, "l_feed", r.pdn_model.l_feed);
  put_d(out, "r_feed", r.pdn_model.r_feed);
  put_d(out, "c_plane", r.pdn_model.c_plane);
  put_d(out, "r_plane", r.pdn_model.r_plane);
  put_d(out, "l_plane", r.pdn_model.l_plane);
  put_d(out, "l_entry", r.pdn_model.l_entry);
  put_d(out, "r_entry", r.pdn_model.r_entry);
  put_d(out, "r_substrate_loss", r.pdn_model.r_substrate_loss);
  close(out);

  open(out, "pdn_impedance");
  open_array(out, "freq_hz");
  for (const double f : r.pdn_impedance.freq_hz) item_d(out, f);
  close_array(out);
  open_array(out, "z_ohm");
  for (const double z : r.pdn_impedance.z_ohm) item_d(out, z);
  close_array(out);
  close(out);

  open(out, "ir_drop");
  put_d(out, "max_drop_v", r.ir_drop.max_drop_v);
  put_d(out, "avg_drop_v", r.ir_drop.avg_drop_v);
  close(out);

  open(out, "settling");
  put_d(out, "settling_time_s", r.settling.settling_time_s);
  put_d(out, "worst_droop_v", r.settling.worst_droop_v);
  close(out);

  if (r.thermal.has_value()) {
    key(out, "thermal");
    thermal_json(out, *r.thermal);
  } else {
    put_null(out, "thermal");
  }

  put_d(out, "total_power_w", r.total_power_w);
  put_d(out, "system_fmax_hz", r.system_fmax_hz);
  put_b(out, "link_timing_met", r.link_timing_met);
  close(out);
  close(out);
  return out;
}

TechnologyResult technology_result_from_value(const json::Value& top) {
  const json::Value& v = top.at("technology_result");
  TechnologyResult r;
  tech::TechnologyKind kind;
  if (!tech::parse_kind(v.at("tech").str, &kind)) {
    throw std::runtime_error("technology_result JSON: unknown tech \"" + v.at("tech").str +
                             "\"");
  }
  r.technology = tech::make_technology(kind);
  r.serdes = serdes_from(v.at("serdes"));
  r.partition.cut_wires = static_cast<int>(v.at("partition").at("cut_wires").as_i64());
  r.partition.memory_fraction = v.at("partition").at("memory_fraction").as_double();
  r.plans.logic = bump_plan_from(v.at("plans").at("logic"));
  r.plans.memory = bump_plan_from(v.at("plans").at("memory"));
  r.logic = pnr_from(v.at("logic"));
  r.memory = pnr_from(v.at("memory"));
  interposer_from(v.at("interposer"), &r.interposer);
  r.l2m = link_from(v.at("l2m"));
  r.l2l = link_from(v.at("l2l"));
  const json::Value& pm = v.at("pdn_model");
  r.pdn_model.l_feed = pm.at("l_feed").as_double();
  r.pdn_model.r_feed = pm.at("r_feed").as_double();
  r.pdn_model.c_plane = pm.at("c_plane").as_double();
  r.pdn_model.r_plane = pm.at("r_plane").as_double();
  r.pdn_model.l_plane = pm.at("l_plane").as_double();
  r.pdn_model.l_entry = pm.at("l_entry").as_double();
  r.pdn_model.r_entry = pm.at("r_entry").as_double();
  r.pdn_model.r_substrate_loss = pm.at("r_substrate_loss").as_double();
  const json::Value& pi = v.at("pdn_impedance");
  for (const auto& f : pi.at("freq_hz").arr) r.pdn_impedance.freq_hz.push_back(f.as_double());
  for (const auto& z : pi.at("z_ohm").arr) r.pdn_impedance.z_ohm.push_back(z.as_double());
  r.ir_drop.max_drop_v = v.at("ir_drop").at("max_drop_v").as_double();
  r.ir_drop.avg_drop_v = v.at("ir_drop").at("avg_drop_v").as_double();
  r.settling.settling_time_s = v.at("settling").at("settling_time_s").as_double();
  r.settling.worst_droop_v = v.at("settling").at("worst_droop_v").as_double();
  const json::Value& th = v.at("thermal");
  if (th.kind == json::Value::Kind::Object) r.thermal = thermal_from(th);
  r.total_power_w = v.at("total_power_w").as_double();
  r.system_fmax_hz = v.at("system_fmax_hz").as_double();
  r.link_timing_met = v.at("link_timing_met").as_bool();
  return r;
}

TechnologyResult technology_result_from_json(const std::string& text) {
  return technology_result_from_value(json::parse(text));
}

std::string headline_metrics_to_json(const HeadlineMetrics& h) {
  std::string out;
  open(out);
  open(out, "headline_metrics");
  put_d(out, "area_reduction_x", h.area_reduction_x);
  put_d(out, "wirelength_reduction_x", h.wirelength_reduction_x);
  put_d(out, "power_reduction_pct", h.power_reduction_pct);
  put_d(out, "si_improvement_pct", h.si_improvement_pct);
  put_d(out, "pi_improvement_x", h.pi_improvement_x);
  put_d(out, "thermal_increase_pct", h.thermal_increase_pct);
  close(out);
  close(out);
  return out;
}

HeadlineMetrics headline_metrics_from_json(const std::string& text) {
  const json::Value top = json::parse(text);
  const json::Value& v = top.at("headline_metrics");
  HeadlineMetrics h;
  h.area_reduction_x = v.at("area_reduction_x").as_double();
  h.wirelength_reduction_x = v.at("wirelength_reduction_x").as_double();
  h.power_reduction_pct = v.at("power_reduction_pct").as_double();
  h.si_improvement_pct = v.at("si_improvement_pct").as_double();
  h.pi_improvement_x = v.at("pi_improvement_x").as_double();
  h.thermal_increase_pct = v.at("thermal_increase_pct").as_double();
  return h;
}

}  // namespace gia::core
