#include "chiplet/pnr_flow.hpp"

#include <cmath>
#include <stdexcept>

#include "core/instrument.hpp"
#include "netlist/cell_library.hpp"
#include "signal/aib.hpp"

namespace gia::chiplet {

ChipletPnrResult run_chiplet_pnr(const netlist::Netlist& nl, const netlist::ChipletNetlist& chip,
                                 const tech::Technology& tech, const BumpPlan& plan,
                                 const PnrOptions& opts) {
  if (chip.instance_ids.empty()) throw std::invalid_argument("empty chiplet");
  const auto lib = netlist::make_28nm_library();

  ChipletPnrResult out;
  out.side = chip.side;
  out.footprint_um = plan.width_um;
  out.cell_count = chip.cells;
  out.utilization = chip.cell_area_um2 / (plan.width_um * plan.width_um);

  // --- Placement: internal nets free, cut nets pinned to bump sites.
  const geometry::Rect die{0, 0, plan.width_um, plan.width_um};
  std::vector<int> nets = chip.internal_net_ids;
  nets.insert(nets.end(), chip.cut_net_ids.begin(), chip.cut_net_ids.end());

  // Instance id -> index in chip.instance_ids (-1 = not on this chiplet).
  std::vector<int> local_of(static_cast<std::size_t>(nl.instance_count()), -1);
  for (std::size_t i = 0; i < chip.instance_ids.size(); ++i) {
    local_of[static_cast<std::size_t>(chip.instance_ids[i])] = static_cast<int>(i);
  }
  auto local_index = [&](int t) {
    return t >= 0 && t < nl.instance_count() ? local_of[static_cast<std::size_t>(t)] : -1;
  };

  // Two-pass pin assignment, mirroring Innovus's bump-aware I/O placement:
  // place once ignoring I/O, then anchor each cut net's external terminal to
  // the free signal bump nearest its internal terminals, then re-place.
  PlacerOptions scout = opts.placer;
  scout.moves_per_cluster = std::max(10, opts.placer.moves_per_cluster / 4);
  PlacementResult draft;
  {
    GIA_SPAN("chiplet/place_draft");
    draft = place_clusters(nl, chip.instance_ids, chip.internal_net_ids, die, {}, scout);
  }

  std::vector<std::pair<int, geometry::Point>> fixed;
  {
    GIA_SPAN("chiplet/pin_anchor");
    std::vector<bool> site_used(plan.bump_sites.size(), false);
    for (int nid : chip.cut_net_ids) {
      // Centroid of this net's internal terminals in the draft placement.
      geometry::Point centroid{die.center()};
      int n_in = 0;
      for (int t : nl.net(nid).terminals) {
        const int li = local_index(t);
        if (li >= 0) {
          const auto& p = draft.positions[static_cast<std::size_t>(li)];
          centroid = (n_in == 0) ? p : geometry::Point{centroid.x + p.x, centroid.y + p.y};
          ++n_in;
        }
      }
      if (n_in > 1) centroid = centroid * (1.0 / n_in);
      // Nearest free bump site (falls back to nearest overall when exhausted).
      std::size_t best = 0;
      double best_d = 1e300;
      for (std::size_t s = 0; s < plan.bump_sites.size(); ++s) {
        if (site_used[s]) continue;
        const double d = geometry::manhattan_distance(plan.bump_sites[s], centroid);
        if (d < best_d) { best_d = d; best = s; }
      }
      site_used[best] = true;
      for (int t : nl.net(nid).terminals) {
        if (local_index(t) < 0) fixed.emplace_back(t, plan.bump_sites[best]);
      }
    }
  }
  PlacementResult placement;
  {
    GIA_SPAN("chiplet/place_final");
    placement = place_clusters(nl, chip.instance_ids, nets, die, fixed, opts.placer);
  }

  // --- Wirelength: HPWL * congestion detour + local (intra-cluster) nets.
  const double local_wl = intra_cluster_wirelength_um(chip.cells, lib);
  {
    GIA_SPAN("chiplet/congestion");
    out.congestion = evaluate_congestion(placement, local_wl, opts.congestion);
  }
  double routed_wl_um = placement.total_hpwl_um * out.congestion.detour_factor + local_wl;
  if (tech.integration == tech::IntegrationStyle::TsvStack) {
    routed_wl_um *= opts.tsv_stack_wl_factor;
  }
  out.wirelength_m = routed_wl_um * 1e-6;

  // --- Timing: average net length over all scalar wires.
  double cluster_wires = 0;
  for (const auto& pn : placement.nets) cluster_wires += pn.bits;
  const double local_nets = static_cast<double>(chip.cells) * 1.0;
  const double avg_net_um = routed_wl_um / std::max(1.0, cluster_wires + local_nets);
  const int depth =
      chip.side == netlist::ChipletSide::Logic ? opts.logic_depth : opts.memory_depth;
  const auto timing = estimate_fmax(lib, avg_net_um, depth, opts.timing);
  out.fmax_hz = timing.fmax_hz;
  out.timing_met = out.fmax_hz >= opts.target_freq_hz * 0.97;  // closure band

  // --- Power at the target clock.
  long macro_cells = 0;
  for (int id : chip.instance_ids) {
    if (nl.instance(id).is_macro) macro_cells += nl.instance(id).cell_count;
  }
  const double activity =
      chip.side == netlist::ChipletSide::Memory ? lib.activity_memory : lib.activity;
  out.power = estimate_power(lib, chip.cells, macro_cells, routed_wl_um, opts.target_freq_hz,
                             activity);

  // --- AIB overhead bookkeeping.
  out.aib_lanes = chip.io_signals;
  out.aib_area_um2 = out.aib_lanes * opts.aib_area_per_lane_um2;
  out.aib_area_frac = out.aib_area_um2 / chip.cell_area_um2;
  const signal::DriverModel drv;
  const signal::AibFootprint foot;
  out.aib_power_w =
      out.aib_lanes * (drv.internal_energy_per_edge * opts.aib_duty * opts.target_freq_hz +
                       foot.leakage_w);
  out.aib_power_frac = out.aib_power_w / out.power.total_w;
  return out;
}

}  // namespace gia::chiplet
