#include "chiplet/placer.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <random>
#include <stdexcept>

#include "core/instrument.hpp"

namespace gia::chiplet {
namespace {

using geometry::Point;
using geometry::Rect;

/// One optimized net: its movable terminals are `movable[begin, end)` of the
/// placer's flat terminal list, and its fixed terminals are folded into one
/// bounding box up front. The box grows from the fixed points first, in
/// terminal order, then the movable ones, as a box over one point list did.
struct NetInfo {
  int id = 0;
  int bits = 1;
  int begin = 0, end = 0;
  bool pinned = false;
  double lx = 0, ly = 0, ux = 0, uy = 0;  ///< fixed-terminal box when `pinned`
};

}  // namespace

PlacementResult place_clusters(const netlist::Netlist& nl, const std::vector<int>& instance_ids,
                               const std::vector<int>& net_ids, const geometry::Rect& die,
                               const std::vector<std::pair<int, geometry::Point>>& fixed_terminals,
                               const PlacerOptions& opts) {
  if (instance_ids.empty()) throw std::invalid_argument("nothing to place");
  const int n = static_cast<int>(instance_ids.size());

  // Placement region: pack the cell area at `packing_util`, centered.
  double cell_area = 0;
  for (int id : instance_ids) cell_area += nl.instance(id).cell_area_um2;
  double side = std::sqrt(cell_area / opts.packing_util);
  side = std::min(side, std::min(die.width(), die.height()));
  const Rect region = Rect::from_center(die.center(), side, side);

  // Site grid roughly one cluster per site.
  const int grid = std::max(2, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
  const double dx = region.width() / grid, dy = region.height() / grid;

  // Dense per-instance lookups: local index of a movable cluster, and the
  // fixed_terminals entry of a pinned one (-1 = none; later entries win).
  const auto n_inst = static_cast<std::size_t>(nl.instance_count());
  std::vector<int> local_of(n_inst, -1);
  for (int i = 0; i < n; ++i) local_of[static_cast<std::size_t>(instance_ids[static_cast<std::size_t>(i)])] = i;
  std::vector<int> fixed_of(n_inst, -1);
  for (std::size_t f = 0; f < fixed_terminals.size(); ++f) {
    const int id = fixed_terminals[f].first;
    if (id >= 0 && static_cast<std::size_t>(id) < n_inst) fixed_of[static_cast<std::size_t>(id)] = static_cast<int>(f);
  }

  // Initial placement: row-major over the site grid.
  std::vector<Point> pos(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(i)] = {region.lx + (i % grid + 0.5) * dx,
                                        region.ly + (i / grid + 0.5) * dy};
  }

  // Nets: movable terminals in one flat list, fixed points folded to a box.
  std::vector<NetInfo> nets;
  std::vector<int> movable;
  nets.reserve(net_ids.size());
  for (int nid : net_ids) {
    const auto& net = nl.net(nid);
    NetInfo info;
    info.id = nid;
    info.bits = net.bits;
    info.begin = static_cast<int>(movable.size());
    auto pin = [&](const Point& p) {
      if (!info.pinned) {
        info.pinned = true;
        info.lx = info.ux = p.x;
        info.ly = info.uy = p.y;
      }
      info.lx = std::min(info.lx, p.x);
      info.ux = std::max(info.ux, p.x);
      info.ly = std::min(info.ly, p.y);
      info.uy = std::max(info.uy, p.y);
    };
    for (int t : net.terminals) {
      const bool known = t >= 0 && static_cast<std::size_t>(t) < n_inst;
      const int local = known ? local_of[static_cast<std::size_t>(t)] : -1;
      const int f = known ? fixed_of[static_cast<std::size_t>(t)] : -1;
      if (local >= 0) {
        movable.push_back(local);
      } else if (f >= 0) {
        pin(fixed_terminals[static_cast<std::size_t>(f)].second);
      } else {
        pin(die.center());
      }
    }
    info.end = static_cast<int>(movable.size());
    if (info.end == info.begin) continue;  // no movable terminal: nothing to optimize
    nets.push_back(info);
  }

  // Cluster -> nets touching it (ascending net index, one entry per
  // terminal occurrence), as offsets into one flat list.
  std::vector<int> nets_of_begin(static_cast<std::size_t>(n) + 1, 0);
  for (int m : movable) ++nets_of_begin[static_cast<std::size_t>(m) + 1];
  for (int i = 0; i < n; ++i) nets_of_begin[static_cast<std::size_t>(i) + 1] += nets_of_begin[static_cast<std::size_t>(i)];
  std::vector<int> nets_of(movable.size());
  {
    std::vector<int> fill(nets_of_begin.begin(), nets_of_begin.end() - 1);
    for (std::size_t idx = 0; idx < nets.size(); ++idx) {
      for (int k = nets[idx].begin; k < nets[idx].end; ++k) {
        nets_of[static_cast<std::size_t>(fill[static_cast<std::size_t>(movable[static_cast<std::size_t>(k)])]++)] = static_cast<int>(idx);
      }
    }
  }

  // Bit-weighted HPWL of one net at the current positions.
  auto net_hpwl = [&](const NetInfo& info) {
    int k = info.begin;
    double lx = info.lx, ly = info.ly, ux = info.ux, uy = info.uy;
    if (!info.pinned) {
      const Point& p = pos[static_cast<std::size_t>(movable[static_cast<std::size_t>(k++)])];
      lx = ux = p.x;
      ly = uy = p.y;
    }
    for (; k < info.end; ++k) {
      const Point& p = pos[static_cast<std::size_t>(movable[static_cast<std::size_t>(k)])];
      lx = std::min(lx, p.x);
      ux = std::max(ux, p.x);
      ly = std::min(ly, p.y);
      uy = std::max(uy, p.y);
    }
    return ((ux - lx) + (uy - ly)) * info.bits;
  };

  // Each net's HPWL at the current positions: a move's "before" cost sums
  // these instead of recomputing them, and an accepted move refreshes them.
  std::vector<double> hpwl(nets.size());
  double total = 0;
  for (std::size_t idx = 0; idx < nets.size(); ++idx) {
    hpwl[idx] = net_hpwl(nets[idx]);
    total += hpwl[idx];
  }

  // Annealing: swap two clusters or nudge one to a random site.
  std::mt19937 rng(opts.seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::uniform_real_distribution<double> rx(region.lx, region.ux);
  std::uniform_real_distribution<double> ry(region.ly, region.uy);

  double temp = std::max(total * opts.t_start_frac / std::max(1, n), 1.0);
  const int total_moves = opts.moves_per_cluster * n;
  const int moves_per_stage = std::max(64, total_moves / 40);
  core::instrument::counter_add(core::instrument::Counter::PlacerMoves,
                                static_cast<std::uint64_t>(std::max(0, total_moves)));

  std::vector<int> merged;      // a swap's affected nets
  std::vector<double> trial;    // affected nets' HPWL after the move
  for (int mv = 0; mv < total_moves; ++mv) {
    const int a = pick(rng);
    const bool do_swap = unif(rng) < 0.5 && n > 1;
    int b = -1;
    const Point old_a = pos[static_cast<std::size_t>(a)];
    Point old_b;
    const int* aff = nets_of.data() + nets_of_begin[static_cast<std::size_t>(a)];
    const int* aff_end = nets_of.data() + nets_of_begin[static_cast<std::size_t>(a) + 1];
    if (do_swap) {
      do { b = pick(rng); } while (b == a);
      old_b = pos[static_cast<std::size_t>(b)];
      merged.clear();
      std::merge(aff, aff_end, nets_of.data() + nets_of_begin[static_cast<std::size_t>(b)],
                 nets_of.data() + nets_of_begin[static_cast<std::size_t>(b) + 1],
                 std::back_inserter(merged));
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      aff = merged.data();
      aff_end = merged.data() + merged.size();
    }
    double before = 0;
    for (const int* it = aff; it != aff_end; ++it) before += hpwl[static_cast<std::size_t>(*it)];
    if (do_swap) {
      std::swap(pos[static_cast<std::size_t>(a)], pos[static_cast<std::size_t>(b)]);
    } else {
      pos[static_cast<std::size_t>(a)] = {rx(rng), ry(rng)};
    }
    trial.clear();
    double after = 0;
    for (const int* it = aff; it != aff_end; ++it) {
      trial.push_back(net_hpwl(nets[static_cast<std::size_t>(*it)]));
      after += trial.back();
    }
    const double delta = after - before;
    if (delta <= 0 || unif(rng) < std::exp(-delta / temp)) {
      total += delta;
      for (std::size_t k = 0; k < trial.size(); ++k) hpwl[static_cast<std::size_t>(aff[k])] = trial[k];
    } else {
      pos[static_cast<std::size_t>(a)] = old_a;
      if (do_swap) pos[static_cast<std::size_t>(b)] = old_b;
    }
    if ((mv + 1) % moves_per_stage == 0) temp *= opts.cooling;
  }

  PlacementResult out;
  out.region = region;
  out.total_hpwl_um = 0;
  out.nets.reserve(nets.size());
  for (std::size_t idx = 0; idx < nets.size(); ++idx) {
    out.nets.push_back({nets[idx].id, nets[idx].bits, hpwl[idx] / nets[idx].bits});
    out.total_hpwl_um += hpwl[idx];
  }
  out.positions = std::move(pos);
  return out;
}

}  // namespace gia::chiplet
