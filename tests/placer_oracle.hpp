#pragma once

#include <algorithm>
#include <cmath>
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "chiplet/placer.hpp"

/// \file placer_oracle.hpp
/// Reference cluster placer for the placer tests: the straightforward
/// allocating form of `chiplet::place_clusters`, with hash maps for the
/// instance -> local-index and fixed-terminal lookups, a fresh point list
/// per net HPWL evaluation and a fresh affected-net list per move. It draws
/// the same random numbers in the same order and sums every cost in the same
/// order, so the production placer must reproduce its positions, per-net
/// HPWL and total bit for bit. Slow -- a test oracle, not a placer.

namespace gia::chiplet::testing {

inline PlacementResult place_clusters_oracle(
    const netlist::Netlist& nl, const std::vector<int>& instance_ids,
    const std::vector<int>& net_ids, const geometry::Rect& die,
    const std::vector<std::pair<int, geometry::Point>>& fixed_terminals,
    const PlacerOptions& opts = {}) {
  using geometry::Point;
  using geometry::Rect;
  struct NetBox {
    double lx = 0, ly = 0, ux = 0, uy = 0;
    double hpwl() const { return (ux - lx) + (uy - ly); }
  };
  auto box_of = [](const std::vector<Point>& pts) {
    NetBox b;
    b.lx = b.ux = pts.front().x;
    b.ly = b.uy = pts.front().y;
    for (const auto& p : pts) {
      b.lx = std::min(b.lx, p.x);
      b.ux = std::max(b.ux, p.x);
      b.ly = std::min(b.ly, p.y);
      b.uy = std::max(b.uy, p.y);
    }
    return b;
  };

  if (instance_ids.empty()) throw std::invalid_argument("nothing to place");
  const int n = static_cast<int>(instance_ids.size());

  double cell_area = 0;
  for (int id : instance_ids) cell_area += nl.instance(id).cell_area_um2;
  double side = std::sqrt(cell_area / opts.packing_util);
  side = std::min(side, std::min(die.width(), die.height()));
  const Rect region = Rect::from_center(die.center(), side, side);

  const int grid = std::max(2, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(n)))));
  const double dx = region.width() / grid, dy = region.height() / grid;

  std::unordered_map<int, int> local_of;
  for (int i = 0; i < n; ++i) local_of[instance_ids[static_cast<std::size_t>(i)]] = i;
  std::unordered_map<int, Point> fixed;
  for (const auto& [id, p] : fixed_terminals) fixed[id] = p;

  std::vector<Point> pos(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    pos[static_cast<std::size_t>(i)] = {region.lx + (i % grid + 0.5) * dx,
                                        region.ly + (i / grid + 0.5) * dy};
  }

  struct NetInfo {
    int id;
    int bits;
    std::vector<int> movable;
    std::vector<Point> pinned;
  };
  std::vector<NetInfo> nets;
  std::vector<std::vector<int>> nets_of(static_cast<std::size_t>(n));
  for (int nid : net_ids) {
    const auto& net = nl.net(nid);
    NetInfo info{nid, net.bits, {}, {}};
    for (int t : net.terminals) {
      auto it = local_of.find(t);
      if (it != local_of.end()) {
        info.movable.push_back(it->second);
      } else if (auto fit = fixed.find(t); fit != fixed.end()) {
        info.pinned.push_back(fit->second);
      } else {
        info.pinned.push_back(die.center());
      }
    }
    if (info.movable.empty()) continue;
    const int idx = static_cast<int>(nets.size());
    for (int m : info.movable) nets_of[static_cast<std::size_t>(m)].push_back(idx);
    nets.push_back(std::move(info));
  }

  auto net_hpwl = [&](const NetInfo& info) {
    std::vector<Point> pts = info.pinned;
    for (int m : info.movable) pts.push_back(pos[static_cast<std::size_t>(m)]);
    return box_of(pts).hpwl() * info.bits;
  };
  auto cost_of = [&](const std::vector<int>& affected) {
    double c = 0;
    for (int idx : affected) c += net_hpwl(nets[static_cast<std::size_t>(idx)]);
    return c;
  };

  double total = 0;
  for (const auto& info : nets) total += net_hpwl(info);

  std::mt19937 rng(opts.seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  std::uniform_real_distribution<double> unif(0.0, 1.0);
  std::uniform_real_distribution<double> rx(region.lx, region.ux);
  std::uniform_real_distribution<double> ry(region.ly, region.uy);

  double temp = std::max(total * opts.t_start_frac / std::max(1, n), 1.0);
  const int total_moves = opts.moves_per_cluster * n;
  const int moves_per_stage = std::max(64, total_moves / 40);

  for (int mv = 0; mv < total_moves; ++mv) {
    const int a = pick(rng);
    const bool do_swap = unif(rng) < 0.5 && n > 1;
    int b = -1;
    Point old_a = pos[static_cast<std::size_t>(a)];
    Point old_b;
    std::vector<int> affected = nets_of[static_cast<std::size_t>(a)];
    if (do_swap) {
      do { b = pick(rng); } while (b == a);
      old_b = pos[static_cast<std::size_t>(b)];
      affected.insert(affected.end(), nets_of[static_cast<std::size_t>(b)].begin(),
                      nets_of[static_cast<std::size_t>(b)].end());
      std::sort(affected.begin(), affected.end());
      affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
    }
    const double before = cost_of(affected);
    if (do_swap) {
      std::swap(pos[static_cast<std::size_t>(a)], pos[static_cast<std::size_t>(b)]);
    } else {
      pos[static_cast<std::size_t>(a)] = {rx(rng), ry(rng)};
    }
    const double after = cost_of(affected);
    const double delta = after - before;
    if (delta <= 0 || unif(rng) < std::exp(-delta / temp)) {
      total += delta;
    } else {
      pos[static_cast<std::size_t>(a)] = old_a;
      if (do_swap) pos[static_cast<std::size_t>(b)] = old_b;
    }
    if ((mv + 1) % moves_per_stage == 0) temp *= opts.cooling;
  }

  PlacementResult out;
  out.region = region;
  out.total_hpwl_um = 0;
  for (const auto& info : nets) {
    const double h = net_hpwl(info);
    out.nets.push_back({info.id, info.bits, h / info.bits});
    out.total_hpwl_um += h;
  }
  out.positions = std::move(pos);
  return out;
}

}  // namespace gia::chiplet::testing
