/// Equivalence tests that pin the engines' byte-identity contract:
///  - the router's indexed heap pops exactly what a lazy-deletion
///    std::priority_queue pops, and an A* search driven by it expands,
///    relaxes and links the same nodes as one driven by the lazy queue;
///  - LuFactor::solve_into (which skips each row's exactly-zero runs) is
///    bitwise equal to the full forward/back substitution, -0.0 included;
///  - the placer reproduces the allocating reference placer bit for bit;
///  - the deterministic work counters repeat exactly at 1 and 4 threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <iterator>
#include <limits>
#include <queue>
#include <random>
#include <utility>
#include <vector>

#include "chiplet/bump_plan.hpp"
#include "chiplet/placer.hpp"
#include "circuit/dense_lu.hpp"
#include "core/flow.hpp"
#include "core/instrument.hpp"
#include "core/parallel.hpp"
#include "core/serialize.hpp"
#include "core/stagegraph.hpp"
#include "interposer/node_heap.hpp"
#include "netlist/openpiton.hpp"
#include "netlist/serdes.hpp"
#include "partition/hierarchical.hpp"
#include "placer_oracle.hpp"
#include "tech/library.hpp"

namespace {

using gia::interposer::NodeHeap;
using QEntry = std::pair<double, std::size_t>;
using LazyQueue = std::priority_queue<QEntry, std::vector<QEntry>, std::greater<>>;

// --- NodeHeap ----------------------------------------------------------------

TEST(NodeHeap, PopOrderMatchesPriorityQueue) {
  constexpr std::size_t kNodes = 48;
  long repushed_after_pop = 0, tiny_improvements = 0, ties = 0;
  for (unsigned seed = 1; seed <= 40; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::size_t> pick(0, kNodes - 1);
    std::uniform_int_distribution<int> level(0, 6);  // few distinct keys: many ties
    std::uniform_int_distribution<int> op(0, 9);
    NodeHeap heap;
    heap.reset(kNodes);
    LazyQueue ref;
    constexpr double kNone = -1;
    std::vector<double> live(kNodes, kNone);  // the reference's queued key per node
    std::vector<char> popped(kNodes, 0);
    auto ref_pop = [&] {
      for (;;) {
        const QEntry e = ref.top();
        ref.pop();
        if (live[e.second] == e.first) {
          live[e.second] = kNone;
          return e;
        }
      }
    };
    for (int step = 0; step < 4000; ++step) {
      if (op(rng) < 6) {
        const std::size_t n = pick(rng);
        double key = 0.5 * level(rng);
        if (live[n] != kNone) {
          // Decrease-key: by less than 1e-9, by a whole level, or to a tie.
          const int how = op(rng) % 3;
          key = how == 0 ? live[n] - 1e-10 : how == 1 ? live[n] - 0.5 : live[n];
          tiny_improvements += how == 0;
        } else if (popped[n]) {
          ++repushed_after_pop;
        }
        if (live[n] == key) ++ties;
        heap.push(n, key);
        ref.push({key, n});
        live[n] = key;
      } else if (!heap.empty()) {
        const auto got = heap.pop();
        const QEntry want = ref_pop();
        ASSERT_EQ(got.key, want.first) << "seed " << seed << " step " << step;
        ASSERT_EQ(got.node, want.second) << "seed " << seed << " step " << step;
        popped[want.second] = 1;
      }
    }
    while (!heap.empty()) {
      const auto got = heap.pop();
      const QEntry want = ref_pop();
      ASSERT_EQ(got.key, want.first);
      ASSERT_EQ(got.node, want.second);
    }
    for (double k : live) EXPECT_EQ(k, kNone);
  }
  EXPECT_GT(repushed_after_pop, 100);
  EXPECT_GT(tiny_improvements, 100);
  EXPECT_GT(ties, 100);
}

/// The heap compares integer images of the keys; they must order like the
/// doubles across signs, zeros, subnormals and infinities, with -0.0 and
/// +0.0 tying (broken by node, as the priority queue breaks them).
TEST(NodeHeap, KeyImageOrdersLikeDoubles) {
  const double inf = std::numeric_limits<double>::infinity();
  const double keys[] = {0.0,    -0.0,   -1.5,   1.5,     1e300, -1e300, 5e-324,
                         -5e-324, inf,   -inf,   -0.0,    0.0,   2.0,    -2.0};
  constexpr std::size_t kNodes = std::size(keys);
  NodeHeap heap;
  heap.reset(kNodes);
  LazyQueue ref;
  for (std::size_t n = 0; n < kNodes; ++n) {
    heap.push(n, keys[n]);
    ref.push({keys[n], n});
  }
  while (!ref.empty()) {
    ASSERT_FALSE(heap.empty());
    const auto got = heap.pop();
    EXPECT_EQ(got.key, ref.top().first);
    EXPECT_EQ(got.node, ref.top().second);
    ref.pop();
  }
  EXPECT_TRUE(heap.empty());
}

/// One A* search over a random-cost 4-neighbour grid in both forms: the lazy
/// queue with the router's 1e-9 stale-entry rule, and the indexed heap. The
/// expansions (node, dist) in order, the final dist/prev and the goal match.
TEST(NodeHeap, SearchMatchesLazyDeletionAStar) {
  constexpr int kW = 24, kH = 20;
  const std::size_t n_nodes = static_cast<std::size_t>(kW) * kH;
  const double inf = std::numeric_limits<double>::infinity();
  for (unsigned seed = 1; seed <= 30; ++seed) {
    std::mt19937 rng(seed);
    // Step costs from a few levels, some differing by less than 1e-9, so
    // equal-f ties and sub-1e-9 improvements both occur.
    std::vector<double> cost(n_nodes);
    std::uniform_int_distribution<int> lvl(1, 4);
    std::uniform_int_distribution<int> jitter(0, 3);
    for (auto& c : cost) c = lvl(rng) + jitter(rng) * 3e-10;
    const int bx = static_cast<int>(rng() % kW), by = static_cast<int>(rng() % kH);
    const int ax = static_cast<int>(rng() % kW), ay = static_cast<int>(rng() % kH);
    // Odd seeds overestimate, like the diagonal router's heuristic, so
    // popped nodes get reopened.
    const double w = seed % 2 ? 1.7 : 0.999;
    auto h = [&](int x, int y) { return std::abs(x - bx) * w + std::abs(y - by) * w; };
    const int dx[4] = {1, -1, 0, 0}, dy[4] = {0, 0, 1, -1};

    struct Run {
      std::vector<double> dist;
      std::vector<int> prev;
      std::vector<std::pair<std::size_t, double>> expansions;  // distinct (node, dist)
      std::size_t goal = 0;
    };
    auto search = [&](bool indexed) {
      Run r;
      r.dist.assign(n_nodes, inf);
      r.prev.assign(n_nodes, -1);
      NodeHeap heap;
      heap.reset(n_nodes);
      LazyQueue lazy;
      auto push = [&](std::size_t n, double f) {
        if (indexed) heap.push(n, f); else lazy.push({f, n});
      };
      const std::size_t s = static_cast<std::size_t>(ay) * kW + ax;
      r.dist[s] = 0;
      push(s, h(ax, ay));
      while (indexed ? !heap.empty() : !lazy.empty()) {
        double f;
        std::size_t node;
        if (indexed) {
          const auto e = heap.pop();
          f = e.key;
          node = e.node;
        } else {
          f = lazy.top().first;
          node = lazy.top().second;
          lazy.pop();
        }
        const int x = static_cast<int>(node % kW), y = static_cast<int>(node / kW);
        const double d = r.dist[node];
        if (f - h(x, y) > d + 1e-9) continue;
        // A re-pop at an unchanged dist relaxes nothing: not a new expansion.
        const auto expansion = std::make_pair(node, d);
        if (std::find(r.expansions.begin(), r.expansions.end(), expansion) == r.expansions.end()) {
          r.expansions.push_back(expansion);
        }
        if (x == bx && y == by) {
          r.goal = node;
          break;
        }
        for (int k = 0; k < 4; ++k) {
          const int x2 = x + dx[k], y2 = y + dy[k];
          if (x2 < 0 || x2 >= kW || y2 < 0 || y2 >= kH) continue;
          const std::size_t nn = static_cast<std::size_t>(y2) * kW + x2;
          if (d + cost[nn] < r.dist[nn] - 1e-12) {
            r.dist[nn] = d + cost[nn];
            r.prev[nn] = static_cast<int>(node);
            push(nn, r.dist[nn] + h(x2, y2));
          }
        }
      }
      return r;
    };
    const Run a = search(false), b = search(true);
    ASSERT_EQ(a.goal, b.goal) << "seed " << seed;
    ASSERT_EQ(a.expansions, b.expansions) << "seed " << seed;
    ASSERT_EQ(0, std::memcmp(a.dist.data(), b.dist.data(), n_nodes * sizeof(double)));
    ASSERT_EQ(a.prev, b.prev) << "seed " << seed;
  }
}

// --- LuFactor::solve_into ----------------------------------------------------------

/// Partial-pivoting LU with the full (no-skip) forward/back substitution.
template <typename T>
std::vector<T> reference_lu_solve(gia::circuit::DenseMatrix<T> a, const std::vector<T>& b) {
  const int n = a.size();
  std::vector<int> piv(static_cast<std::size_t>(n));
  std::vector<T> inv_diag(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) piv[static_cast<std::size_t>(i)] = i;
  for (int k = 0; k < n; ++k) {
    int p = k;
    double best = std::abs(a.at(k, k));
    for (int r = k + 1; r < n; ++r) {
      if (std::abs(a.at(r, k)) > best) { best = std::abs(a.at(r, k)); p = r; }
    }
    if (p != k) {
      for (int c = 0; c < n; ++c) std::swap(a.at(k, c), a.at(p, c));
      std::swap(piv[static_cast<std::size_t>(k)], piv[static_cast<std::size_t>(p)]);
    }
    const T inv_piv = T{1} / a.at(k, k);
    inv_diag[static_cast<std::size_t>(k)] = inv_piv;
    for (int r = k + 1; r < n; ++r) {
      const T m = a.at(r, k) * inv_piv;
      a.at(r, k) = m;
      for (int c = k + 1; c < n; ++c) a.at(r, c) -= m * a.at(k, c);
    }
  }
  std::vector<T> x(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) x[static_cast<std::size_t>(i)] = b[static_cast<std::size_t>(piv[static_cast<std::size_t>(i)])];
  for (int i = 0; i < n; ++i) {
    T acc = x[static_cast<std::size_t>(i)];
    for (int j = 0; j < i; ++j) acc -= a.at(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc;
  }
  for (int i = n - 1; i >= 0; --i) {
    T acc = x[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j) acc -= a.at(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = acc * inv_diag[static_cast<std::size_t>(i)];
  }
  return x;
}

/// Right-hand sides that stress signed zeros: all -0.0, a lone nonzero in a
/// sea of -0.0/+0.0, alternating signs, and dense random values.
std::vector<std::vector<double>> signed_zero_rhs(int n, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<std::vector<double>> out;
  out.emplace_back(static_cast<std::size_t>(n), -0.0);
  out.emplace_back(static_cast<std::size_t>(n), 0.0);
  for (int k = 0; k < 6; ++k) {
    std::vector<double> b(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = (i + k) % 2 ? -0.0 : 0.0;
    b[static_cast<std::size_t>(rng() % static_cast<unsigned>(n))] = u(rng);
    if (k % 2) b[static_cast<std::size_t>(rng() % static_cast<unsigned>(n))] = -u(rng);
    out.push_back(b);
  }
  std::vector<double> dense(static_cast<std::size_t>(n));
  for (auto& v : dense) v = u(rng);
  out.push_back(dense);
  return out;
}

template <typename T>
void expect_bitwise_equal(const std::vector<T>& a, const std::vector<T>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(T))) << what;
}

TEST(LuSolveInto, BitwiseEqualsFullSubstitution) {
  std::mt19937 rng(2023);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  long zero_outputs = 0;
  auto check = [&](const gia::circuit::RealMatrix& a, const char* what) {
    const gia::circuit::LuFactor<double> lu(a);
    std::vector<double> x;  // reused across solves, as the transient does
    for (const auto& b : signed_zero_rhs(a.size(), rng)) {
      const auto want = reference_lu_solve(a, b);
      lu.solve_into(b, x);
      expect_bitwise_equal(want, x, what);
      expect_bitwise_equal(lu.solve(b), x, what);
      for (double v : x) zero_outputs += v == 0.0;
    }
  };
  // Dense: no zero runs to skip.
  for (int n : {1, 2, 7, 19}) {
    gia::circuit::RealMatrix a(n);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < n; ++c) a.at(r, c) = u(rng) + (r == c ? 4.0 : 0.0);
    }
    check(a, "dense");
  }
  // Banded MNA-like ladders with interior zeros, -0.0 entries and rows that
  // need pivoting (weak diagonals).
  for (int n : {5, 24, 41}) {
    gia::circuit::RealMatrix a(n);
    for (int r = 0; r < n; ++r) {
      a.at(r, r) = (r % 5 == 3) ? 1e-3 : 2.0 + u(rng);
      if (r + 1 < n) a.at(r, r + 1) = u(rng);
      if (r > 0) a.at(r, r - 1) = u(rng);
      if (r + 3 < n && r % 4 == 0) a.at(r, r + 3) = -0.0;
      if (r >= 5 && r % 3 == 0) a.at(r, r - 5) = 0.25 * u(rng);
    }
    check(a, "banded");
  }
  EXPECT_GT(zero_outputs, 0);  // the zero-result recompute path ran

  // Complex (AC) banded system with signed-zero parts in the rhs.
  const int n = 16;
  gia::circuit::ComplexMatrix a(n);
  for (int r = 0; r < n; ++r) {
    a.at(r, r) = {2.0 + u(rng), u(rng)};
    if (r + 1 < n) a.at(r, r + 1) = {u(rng), 0.0};
    if (r > 1) a.at(r, r - 2) = {0.0, u(rng)};
  }
  const gia::circuit::LuFactor<std::complex<double>> lu(a);
  std::vector<std::complex<double>> b(n, {-0.0, 0.0}), x;
  b[3] = {0.5, -0.0};
  b[11] = {-0.0, -0.25};
  lu.solve_into(b, x);
  expect_bitwise_equal(reference_lu_solve(a, b), x, "complex");
}

// --- Placer vs the allocating reference placer -------------------------------------

struct ChipletCase {
  gia::netlist::Netlist net;
  gia::netlist::ChipletNetlist logic, memory;
  ChipletCase() {
    net = gia::netlist::build_openpiton();
    gia::netlist::apply_serdes(net);
    const auto part = gia::partition::hierarchical_partition(net);
    logic = gia::netlist::extract_chiplet(net, part.side, gia::netlist::ChipletSide::Logic, 0);
    memory = gia::netlist::extract_chiplet(net, part.side, gia::netlist::ChipletSide::Memory, 0);
  }
};

const ChipletCase& chiplets() {
  static const ChipletCase c;
  return c;
}

void expect_same_placement(const gia::chiplet::PlacementResult& want,
                           const gia::chiplet::PlacementResult& got) {
  ASSERT_EQ(want.positions.size(), got.positions.size());
  for (std::size_t i = 0; i < want.positions.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(&want.positions[i].x, &got.positions[i].x, sizeof(double))) << i;
    ASSERT_EQ(0, std::memcmp(&want.positions[i].y, &got.positions[i].y, sizeof(double))) << i;
  }
  ASSERT_EQ(want.nets.size(), got.nets.size());
  for (std::size_t i = 0; i < want.nets.size(); ++i) {
    EXPECT_EQ(want.nets[i].net_id, got.nets[i].net_id);
    EXPECT_EQ(want.nets[i].bits, got.nets[i].bits);
    EXPECT_EQ(0, std::memcmp(&want.nets[i].hpwl_um, &got.nets[i].hpwl_um, sizeof(double))) << i;
  }
  EXPECT_EQ(0, std::memcmp(&want.total_hpwl_um, &got.total_hpwl_um, sizeof(double)));
  EXPECT_EQ(want.region.lx, got.region.lx);
  EXPECT_EQ(want.region.ux, got.region.ux);
}

TEST(PlacerOracle, BitwiseEqualOnDefaultChiplets) {
  const auto& c = chiplets();
  const auto tech = gia::tech::make_technology(gia::tech::TechnologyKind::Glass25D);
  for (const auto* chip : {&c.logic, &c.memory}) {
    const bool memory = chip == &c.memory;
    const auto plan = gia::chiplet::plan_bumps(std::max(1, chip->io_signals), chip->cell_area_um2,
                                               memory, tech);
    const gia::geometry::Rect die{0, 0, plan.width_um, plan.width_um};
    std::vector<int> nets = chip->internal_net_ids;
    nets.insert(nets.end(), chip->cut_net_ids.begin(), chip->cut_net_ids.end());
    // External terminals of cut nets pinned round-robin to bump sites; the
    // first run leaves them unpinned (they fall back to the die center).
    std::vector<int> mine(static_cast<std::size_t>(c.net.instance_count()), 0);
    for (int id : chip->instance_ids) mine[static_cast<std::size_t>(id)] = 1;
    std::vector<std::pair<int, gia::geometry::Point>> fixed;
    std::size_t site = 0;
    for (int nid : chip->cut_net_ids) {
      for (int t : c.net.net(nid).terminals) {
        if (!mine[static_cast<std::size_t>(t)]) {
          fixed.emplace_back(t, plan.bump_sites[site++ % plan.bump_sites.size()]);
        }
      }
    }
    ASSERT_FALSE(fixed.empty());
    using Pins = std::vector<std::pair<int, gia::geometry::Point>>;
    const Pins none;
    for (const Pins* pins : {&none, const_cast<const Pins*>(&fixed)}) {
      gia::chiplet::PlacerOptions opts;  // the flow's final pass
      expect_same_placement(
          gia::chiplet::testing::place_clusters_oracle(c.net, chip->instance_ids, nets, die, *pins, opts),
          gia::chiplet::place_clusters(c.net, chip->instance_ids, nets, die, *pins, opts));
      opts.moves_per_cluster = 100;  // the draft pass, internal nets only
      opts.seed = 11;
      expect_same_placement(
          gia::chiplet::testing::place_clusters_oracle(c.net, chip->instance_ids,
                                                       chip->internal_net_ids, die, *pins, opts),
          gia::chiplet::place_clusters(c.net, chip->instance_ids, chip->internal_net_ids, die,
                                       *pins, opts));
    }
  }
}

// --- Deterministic work counters ---------------------------------------------------

struct WorkCounts {
  std::uint64_t router_heap_pops = 0, placer_moves = 0, transient_steps = 0, lu_solves = 0;
  bool operator==(const WorkCounts& o) const {
    return router_heap_pops == o.router_heap_pops && placer_moves == o.placer_moves &&
           transient_steps == o.transient_steps && lu_solves == o.lu_solves;
  }
};

/// One cold glass25d flow (eyes and thermal on) at `threads`; returns the
/// counters it added and its serialized result.
std::pair<WorkCounts, std::string> counted_flow(int threads) {
  namespace ins = gia::core::instrument;
  gia::core::set_thread_count(threads);
  ins::reset();
  gia::core::FlowOptions opts;
  opts.with_eyes = true;
  opts.with_thermal = true;
  const auto json = gia::core::technology_result_to_json(
      gia::core::run_full_flow(gia::tech::TechnologyKind::Glass25D, opts));
  WorkCounts w;
  w.router_heap_pops = ins::counter_value(ins::Counter::RouterHeapPops);
  w.placer_moves = ins::counter_value(ins::Counter::PlacerMoves);
  w.transient_steps = ins::counter_value(ins::Counter::TransientSteps);
  w.lu_solves = ins::counter_value(ins::Counter::LuSolves);
  return {w, json};
}

TEST(WorkCounters, DeterministicAcrossThreadsAndRuns) {
  namespace ins = gia::core::instrument;
  const bool was_enabled = ins::enabled();
  const bool cache_was_on = gia::core::stage::stage_cache_enabled();
  ins::set_enabled(true);
  gia::core::stage::set_stage_cache_enabled(false);
  const auto one = counted_flow(1);
  const auto four = counted_flow(4);
  const auto again = counted_flow(4);
  gia::core::set_thread_count(0);
  gia::core::stage::set_stage_cache_enabled(cache_was_on);
  ins::reset();
  ins::set_enabled(was_enabled);

  EXPECT_GT(one.first.router_heap_pops, 0u);
  EXPECT_GT(one.first.transient_steps, 0u);
  EXPECT_GT(one.first.lu_solves, 0u);
  EXPECT_TRUE(one.first == four.first);
  EXPECT_TRUE(four.first == again.first);
  EXPECT_EQ(one.second, four.second);

  // Each die: the draft pass's max(10, m/4) moves per cluster plus the final
  // pass's m moves per cluster.
  const gia::chiplet::PlacerOptions placer;
  const auto per_cluster = static_cast<std::uint64_t>(
      placer.moves_per_cluster + std::max(10, placer.moves_per_cluster / 4));
  const auto clusters =
      chiplets().logic.instance_ids.size() + chiplets().memory.instance_ids.size();
  EXPECT_EQ(one.first.placer_moves, per_cluster * clusters);
}

}  // namespace
