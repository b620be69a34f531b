#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/links.hpp"
#include "core/parallel.hpp"
#include "core/sweep.hpp"
#include "interposer/design.hpp"
#include "pdn/impedance.hpp"
#include "pdn/pdn_model.hpp"
#include "signal/eye.hpp"
#include "signal/variation.hpp"
#include "tech/library.hpp"
#include "thermal/solver.hpp"

namespace co = gia::core;
namespace sg = gia::signal;
namespace th = gia::tech;
namespace tml = gia::thermal;

namespace {

/// Restores the previous thread count when a test ends so the suite's tests
/// stay order-independent.
struct ThreadCountGuard {
  ThreadCountGuard() : saved(co::thread_count()) {}
  ~ThreadCountGuard() { co::set_thread_count(saved); }
  int saved;
};

tml::ThermalMesh small_mesh() {
  tml::ThermalMesh mesh;
  mesh.nx = 12;
  mesh.ny = 12;
  mesh.cell_w_um = 150;
  mesh.cell_h_um = 150;
  tml::ZLayer bot, top;
  bot.name = "bot";
  bot.thickness_um = 400;
  bot.k = gia::geometry::Grid<double>(12, 12, 2.0);
  bot.power = gia::geometry::Grid<double>(12, 12, 0.0);
  top = bot;
  top.name = "top";
  top.k.fill(120.0);
  // Asymmetric power so scheduling mistakes cannot hide behind symmetry.
  for (int y = 0; y < 12; ++y) {
    for (int x = 0; x < 12; ++x) top.power.at(x, y) = 1e-4 * (1 + x + 3 * y);
  }
  mesh.layers = {bot, top};
  return mesh;
}

sg::LinkSpec test_link() {
  return gia::core::make_fixed_line_spec(th::make_technology(th::TechnologyKind::Silicon25D),
                                         1500.0);
}

}  // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadCountGuard guard;
  co::set_thread_count(4);
  std::vector<int> hits(999, 0);
  co::parallel_for(hits.size(), [&](std::size_t i) { hits[i] += 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelFor, PoolRestartsAcrossThreadCountChanges) {
  ThreadCountGuard guard;
  for (int n : {1, 3, 1, 4, 2}) {
    co::set_thread_count(n);
    EXPECT_EQ(co::thread_count(), n);
    std::atomic<long> sum{0};
    co::parallel_for(100, [&](std::size_t i) { sum += static_cast<long>(i); });
    EXPECT_EQ(sum.load(), 4950);
  }
}

TEST(ParallelFor, EnvVarSetsDefault) {
  ThreadCountGuard guard;
  ASSERT_EQ(setenv("GIA_THREADS", "3", 1), 0);
  co::set_thread_count(0);  // re-read the environment
  EXPECT_EQ(co::thread_count(), 3);
  ASSERT_EQ(unsetenv("GIA_THREADS"), 0);
  co::set_thread_count(0);
  EXPECT_GE(co::thread_count(), 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadCountGuard guard;
  for (int n : {1, 4}) {
    co::set_thread_count(n);
    EXPECT_THROW(co::parallel_for(64,
                                  [&](std::size_t i) {
                                    if (i == 13) throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<int> count{0};
    co::parallel_for(32, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 32);
  }
}

TEST(ParallelFor, NestedCallsShareThePool) {
  ThreadCountGuard guard;
  co::set_thread_count(4);

  // Three levels deep, every index exactly once.
  std::vector<int> hits(6 * 5 * 7, 0);
  co::parallel_for(6, [&](std::size_t a) {
    co::parallel_for(5, [&](std::size_t b) {
      co::parallel_for(7, [&](std::size_t c) { hits[(a * 5 + b) * 7 + c] += 1; });
    });
  });
  for (int h : hits) EXPECT_EQ(h, 1);

  // Only one outer body nests, so inner bodies on more than one thread
  // means idle workers joined the nested call instead of it running inline.
  std::mutex mu;
  std::set<std::thread::id> inner_threads;
  co::parallel_for(2, [&](std::size_t outer) {
    if (outer != 0) return;
    co::parallel_for(8, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      std::lock_guard<std::mutex> lk(mu);
      inner_threads.insert(std::this_thread::get_id());
    });
  });
  EXPECT_GT(inner_threads.size(), 1u);

  // An exception thrown by a nested body reaches the outermost caller.
  EXPECT_THROW(co::parallel_for(4,
                                [&](std::size_t outer) {
                                  co::parallel_for(4, [&](std::size_t inner) {
                                    if (outer == 2 && inner == 3) {
                                      throw std::runtime_error("nested boom");
                                    }
                                  });
                                }),
               std::runtime_error);

  // Two external threads calling (and nesting) at once both complete.
  std::atomic<long> sums[2] = {{0}, {0}};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&, t] {
      co::parallel_for(10, [&](std::size_t i) {
        co::parallel_for(10, [&](std::size_t j) { sums[t] += static_cast<long>(i * 10 + j); });
      });
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(sums[0].load(), 4950);
  EXPECT_EQ(sums[1].load(), 4950);
}

TEST(ParallelFor, ThreadCountChangesDuringConcurrentCalls) {
  ThreadCountGuard guard;
  co::set_thread_count(4);
  // Calls in flight keep the pool they started on while another thread
  // makes the next call build a differently sized one.
  std::atomic<bool> done{false};
  std::thread resizer([&] {
    for (int k = 0; !done.load() && k < 2000; ++k) {
      co::set_thread_count(k % 2 == 0 ? 2 : 4);
      std::this_thread::yield();
    }
  });
  std::atomic<int> wrong{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 4; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < 200; ++round) {
        std::vector<int> hits(24, 0);
        co::parallel_for(6, [&](std::size_t i) {
          co::parallel_for(4, [&](std::size_t j) { hits[i * 4 + j] += 1; });
        });
        for (int h : hits) wrong += h == 1 ? 0 : 1;
      }
    });
  }
  for (auto& c : callers) c.join();
  done = true;
  resizer.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST(ParallelForChunked, GridIsThreadCountIndependent) {
  ThreadCountGuard guard;
  auto chunk_grid = [](std::size_t n, std::size_t grain) {
    std::vector<std::pair<std::size_t, std::size_t>> grid(n / grain + 2);
    std::atomic<std::size_t> used{0};
    co::parallel_for_chunked(n, grain, [&](std::size_t b, std::size_t e) {
      grid[b / grain] = {b, e};
      ++used;
    });
    grid.resize(used.load());
    return grid;
  };
  co::set_thread_count(1);
  const auto serial = chunk_grid(103, 16);
  co::set_thread_count(4);
  const auto parallel = chunk_grid(103, 16);
  EXPECT_EQ(serial, parallel);
  ASSERT_EQ(serial.size(), 7u);
  EXPECT_EQ(serial.back().second, 103u);
}

TEST(OrderedReduce, ByteIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Values chosen so the accumulation order matters in floating point: a
  // scheduling-dependent combine order would show up as a bit difference.
  std::vector<double> values(4097);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = 1e-12 + 1e3 * static_cast<double>(i % 7) + 1e-7 * static_cast<double>(i);
  }
  auto sum_at = [&](int threads) {
    co::set_thread_count(threads);
    return co::ordered_reduce(
        values.size(), 64, 0.0,
        [&](std::size_t b, std::size_t e) {
          return std::accumulate(values.begin() + static_cast<long>(b),
                                 values.begin() + static_cast<long>(e), 0.0);
        },
        [](double a, double b) { return a + b; });
  };
  const double s1 = sum_at(1);
  const double s4 = sum_at(4);
  EXPECT_EQ(s1, s4);  // exact, not NEAR
}

TEST(Determinism, ThermalSteadyState) {
  ThreadCountGuard guard;
  const auto mesh = small_mesh();
  co::set_thread_count(1);
  const auto serial = tml::solve_steady_state(mesh);
  co::set_thread_count(4);
  const auto parallel = tml::solve_steady_state(mesh);
  ASSERT_TRUE(serial.converged);
  ASSERT_TRUE(parallel.converged);
  EXPECT_EQ(serial.iterations, parallel.iterations);
  EXPECT_EQ(serial.max_c, parallel.max_c);
  ASSERT_EQ(serial.t_c.size(), parallel.t_c.size());
  for (std::size_t z = 0; z < serial.t_c.size(); ++z) {
    EXPECT_EQ(serial.t_c[z].data(), parallel.t_c[z].data()) << "layer " << z;
  }
}

TEST(Determinism, ThermalTransient) {
  ThreadCountGuard guard;
  const auto mesh = small_mesh();
  const tml::ThermalProbe probe{1, 6, 6};
  co::set_thread_count(1);
  const auto serial = tml::solve_transient(mesh, 1e-4, probe);
  co::set_thread_count(4);
  const auto parallel = tml::solve_transient(mesh, 1e-4, probe);
  EXPECT_EQ(serial.probe_c, parallel.probe_c);
  for (std::size_t z = 0; z < serial.final_field.t_c.size(); ++z) {
    EXPECT_EQ(serial.final_field.t_c[z].data(), parallel.final_field.t_c[z].data());
  }
}

TEST(Determinism, VariationMonteCarlo) {
  ThreadCountGuard guard;
  sg::VariationSpec var;
  var.samples = 8;
  co::set_thread_count(1);
  const auto serial = sg::monte_carlo_delay(test_link(), var);
  co::set_thread_count(4);
  const auto parallel = sg::monte_carlo_delay(test_link(), var);
  EXPECT_EQ(serial.samples_s, parallel.samples_s);
  EXPECT_EQ(serial.mean_delay_s, parallel.mean_delay_s);
  EXPECT_EQ(serial.sigma_delay_s, parallel.sigma_delay_s);
  EXPECT_EQ(serial.worst_delay_s, parallel.worst_delay_s);
}

TEST(Determinism, PdnImpedance) {
  ThreadCountGuard guard;
  const auto design = gia::interposer::build_interposer_design(th::TechnologyKind::Glass25D);
  const auto model = gia::pdn::build_pdn_model(design);
  co::set_thread_count(1);
  const auto serial = gia::pdn::impedance_profile(model);
  co::set_thread_count(4);
  const auto parallel = gia::pdn::impedance_profile(model);
  EXPECT_EQ(serial.freq_hz, parallel.freq_hz);
  EXPECT_EQ(serial.z_ohm, parallel.z_ohm);
}

TEST(Determinism, Sweep1d) {
  ThreadCountGuard guard;
  const std::vector<double> values = {10, 20, 30, 40, 50, 60, 70};
  auto eval = [](double v) {
    return co::MetricMap{{"area", v * v}, {"perimeter", 4 * v}};
  };
  co::set_thread_count(1);
  const auto serial = co::sweep_1d("pitch", values, eval);
  co::set_thread_count(4);
  const auto parallel = co::sweep_1d("pitch", values, eval);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].label, parallel[i].label);
    EXPECT_EQ(serial[i].metric("area"), parallel[i].metric("area"));
    EXPECT_EQ(serial[i].metric("perimeter"), parallel[i].metric("perimeter"));
  }
  // Output order must match the input value order.
  EXPECT_EQ(serial.front().label, "pitch=10");
  EXPECT_EQ(serial.back().label, "pitch=70");
}

TEST(Determinism, EyeEnsemble) {
  ThreadCountGuard guard;
  const auto spec = test_link();
  co::set_thread_count(1);
  const auto serial = sg::simulate_eye_ensemble(spec, 24, 2);
  co::set_thread_count(4);
  const auto parallel = sg::simulate_eye_ensemble(spec, 24, 2);
  EXPECT_EQ(serial.width_s, parallel.width_s);
  EXPECT_EQ(serial.height_v, parallel.height_v);
  EXPECT_EQ(serial.mean_high_v, parallel.mean_high_v);
  EXPECT_EQ(serial.sigma_high_v, parallel.sigma_high_v);
  EXPECT_EQ(serial.mean_low_v, parallel.mean_low_v);
  EXPECT_EQ(serial.sigma_low_v, parallel.sigma_low_v);
}

TEST(MetricMap, SortedFlatMapBehavesLikeMap) {
  co::MetricMap m{{"b", 2.0}, {"a", 1.0}, {"c", 3.0}};
  EXPECT_EQ(m.size(), 3u);
  EXPECT_TRUE(m.contains("a"));
  EXPECT_FALSE(m.contains("z"));
  ASSERT_NE(m.find("b"), nullptr);
  EXPECT_EQ(*m.find("b"), 2.0);
  m.set("b", 9.0);  // overwrite keeps size
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(*m.find("b"), 9.0);
  // Iteration is sorted by name.
  std::vector<std::string> names;
  for (const auto& kv : m) names.push_back(kv.first);
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "c"}));
  // Conversion from std::map (legacy eval lambdas).
  const std::map<std::string, double> legacy{{"x", 1.0}, {"y", 2.0}};
  const co::MetricMap from_map = legacy;
  EXPECT_EQ(*from_map.find("y"), 2.0);
}
