// Fleet-serving suite: the byte-budgeted session cache (LRU eviction,
// SessionRef pinning, retired-generation reclaim) and the batched
// multi-RHS solve path.  The cache cases run on grid sizes and on routed
// operators, which share the one cache.  Eviction must never destroy a
// pinned session, an evicted entry must rebind to bit-identical solves, solve_batch must
// bitwise-match K solo solves under any thread count, and binds /
// batches / installs / trims must be race-free under concurrent clients
// (this suite runs under TSan and UBSan in CI).

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "engine/solve_service.h"
#include "grid/level.h"
#include "grid/problem.h"
#include "support/rng.h"
#include "tune/accuracy.h"
#include "tune/executor.h"
#include "tune/trainer.h"

namespace pbmg {
namespace {

constexpr int kMaxLevel = 4;

Engine& engine() {
  static Engine instance([] {
    rt::MachineProfile p;
    p.name = "fleet-test";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  return instance;
}

const tune::TunedConfig& trained() {
  static const tune::TunedConfig config = [] {
    tune::TrainerOptions options;
    options.max_level = kMaxLevel;
    options.seed = 1313;
    tune::Trainer trainer(options, engine());
    return trainer.train();
  }();
  return config;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// What a cache case binds: the generation's own family operator per grid
/// size (solve, session(n)), or a routed operator per identity × size
/// (solve_op, session(op)).  Both live in the one session cache, so every
/// eviction case runs on both inputs.
enum class Input { kSizes, kRouted };

std::string input_name(const ::testing::TestParamInfo<Input>& info) {
  return info.param == Input::kSizes ? "Sizes" : "Routed";
}

/// One cache entry per level: for kSizes the session of that side, for
/// kRouted a jump-coefficient operator of that side (served by the
/// Poisson-tuned tables as a stand-in), built once per fixture so
/// re-touching a level hits the same identity.
class FleetCache : public ::testing::TestWithParam<Input> {
 protected:
  const grid::StencilOp& op(int level) {
    auto it = ops_.find(level);
    if (it == ops_.end()) {
      it = ops_.emplace(level, make_operator(size_of_level(level),
                                             OperatorFamily::kJumpCoefficient))
               .first;
    }
    return it->second;
  }

  /// Pins the level's entry (binding it on first use).
  SessionRef pin(SolveService& service, int level) {
    return GetParam() == Input::kSizes ? service.session(size_of_level(level))
                                       : service.session(op(level));
  }

  /// Binds or touches the level's entry the way requests do: session(n)
  /// for sizes, a solve_op for routed operators (an exact zero problem,
  /// so the solve itself does no work).
  void touch(SolveService& service, int level) {
    if (GetParam() == Input::kSizes) {
      service.session(size_of_level(level));
      return;
    }
    const int n = size_of_level(level);
    Grid2D x(n, 0.0);
    const Grid2D b(n, 0.0);
    SolveRequest request;
    request.accuracy_index = 0;
    service.solve_op(op(level), x, b, request);
  }

  /// Solves `problem` through the level's entry.
  void solve(SolveService& service, int level, Grid2D& x,
             const PoissonProblem& problem, const SolveRequest& request) {
    if (GetParam() == Input::kSizes) {
      service.solve(x, problem.b, request);
    } else {
      service.solve_op(op(level), x, problem.b, request);
    }
  }

  /// Footprint of one bound entry of the level under the trained config,
  /// measured on a throwaway unlimited service.
  std::size_t footprint(int level) {
    SolveService probe(engine(), trained());
    return pin(probe, level)->footprint_bytes();
  }

 private:
  std::map<int, grid::StencilOp> ops_;
};

// ---------------------------------------------------------- eviction --

TEST_P(FleetCache, ByteBudgetBoundsResidentSessions) {
  const std::size_t biggest = footprint(kMaxLevel);
  ServicePolicy policy;
  policy.max_session_bytes = biggest + biggest / 10;  // room for one big only
  SolveService service(engine(), trained(), policy);
  // Bind every level, largest last; unpinned smaller entries must be
  // evicted to keep the resident bytes bounded.
  for (int level = 2; level <= kMaxLevel; ++level) touch(service, level);
  const ServiceStats stats = service.stats();
  EXPECT_GT(stats.evictions, 0);
  EXPECT_LE(stats.session_bytes, policy.max_session_bytes);
  EXPECT_LT(stats.sessions, static_cast<std::size_t>(kMaxLevel - 1));
}

TEST_P(FleetCache, SessionCountCapEvictsLeastRecentlyUsed) {
  ServicePolicy policy;
  policy.max_sessions = 2;
  SolveService service(engine(), trained(), policy);
  touch(service, 2);
  touch(service, 3);
  // Touch level 2 so level 3 is the LRU victim when level 4 binds.
  touch(service, 2);
  touch(service, 4);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.evictions, 1);
  // The victim must have been level 3 (stale), not the just-touched
  // level 2 (which a key-ordered sweep would have picked first): level 2
  // is still cached, so re-binding it inserts nothing and evicts nothing.
  touch(service, 2);
  EXPECT_EQ(service.stats().sessions, 2u);
  EXPECT_EQ(service.stats().evictions, 1);
}

TEST_P(FleetCache, PinnedSessionsAreNeverEvicted) {
  ServicePolicy policy;
  policy.max_sessions = 1;
  SolveService service(engine(), trained(), policy);
  SessionRef small = pin(service, 2);
  SessionRef mid = pin(service, 3);
  // Both pinned: the cap is unenforceable and the cache must prefer
  // overshooting the budget to destroying a session in use.
  EXPECT_EQ(service.stats().sessions, 2u);
  EXPECT_EQ(service.stats().evictions, 0);
  EXPECT_EQ(small->n(), size_of_level(2));
  EXPECT_EQ(mid->n(), size_of_level(3));
  // Dropping one pin makes it evictable; the next bind drains the cache
  // back toward the cap and the still-pinned session survives.
  small = SessionRef();
  const SessionRef big = pin(service, 4);
  EXPECT_GT(service.stats().evictions, 0);
  EXPECT_EQ(mid->n(), size_of_level(3));  // pinned ⇒ alive and usable
}

TEST_P(FleetCache, EvictedSizeRebindsToBitIdenticalSolves) {
  ServicePolicy policy;
  policy.max_sessions = 1;
  SolveService service(engine(), trained(), policy);
  const int n = size_of_level(3);
  Rng rng(505);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = trained().accuracy_count() - 1;
  Grid2D first(n, 0.0);
  first.copy_from(problem.x0);
  solve(service, 3, first, problem, request);
  // Evict the entry by binding another, then rebind: the fresh session
  // must reproduce the retired one's arithmetic exactly.
  touch(service, 4);
  ASSERT_GT(service.stats().evictions, 0);
  Grid2D second(n, 0.0);
  second.copy_from(problem.x0);
  solve(service, 3, second, problem, request);
  EXPECT_TRUE(bitwise_equal(first, second));
}

INSTANTIATE_TEST_SUITE_P(Inputs, FleetCache,
                         ::testing::Values(Input::kSizes, Input::kRouted),
                         input_name);

// ------------------------------------------------------ batched solves --

TEST(FleetBatch, BatchBitwiseMatchesSoloAcrossThreadCounts) {
  constexpr int kBatch = 4;
  for (const int threads : {1, 4}) {
    Engine local([threads] {
      rt::MachineProfile p;
      p.name = "fleet-batch-" + std::to_string(threads) + "t";
      p.threads = threads;
      p.grain_rows = 4;
      return p;
    }());
    SolveService service(local, trained());
    const int n = size_of_level(kMaxLevel);
    Rng rng(606);
    auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
    for (const bool fmg : {false, true}) {
      SolveRequest request;
      request.accuracy_index = 0;
      request.fmg = fmg;
      Grid2D solo(n, 0.0);
      solo.copy_from(problem.x0);
      service.solve(solo, problem.b, request);

      std::vector<Grid2D> batch(kBatch, Grid2D(n, 0.0));
      std::vector<Grid2D*> xs;
      for (auto& x : batch) {
        x.copy_from(problem.x0);
        xs.push_back(&x);
      }
      const std::vector<SolveStats> stats =
          service.solve_batch(xs, problem.b, request);
      ASSERT_EQ(stats.size(), static_cast<std::size_t>(kBatch));
      for (int k = 0; k < kBatch; ++k) {
        EXPECT_TRUE(bitwise_equal(batch[k], solo))
            << "threads=" << threads << " fmg=" << fmg << " slot=" << k;
        EXPECT_EQ(stats[k].iterations, stats[0].iterations);
        EXPECT_EQ(stats[k].generation, 1);
      }
    }
  }
}

TEST(FleetBatch, BatchedVWalkRejectsMalformedSpans) {
  // run_v is run_v_multi's batch of one, so these guards front every V
  // solve: span-size mismatch, null slots and size mismatches (between
  // slots, against the trained levels, against the bound operator
  // ladder) throw InvalidArgument; an empty batch runs nothing.
  const int n = size_of_level(kMaxLevel);
  const tune::TunedExecutor poisson(trained(), engine().scheduler(),
                                    engine().direct(), engine().scratch(),
                                    nullptr, engine().relax());
  const grid::StencilHierarchy short_ladder(
      make_operator(size_of_level(kMaxLevel - 1),
                    OperatorFamily::kJumpCoefficient));
  const tune::TunedExecutor bound(trained(), engine().scheduler(),
                                  engine().direct(), engine().scratch(),
                                  nullptr, engine().relax(), &short_ladder);
  Grid2D x0(n, 0.0);
  Grid2D x1(n, 0.0);
  const Grid2D b0(n, 1.0);
  const Grid2D b1(n, 1.0);
  Grid2D coarse(size_of_level(kMaxLevel - 1), 0.0);
  Grid2D too_fine(size_of_level(kMaxLevel + 1), 0.0);
  const Grid2D b_fine(size_of_level(kMaxLevel + 1), 1.0);
  using XSpan = std::vector<Grid2D*>;
  using BSpan = std::vector<const Grid2D*>;
  EXPECT_THROW(poisson.run_v_multi(XSpan{&x0, &x1}, BSpan{&b0}, 0),
               InvalidArgument);
  EXPECT_THROW(poisson.run_v_multi(XSpan{nullptr, &x1}, BSpan{&b0, &b1}, 0),
               InvalidArgument);
  EXPECT_THROW(poisson.run_v_multi(XSpan{&x0, &x1}, BSpan{&b0, nullptr}, 0),
               InvalidArgument);
  EXPECT_THROW(poisson.run_v_multi(XSpan{&x0, &coarse}, BSpan{&b0, &b1}, 0),
               InvalidArgument);
  EXPECT_THROW(poisson.run_v(coarse, b0, 0), InvalidArgument);
  EXPECT_THROW(poisson.run_v(too_fine, b_fine, 0), InvalidArgument);
  EXPECT_THROW(bound.run_v(x0, b0, 0), InvalidArgument);
  const std::int64_t acquires = engine().scratch().stats().acquires;
  EXPECT_EQ(poisson.run_v_multi(XSpan{}, BSpan{}, 0), 0);
  EXPECT_EQ(engine().scratch().stats().acquires, acquires);
}

TEST(FleetBatch, BatchAccountingCountsEveryRhsAndOneLatencySample) {
  Engine local([] {
    rt::MachineProfile p;
    p.name = "fleet-batch-metrics";
    p.threads = 2;
    p.grain_rows = 4;
    return p;
  }());
  SolveService service(local, trained());
  const int n = size_of_level(3);
  Rng rng(707);
  auto problem = make_problem(n, InputDistribution::kUnbiased, rng);
  SolveRequest request;
  request.accuracy_index = 0;
  constexpr int kBatch = 3;
  std::vector<Grid2D> batch(kBatch, Grid2D(n, 0.0));
  std::vector<Grid2D*> xs;
  for (auto& x : batch) {
    x.copy_from(problem.x0);
    xs.push_back(&x);
  }
  service.solve_batch(xs, problem.b, request);
  EXPECT_EQ(service.stats().requests, kBatch);
  const obs::RegistrySnapshot snapshot = service.metrics_snapshot();
  EXPECT_EQ(snapshot.counters.at("pbmg_solve_requests_total{outcome=\"ok\"}"),
            kBatch);
  // One wall-clock, one healthy latency sample — K per-RHS samples would
  // overcount the histogram the drift watcher reads.
  const std::string series = "pbmg_solve_latency_seconds{n=\"" +
                             std::to_string(n) + "\",acc=\"0\"}";
  EXPECT_EQ(snapshot.histograms.at(series).count, 1);
  ASSERT_TRUE(snapshot.histograms.count("pbmg_batch_size"));
  EXPECT_EQ(snapshot.histograms.at("pbmg_batch_size").count, 1);
  EXPECT_DOUBLE_EQ(snapshot.histograms.at("pbmg_batch_size").sum, kBatch);
}

// ---------------------------------------------------------------- races --

TEST(FleetRace, BindsBatchesInstallsAndTrimsAreRaceFree) {
  // Client threads bind, solve, and batch under a byte budget tight
  // enough to force continuous eviction, while the main thread installs
  // fresh generations and trims.  Identical configs across generations
  // mean every result must still carry the golden bits — and TSan in CI
  // patrols the cache bookkeeping itself.
  Engine local([] {
    rt::MachineProfile p;
    p.name = "fleet-race";
    p.threads = 4;
    p.grain_rows = 4;
    return p;
  }());
  ServicePolicy policy;
  policy.max_sessions = 1;  // every size change evicts
  SolveService service(local, trained(), policy);

  struct Golden {
    PoissonProblem problem;
    Grid2D bits;
  };
  std::vector<Golden> goldens;
  {
    Engine serial(rt::serial_profile());
    SolveService golden_service(serial, trained());
    Rng rng(808);
    for (int level = 2; level <= kMaxLevel; ++level) {
      const int n = size_of_level(level);
      Golden g{make_problem(n, InputDistribution::kUnbiased, rng),
               Grid2D(n, 0.0)};
      g.bits.copy_from(g.problem.x0);
      SolveRequest request;
      request.accuracy_index = 0;
      golden_service.solve(g.bits, g.problem.b, request);
      goldens.push_back(std::move(g));
    }
  }

  constexpr int kClients = 4;
  constexpr int kItersPerClient = 8;
  std::atomic<bool> go{false};
  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      SolveRequest request;
      request.accuracy_index = 0;
      for (int i = 0; i < kItersPerClient; ++i) {
        const Golden& g = goldens[(c + i) % goldens.size()];
        const int n = g.bits.n();
        if ((c + i) % 2 == 0) {
          Grid2D x(n, 0.0);
          x.copy_from(g.problem.x0);
          service.solve(x, g.problem.b, request);
          if (!bitwise_equal(x, g.bits)) mismatches.fetch_add(1);
        } else {
          std::vector<Grid2D> batch(3, Grid2D(n, 0.0));
          std::vector<Grid2D*> xs;
          for (auto& x : batch) {
            x.copy_from(g.problem.x0);
            xs.push_back(&x);
          }
          service.solve_batch(xs, g.problem.b, request);
          for (const Grid2D& x : batch) {
            if (!bitwise_equal(x, g.bits)) mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  std::thread swapper([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!done.load(std::memory_order_acquire)) {
      service.install(trained());
      service.trim();
      std::this_thread::yield();
    }
  });
  go.store(true, std::memory_order_release);
  for (auto& client : clients) client.join();
  done.store(true, std::memory_order_release);
  swapper.join();

  EXPECT_EQ(mismatches.load(), 0);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.failures, 0);
  EXPECT_EQ(stats.requests, kClients * kItersPerClient * 2);  // 1 or 3 RHS
  // After the storm every generation but the live one is unpinned; one
  // more trim reclaims them all.
  service.trim();
  EXPECT_EQ(service.stats().retired_generations, 0u);
}

}  // namespace
}  // namespace pbmg
