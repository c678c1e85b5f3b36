// The three serving workloads and the untraced / traced runners.
//
// Every workload runs closed-loop clients (each sends its next request
// only after the previous reply) against one SolveService over frozen
// tables, on an engine with the `harpertown` profile and the library's
// default RelaxTunables and KernelPolicy.  Inputs come from --seed only.
//
//  poisson_fmg   1 client, Poisson fast path, n=1025, tuned FMG to 1e9.
//                Why: the paper's time to solution at its largest size
//                here; the work is one request's parallelism across the
//                engine's workers (runtime scheduler, Poisson kernels,
//                coarse direct solves).  Service, routing and
//                variable-coefficient kernels stay idle.
//  jump_batch    4 clients, jump family, n=257, solve_batch with K=4
//                right-hand sides sharing b (distinct initial guesses),
//                tuned V to 1e5.  Why: variable-coefficient 5-point
//                kernels, zebra line smoothers and fused multi-RHS walks,
//                with concurrent clients contending for one scheduler.
//  routed_churn  4 clients, solve_op at n=65 to a 1e5 residual reduction
//                over five families (poisson, smooth, jump, aniso,
//                aniso-t30) of seeded operator perturbations; 1 request in
//                8 brings a never-seen operator object.  Why: the service
//                layer (fingerprints, binding cache, escalation ladder)
//                does most of the work; grids stay below the scheduler's
//                sequential cutoff.  The binding cache grows without bound,
//                so the stream runs in rounds of kRoundRequests on a fresh
//                service (same engine), which keeps peak RSS a function of
//                the round, not of the throughput.
//
// BENCHMARK.json gates on poisson_fmg and routed_churn only; jump_batch
// swings too far with host load to gate on (see run.py) and stays
// runnable by hand.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "bench.h"
#include "engine/solve_service.h"
#include "grid/fingerprint.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "probes.h"
#include "runtime/machine_profile.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/timer.h"
#include "tune/accuracy.h"
#include "tune/dynamic.h"
#include "tune/executor.h"

namespace servebench {

namespace {

using namespace pbmg;

/// setup_s is the median of several set-ups per run, taken in
/// kSetupWindows windows spread evenly across the serving time, so that it
/// sees the same host load as the latencies rather than only the first
/// seconds of the run.  Each window times at least kMinSetupReps set-ups,
/// more while they fit in its share of kSetupBudget seconds.
constexpr int kSetupWindows = 4;
constexpr int kMinSetupReps = 2;
constexpr int kMaxSetupReps = 16;
constexpr double kSetupBudget = 4.0;
constexpr int kBatch = 4;          ///< right-hand sides per jump_batch request
constexpr int kRoundRequests = 2048;  ///< routed_churn requests per round
constexpr int kFreshEvery = 8;     ///< 1 routed request in 8 is a new operator
constexpr int kSeenPerFamily = 4;  ///< prebound operators per routed family
constexpr double kTwo32 = 4294967296.0;
constexpr std::int64_t kUnlimited = std::numeric_limits<std::int64_t>::max();
/// A tuned plan is the cheapest one that met its accuracy class on the
/// trainer's instances; on held-out instances it may land somewhat short.
/// As in the figure harness (bench/common/harness.cpp), a tuned solve
/// fails when it misses its class by more than this factor; shortfalls
/// within it are counted and printed on their own.
constexpr double kAccuracyTolerance = 10.0;

double now() { return now_seconds(); }

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

rt::MachineProfile serving_profile(int threads) {
  rt::MachineProfile profile = rt::harpertown_profile();
  if (threads > 0) profile.threads = threads;
  return profile;
}

bool bitwise_equal(const Grid2D& a, const Grid2D& b) {
  return a.n() == b.n() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One engine and the service over it; the service is destroyed first.
struct Served {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<SolveService> service;
  SessionRef session;  ///< the bound session (poisson_fmg, jump_batch)

  /// Tears down in dependency order (a member-wise move assignment would
  /// free the engine before the service that runs on it).
  void clear() {
    session = SessionRef();
    service.reset();
    engine.reset();
  }
};

/// Per-layer spans and counts gathered by a traced pass.  A traced request
/// runs the same input three times, each call one layer lower: through
/// the service, through the session or DynamicSolver the service would
/// use, and through a TunedExecutor bound to the same hierarchies (for
/// routed requests, the DynamicSolver's own timing of its executor runs).
/// Every call carries a PhaseProfile, so all pay the same tracing cost.
/// Differences of those spans are the layers' self times; the lowest
/// call's profile splits the executor's time into phases.
struct Trace {
  std::mutex mutex;
  std::vector<double> service_s, layer_s, executor_s, phase_s;
  std::vector<double> fingerprint_s, route_bind_s;
  std::array<double, obs::kPhaseCount> phase_sum{};
  double top_level_sum = 0.0;
  std::int64_t solves = 0;  ///< right-hand sides solved by traced requests
  std::int64_t routed = 0, variants = 0, escalations = 0, switches = 0,
               useful_variants = 0;

  void add(double service, double layer, double executor,
           const obs::PhaseProfile& profile, int top_level,
           std::int64_t rhs) {
    double total = 0.0;
    double top = 0.0;
    std::array<double, obs::kPhaseCount> by_phase{};
    for (const auto& e : profile.entries()) {
      by_phase[static_cast<std::size_t>(e.phase)] += e.seconds;
      total += e.seconds;
      if (e.level == top_level) top += e.seconds;
    }
    std::lock_guard<std::mutex> lock(mutex);
    service_s.push_back(service);
    layer_s.push_back(layer);
    executor_s.push_back(executor);
    phase_s.push_back(total);
    for (std::size_t p = 0; p < by_phase.size(); ++p) {
      phase_sum[p] += by_phase[p];
    }
    top_level_sum += top;
    solves += rhs;
  }
};

/// What one pass of serving observed.
struct LoopStats {
  std::vector<double> latencies;  ///< seconds per request
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t rhs = 0;           ///< right-hand sides of the requests
  std::int64_t iterations = 0;    ///< SolveStats::iterations summed per RHS
  std::int64_t below_target = 0;  ///< requests short of the full target
  double min_accuracy_ratio = std::numeric_limits<double>::infinity();
  double wall = 0.0;              ///< seconds the clients were serving
  std::int64_t routed = 0, route_matched = 0, route_escalated = 0;
  std::size_t session_bytes = 0;
  std::int64_t evictions = 0;
  std::vector<std::string> errors;

  void merge(const LoopStats& o) {
    latencies.insert(latencies.end(), o.latencies.begin(), o.latencies.end());
    attempted += o.attempted;
    failed += o.failed;
    rhs += o.rhs;
    iterations += o.iterations;
    below_target += o.below_target;
    min_accuracy_ratio = std::min(min_accuracy_ratio, o.min_accuracy_ratio);
    wall += o.wall;
    routed += o.routed;
    route_matched += o.route_matched;
    route_escalated += o.route_escalated;
    session_bytes = std::max(session_bytes, o.session_bytes);
    evictions += o.evictions;
    for (const auto& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

/// Outcome of one request as its client saw it.
struct Record {
  double seconds = 0.0;  ///< wall time of the library call
  std::int64_t rhs = 1;
  std::int64_t iterations = 0;
  bool ok = true;
  /// Lowest achieved accuracy ÷ requested accuracy over the RHS.
  double accuracy_ratio = std::numeric_limits<double>::infinity();

  /// Grades one solved RHS against its exact solution.
  void grade(double achieved, double target) {
    accuracy_ratio = std::min(accuracy_ratio, achieved / target);
    ok = ok && achieved * kAccuracyTolerance >= target;
  }
};

/// Closed loop: `clients` threads take request numbers from one counter and
/// run send(client, seq) back to back until `seconds` have passed or
/// `max_requests` were issued.  A request that throws counts as failed.
LoopStats closed_loop(int clients, double seconds, std::int64_t max_requests,
                      const std::function<Record(int, std::int64_t)>& send) {
  std::vector<LoopStats> per(static_cast<std::size_t>(clients));
  std::atomic<std::int64_t> next{0};
  const double start = now();
  const double deadline = start + seconds;
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopStats& mine = per[static_cast<std::size_t>(c)];
      while (now() < deadline) {
        const std::int64_t seq = next.fetch_add(1);
        if (seq >= max_requests) break;
        ++mine.attempted;
        try {
          const Record r = send(c, seq);
          mine.latencies.push_back(r.seconds);
          mine.rhs += r.rhs;
          mine.iterations += r.iterations;
          if (!r.ok) ++mine.failed;
          if (r.accuracy_ratio < 1.0) ++mine.below_target;
          mine.min_accuracy_ratio =
              std::min(mine.min_accuracy_ratio, r.accuracy_ratio);
        } catch (const std::exception& e) {
          ++mine.failed;
          if (mine.errors.size() < 8) mine.errors.push_back(e.what());
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  LoopStats all;
  for (const auto& p : per) all.merge(p);
  all.wall = now() - start;
  return all;
}

template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now();
  fn();
  return now() - t0;
}

/// Executor bound like a SolveSession binds its own: same config, same
/// averaged ladder, and a Galerkin ladder when a tuned cell uses one.
struct BoundExecutor {
  grid::StencilHierarchy rap;
  std::unique_ptr<tune::TunedExecutor> executor;

  BoundExecutor(Engine& engine, const SolveSession& session) {
    if (tune::config_uses_rap(session.config(), session.level())) {
      rap = grid::StencilHierarchy(session.op(), grid::Coarsening::kRap);
    }
    executor = std::make_unique<tune::TunedExecutor>(
        session.config(), engine.scheduler(), engine.direct(),
        engine.scratch(), nullptr, engine.relax(), &session.operators(),
        rap.top_level() >= 1 ? &rap : nullptr);
  }
};

// ------------------------------------------------------------ workloads --

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  virtual int clients() const = 0;
  /// Timed set-up: engine, frozen tables, service, first bind/prewarm.
  virtual Served setup(int threads) = 0;
  /// Untimed oracle preparation (goldens, warm-up) on a served engine.
  virtual void prepare(Served&) {}
  /// Serves for `seconds`; a non-null trace selects the traced path.
  virtual LoopStats serve(Served& served, double seconds, Trace* trace) = 0;
  /// The table and operator the kernel/bind probes use.
  virtual const tune::TunedConfig& probe_config() const = 0;
  virtual grid::StencilOp probe_operator() const = 0;
};

// ---------------------------------------------------------- poisson_fmg --

class PoissonFmg final : public Workload {
 public:
  static constexpr int kN = 1025;
  static constexpr double kTarget = 1e9;
  static constexpr int kInstances = 3;

  PoissonFmg(const std::string& tables, std::uint64_t seed,
             rt::Scheduler& gen)
      : tables_(tables) {
    const Rng base(seed);
    for (int i = 0; i < kInstances; ++i) {
      Rng rng = base.split(0x501u + static_cast<std::uint64_t>(i));
      instances_.push_back(tune::make_training_instance(
          kN, InputDistribution::kUnbiased, rng, gen));
    }
    config_ = load_table(tables_, table_spec("poisson_L10_fmg.json"));
  }

  const char* name() const override { return "poisson_fmg"; }
  int clients() const override { return 1; }
  const tune::TunedConfig& probe_config() const override { return config_; }
  grid::StencilOp probe_operator() const override {
    return grid::StencilOp::poisson(kN);
  }

  Served setup(int threads) override {
    Served s;
    s.engine = std::make_unique<Engine>(serving_profile(threads));
    tune::TunedConfig config =
        load_table(tables_, table_spec("poisson_L10_fmg.json"));
    s.service = std::make_unique<SolveService>(*s.engine, std::move(config));
    s.session = s.service->session(kN);
    return s;
  }

  LoopStats serve(Served& s, double seconds, Trace* trace) override {
    SolveRequest request;
    request.fmg = true;
    request.accuracy_index = config_.accuracy_index(kTarget);
    Grid2D x(kN, 0.0);
    std::unique_ptr<BoundExecutor> bound;
    if (trace != nullptr) {
      bound = std::make_unique<BoundExecutor>(*s.engine, *s.session);
    }
    rt::Scheduler& sched = s.engine->scheduler();
    auto stats = closed_loop(1, seconds, kUnlimited, [&](int, std::int64_t seq) {
      const auto& inst = instances_[static_cast<std::size_t>(seq % kInstances)];
      Record r;
      SolveRequest req = request;
      std::shared_ptr<obs::PhaseProfile> profile;
      if (trace != nullptr) {
        profile = std::make_shared<obs::PhaseProfile>();
        req.profile = profile;
      }
      x.copy_from(inst.problem.x0);
      SolveStats out;
      r.seconds = timed([&] { out = s.service->solve(x, inst.problem.b, req); });
      r.iterations = out.iterations;
      r.ok = out.converged;
      r.grade(tune::accuracy_of(inst, x, sched), kTarget);
      if (trace != nullptr) {
        x.copy_from(inst.problem.x0);
        const double layer = timed([&] {
          s.session->solve_fmg(x, inst.problem.b, req.accuracy_index,
                               std::make_shared<obs::PhaseProfile>());
        });
        x.copy_from(inst.problem.x0);
        obs::PhaseProfile phases;
        const double exec = timed([&] {
          bound->executor->run_fmg(x, inst.problem.b, req.accuracy_index,
                                   &phases);
        });
        trace->add(r.seconds, layer, exec, phases, s.session->level(), 1);
      }
      return r;
    });
    stats.session_bytes = s.service->stats().session_bytes;
    return stats;
  }

 private:
  std::string tables_;
  std::vector<tune::TrainingInstance> instances_;
  tune::TunedConfig config_;
};

// ----------------------------------------------------------- jump_batch --

class JumpBatch final : public Workload {
 public:
  static constexpr int kN = 257;
  static constexpr double kTarget = 1e5;
  static constexpr int kInstances = 2;  ///< distinct b, kBatch guesses each
  static constexpr int kClients = 4;

  JumpBatch(const std::string& tables, std::uint64_t seed, rt::Scheduler& gen)
      : tables_(tables) {
    const grid::StencilOp op =
        make_operator(kN, OperatorFamily::kJumpCoefficient);
    const Rng base(seed);
    for (int i = 0; i < kInstances; ++i) {
      Rng rng = base.split(0x7A0u + static_cast<std::uint64_t>(i));
      const tune::TrainingInstance inst = tune::make_training_instance(
          op, InputDistribution::kUnbiased, rng, gen);
      for (int k = 0; k < kBatch; ++k) {
        // Slot k keeps the Dirichlet ring and starts from its own random
        // interior; its accuracy is measured against its own start.
        tune::TrainingInstance slot = inst;
        Grid2D& x0 = slot.problem.x0;
        for (int row = 1; row < kN - 1; ++row) {
          for (int col = 1; col < kN - 1; ++col) {
            x0(row, col) = rng.uniform(-kTwo32, kTwo32);
          }
        }
        slot.initial_error = tune::error_against(slot, x0, gen);
        slots_.push_back(std::move(slot));
      }
    }
    config_ = load_table(tables_, table_spec("jump_L8.json"));
  }

  const char* name() const override { return "jump_batch"; }
  int clients() const override { return kClients; }
  const tune::TunedConfig& probe_config() const override { return config_; }
  grid::StencilOp probe_operator() const override {
    return make_operator(kN, OperatorFamily::kJumpCoefficient);
  }

  Served setup(int threads) override {
    Served s;
    s.engine = std::make_unique<Engine>(serving_profile(threads));
    tune::TunedConfig config = load_table(tables_, table_spec("jump_L8.json"));
    s.service = std::make_unique<SolveService>(*s.engine, std::move(config));
    s.session = s.service->session(kN);
    return s;
  }

  void prepare(Served& s) override {
    // Solo goldens: every batch slot must finish bitwise equal to them.
    if (goldens_.empty()) {
      for (const auto& slot : slots_) {
        Grid2D x(kN, 0.0);
        x.copy_from(slot.problem.x0);
        s.service->solve(x, slot.problem.b, request());
        goldens_.push_back(std::move(x));
      }
    }
    // Warm the multi-RHS walk's extra pool leases outside the timed loop.
    std::vector<Grid2D> xs;
    std::vector<Grid2D*> ptrs;
    for (int k = 0; k < kBatch; ++k) xs.push_back(slots_[k].problem.x0);
    for (auto& x : xs) ptrs.push_back(&x);
    for (int c = 0; c < kClients; ++c) {
      s.service->solve_batch(ptrs, slots_[0].problem.b, request());
    }
  }

  LoopStats serve(Served& s, double seconds, Trace* trace) override {
    const SolveRequest base = request();
    std::vector<std::vector<Grid2D>> xs(kClients);
    for (auto& v : xs) v.assign(kBatch, Grid2D(kN, 0.0));
    std::unique_ptr<BoundExecutor> bound;
    if (trace != nullptr) {
      bound = std::make_unique<BoundExecutor>(*s.engine, *s.session);
    }
    rt::Scheduler& sched = s.engine->scheduler();
    auto stats = closed_loop(
        kClients, seconds, kUnlimited, [&](int c, std::int64_t seq) {
          const int inst = static_cast<int>(seq % kInstances);
          auto& mine = xs[static_cast<std::size_t>(c)];
          std::vector<Grid2D*> ptrs;
          const auto reset = [&] {
            ptrs.clear();
            for (int k = 0; k < kBatch; ++k) {
              mine[k].copy_from(slot(inst, k).problem.x0);
              ptrs.push_back(&mine[k]);
            }
          };
          const Grid2D& b = slot(inst, 0).problem.b;
          SolveRequest req = base;
          std::shared_ptr<obs::PhaseProfile> profile;
          if (trace != nullptr) {
            profile = std::make_shared<obs::PhaseProfile>();
            req.profile = profile;
          }
          reset();
          std::vector<SolveStats> out;
          Record r;
          r.rhs = kBatch;
          r.seconds = timed([&] { out = s.service->solve_batch(ptrs, b, req); });
          for (int k = 0; k < kBatch; ++k) {
            r.iterations += out[static_cast<std::size_t>(k)].iterations;
            r.ok = r.ok && out[static_cast<std::size_t>(k)].converged &&
                   bitwise_equal(mine[k], golden(inst, k));
            r.grade(tune::accuracy_of(slot(inst, k), mine[k], sched), kTarget);
          }
          if (trace != nullptr) {
            reset();
            const double layer = timed([&] {
              s.session->solve_batch_v(ptrs, b, req.accuracy_index,
                                       std::make_shared<obs::PhaseProfile>());
            });
            reset();
            const std::vector<const Grid2D*> bs(kBatch, &b);
            obs::PhaseProfile phases;
            const double exec = timed([&] {
              bound->executor->run_v_multi(ptrs, bs, req.accuracy_index,
                                           &phases);
            });
            trace->add(r.seconds, layer, exec, phases, s.session->level(),
                       kBatch);
          }
          return r;
        });
    stats.session_bytes = s.service->stats().session_bytes;
    return stats;
  }

 private:
  SolveRequest request() const {
    SolveRequest r;
    r.accuracy_index = config_.accuracy_index(kTarget);
    return r;
  }
  const tune::TrainingInstance& slot(int inst, int k) const {
    return slots_[static_cast<std::size_t>(inst * kBatch + k)];
  }
  const Grid2D& golden(int inst, int k) const {
    return goldens_[static_cast<std::size_t>(inst * kBatch + k)];
  }

  std::string tables_;
  std::vector<tune::TrainingInstance> slots_;
  std::vector<Grid2D> goldens_;
  tune::TunedConfig config_;
};

// --------------------------------------------------------- routed_churn --

/// An operator of `family` with a seeded perturbation of its contrast,
/// ratio, angle or scale, built through the public StencilOp factories.
grid::StencilOp perturbed_operator(OperatorFamily family, int n, Rng& rng) {
  switch (family) {
    case OperatorFamily::kPoisson: {
      const double scale = rng.uniform(0.5, 2.0);
      return grid::StencilOp::from_coefficient(
          n, [scale](double, double) { return scale; });
    }
    case OperatorFamily::kSmoothVariable: {
      const double amp = rng.uniform(0.4, 0.8);
      return grid::StencilOp::from_coefficient(n, [amp](double x, double y) {
        return 1.0 + amp * std::sin(M_PI * x) * std::sin(M_PI * y);
      });
    }
    case OperatorFamily::kJumpCoefficient: {
      const double contrast = rng.uniform(50.0, 200.0);
      return grid::StencilOp::from_coefficient(
          n, [contrast](double x, double y) {
            const bool inside = x >= 0.25 && x < 0.75 && y >= 0.25 && y < 0.75;
            return inside ? contrast : 1.0;
          });
    }
    case OperatorFamily::kAnisotropic: {
      const double weak = 1.0 / rng.uniform(24.0, 40.0);
      return grid::StencilOp::from_coefficients(
          n, [](double, double) { return 1.0; },
          [weak](double, double) { return weak; }, 0.0);
    }
    case OperatorFamily::kAnisoTheta30: {
      constexpr double kEpsilon = 1e-2;
      const double theta = rng.uniform(25.0, 35.0) * M_PI / 180.0;
      const double sn = std::sin(theta);
      const double cs = std::cos(theta);
      const double a11 = cs * cs + kEpsilon * sn * sn;
      const double a22 = sn * sn + kEpsilon * cs * cs;
      const double a12 = (1.0 - kEpsilon) * sn * cs;
      return grid::StencilOp::from_tensor(
          n, [a11](double, double) { return a11; },
          [a12](double, double) { return a12; },
          [a22](double, double) { return a22; }, 0.0);
    }
    default:
      break;
  }
  throw InvalidArgument("servebench: family without a perturbation");
}

class RoutedChurn final : public Workload {
 public:
  static constexpr int kN = 65;
  static constexpr double kTarget = 1e5;       ///< residual reduction
  static constexpr double kErrorFloor = 10.0;  ///< minimum accuracy_of
  static constexpr int kClients = 4;
  static constexpr int kInstancesPerOp = 2;
  static constexpr std::array<OperatorFamily, 5> kFamilies = {
      OperatorFamily::kPoisson, OperatorFamily::kSmoothVariable,
      OperatorFamily::kJumpCoefficient, OperatorFamily::kAnisotropic,
      OperatorFamily::kAnisoTheta30};
  static constexpr std::array<const char*, 5> kTables = {
      "routed_poisson_L6.json", "routed_smooth_L6.json",
      "routed_jump_L6.json", "routed_aniso_L6.json",
      "routed_aniso-t30_L6.json"};

  /// One routed input: an operator and an instance with its exact solution.
  struct Input {
    grid::StencilOp op;
    tune::TrainingInstance inst;
    double r0 = 0.0;  ///< ||b − A·x0||, for the benchmark's own audit
  };

  RoutedChurn(const std::string& tables, std::uint64_t seed,
              rt::Scheduler& gen)
      : tables_(tables), base_(seed), gen_(gen) {
    for (std::size_t f = 0; f < kFamilies.size(); ++f) {
      for (int k = 0; k < kSeenPerFamily; ++k) {
        Rng rng = base_.split(0xC0DEu + f * 131 + static_cast<std::uint64_t>(k));
        const grid::StencilOp op = perturbed_operator(kFamilies[f], kN, rng);
        for (int i = 0; i < kInstancesPerOp; ++i) {
          seen_.push_back(make_input(op, rng));
        }
      }
      configs_.push_back(load_table(tables_, table_spec(kTables[f])));
    }
  }

  const char* name() const override { return "routed_churn"; }
  int clients() const override { return kClients; }
  const tune::TunedConfig& probe_config() const override {
    return configs_.front();
  }
  grid::StencilOp probe_operator() const override {
    Rng rng = base_.split(0xF00Du);
    return perturbed_operator(OperatorFamily::kJumpCoefficient, kN, rng);
  }

  Served setup(int threads) override {
    Served s;
    s.engine = std::make_unique<Engine>(serving_profile(threads));
    std::vector<tune::TunedConfig> configs;
    for (const char* file : kTables) {
      configs.push_back(load_table(tables_, table_spec(file)));
    }
    bind_service(s, configs);
    return s;
  }

  void prepare(Served& s) override {
    // One untimed round: the first round after start-up runs at about half
    // the steady rate (allocator and page-fault warm-up).
    run_round(s, 1e9, fresh_inputs(round_++), nullptr);
    s.service.reset();
    bind_service(s, configs_);
  }

  LoopStats serve(Served& s, double seconds, Trace* trace) override {
    LoopStats all;
    const double deadline = now() + seconds;
    for (int round = 0; now() < deadline; ++round) {
      if (round > 0) {
        s.service.reset();
        bind_service(s, configs_);
      }
      const std::vector<Input> fresh = fresh_inputs(round_++);
      LoopStats stats = run_round(s, deadline - now(), fresh, trace);
      // Route outcomes of the round's service (its registry dies with it).
      const obs::RegistrySnapshot snap = s.service->metrics_snapshot();
      for (const auto& [name, value] : snap.counters) {
        if (name.rfind("pbmg_route_total{", 0) != 0) continue;
        if (name.find("outcome=\"matched\"") != std::string::npos) {
          stats.route_matched += value;
        } else if (name.find("outcome=\"escalated\"") != std::string::npos) {
          stats.route_escalated += value;
        }
      }
      const ServiceStats svc = s.service->stats();
      stats.routed = svc.routed_requests;
      stats.session_bytes = svc.session_bytes;
      stats.evictions = svc.evictions;
      all.merge(stats);
    }
    return all;
  }

 private:
  /// A fresh service on the engine: tables installed per family, routing on
  /// with a null retune (no training during the workload), and every seen
  /// operator bound by one untimed-in-the-loop prewarm solve.  The
  /// construction family is installed too: a binding that falls back to the
  /// construction config points into its generation, so that generation
  /// (with every binding) would outlive the service it belonged to.
  void bind_service(Served& s, const std::vector<tune::TunedConfig>& configs) {
    s.service = std::make_unique<SolveService>(*s.engine, configs.front());
    for (const tune::TunedConfig& config : configs) {
      s.service->install_family(config);
    }
    s.service->enable_operator_routing(RoutePolicy{}, nullptr);
    SolveRequest req;
    req.target_accuracy = kTarget;
    Grid2D x(kN, 0.0);
    for (std::size_t i = 0; i < seen_.size(); i += kInstancesPerOp) {
      x.copy_from(seen_[i].inst.problem.x0);
      s.service->solve_op(seen_[i].op, x, seen_[i].inst.problem.b, req);
    }
  }

  Input make_input(const grid::StencilOp& op, Rng& rng) const {
    Input in{op, tune::make_training_instance(op, InputDistribution::kUnbiased,
                                              rng, gen_)};
    in.r0 = residual_norm(op, in.inst.problem.x0, in.inst.problem.b, gen_);
    return in;
  }

  static double residual_norm(const grid::StencilOp& op, const Grid2D& x,
                              const Grid2D& b, rt::Scheduler& sched) {
    Grid2D r(op.n(), 0.0);
    grid::residual_op(op, x, b, r, sched);
    return grid::norm2_interior(r, sched);
  }

  /// The never-seen operators of one round, generated before it starts.
  std::vector<Input> fresh_inputs(std::uint64_t round) const {
    std::vector<Input> out;
    Rng rng = base_.split(0xFE5Bu + round);
    for (int i = 0; i < kRoundRequests / kFreshEvery; ++i) {
      const OperatorFamily family =
          kFamilies[rng.uniform_index(kFamilies.size())];
      out.push_back(make_input(perturbed_operator(family, kN, rng), rng));
    }
    return out;
  }

  /// The request with global number `seq` of a round: every kFreshEvery-th
  /// brings the next fresh operator, the rest a seeded seen operator.
  const Input& pick(std::int64_t seq, const std::vector<Input>& fresh) const {
    if (seq % kFreshEvery == kFreshEvery - 1) {
      return fresh[static_cast<std::size_t>(seq / kFreshEvery)];
    }
    Rng rng = base_.split(0x5EE0000u + static_cast<std::uint64_t>(seq) +
                          (round_ << 20));
    return seen_[rng.uniform_index(seen_.size())];
  }

  LoopStats run_round(Served& s, double seconds,
                      const std::vector<Input>& fresh, Trace* trace) {
    std::vector<Grid2D> xs(kClients, Grid2D(kN, 0.0));
    rt::Scheduler& sched = s.engine->scheduler();
    return closed_loop(
        kClients, seconds, kRoundRequests, [&](int c, std::int64_t seq) {
          const Input& in = pick(seq, fresh);
          const bool is_fresh = seq % kFreshEvery == kFreshEvery - 1;
          Grid2D& x = xs[static_cast<std::size_t>(c)];
          SolveRequest req;
          req.target_accuracy = kTarget;
          std::shared_ptr<obs::PhaseProfile> profile;
          if (trace != nullptr) {
            profile = std::make_shared<obs::PhaseProfile>();
            req.profile = profile;
          }
          tune::DynamicResult detail;
          x.copy_from(in.inst.problem.x0);
          SolveStats out;
          Record r;
          r.seconds = timed([&] {
            out = s.service->solve_op(in.op, x, in.inst.problem.b, req,
                                      trace != nullptr ? &detail : nullptr);
          });
          r.iterations = out.iterations;
          // The request's contract is a residual reduction: the library's
          // audit must pass, the benchmark's own residual must agree, and
          // the error against the exact solution must have shrunk by
          // kErrorFloor (a residual reduction of 1e5 bounds the error
          // reduction only through the operator's condition number; the
          // jump and aniso families reach about 1e2 to 1e3).
          r.ok = out.converged && out.residual_checked &&
                 residual_norm(in.op, x, in.inst.problem.b, sched) <=
                     in.r0 / kTarget &&
                 tune::accuracy_of(in.inst, x, sched) >= kErrorFloor;
          if (trace != nullptr) trace_request(s, in, is_fresh, r, detail,
                                              *trace);
          return r;
        });
  }

  /// The layers below solve_op for one request: fingerprint + ranking, the
  /// DynamicSolver bind the service would make, and its solve (whose
  /// result times the tuned executor invocations).
  void trace_request(Served& s, const Input& in, bool is_fresh,
                     const Record& r, const tune::DynamicResult& detail,
                     Trace& trace) {
    Engine& engine = *s.engine;
    grid::OperatorFingerprint fp;
    std::vector<grid::FamilyMatch> ranked;
    const double fingerprint = timed([&] {
      fp = grid::fingerprint(in.op);
      ranked = grid::rank_families(fp);
    });
    std::unique_ptr<tune::DynamicSolver> solver;
    const double bind = timed([&] {
      std::vector<tune::FamilyConfig> ladder;
      for (const grid::FamilyMatch& m : ranked) {
        for (std::size_t f = 0; f < kFamilies.size(); ++f) {
          if (kFamilies[f] != m.family) continue;
          ladder.push_back({to_string(m.family),
                            std::shared_ptr<const tune::TunedConfig>(
                                std::shared_ptr<void>(), &configs_[f])});
        }
      }
      solver = std::make_unique<tune::DynamicSolver>(
          in.op, std::move(ladder), engine.scheduler(), engine.direct(),
          engine.scratch(), engine.relax());
    });
    Grid2D x(kN, 0.0);
    x.copy_from(in.inst.problem.x0);
    tune::DynamicResult direct;
    obs::PhaseProfile phases;
    const double layer = timed([&] {
      direct = solver->solve(x, in.inst.problem.b, kTarget,
                             RoutePolicy{}.max_iterations, &phases);
    });
    trace.add(r.seconds, layer, direct.seconds, phases, level_of_size(kN), 1);
    std::lock_guard<std::mutex> lock(trace.mutex);
    if (is_fresh) {
      trace.fingerprint_s.push_back(fingerprint);
      trace.route_bind_s.push_back(fingerprint + bind);
    }
    ++trace.routed;
    trace.variants += detail.iterations;
    trace.escalations += detail.escalations;
    trace.switches += detail.family_switches;
    for (const tune::VariantRun& v : detail.variants) {
      // Useful: the invocation delivered the slice of its accuracy class
      // the escalation rule demands (it was not escalated away from).
      for (std::size_t f = 0; f < kFamilies.size(); ++f) {
        if (to_string(kFamilies[f]) != v.family) continue;
        const double promised =
            configs_[f].accuracies()[static_cast<std::size_t>(
                v.accuracy_index)];
        if (v.reduction >= std::sqrt(promised)) ++trace.useful_variants;
      }
    }
  }

  std::string tables_;
  Rng base_;
  rt::Scheduler& gen_;
  std::vector<Input> seen_;
  std::vector<tune::TunedConfig> configs_;
  std::uint64_t round_ = 0;
};

std::unique_ptr<Workload> make_workload(const RunOptions& o,
                                        rt::Scheduler& gen) {
  if (o.workload == "poisson_fmg") {
    return std::make_unique<PoissonFmg>(o.tables_dir, o.seed, gen);
  }
  if (o.workload == "jump_batch") {
    return std::make_unique<JumpBatch>(o.tables_dir, o.seed, gen);
  }
  if (o.workload == "routed_churn") {
    return std::make_unique<RoutedChurn>(o.tables_dir, o.seed, gen);
  }
  throw InvalidArgument("unknown workload '" + o.workload +
                        "' (expected poisson_fmg | jump_batch | routed_churn)");
}

std::string fmt(double v, int precision = 4) {
  std::ostringstream out;
  out.precision(precision);
  out << v;
  return out.str();
}

/// Host/engine tags plus attempted/succeeded/failed counts.
void tag(Outcome& out, const RunOptions& o, const Workload& w,
         const Served& s, double load_before, const LoopStats& stats) {
  Json host = host_metadata(o.commit);
  host.set("loadavg_before", load_before);
  host.set("loadavg_after", loadavg_1min());
  host.set("engine_profile", s.engine->profile().name);
  host.set("engine_threads", s.engine->profile().threads);
  const grid::KernelPolicy& k = s.engine->relax().kernels;
  host.set("kernel_layout", grid::to_string(k.layout));
  host.set("kernel_simd_width", k.simd_width);
  host.set("workload", w.name());
  host.set("seed", static_cast<std::int64_t>(o.seed));
  host.set("clients", w.clients());
  out.notes.push_back("# host " + host.dump());
  out.notes.push_back("# requests workload=" + std::string(w.name()) +
                      " attempted=" + std::to_string(stats.attempted) +
                      " succeeded=" +
                      std::to_string(stats.attempted - stats.failed) +
                      " failed=" + std::to_string(stats.failed) +
                      " below_target=" + std::to_string(stats.below_target) +
                      " min_accuracy_over_target=" +
                      (std::isfinite(stats.min_accuracy_ratio)
                           ? fmt(stats.min_accuracy_ratio)
                           : std::string("n/a")));
  for (const auto& e : stats.errors) out.notes.push_back("# error " + e);
}

// --------------------------------------------------------------- runners --

Outcome run_end_to_end(Workload& w, const RunOptions& o) {
  std::vector<double> setup;
  Served served;
  LoopStats stats;
  const double load_before = loadavg_1min();
  for (int window = 0; window < kSetupWindows; ++window) {
    double spent = 0.0;
    for (int rep = 0;
         rep < kMaxSetupReps &&
         (rep < kMinSetupReps || spent < kSetupBudget / kSetupWindows);
         ++rep) {
      served.clear();  // tear the previous set-up down before timing anew
      const double t0 = now();
      served = w.setup(0);
      setup.push_back(now() - t0);
      spent += setup.back();
    }
    w.prepare(served);
    stats.merge(w.serve(served, o.seconds / kSetupWindows, nullptr));
  }
  if (stats.latencies.empty() || stats.wall <= 0.0) {
    throw Error("servebench: no request completed in the run");
  }
  Outcome out;
  out.attempted = stats.attempted;
  out.failed = stats.failed;
  tag(out, o, w, served, load_before, stats);
  const double p90 = quantile(stats.latencies, 0.9);
  const auto beyond = std::count_if(stats.latencies.begin(),
                                    stats.latencies.end(),
                                    [&](double v) { return v > p90; });
  out.notes.push_back("# latency samples=" +
                      std::to_string(stats.latencies.size()) +
                      " beyond_p90=" + std::to_string(beyond) +
                      " setups=" + std::to_string(setup.size()));
  out.add("setup_s", median(setup), "s");
  out.add("latency_p50_ms", 1e3 * quantile(stats.latencies, 0.5), "ms");
  out.add("latency_p90_ms", 1e3 * p90, "ms");
  out.add("throughput_rhs_per_s",
          static_cast<double>(stats.rhs) / stats.wall, "1/s");
  out.add("error_rate", wilson_upper(stats.failed, stats.attempted),
          "fraction");
  out.add("peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

Outcome run_traced(Workload& w, const RunOptions& o) {
  // Time shares of the run: untraced reference pass, traced pass, the
  // 1-worker baseline; the probes after them are sized to a few seconds.
  const double t_untraced = 0.3 * o.seconds;
  const double t_traced = 0.3 * o.seconds;
  const double t_serial = 0.2 * o.seconds;

  Served served = w.setup(0);
  w.prepare(served);
  Engine& engine = *served.engine;
  const double load_before = loadavg_1min();

  const std::int64_t steals0 = engine.scheduler().steal_count();
  LoopStats plain = w.serve(served, t_untraced, nullptr);
  const std::int64_t steals = engine.scheduler().steal_count() - steals0;
  const grid::ScratchPool::Stats pool = engine.scratch().stats();

  Trace trace;
  const LoopStats traced = w.serve(served, t_traced, &trace);

  LoopStats serial;
  {
    Served one = w.setup(1);
    w.prepare(one);
    serial = w.serve(one, t_serial, nullptr);
  }

  const LayerProbes probes =
      probe_layers(engine, *served.service, w.probe_config(),
                   w.probe_operator(), o.seed);

  LoopStats all = plain;
  all.merge(traced);
  all.merge(serial);
  Outcome out;
  out.attempted = all.attempted;
  out.failed = all.failed;
  tag(out, o, w, served, load_before, all);
  for (const auto& line : probes.notes) out.notes.push_back(line);

  const double requests = static_cast<double>(std::max<std::int64_t>(
      1, plain.attempted));
  const double solves =
      static_cast<double>(std::max<std::int64_t>(1, plain.rhs));
  const double p50 = quantile(plain.latencies, 0.5);
  const double p50_traced = quantile(trace.service_s, 0.5);

  // runtime
  out.add("runtime.fork_join_us", probes.fork_join_us, "us");
  out.add("runtime.steals_per_solve", static_cast<double>(steals) / requests,
          "count");
  out.add("runtime.speedup_vs_1t", quantile(serial.latencies, 0.5) / p50,
          "ratio");
  // grid
  for (const KernelProbe& k : probes.kernels) {
    out.add("grid.kernel_ns_per_pt." + k.name, k.ns_per_pt, "ns");
    out.add("grid.kernel_bw_frac." + k.name,
            k.bytes_per_pt / k.ns_per_pt / probes.triad_gbs, "ratio");
  }
  out.add("grid.triad_gbs", probes.triad_gbs, "GB/s");
  out.add("grid.fingerprint_us",
          1e6 * (trace.fingerprint_s.empty() ? probes.fingerprint_s
                                             : median(trace.fingerprint_s)),
          "us");
  out.add("grid.scratch_hit_rate", pool.hit_rate(), "ratio");
  out.add("grid.scratch_high_water_mb",
          static_cast<double>(pool.high_water_bytes) / (1 << 20), "MiB");
  // solvers / linalg
  double phase_total = 0.0;
  for (double p : trace.phase_sum) phase_total += p;
  const double phase_den = phase_total > 0.0 ? phase_total : 1.0;
  for (int p = 0; p < obs::kPhaseCount; ++p) {
    out.add(std::string("solvers.phase_frac.") +
                obs::to_string(static_cast<obs::Phase>(p)),
            trace.phase_sum[static_cast<std::size_t>(p)] / phase_den, "ratio");
  }
  out.add("solvers.top_level_frac", trace.top_level_sum / phase_den, "ratio");
  out.add("linalg.direct_ms",
          1e3 * trace.phase_sum[static_cast<std::size_t>(obs::Phase::kDirect)] /
              static_cast<double>(std::max<std::int64_t>(1, trace.solves)),
          "ms");
  // tune
  out.add("tune.executor_ms", 1e3 * median(trace.executor_s), "ms");
  out.add("tune.iterations", static_cast<double>(plain.iterations) / solves,
          "count");
  out.add("tune.below_target_frac",
          static_cast<double>(plain.below_target) / requests, "ratio");
  const double routed =
      static_cast<double>(std::max<std::int64_t>(1, trace.routed));
  out.add("tune.variants_per_solve",
          static_cast<double>(trace.variants) / routed, "count");
  out.add("tune.escalations_per_solve",
          static_cast<double>(trace.escalations) / routed, "count");
  out.add("tune.family_switches_per_solve",
          static_cast<double>(trace.switches) / routed, "count");
  out.add("tune.useful_variant_frac",
          trace.variants > 0 ? static_cast<double>(trace.useful_variants) /
                                   static_cast<double>(trace.variants)
                             : 1.0,
          "ratio");
  // engine
  std::vector<double> service_self, layer_self, executor_self;
  for (std::size_t i = 0; i < trace.service_s.size(); ++i) {
    service_self.push_back(trace.service_s[i] - trace.layer_s[i]);
    layer_self.push_back(trace.layer_s[i] - trace.executor_s[i]);
    executor_self.push_back(trace.executor_s[i] - trace.phase_s[i]);
  }
  out.add("engine.service_self_us", 1e6 * median(service_self), "us");
  out.add("engine.bind_us", 1e6 * probes.bind_s, "us");
  out.add("engine.session_build_ms", 1e3 * probes.session_build_s, "ms");
  out.add("engine.route_bind_ms",
          1e3 * (trace.route_bind_s.empty() ? probes.route_bind_s
                                            : median(trace.route_bind_s)),
          "ms");
  out.add("engine.session_mb",
          static_cast<double>(plain.session_bytes) / (1 << 20), "MiB");
  out.add("engine.evictions", static_cast<double>(plain.evictions), "count");
  const double routed_plain =
      static_cast<double>(std::max<std::int64_t>(1, plain.routed));
  out.add("engine.route_matched_frac",
          static_cast<double>(plain.route_matched) / routed_plain, "ratio");
  out.add("engine.route_escalated_frac",
          static_cast<double>(plain.route_escalated) / routed_plain, "ratio");
  // obs / closure
  const double layers = median(service_self) + median(layer_self) +
                        median(executor_self) + median(trace.phase_s);
  const double unattributed = p50_traced - layers;
  out.add("obs.trace_overhead_frac", p50_traced / p50 - 1.0, "ratio");
  out.add("closure.unattributed_frac", unattributed / p50_traced, "ratio");
  out.notes.push_back(
      "# closure workload=" + std::string(w.name()) +
      " e2e_p50_ms=" + fmt(1e3 * p50_traced) +
      " service_self_ms=" + fmt(1e3 * median(service_self)) +
      " session_self_ms=" + fmt(1e3 * median(layer_self)) +
      " executor_self_ms=" + fmt(1e3 * median(executor_self)) +
      " phases_ms=" + fmt(1e3 * median(trace.phase_s)) +
      " sum_ms=" + fmt(1e3 * layers) +
      " unattributed_ms=" + fmt(1e3 * unattributed) +
      " untraced_p50_ms=" + fmt(1e3 * p50) +
      " trace_overhead=" + fmt(p50_traced / p50 - 1.0) +
      " traced_requests=" + std::to_string(trace.service_s.size()));
  return out;
}

}  // namespace

Outcome run_workload(const RunOptions& options) {
  // Inputs and exact solutions come from a generator scheduler of their
  // own, before any timed set-up starts.
  rt::Scheduler gen(serving_profile(0));
  const std::unique_ptr<Workload> w = make_workload(options, gen);
  return options.trace ? run_traced(*w, options) : run_end_to_end(*w, options);
}

}  // namespace servebench
