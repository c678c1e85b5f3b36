// Per-layer probes: STREAM triad, fork-join, kernels, fingerprint, binds.

#include "probes.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>

#include "bench.h"
#include "grid/fingerprint.h"
#include "grid/grid_ops.h"
#include "grid/level.h"
#include "solvers/line_relax.h"
#include "solvers/relax.h"
#include "support/rng.h"
#include "support/timer.h"
#include "tune/dynamic.h"

namespace servebench {

namespace {

using namespace pbmg;

constexpr std::int64_t kMiB = 1 << 20;
constexpr std::int64_t kMaxTriadArray = 512 * kMiB;  ///< per-array cap
constexpr double kProbeSeconds = 0.04;  ///< minimum timed span per probe

/// Median seconds per call of `fn`, after one untimed warm-up call, over at
/// least `min_reps` calls and kProbeSeconds.
double median_call(const std::function<void()>& fn, int min_reps = 5) {
  fn();
  std::vector<double> samples;
  const double start = now_seconds();
  while (static_cast<int>(samples.size()) < min_reps ||
         now_seconds() - start < kProbeSeconds) {
    const double t0 = now_seconds();
    fn();
    samples.push_back(now_seconds() - t0);
  }
  return quantile(samples, 0.5);
}

/// STREAM triad a = b + s·c on `threads` threads; best of five passes.
/// The three arrays together span at least four times the last-level
/// cache (each capped at kMaxTriadArray).
double triad_gbs(int threads, std::vector<std::string>& notes) {
  const std::int64_t llc = llc_bytes() > 0 ? llc_bytes() : 32 * kMiB;
  const std::int64_t array_bytes = std::min(
      kMaxTriadArray, std::max<std::int64_t>(16 * kMiB, (4 * llc + 2) / 3));
  const auto count = static_cast<std::size_t>(array_bytes / 8);
  std::unique_ptr<double[]> a(new double[count]);
  std::unique_ptr<double[]> b(new double[count]);
  std::unique_ptr<double[]> c(new double[count]);
  const auto on_threads = [&](const std::function<void(std::size_t,
                                                       std::size_t)>& body) {
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      const std::size_t lo = count * static_cast<std::size_t>(t) /
                             static_cast<std::size_t>(threads);
      const std::size_t hi = count * static_cast<std::size_t>(t + 1) /
                             static_cast<std::size_t>(threads);
      pool.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& th : pool) th.join();
  };
  on_threads([&](std::size_t lo, std::size_t hi) {  // first touch, per thread
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double scalar = 3.0;
  double best = 1e30;
  for (int pass = 0; pass < 5; ++pass) {
    const double t0 = now_seconds();
    on_threads([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + scalar * c[i];
    });
    best = std::min(best, now_seconds() - t0);
  }
  const double gbs = 3.0 * static_cast<double>(array_bytes) / best / 1e9;
  std::ostringstream line;
  line << "# triad threads=" << threads << " arrays=3x"
       << array_bytes / kMiB << "MiB working_set="
       << 3 * array_bytes / kMiB << "MiB llc=" << llc / kMiB
       << "MiB gbs=" << gbs << " check=" << a[count / 2];
  notes.push_back(line.str());
  return gbs;
}

Grid2D random_grid(int n, Rng& rng) {
  Grid2D g(n, 0.0);
  for (std::size_t i = 0; i < g.size(); ++i) g.data()[i] = rng.uniform(-1, 1);
  return g;
}

/// The kernels the workloads' solves spend their phases in, each called
/// directly.  Bytes per point are the compulsory traffic, every array
/// streamed once per pass (red-black sweeps make two passes), counted the
/// STREAM way (no write-allocate).
std::vector<KernelProbe> kernel_probes(Engine& engine, int n, Rng& rng) {
  rt::Scheduler& sched = engine.scheduler();
  const grid::KernelPolicy& policy = engine.relax().kernels;
  const grid::StencilOp var5 =
      make_operator(n, OperatorFamily::kJumpCoefficient);
  const grid::StencilOp var9 = make_operator(n, OperatorFamily::kAnisoTheta30);
  const double omega = solvers::omega_opt(n);
  Grid2D x = random_grid(n, rng);
  const Grid2D b = random_grid(n, rng);
  Grid2D r(n, 0.0);
  std::vector<Grid2D> xs;
  std::vector<Grid2D> bs;
  for (int k = 0; k < 4; ++k) {
    xs.push_back(random_grid(n, rng));
    bs.push_back(random_grid(n, rng));
  }
  std::vector<Grid2D*> xp;
  std::vector<const Grid2D*> bp;
  for (int k = 0; k < 4; ++k) {
    xp.push_back(&xs[static_cast<std::size_t>(k)]);
    bp.push_back(&bs[static_cast<std::size_t>(k)]);
  }
  const double points = static_cast<double>(n - 2) * (n - 2);
  std::vector<KernelProbe> out;
  const auto probe = [&](const char* name, double bytes,
                         const std::function<void()>& fn) {
    out.push_back({name, 1e9 * median_call(fn) / points, bytes});
  };
  probe("poisson_sor", 48.0, [&] { solvers::sor_sweep(x, b, omega, sched); });
  probe("poisson_residual", 24.0, [&] { grid::residual(x, b, r, sched); });
  probe("var5_residual", 40.0,
        [&] { grid::residual_op(var5, x, b, r, sched, policy); });
  probe("var5_sor", 80.0,
        [&] { solvers::sor_sweep(var5, x, b, omega, sched, policy); });
  probe("var9_residual", 64.0,
        [&] { grid::residual_op(var9, x, b, r, sched, policy); });
  probe("zebra_x", 40.0, [&] {
    solvers::line_relax_sweep(var5, x, b, solvers::RelaxKind::kLineX, sched,
                              engine.scratch(), policy);
  });
  probe("sor_multi4", 2.0 * (16.0 + 4 * 24.0), [&] {
    solvers::sor_sweep_multi(var5, xp, bp, omega, sched, policy);
  });
  return out;
}

}  // namespace

LayerProbes probe_layers(Engine& engine, SolveService& service,
                         const tune::TunedConfig& config,
                         const grid::StencilOp& op, std::uint64_t seed) {
  LayerProbes p;
  const int n = op.n();
  Rng rng = Rng(seed).split(0x9B0Eu);
  rt::Scheduler& sched = engine.scheduler();

  std::atomic<std::int64_t> chunks{0};
  p.fork_join_us = 1e6 * median_call(
                             [&] {
                               sched.parallel_for(
                                   1, n - 1, sched.grain_for(n - 2, n),
                                   [&](std::int64_t, std::int64_t) {
                                     chunks.fetch_add(
                                         1, std::memory_order_relaxed);
                                   });
                             },
                             50);
  p.kernels = kernel_probes(engine, n, rng);

  p.fingerprint_s =
      median_call([&] { grid::rank_families(grid::fingerprint(op)); });
  p.route_bind_s = median_call(
      [&] {
        grid::rank_families(grid::fingerprint(op));
        tune::DynamicSolver solver(config, op, sched, engine.direct(),
                                   engine.scratch(), engine.relax());
      },
      3);
  service.session(n);
  p.bind_s = median_call([&] { service.session(n); }, 200);
  p.session_build_s = median_call(
      [&] { SolveSession session(engine, config, op); }, 3);
  // Measured last: the triad's gigabyte-scale arrays would otherwise evict
  // every working set the probes above measure.
  p.triad_gbs = triad_gbs(engine.profile().threads, p.notes);
  return p;
}

}  // namespace servebench
