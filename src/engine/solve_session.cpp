#include "engine/solve_session.h"

#include <cmath>
#include <vector>

#include "grid/level.h"
#include "solvers/relax.h"
#include "support/timer.h"

namespace pbmg {

namespace {

// Records a ResidualPolicy audit: converged iff final ≤ limit·initial,
// with the r0 == 0 edge (already-exact guess, or an all-zero problem)
// demanding the solve kept it exact.
void record_audit(SolveStats& stats, double r0, double r1,
                  double ratio_limit) {
  stats.initial_residual = r0;
  stats.final_residual = r1;
  stats.residual_checked = true;
  stats.converged =
      std::isfinite(r1) && (r0 == 0.0 ? r1 == 0.0 : r1 <= ratio_limit * r0);
}

}  // namespace

SolveSession::SolveSession(Engine& engine, tune::TunedConfig config, int n)
    : SolveSession(engine, std::move(config), grid::StencilOp::poisson(n)) {}

SolveSession::SolveSession(Engine& engine, tune::TunedConfig config,
                           grid::StencilOp op)
    : SolveSession(engine, tune::single_rung(std::move(config)),
                   std::move(op)) {}

SolveSession::SolveSession(Engine& engine,
                           std::vector<tune::FamilyConfig> ladder,
                           grid::StencilOp op)
    : engine_(engine),
      solver_(std::move(op), std::move(ladder), engine.scheduler(),
              engine.direct(), engine.scratch(), engine.relax()) {
  // Preallocate the level hierarchy: a V/FMG recursion holds at most
  // three scratch grids per side length at once (residual at the fine
  // side plus restricted-residual and error at the coarse side of the
  // level above), so warming three per level means the first request —
  // and every concurrent request after it, once the pool refills —
  // allocates nothing on the solve path.  Configs that relax with line
  // smoothers additionally lease the two Thomas workspace grids per
  // sweep level; warm those too so a line-smoothed session is just as
  // allocation-free on its first request.
  const int level = solver_.level();
  bool line_smoothed = false;
  for (const tune::FamilyConfig& rung : solver_.ladder()) {
    line_smoothed = line_smoothed ||
                    tune::config_uses_line_smoothers(*rung.config, level);
  }
  const int per_level = line_smoothed ? 5 : 3;
  std::size_t scratch_bytes = 0;
  for (int k = 1; k <= level; ++k) {
    const int side = size_of_level(k);
    scratch_bytes += static_cast<std::size_t>(per_level) *
                     static_cast<std::size_t>(side) *
                     static_cast<std::size_t>(side) * sizeof(double);
    std::vector<grid::ScratchPool::Lease> warm;
    warm.reserve(static_cast<std::size_t>(per_level));
    for (int c = 0; c < per_level; ++c) {
      warm.push_back(engine_.scratch().acquire(side));
    }
  }  // leases release here, stocking the free-list
  // The scratch term is what the prewarm above stocked, an admission
  // estimate (the pool shares grids across this engine's sessions).
  footprint_bytes_ = solver_.footprint_bytes() + scratch_bytes;
}

SolveStats SolveSession::stats_for(double seconds, int accuracy_index,
                                   int iterations, bool converged) const {
  SolveStats stats;
  stats.seconds = seconds;
  stats.n = n();
  stats.level = level();
  stats.accuracy_index = accuracy_index;
  stats.iterations = iterations;
  stats.converged = converged;
  return stats;
}

SolveStats SolveSession::solve_tuned(Grid2D& x, const Grid2D& b,
                                     int accuracy_index, bool fmg,
                                     std::shared_ptr<obs::PhaseProfile> profile,
                                     const ResidualPolicy& check) const {
  solver_.check_operands(x, b);
  const double r0 = check.enabled ? solver_.residual_norm(x, b) : 0.0;
  const tune::TunedExecutor& executor = solver_.executor();
  const double t0 = now_seconds();
  const int iterations =
      fmg ? executor.run_fmg(x, b, accuracy_index, profile.get())
          : executor.run_v(x, b, accuracy_index, profile.get());
  const double seconds = now_seconds() - t0;
  SolveStats stats = stats_for(seconds, accuracy_index, iterations, true);
  if (check.enabled) {
    record_audit(stats, r0, solver_.residual_norm(x, b), check.ratio_limit);
  }
  stats.phases = std::move(profile);
  return stats;
}

SolveStats SolveSession::solve_v(Grid2D& x, const Grid2D& b,
                                 int accuracy_index,
                                 std::shared_ptr<obs::PhaseProfile> profile,
                                 const ResidualPolicy& check) const {
  return solve_tuned(x, b, accuracy_index, false, std::move(profile), check);
}

SolveStats SolveSession::solve_fmg(Grid2D& x, const Grid2D& b,
                                   int accuracy_index,
                                   std::shared_ptr<obs::PhaseProfile> profile,
                                   const ResidualPolicy& check) const {
  return solve_tuned(x, b, accuracy_index, true, std::move(profile), check);
}

std::vector<SolveStats> SolveSession::solve_batch_v(
    std::span<Grid2D* const> xs, const Grid2D& b, int accuracy_index,
    std::shared_ptr<obs::PhaseProfile> profile,
    const ResidualPolicy& check) const {
  std::vector<SolveStats> all;
  if (xs.empty()) return all;
  for (const Grid2D* x : xs) {
    PBMG_CHECK(x != nullptr, "solve_batch_v: null iterate");
    solver_.check_operands(*x, b);
  }
  std::vector<double> r0(xs.size(), 0.0);
  if (check.enabled) {
    for (std::size_t k = 0; k < xs.size(); ++k) {
      r0[k] = solver_.residual_norm(*xs[k], b);
    }
  }
  const std::vector<const Grid2D*> bs(xs.size(), &b);
  const double t0 = now_seconds();
  const int iterations = solver_.executor().run_v_multi(xs, bs, accuracy_index,
                                                        profile.get());
  const double seconds = now_seconds() - t0;
  all.reserve(xs.size());
  for (std::size_t k = 0; k < xs.size(); ++k) {
    // Every entry carries the batch wall-clock (see the header: the K
    // solves are one fused walk, there is no honest per-request share).
    SolveStats stats = stats_for(seconds, accuracy_index, iterations, true);
    if (check.enabled) {
      record_audit(stats, r0[k], solver_.residual_norm(*xs[k], b),
                   check.ratio_limit);
    }
    stats.phases = profile;
    all.push_back(std::move(stats));
  }
  return all;
}

SolveStats SolveSession::solve_reference(
    Grid2D& x, const Grid2D& b, int max_cycles, const solvers::StopFn& stop,
    std::shared_ptr<obs::PhaseProfile> profile, bool fmg) const {
  solver_.check_operands(x, b);
  solvers::VCycleOptions options;
  options.profile = profile.get();
  const double t0 = now_seconds();
  const auto outcome =
      fmg ? solvers::solve_reference_fmg(operators(), x, b, options,
                                         max_cycles, stop, engine_.scheduler(),
                                         engine_.direct(), engine_.scratch())
          : solvers::solve_reference_v(operators(), x, b, options, max_cycles,
                                       stop, engine_.scheduler(),
                                       engine_.direct(), engine_.scratch());
  SolveStats stats = stats_for(now_seconds() - t0, -1, outcome.iterations,
                               outcome.converged);
  stats.phases = std::move(profile);
  return stats;
}

SolveStats SolveSession::solve_reference_v(
    Grid2D& x, const Grid2D& b, int max_cycles, const solvers::StopFn& stop,
    std::shared_ptr<obs::PhaseProfile> profile) const {
  return solve_reference(x, b, max_cycles, stop, std::move(profile), false);
}

SolveStats SolveSession::solve_reference_fmg(
    Grid2D& x, const Grid2D& b, int max_cycles, const solvers::StopFn& stop,
    std::shared_ptr<obs::PhaseProfile> profile) const {
  return solve_reference(x, b, max_cycles, stop, std::move(profile), true);
}

SolveStats SolveSession::solve_iterated_sor(Grid2D& x, const Grid2D& b,
                                            int max_sweeps,
                                            const solvers::StopFn& stop) const {
  solver_.check_operands(x, b);
  const double omega =
      solvers::scaled_omega_opt(n(), engine_.relax().omega_scale);
  const double t0 = now_seconds();
  const auto outcome = solvers::solve_iterated_sor(
      op(), x, b, omega, max_sweeps, stop, engine_.scheduler());
  return stats_for(now_seconds() - t0, -1, outcome.iterations,
                   outcome.converged);
}

}  // namespace pbmg
