#include "tune/dynamic.h"

#include <cmath>
#include <limits>
#include <utility>

#include "grid/grid_ops.h"
#include "grid/level.h"
#include "support/timer.h"

namespace pbmg::tune {

std::vector<FamilyConfig> single_rung(TunedConfig config) {
  std::string family = config.op_family;
  std::vector<FamilyConfig> ladder;
  ladder.push_back(
      {std::move(family), std::make_shared<const TunedConfig>(std::move(config))});
  return ladder;
}

DynamicSolver::DynamicSolver(grid::StencilOp op,
                             std::vector<FamilyConfig> ladder,
                             rt::Scheduler& sched,
                             solvers::DirectSolver& direct,
                             grid::ScratchPool& pool,
                             const solvers::RelaxTunables& relax)
    : n_(op.n()),
      level_(level_of_size(op.n())),
      ladder_(std::move(ladder)),
      sched_(sched),
      direct_(direct),
      pool_(pool),
      relax_(relax),
      ops_(std::move(op)) {
  PBMG_CHECK(!ladder_.empty(), "DynamicSolver: escalation ladder is empty");
  bool any_rap = false;
  for (const FamilyConfig& rung : ladder_) {
    PBMG_CHECK(rung.config != nullptr,
               "DynamicSolver: null config in escalation ladder");
    PBMG_CHECK(rung.config->max_level() >= level_,
               "DynamicSolver: ladder config for family '" + rung.family +
                   "' trained up to level " +
                   std::to_string(rung.config->max_level()) +
                   " cannot solve level " + std::to_string(level_));
    any_rap = any_rap || config_uses_rap(*rung.config, level_);
  }
  // Bind-time prewarm: coarsen the coefficient ladders once (the Galerkin ladder only if some bound config asks for
  // RAP cells), build one executor per family against the shared
  // hierarchies, and pack the SoA streams when the tuned kernel layout is
  // packed — so no solve() call ever pays setup inside its timed window.
  if (any_rap) {
    ops_rap_ =
        grid::StencilHierarchy(ops_.at(level_), grid::Coarsening::kRap);
  }
  executors_.reserve(ladder_.size());
  for (const FamilyConfig& rung : ladder_) {
    executors_.push_back(std::make_unique<TunedExecutor>(
        *rung.config, sched_, direct_, pool_, nullptr, relax_, &ops_,
        ops_rap_.top_level() >= 1 ? &ops_rap_ : nullptr));
  }
  if (relax_.kernels.layout == grid::StencilLayout::kPacked) {
    ops_.prewarm_packed();
    if (ops_rap_.top_level() >= 1) ops_rap_.prewarm_packed();
  }
  // Counted last, so the packed streams just materialized are included.
  footprint_bytes_ = ops_.bytes() + ops_rap_.bytes();
}

DynamicSolver::DynamicSolver(const TunedConfig& config, grid::StencilOp op,
                             rt::Scheduler& sched,
                             solvers::DirectSolver& direct,
                             grid::ScratchPool& pool,
                             const solvers::RelaxTunables& relax)
    : DynamicSolver(std::move(op), single_rung(config), sched, direct, pool,
                    relax) {}

std::vector<std::string> DynamicSolver::families() const {
  std::vector<std::string> names;
  names.reserve(ladder_.size());
  for (const FamilyConfig& rung : ladder_) names.push_back(rung.family);
  return names;
}

void DynamicSolver::check_operands(const Grid2D& x, const Grid2D& b) const {
  PBMG_CHECK(x.n() == n_ && b.n() == n_,
             "operand size mismatch (bound to n=" + std::to_string(n_) + ")");
}

double DynamicSolver::residual_norm(const Grid2D& x, const Grid2D& b) const {
  auto lease = pool_.acquire(n_);
  grid::residual_op(op(), x, b, lease.get(), sched_, relax_.kernels);
  return grid::norm2_interior(lease.get(), sched_);
}

DynamicResult DynamicSolver::solve(Grid2D& x, const Grid2D& b,
                                   double target_reduction,
                                   int max_iterations,
                                   obs::PhaseProfile* profile) const {
  PBMG_CHECK(target_reduction >= 1.0,
             "DynamicSolver: target_reduction must be >= 1");
  check_operands(x, b);

  DynamicResult result;
  result.final_family = ladder_.front().family;
  const double r0 = residual_norm(x, b);
  result.initial_residual = r0;
  result.final_residual = r0;
  if (r0 == 0.0) {
    // Already exact (or an all-zero problem): nothing to run, and by the
    // residual-audit contract an exact iterate counts as converged.
    result.converged = true;
    result.residual_reduction = std::numeric_limits<double>::infinity();
    return result;
  }
  const double r_target = r0 / target_reduction;

  std::size_t rung = 0;  // current family on the cross-family ladder
  int index = 0;         // accuracy index within the current family
  double r_prev = r0;
  double r_now = r0;
  for (int it = 1; it <= max_iterations; ++it) {
    const TunedConfig& config = *ladder_[rung].config;
    // Only tuned-variant invocations are timed; the feedback residual
    // norms below run outside the window (honest-stats contract).
    const double t0 = now_seconds();
    const int cycles =
        executors_[rung]->run_v(x, b, index, profile);
    result.seconds += now_seconds() - t0;
    result.iterations = it;
    r_now = residual_norm(x, b);
    result.variants.push_back({ladder_[rung].family, index, cycles,
                               r_prev > 0.0 ? r_prev / r_now : 1.0});
    if (r_now <= r_target) break;
    // Feature of the intermediate state (paper §6): the per-invocation
    // residual reduction.  A variant of accuracy class p_i should shrink
    // the residual by roughly p_i on inputs of the family it was trained
    // on; demand a conservative slice of that and escalate when the input
    // responds worse than its class promises — first up the current
    // family's accuracy ladder, then across to the next-nearest family's
    // tables once this family's ladder is exhausted.
    const double measured = r_prev > 0.0 ? r_prev / r_now : 1.0;
    const double promised =
        config.accuracies()[static_cast<std::size_t>(index)];
    if (measured < std::sqrt(promised)) {
      if (index + 1 < config.accuracy_count()) {
        ++index;
        ++result.escalations;
      } else if (rung + 1 < ladder_.size()) {
        ++rung;
        ++result.family_switches;
        // Carry the escalation depth into the new family (its tables are
        // presumed better matched, but the input already proved it needs
        // the deep end of a ladder); clamp in case ladders differ.
        index = std::min(index, ladder_[rung].config->accuracy_count() - 1);
      }
    }
    r_prev = r_now;
  }
  // Out-of-timed-window residual audit: convergence is judged from a
  // fresh residual of the final iterate, not the in-loop feedback value.
  const double r_final = residual_norm(x, b);
  result.final_residual = r_final;
  result.residual_reduction =
      r_final > 0.0 ? r0 / r_final : std::numeric_limits<double>::infinity();
  result.converged = std::isfinite(r_final) && r_final <= r_target;
  result.final_accuracy_index = index;
  result.final_family = ladder_[rung].family;
  return result;
}

}  // namespace pbmg::tune
