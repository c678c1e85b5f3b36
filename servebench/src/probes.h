#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/solve_service.h"
#include "grid/stencil_op.h"
#include "tune/table.h"

/// \file probes.h
/// Per-layer probes that call a module's public functions directly, from
/// the benchmark's own code, at the workload's grid size.

namespace servebench {

/// One kernel timed in isolation under the engine's kernel policy.
struct KernelProbe {
  std::string name;
  double ns_per_pt = 0.0;     ///< median wall time per call / interior points
  double bytes_per_pt = 0.0;  ///< computed (compulsory) bytes per point
};

struct LayerProbes {
  double triad_gbs = 0.0;        ///< STREAM triad, engine's thread count
  double fork_join_us = 0.0;     ///< parallel_for over the rows, empty body
  std::vector<KernelProbe> kernels;
  double fingerprint_s = 0.0;    ///< fingerprint + rank_families
  double route_bind_s = 0.0;     ///< fingerprint + DynamicSolver construction
  double bind_s = 0.0;           ///< SolveService::session(n), already bound
  double session_build_s = 0.0;  ///< cold SolveSession construction
  std::vector<std::string> notes;
};

/// Runs every probe against `engine` (and `service` for the warm bind) at
/// the side of `op`.  Inputs are drawn from `seed`.
LayerProbes probe_layers(pbmg::Engine& engine, pbmg::SolveService& service,
                         const pbmg::tune::TunedConfig& config,
                         const pbmg::grid::StencilOp& op, std::uint64_t seed);

}  // namespace servebench
