#pragma once

#include <span>

#include "grid/grid2d.h"
#include "grid/scratch.h"
#include "grid/stencil_op.h"
#include "runtime/scheduler.h"

/// \file packed_kernels.h
/// Packed-layout sweep kernels: the StencilLayout::kPacked implementations
/// of apply/residual, coloured SOR, weighted Jacobi, and the zebra
/// batched-Thomas line solves, vectorized with the simd.h wrapper.
///
/// The public entry points in grid_ops.h / solvers::relax.h /
/// solvers::line_relax.h dispatch here when a KernelPolicy selects the
/// packed layout; callers rarely use these directly.  All of them:
///  - require a non-Poisson operator (the fast path keeps its dedicated
///    constant-coefficient kernels under either layout);
///  - read coefficients from op.packed(), packing lazily on first touch
///    (prewarm via StencilHierarchy::prewarm_packed to keep it off timed
///    sweeps);
///  - are bitwise identical to the legacy kernels for every simd_width
///    and thread count (see packed_kernels_body.h for the contract);
///  - clamp simd_width to what the running CPU supports, which is
///    result-invariant for the same reason.
///
/// Vectorization shapes: residual/apply/Jacobi vectorize unit-stride
/// along the row; coloured SOR vectorizes across same-colour points
/// (stride-2 gathers, per-lane scalar stores); the line solves vectorize
/// across independent same-parity lines (lane l = line i0 + 2l), which
/// turns the serial Thomas recurrences into W independent chains.

namespace pbmg::grid {

/// Widest SIMD lane count worth requesting on this machine: 4 when the
/// CPU runs AVX2 (or is aarch64, where the 4-lane kernels compile to NEON
/// pairs), 2 for baseline x86-64 SSE2, 1 elsewhere.
int packed_simd_width_supported();

/// Halves `width` (a valid KernelPolicy width in {1, 2, 4}) until the
/// running CPU supports it.  Clamping never changes results — every width
/// is bitwise identical — so tuned tables stay portable across machines.
int clamp_simd_width(int width);

/// Batched stencil sweep under the packed layout: outs[k] = A·xs[k]
/// (bs empty) or bs[k] − A·xs[k], boundary rings zeroed.  Each packed
/// coefficient row block is loaded once and swept across all K slots
/// before the next row; every slot runs the same pk:: row kernel, so it
/// is bitwise identical to a K = 1 sweep (and to the legacy kernels).
/// grid_ops' apply_op / residual_op / residual_op_multi dispatch here.
void packed_stencil_sweep(const StencilOp& op,
                          std::span<const Grid2D* const> xs,
                          std::span<const Grid2D* const> bs,
                          std::span<Grid2D* const> outs, rt::Scheduler& sched,
                          int simd_width);

/// One coloured SOR sweep of each xs[k] against bs[k] under the packed
/// layout (red-black for 5-point operators, four-colour for 9-point),
/// fused per colour × row so coefficient blocks are reused across slots.
/// Per-slot update order is a K = 1 sweep's; the slots never couple.
/// solvers::sor_sweep and sor_sweep_multi dispatch here.
void packed_sor_sweep(const StencilOp& op, std::span<Grid2D* const> xs,
                      std::span<const Grid2D* const> bs, double omega,
                      rt::Scheduler& sched, int simd_width);

/// One weighted-Jacobi sweep under the packed layout; `scratch` holds the
/// old iterate on return (contents swapped), like solvers::jacobi_sweep.
void packed_jacobi_sweep(const StencilOp& op, Grid2D& x, const Grid2D& b,
                         double omega, Grid2D& scratch, rt::Scheduler& sched,
                         int simd_width);

/// One x-line (row) zebra pass of each xs[k] against bs[k] under the
/// packed layout: odd rows then even rows, each group of `simd_width`
/// same-parity rows solved as one batched Thomas elimination.  A batch
/// of one runs the fused elimination; K >= 2 factors each line group
/// once (the pivots depend only on the operator) and replays the rhs
/// recurrence per slot — bitwise identical per slot, since the replay
/// multiplies by the exact reciprocals the fused elimination computes.
/// Matches line_x of solvers::line_relax_sweep.
void packed_line_x(const StencilOp& op, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched,
                   ScratchPool& pool, int simd_width);

/// One y-line (column) zebra pass; same batching contract as
/// packed_line_x.
void packed_line_y(const StencilOp& op, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched,
                   ScratchPool& pool, int simd_width);

}  // namespace pbmg::grid
