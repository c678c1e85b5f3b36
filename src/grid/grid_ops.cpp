#include "grid/grid_ops.h"

#include <algorithm>
#include <cmath>

#include "grid/level.h"
#include "grid/packed_kernels.h"
#include "grid/row_sweep.h"

namespace pbmg::grid {

namespace {

void check_same_size(const Grid2D& a, const Grid2D& b, const char* what) {
  PBMG_CHECK(a.n() == b.n(), std::string(what) + ": grid size mismatch");
}

void check_valid(const Grid2D& g, const char* what) {
  PBMG_CHECK(is_valid_grid_size(g.n()),
             std::string(what) + ": grid size must be 2^k + 1");
}

/// Validates one stencil sweep over K slots: equal span sizes (bs empty
/// for apply), no null slots, every grid valid and matching op.n().
void check_slots(const StencilOp& op, std::span<const Grid2D* const> xs,
                 std::span<const Grid2D* const> bs,
                 std::span<Grid2D* const> outs, const char* what) {
  PBMG_CHECK(xs.size() == outs.size() &&
                 (bs.empty() || bs.size() == xs.size()),
             std::string(what) + ": span size mismatch");
  if (xs.empty()) return;
  PBMG_CHECK(is_valid_grid_size(op.n()),
             std::string(what) + ": grid size must be 2^k + 1");
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && outs[k] != nullptr &&
                   (bs.empty() || bs[k] != nullptr),
               std::string(what) + ": null grid slot");
    PBMG_CHECK(xs[k]->n() == op.n() && outs[k]->n() == op.n() &&
                   (bs.empty() || bs[k]->n() == op.n()),
               std::string(what) + ": operator/grid size mismatch");
  }
}

// Row kernels.  The variable-coefficient accumulation order mirrors the
// Poisson kernel term for term, so a variable operator whose coefficients
// happen to be exactly 1 (c = 0) reproduces the fast path to the last ulp.

inline void poisson_row(const double* up, const double* mid,
                        const double* down, const double* rhs, double* out,
                        double inv_h2, int n) {
  store_stencil_row(rhs, out, n, [=](int j) {
    return (4.0 * mid[j] - up[j] - down[j] - mid[j - 1] - mid[j + 1]) *
           inv_h2;
  });
}

/// 5-point row; aW = axr[j−1], aE = axr[j], aN = ay_up[j], aS = ay_dn[j].
inline void var5_row(const double* axr, const double* ay_up,
                     const double* ay_dn, const double* up, const double* mid,
                     const double* down, const double* rhs, double* out,
                     double inv_h2, double c, int n) {
  store_stencil_row(rhs, out, n, [=](int j) {
    const double aw = axr[j - 1];
    const double ae = axr[j];
    const double an = ay_up[j];
    const double as = ay_dn[j];
    const double diag = ((aw + ae) + an) + as;
    return (diag * mid[j] - an * up[j] - as * down[j] - aw * mid[j - 1] -
            ae * mid[j + 1]) *
               inv_h2 +
           c * mid[j];
  });
}

/// 9-point row: corner couplings and the explicit centre coefficient
/// join the accumulation (see stencil_op.h for the coupling layout).
inline void var9_row(const NinePointRows& rows, const double* up,
                     const double* mid, const double* down, const double* rhs,
                     double* out, double inv_h2, double c, int n) {
  store_stencil_row(rhs, out, n, [&rows, up, mid, down, inv_h2, c](int j) {
    const double nb = rows.neighbour_sum(up, mid, down, j);
    return (rows.center[j] * mid[j] - nb) * inv_h2 + c * mid[j];
  });
}

/// The one apply/residual sweep: every public entry point is a call of
/// this over K >= 1 validated slots (bs empty for apply).
void stencil_sweep(const StencilOp& op, std::span<const Grid2D* const> xs,
                   std::span<const Grid2D* const> bs,
                   std::span<Grid2D* const> outs, rt::Scheduler& sched,
                   const KernelPolicy& kernels) {
  if (xs.empty()) return;
  const int n = op.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  using Row = const double*;
  if (op.is_poisson()) {
    stencil_rows(n, xs, bs, outs, sched, [=](int) {
      return [=](Row up, Row mid, Row down, Row rhs, double* out) {
        poisson_row(up, mid, down, rhs, out, inv_h2, n);
      };
    });
    return;
  }
  if (kernels.layout == StencilLayout::kPacked) {
    packed_stencil_sweep(op, xs, bs, outs, sched, kernels.simd_width);
    return;
  }
  const double c = op.c();
  if (op.is_nine_point()) {
    stencil_rows(n, xs, bs, outs, sched, [&](int i) {
      return [=, rows = NinePointRows(op, i)](Row up, Row mid, Row down,
                                              Row rhs, double* out) {
        var9_row(rows, up, mid, down, rhs, out, inv_h2, c, n);
      };
    });
    return;
  }
  const Grid2D& ax = op.ax_grid();
  const Grid2D& ay = op.ay_grid();
  stencil_rows(n, xs, bs, outs, sched, [&](int i) {
    return [=, axr = ax.row(i), ay_up = ay.row(i - 1), ay_dn = ay.row(i)](
               Row up, Row mid, Row down, Row rhs, double* out) {
      var5_row(axr, ay_up, ay_dn, up, mid, down, rhs, out, inv_h2, c, n);
    };
  });
}

/// apply/residual of one grid: the K = 1 sweep.
void stencil_solo(const StencilOp& op, const Grid2D& x, const Grid2D* b,
                  Grid2D& out, rt::Scheduler& sched,
                  const KernelPolicy& kernels, const char* what) {
  const Grid2D* xs[] = {&x};
  const Grid2D* bs[] = {b};
  Grid2D* outs[] = {&out};
  const std::span<const Grid2D* const> b_span(bs, b != nullptr ? 1 : 0);
  check_slots(op, xs, b_span, outs, what);
  stencil_sweep(op, xs, b_span, outs, sched, kernels);
}

}  // namespace

void apply_poisson(const Grid2D& x, Grid2D& out, rt::Scheduler& sched) {
  stencil_solo(StencilOp::poisson(x.n()), x, nullptr, out, sched, {},
               "apply_poisson");
}

void residual(const Grid2D& x, const Grid2D& b, Grid2D& r,
              rt::Scheduler& sched) {
  stencil_solo(StencilOp::poisson(x.n()), x, &b, r, sched, {}, "residual");
}

void apply_op(const StencilOp& op, const Grid2D& x, Grid2D& out,
              rt::Scheduler& sched, const KernelPolicy& kernels) {
  stencil_solo(op, x, nullptr, out, sched, kernels, "apply_op");
}

void residual_op(const StencilOp& op, const Grid2D& x, const Grid2D& b,
                 Grid2D& r, rt::Scheduler& sched,
                 const KernelPolicy& kernels) {
  stencil_solo(op, x, &b, r, sched, kernels, "residual_op");
}

void residual_op_multi(const StencilOp& op,
                       std::span<const Grid2D* const> xs,
                       std::span<const Grid2D* const> bs,
                       std::span<Grid2D* const> rs, rt::Scheduler& sched,
                       const KernelPolicy& kernels) {
  PBMG_CHECK(bs.size() == xs.size(), "residual_op_multi: span size mismatch");
  check_slots(op, xs, bs, rs, "residual_op_multi");
  stencil_sweep(op, xs, bs, rs, sched, kernels);
}

void restrict_full_weighting(const Grid2D& fine, Grid2D& coarse,
                             rt::Scheduler& sched) {
  check_valid(fine, "restrict_full_weighting");
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "restrict_full_weighting: coarse grid has wrong size");
  const int nc = coarse.n();
  sched.parallel_for(
      1, nc - 1, sched.grain_for(nc - 2, 4 * (nc - 2)),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int ci = static_cast<int>(ib); ci < static_cast<int>(ie); ++ci) {
          const int fi = 2 * ci;
          const double* up = fine.row(fi - 1);
          const double* mid = fine.row(fi);
          const double* down = fine.row(fi + 1);
          double* out = coarse.row(ci);
          for (int cj = 1; cj < nc - 1; ++cj) {
            const int fj = 2 * cj;
            out[cj] = (4.0 * mid[fj] +
                       2.0 * (up[fj] + down[fj] + mid[fj - 1] + mid[fj + 1]) +
                       up[fj - 1] + up[fj + 1] + down[fj - 1] + down[fj + 1]) *
                      (1.0 / 16.0);
          }
        }
      });
  zero_boundary(coarse);
}

void restrict_inject(const Grid2D& fine, Grid2D& coarse,
                     rt::Scheduler& sched) {
  check_valid(fine, "restrict_inject");
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "restrict_inject: coarse grid has wrong size");
  const int nc = coarse.n();
  sched.parallel_for(0, nc, sched.grain_for(nc, nc),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int ci = static_cast<int>(ib);
                            ci < static_cast<int>(ie); ++ci) {
                         const double* src = fine.row(2 * ci);
                         double* out = coarse.row(ci);
                         for (int cj = 0; cj < nc; ++cj) {
                           out[cj] = src[2 * cj];
                         }
                       }
                     });
}

namespace {

/// Shared bilinear-interpolation loop; Assign selects overwrite vs add.
template <bool Assign>
void interpolate_impl(const Grid2D& coarse, Grid2D& fine,
                      rt::Scheduler& sched) {
  PBMG_CHECK(coarse.n() == coarse_size(fine.n()),
             "interpolate: coarse grid has wrong size");
  const int n = fine.n();
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          double* out = fine.row(i);
          if (i % 2 == 0) {
            const double* c = coarse.row(i / 2);
            for (int j = 1; j < n - 1; ++j) {
              const double v = (j % 2 == 0)
                                   ? c[j / 2]
                                   : 0.5 * (c[j / 2] + c[j / 2 + 1]);
              if constexpr (Assign) out[j] = v;
              else out[j] += v;
            }
          } else {
            const double* c0 = coarse.row(i / 2);
            const double* c1 = coarse.row(i / 2 + 1);
            for (int j = 1; j < n - 1; ++j) {
              const double v =
                  (j % 2 == 0)
                      ? 0.5 * (c0[j / 2] + c1[j / 2])
                      : 0.25 * (c0[j / 2] + c0[j / 2 + 1] + c1[j / 2] +
                                c1[j / 2 + 1]);
              if constexpr (Assign) out[j] = v;
              else out[j] += v;
            }
          }
        }
      });
}

}  // namespace

void interpolate_add(const Grid2D& coarse, Grid2D& fine,
                     rt::Scheduler& sched) {
  check_valid(fine, "interpolate_add");
  interpolate_impl<false>(coarse, fine, sched);
}

void interpolate_assign(const Grid2D& coarse, Grid2D& fine,
                        rt::Scheduler& sched) {
  check_valid(fine, "interpolate_assign");
  interpolate_impl<true>(coarse, fine, sched);
}

double norm2_interior(const Grid2D& g, rt::Scheduler& sched) {
  const int n = g.n();
  if (n <= 2) return 0.0;
  const double sum = sched.parallel_reduce_sum(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        double acc = 0.0;
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* r = g.row(i);
          for (int j = 1; j < n - 1; ++j) acc += r[j] * r[j];
        }
        return acc;
      });
  return std::sqrt(sum);
}

double norm2_diff_interior(const Grid2D& a, const Grid2D& b,
                           rt::Scheduler& sched) {
  check_same_size(a, b, "norm2_diff_interior");
  const int n = a.n();
  if (n <= 2) return 0.0;
  const double sum = sched.parallel_reduce_sum(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        double acc = 0.0;
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* ra = a.row(i);
          const double* rb = b.row(i);
          for (int j = 1; j < n - 1; ++j) {
            const double d = ra[j] - rb[j];
            acc += d * d;
          }
        }
        return acc;
      });
  return std::sqrt(sum);
}

double max_abs_interior(const Grid2D& g, rt::Scheduler& sched) {
  const int n = g.n();
  if (n <= 2) return 0.0;
  // Reduce via max encoded in a sum-free way: compute per-chunk maxima and
  // combine under a mutex inside the chunk function.
  std::mutex mutex;
  double result = 0.0;
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       double local = 0.0;
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* r = g.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           local = std::max(local, std::abs(r[j]));
                         }
                       }
                       std::lock_guard<std::mutex> lock(mutex);
                       result = std::max(result, local);
                     });
  return result;
}

void axpy_interior(double alpha, const Grid2D& x, Grid2D& y,
                   rt::Scheduler& sched) {
  check_same_size(x, y, "axpy_interior");
  const int n = x.n();
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2),
                     [&](std::int64_t ib, std::int64_t ie) {
                       for (int i = static_cast<int>(ib);
                            i < static_cast<int>(ie); ++i) {
                         const double* xr = x.row(i);
                         double* yr = y.row(i);
                         for (int j = 1; j < n - 1; ++j) {
                           yr[j] += alpha * xr[j];
                         }
                       }
                     });
}

}  // namespace pbmg::grid
