#include "grid/packed_kernels.h"

#include <algorithm>
#include <optional>
#include <tuple>
#include <type_traits>

#include "grid/level.h"
#include "grid/packed_rows.h"
#include "grid/packed_stencil.h"
#include "grid/row_sweep.h"

// This TU is compiled with baseline flags only — all ISA-specific code
// lives behind the explicit template instantiations in the per-width TUs
// (packed_kernels_w*.cpp), which this file reaches through the
// declarations in packed_rows.h.  Keep it that way: adding -mavx2 here
// would let the compiler leak AVX2 into code that runs on any CPU.

namespace pbmg::grid {

namespace {

pk::View5 view5(const PackedStencil& p, int i) {
  return {p.stream(i, PackedStencil::kAw), p.stream(i, PackedStencil::kAe),
          p.stream(i, PackedStencil::kAn), p.stream(i, PackedStencil::kAs),
          p.stream(i, PackedStencil::kDiag5)};
}

pk::View9 view9(const PackedStencil& p, int i) {
  return {p.stream(i, PackedStencil::kAw), p.stream(i, PackedStencil::kAe),
          p.stream(i, PackedStencil::kAn), p.stream(i, PackedStencil::kAs),
          p.stream(i, PackedStencil::kNw), p.stream(i, PackedStencil::kNe),
          p.stream(i, PackedStencil::kSw), p.stream(i, PackedStencil::kSe),
          p.stream(i, PackedStencil::kCtr)};
}

/// Line-group geometry for one zebra parity: lines first, first+2, …,
/// n−2 split into ceil(count / w) groups of up to w lanes.
struct LineGroups {
  int first = 0;
  int count = 0;
  int groups = 0;
};

LineGroups line_groups(int n, int parity, int w) {
  LineGroups g;
  g.first = parity == 1 ? 1 : 2;
  g.count = g.first <= n - 2 ? (n - 2 - g.first) / 2 + 1 : 0;
  g.groups = (g.count + w - 1) / w;
  return g;
}

/// The Thomas workspaces lease one n×n grid each and hand group g the w
/// consecutive rows starting at row g·w (cp/dp entry [k·W + lane]).  The
/// highest row touched is groups·w − 1 <= count + w − 2 <= (n−1)/2 + w − 2,
/// which fits inside the n rows for w = 4 whenever n >= 5 and for w = 2
/// even at n = 3, so the line sweeps clamp w to 2 on the 3×3 coarsest
/// grid.
int clamp_line_width(int w, int n) {
  return n < 5 ? std::min(w, 2) : w;
}

}  // namespace

int packed_simd_width_supported() {
#if defined(__x86_64__) || defined(__i386__) || defined(_M_X64)
  return __builtin_cpu_supports("avx2") ? 4 : 2;
#elif defined(__aarch64__)
  // The 4-lane kernels compile to plain NEON register pairs (baseline on
  // aarch64), so the widest request is always safe here.
  return 4;
#else
  return 1;
#endif
}

int clamp_simd_width(int width) {
  PBMG_CHECK(width == 1 || width == 2 || width == 4,
             "clamp_simd_width: width must be 1, 2 or 4");
  const int supported = packed_simd_width_supported();
  int w = width;
  while (w > supported) w /= 2;
  return w < 1 ? 1 : w;
}

namespace {

void check_packed_operands(const StencilOp& op, const Grid2D& x,
                           const char* what) {
  PBMG_CHECK(!op.is_poisson(),
             std::string(what) + ": Poisson fast path has no packed form");
  PBMG_CHECK(is_valid_grid_size(x.n()),
             std::string(what) + ": grid size must be 2^k+1");
  PBMG_CHECK(op.n() == x.n(),
             std::string(what) + ": operator/grid size mismatch");
}

/// Validates the slots of a batched packed sweep: equal span sizes, no
/// null slot, every grid matching the operator.  Returns false for an
/// empty batch (nothing to do).
bool check_packed_slots(const StencilOp& op, std::span<Grid2D* const> xs,
                        std::span<const Grid2D* const> bs, const char* what) {
  PBMG_CHECK(xs.size() == bs.size(),
             std::string(what) + ": span size mismatch");
  if (xs.empty()) return false;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    PBMG_CHECK(xs[k] != nullptr && bs[k] != nullptr,
               std::string(what) + ": null grid slot");
    check_packed_operands(op, *xs[k], what);
    PBMG_CHECK(bs[k]->n() == op.n(),
               std::string(what) + ": operator/grid size mismatch");
  }
  return true;
}

/// Calls f(std::integral_constant<int, W>{}) for the lane count w in
/// {1, 2, 4}, so a sweep picks its kernel instantiation once, not per row.
template <class F>
void with_width(int w, F&& f) {
  switch (w) {
    case 4: f(std::integral_constant<int, 4>{}); break;
    case 2: f(std::integral_constant<int, 2>{}); break;
    default: f(std::integral_constant<int, 1>{}); break;
  }
}

using Row = const double*;

}  // namespace

void packed_stencil_sweep(const StencilOp& op,
                          std::span<const Grid2D* const> xs,
                          std::span<const Grid2D* const> bs,
                          std::span<Grid2D* const> outs, rt::Scheduler& sched,
                          int simd_width) {
  PBMG_CHECK(xs.size() == outs.size() &&
                 (bs.empty() || bs.size() == xs.size()),
             "packed_stencil_sweep: span size mismatch");
  if (xs.empty()) return;
  for (std::size_t k = 0; k < xs.size(); ++k) {
    check_packed_operands(op, *xs[k], "packed_stencil_sweep");
    PBMG_CHECK(outs[k]->n() == op.n() && (bs.empty() || bs[k]->n() == op.n()),
               "packed_stencil_sweep: grid size mismatch");
  }
  const PackedStencil& p = op.packed();
  const int n = op.n();
  const double inv_h2 = static_cast<double>(n - 1) * static_cast<double>(n - 1);
  const double c = op.c();
  with_width(clamp_simd_width(simd_width), [&](auto width) {
    constexpr int W = decltype(width)::value;
    if (p.nine_point()) {
      stencil_rows(n, xs, bs, outs, sched, [&](int i) {
        return [=, v = view9(p, i)](Row up, Row mid, Row down, Row rhs,
                                    double* out) {
          pk::stencil_row9<W>(v, up, mid, down, rhs, out, inv_h2, c, n);
        };
      });
    } else {
      stencil_rows(n, xs, bs, outs, sched, [&](int i) {
        return [=, v = view5(p, i)](Row up, Row mid, Row down, Row rhs,
                                    double* out) {
          pk::stencil_row5<W>(v, up, mid, down, rhs, out, inv_h2, c, n);
        };
      });
    }
  });
}

void packed_sor_sweep(const StencilOp& op, std::span<Grid2D* const> xs,
                      std::span<const Grid2D* const> bs, double omega,
                      rt::Scheduler& sched, int simd_width) {
  if (!check_packed_slots(op, xs, bs, "packed_sor_sweep")) return;
  const PackedStencil& p = op.packed();
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const double keep = 1.0 - omega;
  with_width(clamp_simd_width(simd_width), [&](auto width) {
    constexpr int W = decltype(width)::value;
    // Four colours for 9-point operators, like the legacy sweep: corner
    // neighbours of a (i mod 2, j mod 2) class are all in other classes,
    // so same-colour points are independent and safe to vectorize across.
    if (p.nine_point()) {
      coloured_rows(n, 4, xs, bs, sched, [&](int i) {
        return [=, v = view9(p, i)](Row up, double* mid, Row down, Row rhs,
                                    int j0) {
          pk::sor_row9<W>(v, up, mid, down, rhs, h2, ch2, omega, keep, j0, n);
        };
      });
    } else {
      coloured_rows(n, 2, xs, bs, sched, [&](int i) {
        return [=, v = view5(p, i)](Row up, double* mid, Row down, Row rhs,
                                    int j0) {
          pk::sor_row5<W>(v, up, mid, down, rhs, h2, ch2, omega, keep, j0, n);
        };
      });
    }
  });
}

void packed_jacobi_sweep(const StencilOp& op, Grid2D& x, const Grid2D& b,
                         double omega, Grid2D& scratch, rt::Scheduler& sched,
                         int simd_width) {
  check_packed_operands(op, x, "packed_jacobi_sweep");
  PBMG_CHECK(x.n() == b.n() && x.n() == scratch.n(),
             "packed_jacobi_sweep: grid size mismatch");
  const PackedStencil& p = op.packed();
  const int n = x.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const double keep = 1.0 - omega;
  const int w = clamp_simd_width(simd_width);
  const bool nine = p.nine_point();
  sched.parallel_for(
      1, n - 1, sched.grain_for(n - 2, n - 2),
      [&](std::int64_t ib, std::int64_t ie) {
        for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
          const double* up = x.row(i - 1);
          const double* mid = x.row(i);
          const double* down = x.row(i + 1);
          const double* rhs = b.row(i);
          double* out = scratch.row(i);
          if (nine) {
            const pk::View9 v = view9(p, i);
            switch (w) {
              case 4: pk::jacobi_row9<4>(v, up, mid, down, rhs, out, h2,
                                         ch2, omega, keep, n); break;
              case 2: pk::jacobi_row9<2>(v, up, mid, down, rhs, out, h2,
                                         ch2, omega, keep, n); break;
              default: pk::jacobi_row9<1>(v, up, mid, down, rhs, out, h2,
                                          ch2, omega, keep, n); break;
            }
          } else {
            const pk::View5 v = view5(p, i);
            switch (w) {
              case 4: pk::jacobi_row5<4>(v, up, mid, down, rhs, out, h2,
                                         ch2, omega, keep, n); break;
              case 2: pk::jacobi_row5<2>(v, up, mid, down, rhs, out, h2,
                                         ch2, omega, keep, n); break;
              default: pk::jacobi_row5<1>(v, up, mid, down, rhs, out, h2,
                                          ch2, omega, keep, n); break;
            }
          }
        }
      });
  scratch.copy_boundary_from(x);
  x.swap(scratch);
}

namespace {

/// Thomas workspaces of one zebra pass: the cp/dp rows every line group
/// uses, plus the cached pivot factors (sub, inv) when the pass factors
/// once and replays per slot.
struct LineWorkspace {
  LineWorkspace(ScratchPool& pool, int n, bool factored)
      : cp(pool.acquire(n)), dp(pool.acquire(n)) {
    if (factored) {
      sub.emplace(pool.acquire(n));
      inv.emplace(pool.acquire(n));
    }
  }
  ScratchPool::Lease cp;
  ScratchPool::Lease dp;
  std::optional<ScratchPool::Lease> sub;
  std::optional<ScratchPool::Lease> inv;
};

/// Runs `group(first_line, lanes, cp, sub, inv, dp)` for every line
/// group of both zebra parities (odd lines first), each parity
/// group-parallel.  sub/inv are null for a fused (unfactored) pass.
template <class Group>
void zebra_groups(int n, int w, std::size_t batch, LineWorkspace& ws,
                  rt::Scheduler& sched, Group group) {
  for (int parity = 1; parity >= 0; --parity) {
    const LineGroups lg = line_groups(n, parity, w);
    if (lg.groups == 0) continue;
    const auto groups = [&](std::int64_t gb, std::int64_t ge) {
      for (int g = static_cast<int>(gb); g < static_cast<int>(ge); ++g) {
        const int row = g * w;
        group(lg.first + 2 * g * w, std::min(w, lg.count - g * w),
              ws.cp.get().row(row), ws.sub ? ws.sub->get().row(row) : nullptr,
              ws.inv ? ws.inv->get().row(row) : nullptr, ws.dp.get().row(row));
      }
    };
    sched.parallel_for(
        0, lg.groups,
        sched.grain_for(lg.groups, static_cast<std::int64_t>(w) * (n - 2) *
                                       static_cast<std::int64_t>(batch)),
        by_ref(groups));
  }
}

}  // namespace

// Both line passes keep one choice by K.  A batch of one runs the fused
// x_lines*/y_lines* Thomas solve; K >= 2 factors each line group once
// (pivot reciprocals and super-diagonal, every divide included) and
// replays the rhs recurrence per slot, so K right-hand sides share each
// coefficient-stream load and each pivot divide.  Factor/apply at K = 1
// measured 59/19/18/6% slower than the fused solve at N = 65/129/513/1025
// on a serial engine (4-vCPU Xeon), so K = 1 keeps the fused kernel.

void packed_line_x(const StencilOp& op, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched,
                   ScratchPool& pool, int simd_width) {
  if (!check_packed_slots(op, xs, bs, "packed_line_x")) return;
  const PackedStencil& p = op.packed();
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const long pstride = 2 * p.row_stride();  // lane l: streams of row i0+2l
  const long gstride = 2 * static_cast<long>(n);  // lane l: grid row i0+2l
  const bool fused = xs.size() == 1;
  LineWorkspace ws(pool, n, !fused);
  with_width(clamp_line_width(clamp_simd_width(simd_width), n),
             [&](auto width) {
    constexpr int W = decltype(width)::value;
    zebra_groups(n, W, xs.size(), ws, sched,
                 [&](int i0, int lanes, double* cp, double* sub, double* inv,
                     double* dp) {
      const auto rows = [&](std::size_t k) {
        return std::make_tuple(xs[k]->row(i0 - 1), xs[k]->row(i0),
                               xs[k]->row(i0 + 1), bs[k]->row(i0));
      };
      if (p.nine_point()) {
        const pk::View9 v = view9(p, i0);
        if (fused) {
          const auto [up, mid, down, rhs] = rows(0);
          pk::x_lines9<W>(v, pstride, up, mid, down, rhs, gstride, lanes, cp,
                          dp, h2, ch2, n);
          return;
        }
        pk::x_factor9<W>(v, pstride, lanes, cp, sub, inv, ch2, n);
        for (std::size_t k = 0; k < xs.size(); ++k) {
          const auto [up, mid, down, rhs] = rows(k);
          pk::x_apply9<W>(v, pstride, up, mid, down, rhs, gstride, lanes, cp,
                          sub, inv, dp, h2, n);
        }
        return;
      }
      const pk::View5 v = view5(p, i0);
      if (fused) {
        const auto [up, mid, down, rhs] = rows(0);
        pk::x_lines5<W>(v, pstride, up, mid, down, rhs, gstride, lanes, cp,
                        dp, h2, ch2, n);
        return;
      }
      pk::x_factor5<W>(v, pstride, lanes, cp, sub, inv, ch2, n);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        const auto [up, mid, down, rhs] = rows(k);
        pk::x_apply5<W>(v, pstride, up, mid, down, rhs, gstride, lanes, cp,
                        sub, inv, dp, h2, n);
      }
    });
  });
}

void packed_line_y(const StencilOp& op, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched,
                   ScratchPool& pool, int simd_width) {
  if (!check_packed_slots(op, xs, bs, "packed_line_y")) return;
  const PackedStencil& p = op.packed();
  const int n = op.n();
  const double h2 = mesh_width(n) * mesh_width(n);
  const double ch2 = op.c() * h2;
  const double* pbase = p.base();
  const long prow = p.row_stride();
  const long ppad = p.padded();
  const bool fused = xs.size() == 1;
  LineWorkspace ws(pool, n, !fused);
  with_width(clamp_line_width(clamp_simd_width(simd_width), n),
             [&](auto width) {
    constexpr int W = decltype(width)::value;
    zebra_groups(n, W, xs.size(), ws, sched,
                 [&](int j0, int lanes, double* cp, double* sub, double* inv,
                     double* dp) {
      if (p.nine_point()) {
        if (fused) {
          pk::y_lines9<W>(xs[0]->row(0), bs[0]->row(0), pbase, prow, ppad, j0,
                          lanes, cp, dp, h2, ch2, n);
          return;
        }
        pk::y_factor9<W>(pbase, prow, ppad, j0, lanes, cp, sub, inv, ch2, n);
        for (std::size_t k = 0; k < xs.size(); ++k) {
          pk::y_apply9<W>(xs[k]->row(0), bs[k]->row(0), pbase, prow, ppad, j0,
                          lanes, cp, sub, inv, dp, h2, n);
        }
        return;
      }
      if (fused) {
        pk::y_lines5<W>(xs[0]->row(0), bs[0]->row(0), pbase, prow, ppad, j0,
                        lanes, cp, dp, h2, ch2, n);
        return;
      }
      pk::y_factor5<W>(pbase, prow, ppad, j0, lanes, cp, sub, inv, ch2, n);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        pk::y_apply5<W>(xs[k]->row(0), bs[k]->row(0), pbase, prow, ppad, j0,
                        lanes, cp, sub, inv, dp, h2, n);
      }
    });
  });
}

}  // namespace pbmg::grid
