#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "grid/grid2d.h"
#include "runtime/scheduler.h"

/// \file row_sweep.h
/// The two row-parallel drivers every stencil sweep runs on, solo or
/// batched.  A sweep acts on K >= 1 right-hand sides of one operator; a
/// solo sweep is the K = 1 batch.  Per interior row the driver calls
/// `row_at(i)` once — it resolves the operator's coefficient row pointers
/// and returns the per-slot row kernel — and then runs that kernel on
/// each slot k, so a coefficient row stays hot across all K.  Row kernels
/// take raw row pointers and their scalars by value (the shape of the
/// packed pk:: kernels), which keeps the inner loops free of aliasing
/// reloads.  Each slot sees exactly the rows, in exactly the order, of a
/// K = 1 sweep, and slots never couple, so every slot's result is bitwise
/// independent of K and of the thread count.
///
/// Baseline-ISA templates only: grid_ops.cpp, relax.cpp and
/// packed_kernels.cpp include this; the per-width packed TUs must not
/// (see packed_rows.h).

namespace pbmg::grid {

/// Zeroes g's boundary ring.
inline void zero_boundary(Grid2D& g) {
  const int n = g.n();
  for (int j = 0; j < n; ++j) {
    g(0, j) = 0.0;
    g(n - 1, j) = 0.0;
  }
  for (int i = 0; i < n; ++i) {
    g(i, 0) = 0.0;
    g(i, n - 1) = 0.0;
  }
}

/// Offset of row i in an n×n grid's storage.  The drivers index every
/// slot from its base pointer with one shared offset per row, instead of
/// resolving each slot's rows through its Grid2D.
inline std::size_t row_offset(int i, int n) {
  return static_cast<std::size_t>(i) * static_cast<std::size_t>(n);
}

/// Wraps a range body in a one-reference closure, which fits
/// std::function's inline buffer: parallel_for then takes the body
/// without a heap allocation, a cost that matters on the coarsest grids
/// where a whole sweep is a few dozen points.
template <class Body>
auto by_ref(const Body& body) {
  return [&body](std::int64_t ib, std::int64_t ie) { body(ib, ie); };
}

/// Stores one interior row j in [1, n−2] of A·x (rhs == nullptr) or of
/// rhs − A·x, where av(j) is the row's stencil value at column j.
template <class Av>
inline void store_stencil_row(const double* rhs, double* out, int n, Av av) {
  if (rhs == nullptr) {
    for (int j = 1; j < n - 1; ++j) out[j] = av(j);
    return;
  }
  for (int j = 1; j < n - 1; ++j) out[j] = rhs[j] - av(j);
}

/// outs[k] = A·xs[k] (bs empty) or bs[k] − A·xs[k] (bs.size() == K) on
/// the interior of n×n grids; each out's boundary ring is zeroed.
/// `row_at(i)` returns a callable (up, mid, down, rhs, out) over slot k's
/// rows i−1, i, i+1 of x, row i of b (null when bs is empty) and row i of
/// out.  Callers validate the spans.
template <class RowAt>
void stencil_rows(int n, std::span<const Grid2D* const> xs,
                  std::span<const Grid2D* const> bs,
                  std::span<Grid2D* const> outs, rt::Scheduler& sched,
                  RowAt row_at) {
  const auto rows = [&](std::int64_t ib, std::int64_t ie) {
    for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
      const auto row = row_at(i);
      const std::size_t off = row_offset(i, n);
      for (std::size_t k = 0; k < xs.size(); ++k) {
        const double* mid = xs[k]->data() + off;
        row(mid - n, mid, mid + n, bs.empty() ? nullptr : bs[k]->data() + off,
            outs[k]->data() + off);
      }
    }
  };
  sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2), by_ref(rows));
  for (Grid2D* out : outs) zero_boundary(*out);
}

/// One in-place coloured Gauss–Seidel sweep of every xs[k] against
/// bs[k].  `colours` is 2 for 5-point stencils (red-black, by (i + j)
/// parity) or 4 for 9-point ones: corner neighbours share the red-black
/// parity, so the classes become (i mod 2, j mod 2), in which every
/// stencil neighbour has another colour.  Either way same-colour points
/// read only frozen values, so each colour is row-parallel and the sweep
/// is deterministic under any thread count.  `row_at(i)` returns a
/// callable (up, mid, down, rhs, j0) that updates mid[j0], mid[j0 + 2],
/// … up to column n−2.  Callers validate the spans.
template <class RowAt>
void coloured_rows(int n, int colours, std::span<Grid2D* const> xs,
                   std::span<const Grid2D* const> bs, rt::Scheduler& sched,
                   RowAt row_at) {
  for (int colour = 0; colour < colours; ++colour) {
    const auto rows = [&](std::int64_t ib, std::int64_t ie) {
      for (int i = static_cast<int>(ib); i < static_cast<int>(ie); ++i) {
        int j0 = 1 + ((i + 1 + colour) & 1);
        if (colours == 4) {
          if ((i & 1) != colour >> 1) continue;
          j0 = 1 + ((1 + colour) & 1);
        }
        const auto row = row_at(i);
        const std::size_t off = row_offset(i, n);
        for (std::size_t k = 0; k < xs.size(); ++k) {
          double* mid = xs[k]->data() + off;
          row(mid - n, mid, mid + n, bs[k]->data() + off, j0);
        }
      }
    };
    sched.parallel_for(1, n - 1, sched.grain_for(n - 2, n - 2), by_ref(rows));
  }
}

}  // namespace pbmg::grid
