#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernels/kernels.h"
#include "util/phaseprof.h"
#include "util/threadpool.h"

namespace emmark {
namespace {

// Tile extents. kKc bounds the K-slice so a B tile (kKc x kNc floats for
// the nn/tn layouts) and a packed panel (kKc x kNcPacked) stay cache
// resident across the row sweep; kKc doubles as the kGemmPanelK contract
// with PanelPackers. Tiling never changes results: per output element the
// p sum still runs strictly ascending across tiles.
constexpr int64_t kKc = kGemmPanelK;
constexpr int64_t kNc = 256;
constexpr int64_t kNcPacked = 128;
static_assert(kKc == kGemmPanelK, "panel contract");

/// Runs fn over row blocks of [0, m), on the active pool when the matmul
/// is big enough to amortize chunk scheduling. Each row is owned by
/// exactly one block, so the thread count cannot change results.
void rows_parallel(int64_t m, int64_t k, int64_t n,
                   const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t flops = 2 * m * k * n;
  if (flops < (int64_t{1} << 21) || ThreadPool::active().size() <= 1) {
    fn(0, m);
    return;
  }
  ThreadPool::active().parallel_for(
      static_cast<size_t>(m), [&fn](size_t begin, size_t end) {
        fn(static_cast<int64_t>(begin), static_cast<int64_t>(end));
      });
}

}  // namespace

void gemm_nn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  const kernels::Ops& ops = kernels::active_ops();
  phaseprof::ScopedTimer timer(phaseprof::Phase::kGemm);
  rows_parallel(m, k, n, [&](int64_t i0, int64_t i1) {
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t p1 = std::min(k, p0 + kKc);
      for (int64_t j0 = 0; j0 < n; j0 += kNc) {
        const int64_t jb = std::min(kNc, n - j0);
        for (int64_t i = i0; i < i1; ++i) {
          // One gemm_panel call per (row, K-panel, N-tile): c_row lives in
          // registers across the whole K-slice instead of a load/store
          // round trip per p, with the same ascending-p IEEE add order.
          ops.gemm_panel_f32(c + i * n + j0, b + p0 * n + j0, n, a + i * k + p0,
                             1, p1 - p0, jb);
        }
      }
    }
  });
}

void gemm_nt(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  // B rows become panel columns by copy-transpose; after that the layout
  // is identical to nn and the same panel sweep applies.
  gemm_nt_packed(a, c, m, k, n, accumulate,
                 [b, k](int64_t p0, int64_t pb, int64_t j0, int64_t jb,
                        float* panel) {
                   for (int64_t j = 0; j < jb; ++j) {
                     const float* b_row = b + (j0 + j) * k + p0;
                     // Pull the next B row toward L1 while transposing this
                     // one (b_row + k == same K-slice of row j + 1).
                     if (j + 1 < jb) __builtin_prefetch(b_row + k);
                     for (int64_t p = 0; p < pb; ++p) {
                       panel[p * jb + j] = b_row[p];
                     }
                   }
                 });
}

void gemm_tn(const float* a, const float* b, float* c, int64_t m, int64_t k,
             int64_t n, bool accumulate) {
  if (!accumulate) std::memset(c, 0, static_cast<size_t>(m * n) * sizeof(float));
  const kernels::Ops& ops = kernels::active_ops();
  phaseprof::ScopedTimer timer(phaseprof::Phase::kGemm);
  rows_parallel(m, k, n, [&](int64_t i0, int64_t i1) {
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t p1 = std::min(k, p0 + kKc);
      for (int64_t j0 = 0; j0 < n; j0 += kNc) {
        const int64_t jb = std::min(kNc, n - j0);
        for (int64_t i = i0; i < i1; ++i) {
          // A^T walks column i of A with stride m; the microkernel takes
          // the stride directly, so no transpose copy is needed here.
          ops.gemm_panel_f32(c + i * n + j0, b + p0 * n + j0, n, a + p0 * m + i,
                             m, p1 - p0, jb);
        }
      }
    }
  });
}

void gemm_nt_packed(const float* x, float* y, int64_t m, int64_t k, int64_t n,
                    bool accumulate, const PanelPacker& pack) {
  if (!accumulate) std::memset(y, 0, static_cast<size_t>(m * n) * sizeof(float));
  const kernels::Ops& ops = kernels::active_ops();
  phaseprof::ScopedTimer timer(phaseprof::Phase::kGemm);
  rows_parallel(m, k, n, [&](int64_t i0, int64_t i1) {
    // One panel per row block: blocks run on different workers, and
    // re-packing per block is cheap next to the O(rows * panel) multiply.
    std::vector<float> panel(
        static_cast<size_t>(kKc) * static_cast<size_t>(std::min(kNcPacked, n)));
    for (int64_t p0 = 0; p0 < k; p0 += kKc) {
      const int64_t pb = std::min(kKc, k - p0);
      for (int64_t j0 = 0; j0 < n; j0 += kNcPacked) {
        const int64_t jb = std::min(kNcPacked, n - j0);
        pack(p0, pb, j0, jb, panel.data());
        for (int64_t i = i0; i < i1; ++i) {
          // The panel is packed once per (K, N) tile and then amortized
          // over every row in the block -- the reason batched eval (large
          // m) beats per-token calls even though the FLOPs are identical.
          ops.gemm_panel_f32(y + i * n + j0, panel.data(), jb, x + i * k + p0,
                             1, pb, jb);
        }
      }
    }
  });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  if (a.rank() != 2 || b.rank() != 2) throw TensorError("matmul: rank-2 tensors required");
  if (a.dim(1) != b.dim(0)) {
    throw TensorError("matmul: inner dimensions differ: " + a.shape_string() +
                      " x " + b.shape_string());
  }
  Tensor out({a.dim(0), b.dim(1)});
  gemm_nn(a.data(), b.data(), out.data(), a.dim(0), a.dim(1), b.dim(1));
  return out;
}

}  // namespace emmark
