// Register-blocked microkernel family with CPUID runtime dispatch.
//
// Each kernel computes one mr x nr tile of C directly from packed panels:
//
//   C(0:mr, 0:nr) := beta * C + alpha * sum_p a_panel(:, p) * b_panel(p, :)
//
// writing C through a raw (pointer, leading-dimension) pair — no per-element
// MatrixView calls on the hot path. `beta == 0` is a pure store (C is never
// read, so uninitialised/garbage C is fine), `beta == 1` an accumulate, any
// other beta a fused scale-and-add. The blocked GEMM folds its beta into the
// first kc-slab's store through this path instead of pre-scaling C.
//
// Tiers (best supported one wins, resolved once at first use):
//   scalar   4 x 8, portable C++, always available — the debugging/CI anchor
//   avx2     8 x 6, AVX2+FMA, 12 ymm accumulators (compiled on x86-64)
//   avx512  16 x 8, AVX-512F, 16 zmm accumulators (compiled on x86-64)
//
// Dispatch honours the LAMB_KERNEL environment variable ("scalar", "avx2",
// "avx512", or "auto"); an unavailable or unknown choice warns on stderr and
// falls back to auto. Tests can pin the tier with force_microkernel().
#pragma once

#include <string_view>
#include <vector>

#include "la/matrix.hpp"

namespace lamb::blas {

/// Upper bounds over every tier's geometry (sizes the fringe tile buffer).
inline constexpr la::index_t kMaxMR = 16;
inline constexpr la::index_t kMaxNR = 8;

/// Full-tile kernel: C(0:mr, 0:nr) := beta * C + alpha * A_panel B_panel,
/// with C column j at `c + j * ldc`.
using microkernel_fn = void (*)(la::index_t kc, double alpha,
                                const double* a_panel, const double* b_panel,
                                double beta, double* c, la::index_t ldc);

struct Microkernel {
  const char* name;  ///< dispatch tier name ("scalar", "avx2", "avx512")
  la::index_t mr;    ///< micro-tile rows (A-panel packing width)
  la::index_t nr;    ///< micro-tile cols (B-panel packing width)
  microkernel_fn fn;
};

/// The portable fallback; always available.
const Microkernel& scalar_microkernel();

/// Kernels compiled into this build AND supported by this CPU, ordered
/// worst-to-best (scalar first). Never empty.
const std::vector<const Microkernel*>& available_microkernels();

/// Resolve a LAMB_KERNEL-style choice: "" or "auto" picks the best available
/// tier; a tier name picks that tier if available. Returns nullptr for an
/// unknown or unavailable choice.
const Microkernel* select_microkernel(std::string_view choice);

/// The kernel the blocked GEMM uses. Resolved once from LAMB_KERNEL / CPUID
/// on first use and cached; thread-safe.
const Microkernel& active_microkernel();

/// Test hook: pin the active kernel (nullptr resolves it again from the
/// environment at the next use). Not intended for concurrent use with
/// in-flight GEMMs.
void force_microkernel(const Microkernel* kernel);

/// microkernel_fringe's `diag` for a store of the whole (rows x cols) corner.
inline constexpr la::index_t kAllRows = -kMaxNR;

/// Fringe tile: computes the full mr x nr tile into a stack buffer and
/// applies part of the valid (rows x cols) corner to C with the same beta
/// semantics as the full-tile path: column j gets rows [max(0, j + diag),
/// rows). kAllRows stores the whole corner; SYRK passes the tile's column
/// offset minus its row offset, which keeps C's lower triangle (i >= j).
void microkernel_fringe(const Microkernel& mk, la::index_t kc, double alpha,
                        const double* a_panel, const double* b_panel,
                        double beta, double* c, la::index_t ldc,
                        la::index_t rows, la::index_t cols,
                        la::index_t diag = kAllRows);

}  // namespace lamb::blas
