// General matrix multiply: C := alpha * op(A) * op(B) + beta * C, and the
// shared level-3 path (run_level3) that gemm, symm and syrk go through.
//
// Three internal variants (see blas/variant.hpp):
//   - naive     : tiny problems, plain loops;
//   - small-k   : unpacked rank-k update for shallow inner dimensions;
//   - blocked   : BLIS-style packed, cache-blocked path driven by the
//                 runtime-dispatched MR x NR register microkernel
//                 (blas/microkernel.hpp), with beta folded into the first
//                 kc-slab's store instead of a separate scaling sweep.
//
// SYMM and SYRK are the same loops with a different packing rule and store
// (Van Zee & van de Geijn, BLIS, ACM TOMS 2015): SYMM packs its A panels
// straight from the stored lower triangle, and SYRK stores only C's lower
// triangle, skipping row blocks and micro-tiles strictly above the diagonal
// and masking the tiles that cross it. Their naive and small-k variants run
// GEMM's loops per column of C (SYRK) or per rank-1 update (SYMM).
//
// With a ThreadPool the blocked path picks between two work splits:
//   - column stripes : disjoint kNR-aligned column ranges of C, one packing
//                      pipeline per worker (wide-n shapes);
//   - row blocks     : when n is too narrow to feed every worker a stripe
//                      but m is tall, workers split the mc row blocks of
//                      each (jc, pc) slab and share its packed B panel
//                      (the tall-skinny shapes the chain/AATB families
//                      generate).
#pragma once

#include <optional>
#include <vector>

#include "blas/packing.hpp"
#include "blas/variant.hpp"
#include "la/matrix.hpp"
#include "parallel/thread_pool.hpp"

namespace lamb::blas {

struct GemmOptions {
  BlockSizes blocks;
  parallel::ThreadPool* pool = nullptr;  ///< null -> serial
  /// Bypass select_gemm_variant() and force one internal variant — used by
  /// bm_kernels to measure the crossovers the thresholds are tuned against,
  /// and by experiments correlating variant switches with region boundaries.
  std::optional<GemmVariant> force_variant;
};

/// One worker's contiguous column range [begin, end) of C.
struct ColumnStripe {
  la::index_t begin = 0;
  la::index_t end = 0;

  friend bool operator==(const ColumnStripe&, const ColumnStripe&) = default;
};

/// Balanced `width`-aligned partition of [0, n) into at most `max_stripes`
/// non-empty stripes: microkernel blocks are distributed as evenly as
/// possible (stripe widths differ by at most `width`), every stripe boundary
/// except the last is a `width` multiple, and the stripes exactly cover
/// [0, n). This is the parallel GEMM column split, exposed for direct
/// testing; `width` defaults to the canonical kNR panel width and is set to
/// the active microkernel's nr by gemm().
std::vector<ColumnStripe> partition_column_stripes(la::index_t n,
                                                   la::index_t max_stripes,
                                                   la::index_t width = kNR);

/// How the blocked path would split work for this shape on `pool_size`
/// participants; pure function of the shape, exposed for testing.
enum class GemmParallelMode {
  kSerial,         ///< one participant (or nothing to split)
  kColumnStripes,  ///< disjoint column ranges, one packing pipeline each
  kRowBlocks,      ///< shared packed B per (jc, pc) slab, workers split rows
};
GemmParallelMode select_gemm_parallel_mode(la::index_t m, la::index_t n,
                                           std::size_t pool_size,
                                           const BlockSizes& bs,
                                           la::index_t nr);

/// One product for the shared level-3 path:
///   C := alpha * op(A) * op(B) + beta * C
/// with op(A) read as `read_a` says and op(B) = B^T when `trans_b`. With
/// `lower_c` (SYRK's store, never paired with ReadA::kSymmetric) only C's
/// lower triangle (i >= j) is computed and stored, and its strict upper
/// triangle is never touched.
struct Level3Product {
  ReadA read_a = ReadA::kPlain;
  bool trans_b = false;
  bool lower_c = false;
  double alpha = 1.0;
  la::ConstMatrixView a;
  la::ConstMatrixView b;
  double beta = 0.0;
  la::MatrixView c;
};

/// The loops behind gemm, symm and syrk: variant dispatch, packing, pool
/// split and microkernel sweep. It checks no shapes and opens no trace span;
/// its callers do both, each with its own kernel's FLOP count.
void run_level3(const Level3Product& p, const GemmOptions& opts);

/// op(A) is m x k, op(B) is k x n, C is m x n; op = transpose when flagged.
void gemm(bool trans_a, bool trans_b, double alpha, la::ConstMatrixView a,
          la::ConstMatrixView b, double beta, la::MatrixView c,
          const GemmOptions& opts = {});

/// Convenience: C := A * B (no transposes, alpha = 1, beta = 0).
void matmul(la::ConstMatrixView a, la::ConstMatrixView b, la::MatrixView c,
            const GemmOptions& opts = {});

}  // namespace lamb::blas
