// Layout oracle for the panel packing (blas/packing.hpp): every packed
// element, zero padding included, is checked against the header's index
// formulas for each micro-panel geometry a tier uses, (mr, nr) in
// {4, 8, 16} x {6, 8}, whatever the host CPU dispatches to.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "blas/packing.hpp"
#include "support/check.hpp"

namespace {

using namespace lamb;
using blas::ReadA;
using la::ConstMatrixView;
using la::index_t;
using la::Matrix;

constexpr index_t kMRs[] = {4, 8, 16};
constexpr index_t kNRs[] = {6, 8};
constexpr index_t kSourceSize = 64;

/// One product block as gemm_blocked packs it: A rows [ic, ic+mc) and B
/// columns [jc, jc+nc) over the inner range [pc, pc+kc).
struct Block {
  index_t ic, pc, jc, mc, kc, nc;
};

const Block kBlocks[] = {
    {3, 5, 2, 35, 37, 21},  // fringe panels at every width
    {0, 0, 0, 48, 1, 48},   // whole panels only, one inner step
    {7, 2, 9, 3, 16, 5},    // one partial panel in each operand
    {40, 3, 0, 20, 10, 12},  // A rows below a symmetric A's diagonal
    {1, 30, 4, 13, 9, 14},  // A rows above it
};

/// A kSourceSize square view into the interior of a larger matrix, so its
/// leading dimension exceeds its row count. Every stored element, inside
/// the view and around it, is distinct.
class Source {
 public:
  Source() : storage_(kSourceSize + 5, kSourceSize + 2) {
    for (index_t j = 0; j < storage_.cols(); ++j) {
      for (index_t i = 0; i < storage_.rows(); ++i) {
        storage_(i, j) = 1.0 + static_cast<double>(i) + 1000.0 * j;
      }
    }
  }
  ConstMatrixView view() const {
    return storage_.block(2, 1, kSourceSize, kSourceSize);
  }

 private:
  Matrix storage_;
};

double op_a(ReadA read, ConstMatrixView a, index_t i, index_t p) {
  switch (read) {
    case ReadA::kPlain:
      return a(i, p);
    case ReadA::kTransposed:
      return a(p, i);
    case ReadA::kSymmetric:
      break;
  }
  return a(std::max(i, p), std::min(i, p));
}

double op_b(bool trans, ConstMatrixView b, index_t p, index_t j) {
  return trans ? b(j, p) : b(p, j);
}

/// Grows `buf` with a pack of the whole source, overwrites that pack with
/// NaN, and returns it: an element a later, smaller pack into the same
/// buffer fails to write stays NaN.
template <typename Pack>
const double* poison(blas::PackBuffer& buf, index_t size, Pack&& pack) {
  const double* whole = pack();
  std::fill_n(buf.reserve(size), size,
              std::numeric_limits<double>::quiet_NaN());
  return whole;
}

/// Compares `packed` with `want(r, p)` at [(r/w)*w*kc + p*w + r%w] for every
/// r < ceil(n/w)*w and p < kc; rows r >= n must hold 0.
template <typename Want>
testing::AssertionResult matches_layout(const double* packed, index_t n,
                                        index_t kc, index_t w, Want&& want) {
  const index_t padded = (n + w - 1) / w * w;
  for (index_t r = 0; r < padded; ++r) {
    for (index_t p = 0; p < kc; ++p) {
      const double expected = r < n ? want(r, p) : 0.0;
      const double got = packed[(r / w) * w * kc + p * w + r % w];
      if (!(got == expected)) {
        return testing::AssertionFailure()
               << "panel element (" << r << ", " << p << ") holds " << got
               << ", want " << expected;
      }
    }
  }
  return testing::AssertionSuccess();
}

TEST(Packing, EveryGeometryPacksBothOperandsToTheLayout) {
  const Source source;
  const ConstMatrixView s = source.view();
  for (const index_t mr : kMRs) {
    for (const index_t nr : kNRs) {
      blas::PackBuffer a_buf;
      blas::PackBuffer b_buf;
      const index_t a_size = (kSourceSize + mr - 1) / mr * mr * kSourceSize;
      const index_t b_size = (kSourceSize + nr - 1) / nr * nr * kSourceSize;
      for (const Block& blk : kBlocks) {
        for (const ReadA read :
             {ReadA::kPlain, ReadA::kTransposed, ReadA::kSymmetric}) {
          SCOPED_TRACE(testing::Message()
                       << "pack_a mr " << mr << " read "
                       << static_cast<int>(read) << " block ic " << blk.ic
                       << " pc " << blk.pc << " mc " << blk.mc << " kc "
                       << blk.kc);
          const double* whole = poison(a_buf, a_size, [&] {
            return blas::pack_a(ReadA::kPlain, s, 0, 0, kSourceSize,
                                kSourceSize, mr, a_buf);
          });
          const double* packed = blas::pack_a(read, s, blk.ic, blk.pc,
                                              blk.mc, blk.kc, mr, a_buf);
          ASSERT_EQ(packed, whole) << "the buffer was not reused";
          EXPECT_TRUE(matches_layout(packed, blk.mc, blk.kc, mr,
                                     [&](index_t i, index_t p) {
                                       return op_a(read, s, blk.ic + i,
                                                   blk.pc + p);
                                     }));
        }
        for (const bool trans : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "pack_b nr " << nr << " trans " << trans
                       << " block pc " << blk.pc << " jc " << blk.jc
                       << " kc " << blk.kc << " nc " << blk.nc);
          const double* whole = poison(b_buf, b_size, [&] {
            return blas::pack_b(false, s, 0, 0, kSourceSize, kSourceSize, nr,
                                b_buf);
          });
          const double* packed = blas::pack_b(trans, s, blk.pc, blk.jc,
                                              blk.kc, blk.nc, nr, b_buf);
          ASSERT_EQ(packed, whole) << "the buffer was not reused";
          EXPECT_TRUE(matches_layout(packed, blk.nc, blk.kc, nr,
                                     [&](index_t j, index_t p) {
                                       return op_b(trans, s, blk.pc + p,
                                                   blk.jc + j);
                                     }));
        }
      }
    }
  }
}

TEST(Packing, UnsupportedWidthsThrow) {
  const Source source;
  blas::PackBuffer buf;
  for (const index_t mr : {0, 1, 5, 6, 12, 32}) {
    EXPECT_THROW(
        blas::pack_a(ReadA::kPlain, source.view(), 0, 0, 8, 8, mr, buf),
        support::CheckError)
        << "mr " << mr;
  }
  for (const index_t nr : {0, 1, 4, 7, 16}) {
    EXPECT_THROW(blas::pack_b(false, source.view(), 0, 0, 8, 8, nr, buf),
                 support::CheckError)
        << "nr " << nr;
  }
}

}  // namespace
