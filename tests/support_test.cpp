// Unit tests for lamb::support: checks, RNG, statistics, strings, CSV,
// tables, CLI parsing, endian/hash helpers (and the serving key hash's
// spread), LRU cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/check.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/endian.hpp"
#include "support/hash.hpp"
#include "support/histogram.hpp"
#include "support/lru.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace {

using namespace lamb::support;

TEST(Check, PassingConditionDoesNotThrow) {
  EXPECT_NO_THROW(LAMB_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Check, FailingConditionThrowsCheckError) {
  EXPECT_THROW(LAMB_CHECK(false, "must fail"), CheckError);
}

TEST(Check, MessageIsIncluded) {
  try {
    LAMB_CHECK(false, "the-needle");
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("the-needle"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    equal += (a.next_u64() == b.next_u64()) ? 1 : 0;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntCoversInclusiveRange) {
  Rng rng(99);
  bool seen_lo = false;
  bool seen_hi = false;
  for (int i = 0; i < 3000; ++i) {
    const int v = rng.uniform_int(2, 9);
    ASSERT_GE(v, 2);
    ASSERT_LE(v, 9);
    seen_lo |= (v == 2);
    seen_hi |= (v == 9);
  }
  EXPECT_TRUE(seen_lo);
  EXPECT_TRUE(seen_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, BoundedRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.bounded(0), CheckError);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.split();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Rng, Mix64IsStable) {
  // Pin a few values so jitter streams are reproducible forever.
  EXPECT_EQ(mix64(0), mix64(0));
  EXPECT_NE(mix64(1), mix64(2));
}

TEST(Rng, HashCombineOrderDependent) {
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

TEST(Rng, HashStringStable) {
  EXPECT_EQ(hash_string("gemm"), hash_string("gemm"));
  EXPECT_NE(hash_string("gemm"), hash_string("symm"));
}

TEST(Statistics, MedianOdd) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Statistics, MedianEven) {
  const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Statistics, MedianSingle) {
  const std::vector<double> xs = {7.0};
  EXPECT_DOUBLE_EQ(median(xs), 7.0);
}

TEST(Statistics, MedianEmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(median(xs), CheckError);
}

TEST(Statistics, MedianInPlaceMatchesTheCopyingMedian) {
  using Sample = std::vector<double>;
  for (const Sample& xs :
       {Sample{5.0, 1.0, 3.0}, Sample{4.0, 1.0, 3.0, 2.0}, Sample{7.0},
        Sample{2.0, 2.0, 9.0, -1.0, 0.5, 3.0}}) {
    std::vector<double> scratch = xs;
    EXPECT_EQ(median_in_place(scratch), median(xs));
    std::sort(scratch.begin(), scratch.end());
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(scratch, sorted);  // reordered, not changed
  }
  std::vector<double> empty;
  EXPECT_THROW(median_in_place(empty), CheckError);
}

/// The nth_element median: the oracle the fixed ten-value median's order
/// statistics must match.
double nth_element_median(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) {
    return v[mid];
  }
  const double hi = v[mid];
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

TEST(Statistics, MedianInPlaceMatchesNthElementBitForBit) {
  using Ten = std::array<double, 10>;
  std::vector<Ten> inputs;
  // Every zero-one input: by the zero-one principle, a comparator network
  // that selects the two middle values of all of them does so for any
  // input.
  for (unsigned mask = 0; mask < (1u << 10); ++mask) {
    Ten bits;
    for (std::size_t i = 0; i < bits.size(); ++i) {
      bits[i] = static_cast<double>((mask >> i) & 1u);
    }
    inputs.push_back(bits);
  }
  Rng rng(31);
  for (int trial = 0; trial < 256; ++trial) {
    Ten random;
    Ten ties;
    Ten draws;  // shaped like the simulated machine's: 1 + jitter * |u|
    for (std::size_t i = 0; i < random.size(); ++i) {
      random[i] = rng.uniform(-1.0, 1.0) * 1e3;
      ties[i] = static_cast<double>(rng.uniform_int(0, 3)) * 0.25 + 1.0;
      draws[i] = 1.0 + 0.004 * rng.uniform();
    }
    inputs.push_back(random);
    inputs.push_back(ties);
    inputs.push_back(draws);
    std::sort(random.begin(), random.end());
    inputs.push_back(random);
    std::reverse(random.begin(), random.end());
    inputs.push_back(random);
  }
  for (const Ten& xs : inputs) {
    const std::vector<double> copy(xs.begin(), xs.end());
    const double want = nth_element_median(copy);
    const double got = median_of_ten(xs);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(want))
        << got << " vs " << want;
    std::vector<double> scratch = copy;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(median_in_place(scratch)),
              std::bit_cast<std::uint64_t>(want));
  }
}

TEST(Statistics, MeanAndStddev) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944487, 1e-9);
}

TEST(Statistics, StddevOfSingletonIsZero) {
  const std::vector<double> xs = {3.0};
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Statistics, QuantileEndpoints) {
  const std::vector<double> xs = {10.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 30.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 20.0);
}

TEST(Statistics, QuantileInterpolates) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.25), 2.5);
}

TEST(Statistics, ArgminSetExact) {
  const std::vector<double> xs = {3.0, 1.0, 2.0, 1.0};
  const auto set = argmin_set(xs);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0], 1u);
  EXPECT_EQ(set[1], 3u);
}

TEST(Statistics, ArgminSetWithTolerance) {
  const std::vector<double> xs = {1.0, 1.005, 1.2};
  EXPECT_EQ(argmin_set(xs, 0.01).size(), 2u);
  EXPECT_EQ(argmin_set(xs, 0.0).size(), 1u);
}

TEST(Statistics, HistogramCountsAndClamping) {
  const std::vector<double> xs = {-1.0, 0.1, 0.5, 0.9, 2.0};
  const Histogram h = make_histogram(xs, 0.0, 1.0, 2);
  ASSERT_EQ(h.counts.size(), 2u);
  EXPECT_EQ(h.counts[0], 2u);  // -1 clamped into the first bin, plus 0.1
  EXPECT_EQ(h.counts[1], 3u);  // 0.5, 0.9, and 2.0 clamped into the last bin
  EXPECT_EQ(h.total(), 5u);
}

TEST(LatencyHistogram, QuantilesFromBucketCounts) {
  lamb::support::LatencyHistogram h;
  // 100 samples squarely inside the (2e-4, 5e-4] bucket.
  for (int i = 0; i < 100; ++i) {
    h.record(3e-4);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  // Every quantile interpolates within that bucket's bounds.
  for (double q : {0.01, 0.5, 0.99, 0.999}) {
    const double v = snap.quantile(q);
    EXPECT_GE(v, 2e-4);
    EXPECT_LE(v, 5e-4);
  }
  // Higher quantiles never rank below lower ones.
  EXPECT_LE(snap.quantile(0.50), snap.quantile(0.99));
  EXPECT_LE(snap.quantile(0.99), snap.quantile(0.999));
}

TEST(LatencyHistogram, QuantileSpansBuckets) {
  lamb::support::LatencyHistogram h;
  for (int i = 0; i < 90; ++i) {
    h.record(1.5e-5);  // (1e-5, 2e-5]
  }
  for (int i = 0; i < 10; ++i) {
    h.record(0.15);  // (1e-1, 2e-1]
  }
  const auto snap = h.snapshot();
  // p50 comes from the fast bucket, p99 from the slow one.
  EXPECT_LE(snap.quantile(0.50), 2e-5);
  EXPECT_GE(snap.quantile(0.99), 1e-1);
  EXPECT_LE(snap.quantile(0.99), 2e-1);
}

TEST(LatencyHistogram, QuantileEdgeCases) {
  // Empty answers NaN, never 0: "no data" must not read as "zero latency".
  lamb::support::LatencyHistogram empty;
  EXPECT_TRUE(std::isnan(empty.snapshot().quantile(0.5)));
  EXPECT_TRUE(std::isnan(empty.snapshot().quantile(0.0)));
  EXPECT_TRUE(std::isnan(empty.snapshot().quantile(1.0)));

  lamb::support::LatencyHistogram one;
  one.record(3e-3);  // (2e-3, 5e-3]
  const auto single = one.snapshot();
  EXPECT_GE(single.quantile(0.5), 2e-3);
  EXPECT_LE(single.quantile(0.5), 5e-3);
  // Out-of-range q clamps instead of reading out of bounds.
  EXPECT_GE(single.quantile(-1.0), 0.0);
  EXPECT_LE(single.quantile(2.0), 5e-3);

  // Values beyond the largest bound land in the +Inf bucket; quantiles
  // clamp to the largest finite bound rather than inventing a value.
  lamb::support::LatencyHistogram huge;
  huge.record(30.0);
  EXPECT_DOUBLE_EQ(
      huge.snapshot().quantile(0.99),
      lamb::support::LatencyHistogram::kBounds.back());
}

TEST(LatencyHistogram, MergeEqualsRecordingIntoOne) {
  // Shared bucket bounds make merging an exact element-wise sum: two
  // per-reactor histograms merged must be bit-identical to one histogram
  // that saw every sample (this is what /metrics relies on at scrape time).
  lamb::support::LatencyHistogram a;
  lamb::support::LatencyHistogram b;
  lamb::support::LatencyHistogram all;
  for (int i = 0; i < 60; ++i) {
    a.record(1.5e-5);
    all.record(1.5e-5);
  }
  for (int i = 0; i < 40; ++i) {
    b.record(0.15);
    all.record(0.15);
  }
  b.record(30.0);  // +Inf bucket merges too
  all.record(30.0);

  lamb::support::LatencyHistogram merged;
  merged.merge(a);
  merged.merge(b);
  const auto ms = merged.snapshot();
  const auto as = all.snapshot();
  EXPECT_EQ(ms.count, as.count);
  EXPECT_DOUBLE_EQ(ms.sum_seconds, as.sum_seconds);  // integer-ns exactness
  for (std::size_t bkt = 0; bkt < ms.counts.size(); ++bkt) {
    EXPECT_EQ(ms.counts[bkt], as.counts[bkt]) << "bucket " << bkt;
  }

  // Snapshot-level merge (the scrape path) agrees with histogram merge.
  auto snap = a.snapshot();
  snap.merge(b.snapshot());
  EXPECT_EQ(snap.count, as.count);
  EXPECT_DOUBLE_EQ(snap.sum_seconds, as.sum_seconds);
  for (std::size_t bkt = 0; bkt < snap.counts.size(); ++bkt) {
    EXPECT_EQ(snap.counts[bkt], as.counts[bkt]) << "bucket " << bkt;
  }

  // Quantiles after the merge rank across BOTH sources: p50 from a's fast
  // bucket, p99 from b's slow one — identical to the all-in-one histogram.
  EXPECT_LE(snap.quantile(0.50), 2e-5);
  EXPECT_GE(snap.quantile(0.95), 1e-1);
  for (double q : {0.25, 0.5, 0.9, 0.95, 0.999}) {
    EXPECT_DOUBLE_EQ(snap.quantile(q), as.quantile(q)) << "q=" << q;
  }
}

TEST(MetricsWriter, EmitsFamiliesThenSeries) {
  lamb::support::MetricsWriter w;
  w.family("lamb_requests_total", "counter", "Requests served.");
  w.counter("lamb_requests_total", 42);
  w.counter("lamb_requests_total", "{source=\"cache\"}", 7);
  w.family("lamb_cache_size", "gauge", "Entries resident.");
  w.gauge("lamb_cache_size", 3);
  w.gauge("lamb_cache_size", 0.25);
  const std::string out = w.take();
  EXPECT_NE(out.find("# HELP lamb_requests_total Requests served.\n"),
            std::string::npos);
  EXPECT_NE(out.find("# TYPE lamb_requests_total counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("lamb_requests_total 42\n"), std::string::npos);
  EXPECT_NE(out.find("lamb_requests_total{source=\"cache\"} 7\n"),
            std::string::npos);
  // Gauges: integral values exact, fractional compact — never "3.000000".
  EXPECT_NE(out.find("lamb_cache_size 3\n"), std::string::npos);
  EXPECT_NE(out.find("lamb_cache_size 0.25\n"), std::string::npos);
  // HELP/TYPE precede the family's first series.
  EXPECT_LT(out.find("# TYPE lamb_requests_total"),
            out.find("lamb_requests_total 42"));
}

TEST(MetricsWriter, HistogramEmitsCumulativeTriple) {
  lamb::support::LatencyHistogram h;
  h.record(2e-5);  // lands in le="5e-05"
  h.record(0.3);   // lands in le="0.5"
  lamb::support::MetricsWriter w;
  w.family("lamb_stage_seconds", "histogram", "Stage latency.");
  w.histogram("lamb_stage_seconds", "stage=\"kernel\"", h.snapshot());
  const std::string out = w.take();
  EXPECT_NE(out.find("lamb_stage_seconds_bucket{stage=\"kernel\",le="),
            std::string::npos);
  EXPECT_NE(out.find("le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(out.find("lamb_stage_seconds_sum{stage=\"kernel\"}"),
            std::string::npos);
  EXPECT_NE(out.find("lamb_stage_seconds_count{stage=\"kernel\"} 2\n"),
            std::string::npos);
}

TEST(MetricsWriter, KindMismatchIsRejected) {
  // The bug class this type replaces: a gauge emitted through the counter
  // path (or any series under the wrong — or no — family declaration).
  lamb::support::MetricsWriter w;
  w.family("lamb_cache_size", "gauge", "Entries resident.");
  EXPECT_THROW(w.counter("lamb_cache_size", 3), CheckError);
  lamb::support::MetricsWriter w2;
  w2.family("lamb_requests_total", "counter", "Requests.");
  EXPECT_THROW(w2.gauge("lamb_requests_total", 1.0), CheckError);
  EXPECT_THROW(w2.counter("lamb_other_total", 1), CheckError);
}

TEST(LatencyHistogram, MergingEmptyChangesNothing) {
  lamb::support::LatencyHistogram h;
  h.record(3e-4);
  const auto before = h.snapshot();

  lamb::support::LatencyHistogram empty;
  h.merge(empty);  // histogram-level: no-op
  auto snap = h.snapshot();
  snap.merge(empty.snapshot());  // snapshot-level: also a no-op
  EXPECT_EQ(snap.count, before.count);
  EXPECT_DOUBLE_EQ(snap.sum_seconds, before.sum_seconds);
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), before.quantile(0.5));

  // Empty-into-empty stays empty, and its quantile still answers NaN.
  auto none = empty.snapshot();
  none.merge(empty.snapshot());
  EXPECT_EQ(none.count, 0u);
  EXPECT_TRUE(std::isnan(none.quantile(0.5)));
}

TEST(Statistics, RunningStats) {
  RunningStats s;
  s.add(2.0);
  s.add(4.0);
  s.add(0.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(Str, Strf) {
  EXPECT_EQ(strf("%d-%s", 7, "x"), "7-x");
}

TEST(Str, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Str, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
}

TEST(Str, FormatPercent) {
  EXPECT_EQ(format_percent(0.123), "12.3%");
  EXPECT_EQ(format_percent(0.5, 0), "50%");
}

TEST(Str, FormatCount) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(22962), "22,962");
  EXPECT_EQ(format_count(1234567), "1,234,567");
  EXPECT_EQ(format_count(-1234), "-1,234");
}

TEST(Str, FormatDoubleSwitchesToScientific) {
  EXPECT_EQ(format_double(0.5, 2), "0.50");
  EXPECT_NE(format_double(1.0e-9, 2).find('e'), std::string::npos);
}

TEST(Csv, WritesRowsAndEscapes) {
  const std::string path = "test_csv_out.csv";
  {
    CsvWriter w(path);
    w.row({"a", "b,c", "d\"e"});
    w.row("label", {1.0, 2.5});
    EXPECT_EQ(w.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,\"b,c\",\"d\"\"e\"");
  EXPECT_EQ(line2.rfind("label,", 0), 0u);
  std::filesystem::remove(path);
}

TEST(Csv, EnsureResultsDirCreates) {
  const std::string dir = ensure_results_dir("test_results_dir");
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(dir);
}

TEST(Table, RendersHeaderAndRows) {
  Table t({"x", "value"});
  t.add_row({"a", "1"});
  t.add_separator();
  t.add_row({"bb", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| x "), std::string::npos);
  EXPECT_NE(out.find("| bb"), std::string::npos);
  // header rule + separator + top/bottom rules = 4 '+--' rules
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Cli, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4", "--gamma"};
  Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_EQ(cli.get_int("beta", 0), 4);
  EXPECT_TRUE(cli.get_bool("gamma", false));
  EXPECT_EQ(cli.get_int("missing", 9), 9);
}

TEST(Cli, BooleanNegation) {
  const char* argv[] = {"prog", "--no-real"};
  Cli cli(2, argv);
  EXPECT_FALSE(cli.get_bool("real", true));
}

TEST(Cli, Positional) {
  const char* argv[] = {"prog", "pos1", "--x=1", "pos2"};
  Cli cli(4, argv);
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "pos1");
  EXPECT_EQ(cli.positional()[1], "pos2");
}

TEST(Cli, DoubleAndSeed) {
  const char* argv[] = {"prog", "--threshold=0.25", "--seed=77"};
  Cli cli(3, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("threshold", 0.0), 0.25);
  EXPECT_EQ(cli.get_seed("seed", 0), 77u);
}

TEST(Endian, RoundTripsAndLaysOutLittleEndian) {
  std::string bytes;
  append_le64(bytes, 0x1122334455667788ULL);
  append_f64(bytes, -0.375);
  ASSERT_EQ(bytes.size(), 16u);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  EXPECT_EQ(p[0], 0x88);  // least-significant byte first
  EXPECT_EQ(p[7], 0x11);
  EXPECT_EQ(load_le64(p), 0x1122334455667788ULL);
  EXPECT_EQ(load_f64(p + 8), -0.375);  // bit-exact
}

TEST(Hash, FnvMatchesReferenceVectorsAndSeeds) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xCBF29CE484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_NE(fnv1a64("abc"), fnv1a64("acb"));
  // Seed participates (string_view spelled out: a bare "x" with an integer
  // second argument would resolve to the (void*, size_t) overload).
  EXPECT_NE(fnv1a64(std::string_view("x"), 1),
            fnv1a64(std::string_view("x"), 2));
  EXPECT_EQ(fnv1a64(std::string_view("x"), kFnvOffset), fnv1a64("x"));
}

TEST(Hash, NameIntsHashSeparatesFieldsAndCoversTheName) {
  const std::vector<int> dims = {300, 260, 549};
  const std::uint64_t h = hash_name_ints("aatb", dims, 0);
  EXPECT_EQ(h, hash_name_ints(std::string("aatb"), std::vector<int>(dims), 0));
  EXPECT_NE(h, hash_name_ints("aatb", dims, 1));                // the tag
  EXPECT_NE(h, hash_name_ints("aatb", std::vector<int>{260, 300, 549}, 0));
  EXPECT_NE(h, hash_name_ints("aatb", std::vector<int>{300, 260}, 0));
  // Every byte of every length class reaches the hash.
  const std::string name = "abcdefghijklmnopqrstuvw";  // 23 bytes
  for (std::size_t n = 1; n <= name.size(); ++n) {
    const std::string base = name.substr(0, n);
    EXPECT_NE(hash_name_ints(base, dims, 0),
              hash_name_ints(name.substr(0, n - 1), dims, 0))
        << n;
    for (std::size_t i = 0; i < n; ++i) {
      std::string flipped = base;
      flipped[i] = static_cast<char>(flipped[i] ^ 0x20);
      EXPECT_NE(hash_name_ints(flipped, dims, 0), hash_name_ints(base, dims, 0))
          << n << " " << i;
    }
  }
}

TEST(Hash, NameIntsHashSpreadsServingKeysOverShardsAndProbeRuns) {
  // Keys shaped like the warm-serve workload's LRU keys: four families, 64
  // random base lines each, every size of [20, 1200] along the line. The
  // serving layer's sharded LRU picks a shard by hash % 16, and each
  // shard's index takes the low bits of mix64(hash).
  struct Family {
    const char* name;
    int arity;
  };
  const Family families[] = {{"aatb", 3}, {"chain4", 5}, {"gram", 2},
                             {"aatbc", 4}};
  constexpr std::size_t kShards = 16;
  std::vector<std::vector<std::uint64_t>> by_shard(kShards);
  Rng rng(2024);
  std::size_t keys = 0;
  for (const Family& f : families) {
    for (int b = 0; b < 64; ++b) {
      std::vector<int> dims(static_cast<std::size_t>(f.arity));
      for (int& d : dims) {
        d = rng.uniform_int(20, 1200);
      }
      const int dim = b % f.arity;
      for (int c = 20; c <= 1200; ++c) {
        dims[static_cast<std::size_t>(dim)] = c;
        const std::uint64_t h =
            hash_name_ints(f.name, dims, static_cast<std::uint32_t>(dim));
        by_shard[h % kShards].push_back(h);
        ++keys;
      }
    }
  }
  const double mean = static_cast<double>(keys) / kShards;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_NEAR(static_cast<double>(by_shard[s].size()), mean, 0.05 * mean)
        << "shard " << s;
  }
  // A 65,536-entry LRU holds 4,096 keys a shard in an 8,192-bucket index:
  // linear probing, half full. A uniform hash displaces a key by 0.5
  // buckets on average; a clustering one builds long runs.
  for (std::size_t s = 0; s < kShards; ++s) {
    std::vector<bool> used(8192, false);
    std::size_t total = 0;
    std::size_t longest = 0;
    for (std::size_t k = 0; k < 4096; ++k) {
      std::size_t i = static_cast<std::uint32_t>(mix64(by_shard[s][k])) & 8191;
      std::size_t displacement = 0;
      while (used[i]) {
        i = (i + 1) & 8191;
        ++displacement;
      }
      used[i] = true;
      total += displacement;
      longest = std::max(longest, displacement);
    }
    EXPECT_LT(static_cast<double>(total) / 4096, 0.75) << "shard " << s;
    EXPECT_LT(longest, 40u) << "shard " << s;
  }
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  ASSERT_TRUE(cache.get(1).has_value());  // 1 is now most recent
  cache.put(3, 30);                       // evicts 2
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_TRUE(cache.get(3).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Lru, PutRefreshesRecencyAndOverwrites) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // overwrite refreshes recency
  cache.put(3, 30);  // evicts 2, not 1
  EXPECT_EQ(*cache.get(1), 11);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(Lru, CountersAndClear) {
  LruCache<int, int> cache(4);
  EXPECT_FALSE(cache.get(1).has_value());
  cache.put(1, 10);
  EXPECT_TRUE(cache.get(1).has_value());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  // clear() resets the counters too: hit rates reported after a clear()
  // describe the cache's new life, not its previous one.
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 0u);
  EXPECT_FALSE(cache.get(1).has_value());
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Lru, ZeroCapacityIsUnbounded) {
  LruCache<int, int> cache(0);
  for (int i = 0; i < 1000; ++i) {
    cache.put(i, i);
  }
  EXPECT_EQ(cache.size(), 1000u);
}

/// The list + map LRU that LruCache's slot array replaced, kept as the
/// reference the flat layout is checked against.
template <typename Key, typename Value, typename Hash>
class ListMapLru {
 public:
  explicit ListMapLru(std::size_t capacity) : capacity_(capacity) {}

  std::optional<Value> get(const Key& key) {
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  void put(const Key& key, Value value) {
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    map_.emplace(key, order_.begin());
    if (capacity_ > 0 && map_.size() > capacity_) {
      map_.erase(order_.back().first);
      order_.pop_back();
    }
  }

  std::size_t size() const { return map_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

  void clear() {
    map_.clear();
    order_.clear();
    hits_ = 0;
    misses_ = 0;
  }

 private:
  std::size_t capacity_;
  std::list<std::pair<Key, Value>> order_;  // front = most recent
  std::unordered_map<Key, typename std::list<std::pair<Key, Value>>::iterator,
                     Hash>
      map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// An identity hash at its weakest: the low four bits are always zero, as
/// within one shard of a 16-way serve::ShardedLruCache, and every four keys
/// share a value, so probe runs grow long and erases shift entries far.
struct WeakIdentityHash {
  std::size_t operator()(int key) const {
    return static_cast<std::size_t>(key / 4) * 16;
  }
};

template <typename Hash>
void expect_lru_matches_reference(std::size_t capacity, std::uint64_t seed) {
  LruCache<int, int, Hash> cache(capacity);
  ListMapLru<int, int, Hash> reference(capacity);
  Rng rng(seed);
  // Three times the capacity in keys: hits, overwrites and evictions mix.
  const int keys = capacity == 0 ? 300 : static_cast<int>(3 * capacity + 1);
  for (int step = 0; step < 20000; ++step) {
    const int key = rng.uniform_int(0, keys - 1);
    const double op = rng.uniform();
    if (op < 0.45) {
      ASSERT_EQ(cache.get(key), reference.get(key))
          << "capacity " << capacity << " step " << step << " key " << key;
    } else if (op < 0.998) {
      cache.put(key, step);
      reference.put(key, step);
    } else {
      cache.clear();
      reference.clear();
    }
    ASSERT_EQ(cache.size(), reference.size())
        << "capacity " << capacity << " step " << step;
  }
  EXPECT_EQ(cache.hits(), reference.hits());
  EXPECT_EQ(cache.misses(), reference.misses());
  // The survivors and their values agree for every key.
  for (int key = 0; key < keys; ++key) {
    ASSERT_EQ(cache.get(key), reference.get(key)) << "key " << key;
  }
}

TEST(Lru, MatchesTheListAndMapReferenceUnderRandomTraffic) {
  for (const std::size_t capacity : {0u, 1u, 3u, 64u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      expect_lru_matches_reference<std::hash<int>>(capacity, seed);
      expect_lru_matches_reference<WeakIdentityHash>(capacity, seed + 100);
    }
  }
}

}  // namespace
