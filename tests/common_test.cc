// Unit tests for the common substrate: virtual time, RNG, status, config,
// histogram, time series, tables, CRC32C.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>

#include "common/config.h"
#include "common/crc32c.h"
#include "common/histogram.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/time.h"
#include "common/timeseries.h"

namespace ecc {
namespace {

// --- time -------------------------------------------------------------------

TEST(DurationTest, ConstructorsAgree) {
  EXPECT_EQ(Duration::Seconds(1.0).micros(), 1000000);
  EXPECT_EQ(Duration::Millis(5).micros(), 5000);
  EXPECT_EQ(Duration::Minutes(2).micros(), 120000000);
  EXPECT_EQ(Duration::Hours(1).micros(), 3600000000LL);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::Seconds(10);
  const Duration b = Duration::Seconds(4);
  EXPECT_DOUBLE_EQ((a + b).seconds(), 14.0);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 6.0);
  EXPECT_DOUBLE_EQ((a * 0.5).seconds(), 5.0);
  EXPECT_DOUBLE_EQ((a / 2).seconds(), 5.0);
  EXPECT_DOUBLE_EQ(a / b, 2.5);
}

TEST(DurationTest, Comparisons) {
  EXPECT_LT(Duration::Millis(1), Duration::Seconds(1));
  EXPECT_EQ(Duration::Seconds(1), Duration::Millis(1000));
  EXPECT_GT(Duration::Hours(1), Duration::Minutes(59));
}

TEST(DurationTest, ToStringPicksUnits) {
  EXPECT_EQ(Duration::Micros(500).ToString(), "500us");
  EXPECT_EQ(Duration::Millis(2).ToString(), "2.000ms");
  EXPECT_EQ(Duration::Seconds(23).ToString(), "23.000s");
  EXPECT_EQ(Duration::Hours(2).ToString(), "2.00h");
}

TEST(TimePointTest, DifferenceIsDuration) {
  const TimePoint a = TimePoint::Epoch() + Duration::Seconds(100);
  const TimePoint b = TimePoint::Epoch() + Duration::Seconds(40);
  EXPECT_DOUBLE_EQ((a - b).seconds(), 60.0);
}

TEST(VirtualClockTest, AdvancesMonotonically) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), TimePoint::Epoch());
  clock.Advance(Duration::Seconds(5));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 5.0);
  clock.Advance(Duration::Seconds(-3));  // negative clamped
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 5.0);
  clock.AdvanceTo(TimePoint::Epoch() + Duration::Seconds(2));  // past: no-op
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 5.0);
  clock.AdvanceTo(TimePoint::Epoch() + Duration::Seconds(9));
  EXPECT_DOUBLE_EQ(clock.now().seconds(), 9.0);
}

// --- rng --------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversSmallRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(17);
  double sum = 0.0;
  for (int i = 0; i < 50000; ++i) sum += rng.Exponential(4.0);
  EXPECT_NEAR(sum / 50000.0, 4.0, 0.2);
}

TEST(RngTest, NormalHasRequestedMoments) {
  Rng rng(19);
  double sum = 0.0, sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.Normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

TEST(ZipfSamplerTest, SkewsTowardLowRanks) {
  Rng rng(23);
  ZipfSampler zipf(1000, 1.0);
  std::uint64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 10) ++low;
  }
  // With s=1 the top-10 ranks carry ~39% of mass over 1000 ranks.
  EXPECT_GT(static_cast<double>(low) / n, 0.30);
}

TEST(ZipfSamplerTest, ZeroSkewIsUniform) {
  Rng rng(29);
  ZipfSampler zipf(100, 0.0);
  std::uint64_t low = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (zipf.Sample(rng) < 50) ++low;
  }
  EXPECT_NEAR(static_cast<double>(low) / n, 0.5, 0.03);
}

// --- status -----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, FactoriesSetCodeAndMessage) {
  const Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NOT_FOUND: missing key");
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v(42);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(v.status().ok());
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v(Status::Unavailable("down"));
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kUnavailable);
}

TEST(StatusOrTest, MoveOutValue) {
  StatusOr<std::string> v(std::string("payload"));
  const std::string moved = std::move(v).value();
  EXPECT_EQ(moved, "payload");
}

// --- config -----------------------------------------------------------------

TEST(ConfigTest, ParsesKeyValueLines) {
  Config c;
  ASSERT_TRUE(c.ParseString("a = 1\n# comment\n\nb=hello\n c.d = 2.5 \n")
                  .ok());
  EXPECT_EQ(c.GetInt("a"), 1);
  EXPECT_EQ(c.GetString("b"), "hello");
  EXPECT_DOUBLE_EQ(c.GetDouble("c.d"), 2.5);
}

TEST(ConfigTest, RejectsMalformedLine) {
  Config c;
  const Status s = c.ParseString("ok = 1\nbroken line\n");
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("line 2"), std::string::npos);
}

TEST(ConfigTest, FallbacksApplyOnMissingOrBadValues) {
  Config c;
  ASSERT_TRUE(c.ParseString("n = notanumber\nflag = yes\n").ok());
  EXPECT_EQ(c.GetInt("n", 5), 5);
  EXPECT_EQ(c.GetInt("absent", 7), 7);
  EXPECT_TRUE(c.GetBool("flag"));
  EXPECT_FALSE(c.GetBool("absent", false));
}

TEST(ConfigTest, TokenOverridesEarlierValue) {
  Config c;
  ASSERT_TRUE(c.ParseToken("x=1").ok());
  ASSERT_TRUE(c.ParseToken("x=2").ok());
  EXPECT_EQ(c.GetInt("x"), 2);
  EXPECT_FALSE(c.ParseToken("novalue").ok());
}

// --- histogram --------------------------------------------------------------

TEST(HistogramTest, BasicMoments) {
  Histogram h;
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.Add(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 4.0);
}

TEST(HistogramTest, PercentilesAreOrdered) {
  Histogram h;
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) h.Add(rng.Exponential(100.0));
  const double p50 = h.Percentile(50);
  const double p90 = h.Percentile(90);
  const double p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  // Exponential(100): p50 ~= 69; log-bucket resolution is ~15%.
  EXPECT_NEAR(p50, 69.3, 69.3 * 0.2);
}

TEST(HistogramTest, MergeCombinesPopulations) {
  Histogram a, b;
  a.Add(1.0);
  a.Add(2.0);
  b.Add(100.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.max(), 100.0);
  EXPECT_DOUBLE_EQ(a.min(), 1.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(5.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
}

// Regression: Reset() used to leave min_ = max_ = 0.0, and Percentile()
// clamps bucket midpoints into [min_, max_] — so a histogram that was
// reset and refilled reported every percentile as 0.
TEST(HistogramTest, ResetThenRefillReportsRealPercentiles) {
  Histogram h;
  h.Add(1.0);
  h.Reset();
  for (double v : {100.0, 200.0, 300.0}) h.Add(v);
  EXPECT_DOUBLE_EQ(h.min(), 100.0);
  EXPECT_DOUBLE_EQ(h.max(), 300.0);
  EXPECT_GE(h.Percentile(50), 100.0);
  EXPECT_LE(h.Percentile(99), 300.0);
}

// Regression: non-finite samples used to poison the moments (mean/min/max
// all NaN) and NaN fell through the bucket index cast.  They are rejected
// and counted now.
TEST(HistogramTest, NonFiniteSamplesAreRejected) {
  Histogram h;
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  h.Add(-std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.rejected(), 3u);
  h.Add(2.0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 2.0);
}

// Regression: a huge sample (1e308) produced a bucket index in the
// thousands and resized the bucket vector unbounded; the index is now
// capped at kMaxBuckets.
TEST(HistogramTest, HugeSamplesClampToLastBucket) {
  Histogram h;
  h.Add(1.0);
  h.Add(1e308);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.max(), 1e308);
  // Percentiles stay finite and ordered (the top bucket midpoint is
  // clamped to max).
  EXPECT_LE(h.Percentile(50), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), 1e308);
  // Merging keeps the rejected count.
  Histogram other;
  other.Add(std::numeric_limits<double>::quiet_NaN());
  h.Merge(other);
  EXPECT_EQ(h.rejected(), 1u);
}

// --- timeseries -------------------------------------------------------------

TEST(SeriesTest, Aggregates) {
  Series s;
  s.Add(1, 10);
  s.Add(2, 30);
  s.Add(3, 20);
  EXPECT_DOUBLE_EQ(s.MaxY(), 30);
  EXPECT_DOUBLE_EQ(s.MinY(), 10);
  EXPECT_DOUBLE_EQ(s.MeanY(), 20);
  EXPECT_DOUBLE_EQ(s.LastY(), 20);
}

TEST(SeriesSetTest, CsvLayout) {
  SeriesSet set("step");
  set.Get("a").Add(1, 1.5);
  set.Get("a").Add(2, 2.5);
  set.Get("b").Add(1, 7);
  const std::string csv = set.ToCsv();
  EXPECT_EQ(csv,
            "step,a,b\n"
            "1,1.5,7\n"
            "2,2.5,\n");
}

TEST(SeriesSetTest, PreservesInsertionOrder) {
  SeriesSet set("x");
  set.Get("zeta");
  set.Get("alpha");
  ASSERT_EQ(set.names().size(), 2u);
  EXPECT_EQ(set.names()[0], "zeta");
  EXPECT_EQ(set.names()[1], "alpha");
}

TEST(SeriesSetTest, FindReturnsNullForUnknown) {
  SeriesSet set("x");
  set.Get("known");
  EXPECT_NE(set.Find("known"), nullptr);
  EXPECT_EQ(set.Find("unknown"), nullptr);
}

TEST(SeriesSetTest, WriteCsvFileRoundTrips) {
  SeriesSet set("step");
  set.Get("metric").Add(1, 2.5);
  set.Get("metric").Add(2, 3.5);
  const std::string path = ::testing::TempDir() + "/series_test.csv";
  ASSERT_TRUE(set.WriteCsvFile(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "step,metric");
  std::remove(path.c_str());
  // Unwritable path fails cleanly.
  EXPECT_FALSE(set.WriteCsvFile("/nonexistent-dir/x.csv").ok());
}

TEST(ConfigTest, LoadFileParsesAndReportsMissing) {
  const std::string path = ::testing::TempDir() + "/config_test.conf";
  {
    std::ofstream out(path);
    out << "alpha = 0.95\n# comment\nnodes=4\n";
  }
  Config c;
  ASSERT_TRUE(c.LoadFile(path).ok());
  EXPECT_DOUBLE_EQ(c.GetDouble("alpha"), 0.95);
  EXPECT_EQ(c.GetInt("nodes"), 4);
  std::remove(path.c_str());
  EXPECT_EQ(c.LoadFile(path).code(), StatusCode::kNotFound);
}

TEST(LogTest, LevelGatesOutput) {
  const LogLevel before = Log::level();
  Log::SetLevel(LogLevel::kOff);
  ECC_LOG_ERROR("suppressed %d", 1);  // must not crash, goes nowhere
  Log::SetLevel(LogLevel::kDebug);
  EXPECT_EQ(Log::level(), LogLevel::kDebug);
  Log::SetLevel(before);
}

TEST(DurationTest, ZeroAndMaxSentinels) {
  EXPECT_EQ(Duration::Zero().micros(), 0);
  EXPECT_GT(Duration::Max(), Duration::Hours(1e6));
  Duration d = Duration::Seconds(5);
  d -= Duration::Seconds(2);
  EXPECT_DOUBLE_EQ(d.seconds(), 3.0);
}

// --- table ------------------------------------------------------------------

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.AddRow({std::string("x"), std::string("1")});
  t.AddRow({std::string("longer"), std::string("22")});
  const std::string out = t.ToString();
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
}

TEST(TableTest, NumericRowFormatting) {
  Table t({"a", "b"});
  t.AddRow({1.0, 2.3456789});
  const std::string out = t.ToString();
  EXPECT_NE(out.find("2.346"), std::string::npos);
}

// --- CRC32C -----------------------------------------------------------------

TEST(Crc32cTest, KnownAnswers) {
  // The CRC32C check value, plus RFC 3720 (iSCSI) appendix B.4 vectors.
  EXPECT_EQ(common::Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(common::Crc32cPortable("123456789"), 0xE3069283u);
  EXPECT_EQ(common::Crc32c(""), 0u);
  EXPECT_EQ(common::Crc32c(std::string(32, '\0')), 0x8A9136AAu);
  EXPECT_EQ(common::Crc32c(std::string(32, '\xff')), 0x62A8AB43u);
  std::string ascending;
  for (int i = 0; i < 32; ++i) ascending.push_back(static_cast<char>(i));
  EXPECT_EQ(common::Crc32c(ascending), 0x46DD794Eu);
}

TEST(Crc32cTest, ContinuationMatchesOneShot) {
  const std::string text = "The quick brown fox jumps over the lazy dog";
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    const std::string_view head(text.data(), cut);
    const std::string_view tail(text.data() + cut, text.size() - cut);
    EXPECT_EQ(common::Crc32c(tail, common::Crc32c(head)), common::Crc32c(text))
        << "cut " << cut;
    EXPECT_EQ(common::Crc32cPortable(tail, common::Crc32cPortable(head)),
              common::Crc32c(text))
        << "cut " << cut;
  }
}

// The hardware and table paths must agree bit for bit at every length and
// alignment the word loops and byte tails can see.
TEST(Crc32cTest, HardwareAndPortablePathsAgree) {
  if (!common::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "no SSE4.2 crc32 on this CPU";
  }
  Rng rng(97);
  std::string buf(4096 + 8, '\0');
  for (char& c : buf) c = static_cast<char>(rng.Next());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 4096; ++len) {
      const std::string_view view(buf.data() + offset, len);
      ASSERT_EQ(common::Crc32cHardware(view), common::Crc32cPortable(view))
          << "offset " << offset << " length " << len;
    }
  }
}

}  // namespace
}  // namespace ecc
