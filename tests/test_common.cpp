// Unit tests for src/common: time types, RNG, statistics, tables, callables.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/unique_function.hpp"

namespace soma {
namespace {

// ---------- Duration / SimTime ----------

TEST(DurationTest, ConstructionAndConversion) {
  EXPECT_EQ(Duration::zero().nanos(), 0);
  EXPECT_EQ(Duration::nanoseconds(5).nanos(), 5);
  EXPECT_EQ(Duration::microseconds(2).nanos(), 2000);
  EXPECT_EQ(Duration::milliseconds(3).nanos(), 3'000'000);
  EXPECT_EQ(Duration::seconds(1.5).nanos(), 1'500'000'000);
  EXPECT_EQ(Duration::minutes(2).nanos(), 120'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::seconds(2.5).to_seconds(), 2.5);
}

TEST(DurationTest, Arithmetic) {
  const Duration a = Duration::seconds(2.0);
  const Duration b = Duration::seconds(0.5);
  EXPECT_EQ((a + b).nanos(), 2'500'000'000);
  EXPECT_EQ((a - b).nanos(), 1'500'000'000);
  EXPECT_EQ((a * 2.0).nanos(), 4'000'000'000);
  EXPECT_EQ((a / 4.0).nanos(), 500'000'000);
  Duration c = a;
  c += b;
  EXPECT_EQ(c.nanos(), 2'500'000'000);
  c -= b;
  EXPECT_EQ(c, a);
}

TEST(DurationTest, Comparison) {
  EXPECT_LT(Duration::seconds(1.0), Duration::seconds(2.0));
  EXPECT_EQ(Duration::seconds(1.0), Duration::milliseconds(1000));
  EXPECT_GT(Duration::seconds(-1.0), Duration::seconds(-2.0));
}

TEST(SimTimeTest, ArithmeticWithDuration) {
  const SimTime t0 = SimTime::from_seconds(10.0);
  const SimTime t1 = t0 + Duration::seconds(5.0);
  EXPECT_DOUBLE_EQ(t1.to_seconds(), 15.0);
  EXPECT_EQ(t1 - t0, Duration::seconds(5.0));
  EXPECT_EQ((t1 - Duration::seconds(5.0)), t0);
  SimTime t2 = t0;
  t2 += Duration::seconds(1.0);
  EXPECT_DOUBLE_EQ(t2.to_seconds(), 11.0);
}

TEST(SimTimeTest, Ordering) {
  EXPECT_LT(SimTime::zero(), SimTime::from_seconds(1.0));
  EXPECT_LT(SimTime::from_seconds(1.0), SimTime::max());
}

TEST(FormatTest, FormatSeconds) {
  EXPECT_EQ(format_seconds(1.23456, 3), "1.235");
  EXPECT_EQ(format_seconds(0.0, 1), "0.0");
}

// ---------- Rng ----------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformIndexBounds) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
  EXPECT_EQ(rng.uniform_index(0), 0u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(RngTest, NormalShifted) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngTest, LognormalMedian) {
  Rng rng(19);
  std::vector<double> samples;
  for (int i = 0; i < 50000; ++i) samples.push_back(rng.lognormal(100.0, 0.2));
  EXPECT_NEAR(percentile(samples, 50.0), 100.0, 1.5);
  for (double s : samples) EXPECT_GT(s, 0.0);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(23);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(29);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SplitStreamsIndependent) {
  Rng parent(31);
  Rng a = parent.split(1);
  Rng b = parent.split(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, SplitByStringDeterministic) {
  Rng parent(31);
  Rng a = parent.split("task.000001");
  Rng b = parent.split("task.000001");
  EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c = parent.split("task.000002");
  Rng d = parent.split("task.000001");
  EXPECT_NE(c.next_u64(), d.next_u64());
}

TEST(RngTest, SplitDoesNotPerturbParent) {
  Rng a(37), b(37);
  (void)a.split(99);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

// ---------- stats ----------

TEST(StatsTest, SummarizeEmpty) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(StatsTest, SummarizeSingle) {
  const Summary s = summarize({42.0});
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.mean, 42.0);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.min, 42.0);
  EXPECT_EQ(s.max, 42.0);
  EXPECT_EQ(s.median, 42.0);
}

TEST(StatsTest, SummarizeKnownValues) {
  const Summary s = summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.p25, 2.0);
  EXPECT_DOUBLE_EQ(s.p75, 4.0);
}

TEST(StatsTest, PercentileInterpolates) {
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 50.0), 15.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile({10.0, 20.0}, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(StatsTest, PercentileUnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({30.0, 10.0, 20.0}, 50.0), 20.0);
}

// percentile() selects instead of sorting; it must return the very double
// the sort-and-interpolate definition gives.
double sorted_percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  if (q <= 0.0) return samples.front();
  if (q >= 100.0) return samples.back();
  const double pos = q / 100.0 * static_cast<double>(samples.size() - 1);
  const auto lower = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lower);
  if (lower + 1 >= samples.size()) return samples.back();
  return samples[lower] * (1.0 - frac) + samples[lower + 1] * frac;
}

TEST(StatsTest, PercentileMatchesSortedDefinitionBitForBit) {
  Rng rng(2024);
  for (std::size_t n : {1, 2, 3, 7, 100, 1001}) {
    for (bool duplicates : {false, true}) {
      std::vector<double> samples(n);
      for (double& x : samples) {
        // Few distinct values when `duplicates`, so equal keys abound.
        x = duplicates ? static_cast<double>(rng.uniform_index(4))
                       : rng.uniform(-50.0, 250.0);
      }
      for (double q : {0.0, 0.1, 50.0, 99.0, 99.99, 100.0}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(percentile(samples, q)),
                  std::bit_cast<std::uint64_t>(sorted_percentile(samples, q)))
            << "n=" << n << " duplicates=" << duplicates << " q=" << q;
      }
    }
  }
}

TEST(StatsTest, LoadImbalance) {
  EXPECT_DOUBLE_EQ(load_imbalance({2.0, 2.0, 2.0}), 0.0);
  EXPECT_NEAR(load_imbalance({1.0, 3.0}), 0.5, 1e-12);  // max 3 / mean 2 - 1
  EXPECT_DOUBLE_EQ(load_imbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(load_imbalance({0.0, 0.0}), 0.0);
}

// ---------- table ----------

TEST(TableTest, RendersAlignedColumns) {
  TextTable table({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"long-name", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("| name      | value |"), std::string::npos);
  EXPECT_NE(out.find("| long-name | 22    |"), std::string::npos);
}

TEST(TableTest, ShortRowsPadded) {
  TextTable table({"a", "b", "c"});
  table.add_row({"x"});
  EXPECT_NE(table.to_string().find("| x |"), std::string::npos);
}

TEST(TableTest, AsciiBar) {
  EXPECT_EQ(ascii_bar(50.0, 100.0, 10), "#####");
  EXPECT_EQ(ascii_bar(100.0, 100.0, 10), "##########");
  EXPECT_EQ(ascii_bar(200.0, 100.0, 10), "##########");  // clamped
  EXPECT_EQ(ascii_bar(0.0, 100.0, 10), "");
  EXPECT_EQ(ascii_bar(50.0, 0.0, 10), "");
}

// ---------- UniqueFunction ----------

TEST(UniqueFunctionTest, EmptyAndBool) {
  common::UniqueFunction<void()> fn;
  EXPECT_FALSE(fn);
  EXPECT_THROW(fn(), InternalError);
  fn = [] {};
  EXPECT_TRUE(fn);
}

TEST(UniqueFunctionTest, InvokesWithArgsAndResult) {
  common::UniqueFunction<int(int, int)> add = [](int a, int b) {
    return a + b;
  };
  EXPECT_EQ(add(2, 3), 5);
}

TEST(UniqueFunctionTest, AcceptsMoveOnlyCapture) {
  auto owned = std::make_unique<int>(42);
  common::UniqueFunction<int()> fn = [owned = std::move(owned)] {
    return *owned;
  };
  EXPECT_EQ(fn(), 42);
}

TEST(UniqueFunctionTest, MoveTransfersTargetAndEmptiesSource) {
  int calls = 0;
  common::UniqueFunction<void()> a = [&calls] { ++calls; };
  common::UniqueFunction<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_TRUE(b);
  b();
  EXPECT_EQ(calls, 1);

  common::UniqueFunction<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(UniqueFunctionTest, OversizedCaptureUsesHeapPathCorrectly) {
  // A capture larger than kInlineSize exercises the heap fallback; the
  // shared_ptr tracks that the target is destroyed exactly once.
  auto tracker = std::make_shared<int>(7);
  std::weak_ptr<int> weak = tracker;
  std::array<char, 128> big{};
  big[0] = 'x';
  {
    common::UniqueFunction<int()> fn = [tracker, big] {
      return *tracker + (big[0] == 'x' ? 1 : 0);
    };
    tracker.reset();
    common::UniqueFunction<int()> moved = std::move(fn);
    EXPECT_EQ(moved(), 8);
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

TEST(UniqueFunctionTest, InlineCaptureDestroyedExactlyOnce) {
  auto tracker = std::make_shared<int>(1);
  std::weak_ptr<int> weak = tracker;
  {
    common::UniqueFunction<void()> fn = [tracker] { (void)tracker; };
    tracker.reset();
    common::UniqueFunction<void()> moved = std::move(fn);
    EXPECT_FALSE(weak.expired());
  }
  EXPECT_TRUE(weak.expired());
}

TEST(UniqueFunctionTest, AssignmentReplacesExistingTarget) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> weak = first;
  common::UniqueFunction<int()> fn = [first] { return *first; };
  first.reset();
  fn = [] { return 99; };  // must destroy the previous capture
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(fn(), 99);
}

// ---------- byte codec ----------

std::vector<std::byte> byte_vector(std::initializer_list<unsigned> values) {
  std::vector<std::byte> out;
  for (const unsigned v : values) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(ByteCodecTest, StoreAndLoadRoundTrip) {
  for (const std::uint32_t v : {std::uint32_t{0}, std::uint32_t{1},
                                std::uint32_t{0x01020304},
                                std::numeric_limits<std::uint32_t>::max()}) {
    std::array<std::byte, 4> buffer{};
    EXPECT_EQ(bytes::store_u32(buffer.data(), v), buffer.data() + 4);
    EXPECT_EQ(bytes::load_u32(buffer.data()), v);
  }
  for (const std::uint64_t v : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{0x01020304},
                                std::numeric_limits<std::uint64_t>::max()}) {
    std::array<std::byte, 8> buffer{};
    EXPECT_EQ(bytes::store_u64(buffer.data(), v), buffer.data() + 8);
    EXPECT_EQ(bytes::load_u64(buffer.data()), v);
  }
}

TEST(ByteCodecTest, StoresAreLittleEndian) {
  std::vector<std::byte> buffer(12);
  bytes::store_u64(bytes::store_u32(buffer.data(), 0x01020304),
                   0x0102030405060708);
  EXPECT_EQ(buffer, byte_vector({0x04, 0x03, 0x02, 0x01, 0x08, 0x07, 0x06,
                                 0x05, 0x04, 0x03, 0x02, 0x01}));
}

TEST(ByteCodecTest, TextAndWordsRoundTripThroughTheReader) {
  const std::vector<std::int64_t> ints = {
      std::numeric_limits<std::int64_t>::min(), -1, 0, 1};
  const std::vector<double> floats = {-0.5, 1e300};
  std::vector<std::byte> buffer(4 + 3 + 4 + 8 * ints.size() + 4 +
                                8 * floats.size() + 4);
  std::byte* p = bytes::store_text(buffer.data(), "abc");
  p = bytes::store_words(p, std::span(ints));
  p = bytes::store_words(p, std::span(floats));
  p = bytes::store_text(p, "");
  ASSERT_EQ(p, buffer.data() + buffer.size());

  std::size_t offset = 0;
  bytes::ByteReader reader(buffer, offset, "test");
  EXPECT_EQ(reader.text(), "abc");
  EXPECT_EQ(reader.words<std::int64_t>(), ints);
  EXPECT_EQ(reader.words<double>(), floats);
  EXPECT_EQ(reader.text(), "");
  EXPECT_EQ(offset, buffer.size());
}

TEST(ByteReaderTest, ShortReadsThrowAndLeaveTheOffset) {
  // From offset 1: a u32 length of 5, then five bytes of text.
  const std::vector<std::byte> full = byte_vector(
      {0xaa, 0x05, 0x00, 0x00, 0x00, 'a', 'b', 'c', 'd', 'e'});
  struct Read {
    const char* what;
    std::size_t needs;
    std::function<void(bytes::ByteReader&)> read;
  };
  const std::vector<Read> reads = {
      {"u8", 1, [](bytes::ByteReader& r) { (void)r.u8(); }},
      {"u32", 4, [](bytes::ByteReader& r) { (void)r.u32(); }},
      {"u64", 8, [](bytes::ByteReader& r) { (void)r.u64(); }},
      {"f64", 8, [](bytes::ByteReader& r) { (void)r.f64(); }},
      {"text", 9, [](bytes::ByteReader& r) { (void)r.text(); }},
      {"bytes(6)", 6, [](bytes::ByteReader& r) { (void)r.bytes(6); }},
  };
  for (const Read& read : reads) {
    for (std::size_t size = 1; size <= read.needs; ++size) {
      std::size_t offset = 1;
      bytes::ByteReader reader({full.data(), size}, offset, "ctx");
      try {
        read.read(reader);
        ADD_FAILURE() << read.what << " read past " << size << " bytes";
      } catch (const LookupError& e) {
        EXPECT_STREQ(e.what(), "ctx: truncated");
      }
      EXPECT_EQ(offset, 1u) << read.what << " over " << size << " bytes";
    }
    std::size_t offset = 1;
    bytes::ByteReader reader({full.data(), 1 + read.needs}, offset,
                             "ctx");
    read.read(reader);
    EXPECT_EQ(offset, 1 + read.needs) << read.what;
  }
}

TEST(ByteReaderTest, CountRejectsWhatTheBufferCannotHold) {
  // ~2^31 elements claimed in a 4-byte buffer: rejected before any
  // allocation, so words() throws LookupError, not bad_alloc.
  const std::vector<std::byte> huge = byte_vector({0xff, 0xff, 0xff, 0x7f});
  std::size_t offset = 0;
  bytes::ByteReader reader(huge, offset, "ctx");
  EXPECT_THROW((void)reader.count(1), LookupError);
  EXPECT_THROW((void)reader.words<std::int64_t>(), LookupError);
  EXPECT_THROW((void)reader.words<double>(), LookupError);
  EXPECT_EQ(offset, 0u);

  // Two 8-byte words need 16 bytes behind the count; 15 are there.
  std::vector<std::byte> short_words = byte_vector({0x02, 0x00, 0x00, 0x00});
  short_words.resize(4 + 15);
  bytes::ByteReader words_reader(short_words, offset, "ctx");
  EXPECT_THROW((void)words_reader.count(8), LookupError);
  EXPECT_THROW((void)words_reader.words<std::int64_t>(), LookupError);
  EXPECT_EQ(offset, 0u);
  EXPECT_EQ(words_reader.count(7), 2u);  // two 7-byte elements do fit
  EXPECT_EQ(offset, 4u);
}

}  // namespace
}  // namespace soma
