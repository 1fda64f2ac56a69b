// Self-tests of the benchmark's own helpers (helpers.hpp). Prints one line
// per failed expectation and exits non-zero if any failed.
//
//   .bench_build/perfbench_selftest

#include <cstdio>
#include <string>

#include "helpers.hpp"

using namespace perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void test_tail_percentile() {
  // The highest percentile with at least ten samples beyond it.
  expect(tail_percentile(0) == 0.0, "no samples -> no percentile");
  expect(tail_percentile(19) == 0.0, "19 samples -> not even the median");
  expect(tail_percentile(20) == 50.0, "20 samples -> p50");
  expect(tail_percentile(99) == 50.0, "99 samples -> p50");
  expect(tail_percentile(100) == 90.0, "100 samples -> p90");
  expect(tail_percentile(999) == 90.0, "999 samples -> p90");
  expect(tail_percentile(1000) == 99.0, "1000 samples -> p99");
  expect(tail_percentile(10000) == 99.9, "10k samples -> p99.9");
  expect(tail_percentile(100000) == 99.99, "100k samples -> p99.99");
  expect(tail_percentile(10000000) == 99.99, "p99.99 is the highest reported");
}

void test_digest() {
  // FNV-1a 64 reference values.
  Digest empty;
  expect(empty.hex() == "cbf29ce484222325", "digest of nothing");
  Digest a;
  a.add_bytes("a", 1);
  expect(a.hex() == "af63dc4c8601ec8c", "digest of 'a'");

  const auto sample = [](double x) {
    Digest d;
    d.add_string("cn0");
    d.add_i64(-5);
    d.add_u64(42);
    d.add_f64(x);
    return d.hex();
  };
  expect(sample(0.1) == sample(0.1), "same input, same digest");
  expect(sample(0.1) != sample(0.1 + 1e-17 + 1e-16), "one bit changes it");
  expect(sample(0.0) != sample(-0.0), "sign of zero is part of the output");
  Digest ab, ba;
  ab.add_string("a");
  ab.add_string("bc");
  ba.add_string("ab");
  ba.add_string("c");
  expect(ab.hex() != ba.hex(), "string boundaries are part of the digest");
}

void test_metric_names() {
  for (const char* good : {"setup_s", "soma.store.map.append_ns", "p99", "a-b",
                           "9lives"}) {
    expect(valid_metric_name(good), std::string("accepts ") + good);
  }
  for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a%", "ns\n"}) {
    expect(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  }
  expect(valid_metric_name(std::string(64, 'x')), "64 characters allowed");
  expect(!valid_metric_name(std::string(65, 'x')), "65 characters refused");
}

void test_unit_printing() {
  expect(format_number(0.5) == "0.5", "0.5 prints exactly");
  expect(format_number(0.1) == "0.10000000000000001", "all 17 digits kept");
  expect(format_number(12345678.0) == "12345678", "integers print plainly");
  expect(format_number(1.0 / 0.0) == "null", "infinity has no JSON spelling");
  const std::string json = metrics_json(
      {{"wall_s", 1.5, "s"}, {"events_per_s", 2e6, "1/s"}});
  expect(json ==
             "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}, "
             "\"events_per_s\": {\"value\": 2000000, \"unit\": \"1/s\"}}",
         "metrics print as name -> {value, unit}: " + json);
  expect(fastest({3.0, 1.5, 2.0}) == 1.5, "fastest repetition");
  expect(fastest({}) == 0.0, "no repetitions");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_digest();
  test_metric_names();
  test_unit_printing();
  std::printf("perfbench_selftest: %s (%d failures)\n",
              g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
