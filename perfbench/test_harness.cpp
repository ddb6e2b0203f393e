// Tests of the benchmark's own helpers (harness.hpp).
#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {
namespace {

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(TailPercentile, ReportsWantedPercentileWhenTenSamplesLieBeyond) {
  const std::vector<double> v = iota(1000);
  const Percentile p = tail_percentile(v, 99.0);
  EXPECT_EQ(p.percentile, 99.0);
  EXPECT_EQ(p.samples, 1000u);
  EXPECT_NEAR(p.value, 990.01, 1e-9);  // type 7: 1 + 0.99 * 999
  // Ten samples (991..1000) lie beyond the reported value.
  EXPECT_EQ(std::count_if(v.begin(), v.end(), [&](double x) { return x > p.value; }), 10);
}

TEST(TailPercentile, LowersThePercentileWhenTooFewSamples) {
  // 100 samples: p99 has one sample beyond, so p90 (ten beyond) is reported.
  const Percentile p = tail_percentile(iota(100), 99.0);
  EXPECT_DOUBLE_EQ(p.percentile, 90.0);
  EXPECT_NEAR(p.value, 90.1, 1e-9);
  int beyond = 0;
  for (double x : iota(100)) beyond += x > p.value ? 1 : 0;
  EXPECT_GE(beyond, 10);
}

TEST(TailPercentile, MedianNeedsTwentySamples) {
  EXPECT_DOUBLE_EQ(tail_percentile(iota(20), 50.0).percentile, 50.0);
  EXPECT_LT(tail_percentile(iota(19), 50.0).percentile, 50.0);
}

TEST(TailPercentile, TenOrFewerSamplesReportTheMinimum) {
  const std::vector<double> v = {5.0, 3.0, 9.0};
  const Percentile p = tail_percentile(v, 99.0);
  EXPECT_EQ(p.percentile, 0.0);
  EXPECT_EQ(p.value, 3.0);
  EXPECT_EQ(tail_percentile(std::vector<double>{}, 50.0).samples, 0u);
}

TEST(Tally, CountsOwnFailuresAgainstAttempts) {
  Tally t;
  EXPECT_EQ(t.failed_share(), 0.0);
  EXPECT_TRUE(t.add_pass(100, 0, "d"));
  EXPECT_TRUE(t.add_pass(100, 3, "d"));
  EXPECT_EQ(t.attempted(), 200u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.failed_share(), 0.015);
}

TEST(Tally, DigestMismatchFailsTheWholePass) {
  Tally t;
  EXPECT_TRUE(t.add_pass(10, 0, "first"));
  EXPECT_FALSE(t.add_pass(10, 1, "second"));
  EXPECT_TRUE(t.add_pass(10, 0, "first"));
  EXPECT_EQ(t.reference_digest(), "first");
  EXPECT_EQ(t.attempted(), 30u);
  EXPECT_EQ(t.failed(), 10u);
}

TEST(Tally, BrokenCheckFailsTheWholePass) {
  Tally t;
  EXPECT_FALSE(t.add_pass(3, 0, "d", /*checks_ok=*/false));
  EXPECT_EQ(t.failed(), 3u);
  // The first pass still sets the reference digest.
  EXPECT_TRUE(t.add_pass(3, 0, "d"));
  EXPECT_EQ(t.failed(), 3u);
}

TEST(Digest, BitExactAndOrderSensitive) {
  const auto hex = [](double a, double b) {
    Digest d;
    d.add(a);
    d.add(b);
    return d.hex();
  };
  EXPECT_EQ(hex(1.0, 2.0), hex(1.0, 2.0));
  EXPECT_NE(hex(1.0, 2.0), hex(2.0, 1.0));
  EXPECT_NE(hex(0.0, 1.0), hex(-0.0, 1.0));
  Digest s1, s2;
  s1.add(std::string_view("ab"));
  s1.add(std::string_view("c"));
  s2.add(std::string_view("a"));
  s2.add(std::string_view("bc"));
  EXPECT_NE(s1.hex(), s2.hex());
}

TEST(MetricNames, MatchTheAllowedAlphabet) {
  for (const char* ok : {"throughput_per_s", "exp.job_ms_p99", "defenses.apply_ms.ALPaCA-pad",
                         "workload.bulk_ms.a100", "9lives"}) {
    EXPECT_TRUE(valid_metric_name(ok)) << ok;
  }
  for (const char* bad : {"", "has space", "a/b", "quote\"", ".leading", "-leading",
                          "per%cent", "uni\xc3\xa9"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'x')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'x')));
}

TEST(ResultLine, ExactKeysAndFullPrecision) {
  const std::string line =
      result_line(true, 12, 0, {{"wall_s", 0.1234567890123, "s"}, {"rate", 5.0, "1/s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": "
            "{\"wall_s\": {\"value\": 0.12345678901230001, \"unit\": \"s\"}, "
            "\"rate\": {\"value\": 5, \"unit\": \"1/s\"}}}");
}

TEST(ResultLine, RejectsBadNamesDuplicatesAndNonFinite) {
  EXPECT_THROW(result_line(true, 1, 0, {{"bad name", 1.0, "s"}}), std::invalid_argument);
  EXPECT_THROW(result_line(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_THROW(result_line(true, 1, 0, {{"a", 1.0 / 0.0, "s"}}), std::invalid_argument);
  EXPECT_THROW(result_line(true, 1, 0, {{"a", 1.0, "bad unit"}}), std::invalid_argument);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  EXPECT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  std::vector<int> v;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) v.push_back(c);
  }
  return v;
}

TEST(CpuRotation, PinsOneCpuAtATimeAndRestoresTheMask) {
  const std::vector<int> before = allowed_cpus();
  {
    CpuRotation rotation;
    EXPECT_EQ(rotation.cpus(), before);
    if (before.size() < 2) GTEST_SKIP() << "needs two CPUs";
    std::vector<int> visited;
    for (std::size_t i = 0; i < 2 * before.size(); ++i) {
      rotation.next();
      const std::vector<int> now = allowed_cpus();
      ASSERT_EQ(now.size(), 1u);
      visited.push_back(now[0]);
    }
    // Round robin: every CPU once per lap, laps in the same order.
    std::vector<int> lap(visited.begin(), visited.begin() + before.size());
    EXPECT_TRUE(std::is_permutation(lap.begin(), lap.end(), before.begin()));
    EXPECT_TRUE(std::equal(lap.begin(), lap.end(), visited.begin() + before.size()));
  }
  EXPECT_EQ(allowed_cpus(), before);
}

}  // namespace
}  // namespace perfbench
