// The benchmark's own tests: the ground-truth oracle must flag every kind
// of planted violation, and each workload's output digest must be a pure
// function of its seeds. (Metric names against BENCHMARK.json are checked
// by test_iwbench.py, which runs the built iwbench binary.)
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "iwbench.hpp"
#include "tcpstack/config.hpp"

namespace iwbench {
namespace {

using iwscan::core::HostOutcome;
using iwscan::core::HostScanRecord;
using iwscan::model::GroundTruth;
using iwscan::tcp::IwConfig;

GroundTruth burst_host() {
  GroundTruth truth;
  truth.present = true;
  truth.http = true;
  truth.http_iw = IwConfig::segments_of(10);
  return truth;
}

HostScanRecord record(HostOutcome outcome, std::uint32_t iw, std::uint32_t bound = 0) {
  HostScanRecord r;
  r.outcome = outcome;
  r.iw_segments = iw;
  r.lower_bound = bound;
  return r;
}

TEST(Oracle, ExactSuccessAndHonestBoundsPass) {
  const GroundTruth truth = burst_host();
  const std::uint32_t iw = truth.true_iw_segments(false, 64);
  OracleTally tally;
  check_record(record(HostOutcome::Success, iw), truth, false, tally);
  check_record(record(HostOutcome::Success, iw - 1), truth, false, tally);  // under
  check_record(record(HostOutcome::FewData, 0, iw), truth, false, tally);
  check_record(record(HostOutcome::Error, 0), truth, false, tally);
  EXPECT_EQ(tally.checked, 4u);
  EXPECT_EQ(tally.success, 2u);
  EXPECT_EQ(tally.exact, 1u);
  EXPECT_EQ(tally.violations(), 0u);
  EXPECT_DOUBLE_EQ(tally.exact_share(), 0.5);
}

TEST(Oracle, FlagsOverEstimate) {
  const GroundTruth truth = burst_host();
  OracleTally tally;
  check_record(record(HostOutcome::Success, truth.true_iw_segments(false, 64) + 1), truth,
               false, tally);
  EXPECT_EQ(tally.over, 1u);
  EXPECT_EQ(tally.violations(), 1u);
}

TEST(Oracle, FlagsLowerBoundAboveTruth) {
  const GroundTruth truth = burst_host();
  OracleTally tally;
  check_record(record(HostOutcome::FewData, 0, truth.true_iw_segments(false, 64) + 1), truth,
               false, tally);
  EXPECT_EQ(tally.bound_above, 1u);
  EXPECT_EQ(tally.violations(), 1u);
}

TEST(Oracle, FlagsPacedSuccessEvenWhenExact) {
  GroundTruth truth = burst_host();
  truth.http_iw = IwConfig::iw16().paced_over(600);
  OracleTally tally;
  check_record(record(HostOutcome::Success, truth.true_iw_segments(false, 64)), truth, false,
               tally);
  EXPECT_EQ(tally.paced_success, 1u);
  EXPECT_EQ(tally.violations(), 1u);
  // A paced host reported as a lower bound is the honest answer.
  OracleTally honest;
  check_record(record(HostOutcome::FewData, 0, 4), truth, false, honest);
  EXPECT_EQ(honest.violations(), 0u);
}

TEST(Oracle, UsesTheProbedProtocolsTruth) {
  GroundTruth truth = burst_host();
  truth.tls = true;
  truth.tls_iw = IwConfig::segments_of(4);
  OracleTally tally;
  check_record(record(HostOutcome::Success, truth.true_iw_segments(false, 64)), truth,
               /*for_tls=*/true, tally);
  EXPECT_EQ(tally.over, 1u);
}

TEST(Oracle, ExcludesAdversarialHosts) {
  GroundTruth truth = burst_host();
  truth.adversary = iwscan::model::AdversarialBehavior::MssViolator;
  OracleTally tally;
  check_record(record(HostOutcome::Success, 1000), truth, false, tally);
  EXPECT_EQ(tally.adversarial, 1u);
  EXPECT_EQ(tally.checked, 0u);
  EXPECT_EQ(tally.violations(), 0u);
}

TEST(Digest, IsOrderAndContentSensitive) {
  const HostScanRecord a = record(HostOutcome::Success, 10);
  const HostScanRecord b = record(HostOutcome::FewData, 0, 3);
  EXPECT_NE(digest_records({a, b}), digest_records({b, a}));
  HostScanRecord c = a;
  c.loss_suspected = true;
  EXPECT_NE(digest_records({a}), digest_records({c}));
  EXPECT_EQ(digest_records({a, b}), digest_records({a, b}));
}

/// Runs a workload at a tiny scale; every run must pass its own checks.
Outcome tiny(const std::string& workload, Seeds seeds, bool trace = false) {
  RunConfig config;
  config.workload = workload;
  config.seeds = seeds;
  config.seconds = 0.01;
  config.trace = trace;
  config.scale = workload == "spill_merge" ? 14 : 12;
  config.work_dir = ::testing::TempDir();
  const Outcome outcome = run_workload(config);
  EXPECT_TRUE(outcome.correct) << workload;
  EXPECT_EQ(outcome.failed, 0u) << workload;
  EXPECT_GT(outcome.attempted, 0u) << workload;
  return outcome;
}

TEST(Workloads, SameSeedsSameDigestAndScanSeedChangesIt) {
  for (const std::string& workload : workload_names()) {
    const Outcome first = tiny(workload, Seeds{42, 7});
    const Outcome again = tiny(workload, Seeds{42, 7});
    const Outcome other_scan = tiny(workload, Seeds{42, 8});
    EXPECT_EQ(first.digest, again.digest) << workload;
    EXPECT_NE(first.digest, other_scan.digest) << workload;
  }
}

TEST(Workloads, TracedRunMatchesUntracedRecords) {
  for (const std::string& workload : workload_names()) {
    const Outcome untraced = tiny(workload, Seeds{43, 9});
    const Outcome traced = tiny(workload, Seeds{43, 9}, /*trace=*/true);
    EXPECT_EQ(untraced.digest, traced.digest) << workload;
  }
}

TEST(Workloads, UnknownWorkloadAndUnsupportedScaleAreRejected) {
  RunConfig config;
  config.workload = "no_such_workload";
  EXPECT_THROW((void)run_workload(config), std::invalid_argument);
  config.workload = "stateful_http";
  config.scale = 11;
  EXPECT_THROW((void)run_workload(config), std::invalid_argument);
}

}  // namespace
}  // namespace iwbench
