// iwbench: the repository's benchmark. Each workload is a batch job driven
// through iwscan's public library API; its outputs are checked against the
// simulator's ground truth, and a separate traced run times the calls into
// each layer from outside (see README.md for the workloads, the metric
// definitions and the layer -> end-to-end prediction table).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/result.hpp"
#include "inetmodel/profiles.hpp"

namespace iwbench {

/// The two seeds a workload's inputs derive from. The program under test
/// only ever receives the world and options built from them.
struct Seeds {
  std::uint64_t population = 42;  // InternetModel / synthetic-record seed
  std::uint64_t scan = 7;         // permutation, cookies, ISNs
};

struct RunConfig {
  std::string workload;
  Seeds seeds;
  double seconds = 10.0;  // measuring window of an untraced run
  bool trace = false;     // per-layer run instead of the end-to-end one
  int scale = 0;          // log2 of the world (or record count); 0 = default
  std::string work_dir = ".";  // spill directories and the trace file
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;  // operations checked (records, launches)
  std::uint64_t failed = 0;     // oracle violations, lost records, I/O errors
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // human-readable detail, printed first
  std::uint64_t digest = 0;        // content digest of the checked output
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload in this process. Throws std::invalid_argument for an
/// unknown workload name.
[[nodiscard]] Outcome run_workload(const RunConfig& config);

/// Ground-truth classification of scan records (the paper's safety
/// property): never over-estimate the IW, never bound above it, never
/// report a paced first flight as an exact Success.
struct OracleTally {
  std::uint64_t checked = 0;  // records compared against ground truth
  std::uint64_t success = 0;
  std::uint64_t exact = 0;             // Success with iw == truth
  std::uint64_t over = 0;              // Success with iw > truth
  std::uint64_t bound_above = 0;       // FewData with lower_bound > truth
  std::uint64_t paced_success = 0;     // Success on a paced first flight
  std::uint64_t adversarial = 0;       // hostile hosts: no IW truth, skipped
  std::uint64_t missing = 0;           // launched targets without a record

  [[nodiscard]] std::uint64_t violations() const noexcept {
    return over + bound_above + paced_success + missing;
  }
  [[nodiscard]] double exact_share() const noexcept {
    return success == 0 ? 0.0
                        : static_cast<double>(exact) / static_cast<double>(success);
  }
};

void check_record(const iwscan::core::HostScanRecord& record,
                  const iwscan::model::GroundTruth& truth, bool for_tls,
                  OracleTally& tally);

/// Order-sensitive digest of a record stream (cycle order).
[[nodiscard]] std::uint64_t digest_records(
    const std::vector<iwscan::core::HostScanRecord>& records);

}  // namespace iwbench
