// iwbench: run one benchmark workload in this process and print its
// metrics. Human-readable detail comes first; the last line of stdout is
// one JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   iwbench --workload NAME [--population-seed N] [--scan-seed N]
//           [--seconds S] [--trace 0|1] [--scale N] [--work-dir DIR]
//
// Exits 0 when the output passed every check, 1 when a check failed (the
// JSON line is still printed), 2 on a usage error.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <string_view>

#include "iwbench.hpp"

namespace {

int usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload NAME [--population-seed N] [--scan-seed N] "
               "[--seconds S] [--trace 0|1] [--scale N] [--work-dir DIR]\nworkloads:",
               error.c_str(), argv0);
  for (const std::string& name : iwbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const std::string copy(text);
  out = std::strtoull(copy.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && copy[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  iwbench::RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0], "missing value for " + std::string(flag));
    const std::string_view value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--seconds") {
      char* end = nullptr;
      const std::string copy(value);
      config.seconds = std::strtod(copy.c_str(), &end);
      if (end == nullptr || *end != '\0' || !(config.seconds > 0)) {
        return usage(argv[0], "bad --seconds: " + copy);
      }
    } else if (!parse_u64(value, number)) {
      return usage(argv[0], "bad value for " + std::string(flag) + ": " + std::string(value));
    } else if (flag == "--population-seed") {
      config.seeds.population = number;
    } else if (flag == "--scan-seed") {
      config.seeds.scan = number;
    } else if (flag == "--trace" && number <= 1) {
      config.trace = number == 1;
    } else if (flag == "--scale" && number <= 26) {
      config.scale = static_cast<int>(number);
    } else {
      return usage(argv[0], "unknown or out-of-range flag: " + std::string(flag));
    }
  }
  if (config.workload.empty()) return usage(argv[0], "--workload is required");

  iwbench::Outcome outcome;
  try {
    outcome = iwbench::run_workload(config);
  } catch (const std::invalid_argument& error) {
    return usage(argv[0], error.what());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "iwbench: %s\n", error.what());
    return 1;
  }

  for (const std::string& note : outcome.notes) std::printf("# %s\n", note.c_str());
  for (const iwbench::Metric& metric : outcome.metrics) {
    std::printf("# %-32s %20.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("# failed_share %.6f (%llu of %llu), digest %016llx\n",
              outcome.attempted == 0
                  ? 0.0
                  : static_cast<double>(outcome.failed) /
                        static_cast<double>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.digest));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              outcome.correct ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  bool first = true;
  for (const iwbench::Metric& metric : outcome.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                metric.name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  return outcome.correct ? 0 : 1;
}
