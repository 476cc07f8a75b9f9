#include "analysis/scan_runner.hpp"

#include "store/spill.hpp"

namespace iwscan::analysis {

ScanOutput run_iw_scan(sim::Network& network, model::InternetModel& internet,
                       const ScanOptions& options) {
  exec::ScanJob job = options;
  job.probe.protocol = options.protocol;
  job.probe.port = options.protocol == core::ProbeProtocol::Http ? 80 : 443;
  job.allow = options.popular_space ? internet.registry().popular_space()
                                    : internet.registry().scan_space();
  return exec::run_scan(job, network, internet);
}

bool load_host_records(ScanOutput& output) {
  return output.error.empty() &&
         (output.spill_files.empty() ||
          store::read_merged(output.spill_files, output.records, &output.error));
}

}  // namespace iwscan::analysis
