#include "analysis/scan_runner.hpp"

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

}  // namespace iwscan::analysis
