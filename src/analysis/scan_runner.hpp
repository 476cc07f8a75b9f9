// End-to-end convenience API: run a full IW scan of the simulated Internet
// and collect host records. This is the primary entry point a library user
// touches (see examples/quickstart.cpp).
#pragma once

#include "core/host_prober.hpp"
#include "exec/executor.hpp"
#include "inetmodel/internet.hpp"

namespace iwscan::analysis {

/// An exec::ScanJob plus the two choices run_iw_scan resolves for it: the
/// probe protocol (which sets probe.protocol and probe.port) and which of
/// the model's address spaces to scan (which sets `allow`). run_iw_scan
/// overwrites those three inherited fields; set `protocol` and
/// `popular_space` instead.
struct ScanOptions : exec::ScanJob {
  core::ProbeProtocol protocol = core::ProbeProtocol::Http;
  bool popular_space = false;  // Alexa-style scan (Fig. 4)
};

using ScanOutput = exec::ScanResult;

/// Runs the scan to completion (see exec::run_scan for the worlds used).
[[nodiscard]] ScanOutput run_iw_scan(sim::Network& network, model::InternetModel& internet,
                                     const ScanOptions& options);

/// Makes a finished scan's `records` hold its host records in cycle order,
/// spilled or not: a spilled scan's files are merged back; an in-RAM scan's
/// records are already there. False if the scan failed or its files do not
/// merge; `output.error` says why.
[[nodiscard]] bool load_host_records(ScanOutput& output);

}  // namespace iwscan::analysis
