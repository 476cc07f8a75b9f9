#include "iwbench.hpp"

#include "util/rng.hpp"

namespace iwbench {

using iwscan::core::HostOutcome;
using iwscan::core::HostScanRecord;

void check_record(const HostScanRecord& record, const iwscan::model::GroundTruth& truth,
                  bool for_tls, OracleTally& tally) {
  if (truth.adversary.has_value()) {
    ++tally.adversarial;
    return;
  }
  ++tally.checked;
  // Probes name the target by IP (no curated Host/SNI), so the default,
  // not the per-vhost, configuration is the one the scan can observe.
  const std::uint32_t true_iw = truth.true_iw_segments(for_tls, 64);
  const bool paced = (for_tls ? truth.tls_iw : truth.http_iw).pacing.paced();
  if (record.outcome == HostOutcome::Success) {
    ++tally.success;
    if (record.iw_segments > true_iw) ++tally.over;
    if (record.iw_segments == true_iw) ++tally.exact;
    if (paced) ++tally.paced_success;
  } else if (record.outcome == HostOutcome::FewData) {
    if (record.lower_bound > true_iw) ++tally.bound_above;
  }
}

std::uint64_t digest_records(const std::vector<HostScanRecord>& records) {
  using iwscan::util::mix64;
  std::uint64_t d = records.size();
  for (const HostScanRecord& r : records) {
    d = mix64(d, r.ip.value());
    d = mix64(d, (std::uint64_t{static_cast<std::uint8_t>(r.outcome)} << 56) |
                     (std::uint64_t{static_cast<std::uint8_t>(r.anomaly)} << 48) |
                     (std::uint64_t{r.probes_run} << 40) |
                     (std::uint64_t{r.connections_used} << 32) | r.iw_segments);
    d = mix64(d, r.iw_bytes);
    d = mix64(d, (std::uint64_t{r.observed_mss} << 48) |
                     (std::uint64_t{r.observed_mss_b} << 32) | r.lower_bound);
    d = mix64(d, (r.iw_bytes_b << 32) ^ r.iw_segments_b);
    d = mix64(d, (r.fin_seen ? 1u : 0u) | (r.reorder_seen ? 2u : 0u) |
                     (r.loss_suspected ? 4u : 0u));
  }
  return d;
}

}  // namespace iwbench
