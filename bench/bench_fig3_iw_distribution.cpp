// Fig. 3 — IW distribution over the IPv4 universe for HTTP and TLS (IWs
// held by ≥0.1% of hosts), plus the sampling study: 1/10/30/50/100%
// subsamples and the 30×1% mean / 99%-quantile band ("Scanning 1% is
// enough!", §4.1).
#include "bench_common.hpp"

#include <set>

#include "analysis/iw_table.hpp"
#include "analysis/subsample.hpp"

using namespace iwscan;

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scan_flags(flags);
  flags.define_u64("trials", 30, "number of repeated 1% samples for the band");
  bench::parse_or_exit(flags, argc, argv);

  bench::print_header("Fig. 3: IW distribution in IPv4 (HTTP & TLS)", "Figure 3");
  auto world = bench::make_world(flags);

  std::map<std::string, std::map<std::uint32_t, double>> series;
  std::set<std::uint32_t> iw_axis;

  std::vector<core::HostScanRecord> http_records;

  for (const auto protocol : {core::ProbeProtocol::Http, core::ProbeProtocol::Tls}) {
    const bool is_http = protocol == core::ProbeProtocol::Http;
    const auto output = bench::run_scan_or_exit(
        *world.network, *world.internet,
        bench::scan_options(flags, protocol, is_http ? "http" : "tls"));
    const std::string tag = is_http ? "HTTP" : "TLS";
    if (is_http) http_records = output.records;

    const auto full = analysis::dominant_iws(analysis::iw_fractions(output.records));
    series[tag + " 100%"] = full;
    for (const auto& [iw, fraction] : full) iw_axis.insert(iw);

    for (const double fraction : {0.5, 0.3, 0.1, 0.01}) {
      const auto sample = analysis::subsample(output.records, fraction,
                                              flags.u64("scan-seed") ^ 0xabc);
      const auto fractions =
          analysis::dominant_iws(analysis::iw_fractions(sample), 0.0005);
      char label[32];
      std::snprintf(label, sizeof(label), "%s %g%%", tag.c_str(), fraction * 100);
      series[label] = fractions;
      for (const auto& [iw, f] : fractions) iw_axis.insert(iw);
    }
  }

  // The figure: one row per IW value, one column per series.
  std::vector<std::string> headers{"IW"};
  for (const auto& [label, values] : series) headers.push_back(label);
  analysis::TextTable table(headers);
  for (const std::uint32_t iw : iw_axis) {
    std::vector<std::string> row{std::to_string(iw)};
    for (const auto& [label, values] : series) {
      const auto it = values.find(iw);
      row.push_back(it == values.end() ? "-"
                                       : analysis::fmt_double(it->second * 100.0));
    }
    table.add_row(std::move(row));
  }
  bench::print_table(table, flags.boolean("csv"));

  // Stability band over repeated 1% samples (shown red in the figure).
  const auto reference = analysis::iw_fractions(http_records);
  const auto band = analysis::subsample_band(
      http_records, 0.01, static_cast<int>(flags.u64("trials")), 0.99,
      flags.u64("scan-seed"), reference);
  std::printf("\n30x 1%% HTTP subsamples — mean and 99%%-quantile band:\n");
  analysis::TextTable band_table({"IW", "mean%", "q0.5%", "q99.5%", "full-scan%"});
  for (const auto& [iw, mean] : band.mean) {
    if (mean < 0.0005 && (!reference.contains(iw) || reference.at(iw) < 0.0005)) {
      continue;
    }
    const auto ref_it = reference.find(iw);
    band_table.add_row(
        {std::to_string(iw), analysis::fmt_double(mean * 100.0, 2),
         analysis::fmt_double(band.quantile_lo.at(iw) * 100.0, 2),
         analysis::fmt_double(band.quantile_hi.at(iw) * 100.0, 2),
         ref_it == reference.end() ? "-"
                                   : analysis::fmt_double(ref_it->second * 100.0, 2)});
  }
  bench::print_table(band_table, flags.boolean("csv"));
  std::printf("\nMax L1 distance of any 1%% sample to the full distribution: %s\n",
              analysis::fmt_double(band.max_l1_to_reference, 4).c_str());
  std::printf("(paper: the 1%% distribution is stable — sampling suffices)\n");
  return 0;
}
