// Table 1 — scan dataset overview: reachable hosts and the Success /
// Few Data / Error split for HTTP and TLS, probed with MSS 64.
#include "bench_common.hpp"

#include <map>
#include <set>

#include "analysis/iw_table.hpp"

using namespace iwscan;

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scan_flags(flags);
  bench::parse_or_exit(flags, argc, argv);

  bench::print_header("Table 1: scan data set overview", "Table 1");
  auto world = bench::make_world(flags);

  struct Row {
    const char* name;
    const char* scan;  // its --spill-dir subdirectory
    core::ProbeProtocol protocol;
    // Paper-reported reference values.
    double paper_success, paper_few, paper_error;
  };
  const Row rows[] = {
      {"HTTP", "http", core::ProbeProtocol::Http, 0.508, 0.476, 0.016},
      {"TLS", "tls", core::ProbeProtocol::Tls, 0.856, 0.133, 0.011},
  };

  analysis::TextTable table({"Scan", "Reachable", "Success", "Few Data", "Error",
                             "paper:Success", "paper:FewData", "paper:Error"});
  std::uint64_t total_packets = 0;

  std::vector<core::HostScanRecord> http_records;
  std::vector<core::HostScanRecord> tls_records;

  for (const Row& row : rows) {
    const auto output = bench::run_scan_or_exit(
        *world.network, *world.internet, bench::scan_options(flags, row.protocol, row.scan));
    const auto summary = analysis::summarize(output.records);
    total_packets += output.engine.packets_sent;
    table.add_row({row.name, util::format_count(summary.reachable),
                   util::format_percent(summary.success_rate()),
                   util::format_percent(summary.few_data_rate()),
                   util::format_percent(summary.error_rate()),
                   util::format_percent(row.paper_success),
                   util::format_percent(row.paper_few),
                   util::format_percent(row.paper_error)});
    (row.protocol == core::ProbeProtocol::Http ? http_records : tls_records) =
        output.records;
  }
  bench::print_table(table, flags.boolean("csv"));

  // §4 "Success rates": distinct IPs, dual-service hosts, and how many of
  // the dual hosts agree in their HTTP and TLS IW estimates.
  std::map<net::IPv4Address, std::uint32_t> http_success;
  for (const auto& record : http_records) {
    if (record.outcome == core::HostOutcome::Success) {
      http_success.emplace(record.ip, record.iw_segments);
    }
  }
  std::uint64_t both = 0;
  std::uint64_t agree = 0;
  std::set<net::IPv4Address> distinct;
  for (const auto& record : http_records) {
    if (record.outcome != core::HostOutcome::Unreachable) distinct.insert(record.ip);
  }
  for (const auto& record : tls_records) {
    if (record.outcome == core::HostOutcome::Unreachable) continue;
    distinct.insert(record.ip);
    if (record.outcome != core::HostOutcome::Success) continue;
    const auto it = http_success.find(record.ip);
    if (it != http_success.end()) {
      ++both;
      if (it->second == record.iw_segments) ++agree;
    }
  }
  std::printf("\nDistinct reachable IPs: %s   dual-service successes: %s   "
              "agreeing IW estimates: %s (%s)\n",
              util::format_count(distinct.size()).c_str(),
              util::format_count(both).c_str(), util::format_count(agree).c_str(),
              both ? util::format_percent(static_cast<double>(agree) /
                                          static_cast<double>(both))
                         .c_str()
                   : "n/a");
  std::printf("(paper: 60.9M distinct, 7M dual-service, 6.2M agreeing)\n");
  std::printf("Packets sent: %s\n", util::format_count(total_packets).c_str());
  return 0;
}
