// Table 3 — per-service IW distribution [%], clustered by IP range
// (content services) or reverse DNS (access networks).
#include "bench_common.hpp"

#include <array>
#include <map>

#include "analysis/iw_table.hpp"
#include "analysis/service_classify.hpp"

using namespace iwscan;

namespace {

struct ServiceStats {
  std::map<std::uint32_t, std::uint64_t> iw_counts;
  std::uint64_t successes = 0;

  [[nodiscard]] double share(std::uint32_t iw) const {
    if (successes == 0) return 0.0;
    const auto it = iw_counts.find(iw);
    return it == iw_counts.end()
               ? 0.0
               : static_cast<double>(it->second) / static_cast<double>(successes);
  }
};

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scan_flags(flags);
  bench::parse_or_exit(flags, argc, argv);

  bench::print_header("Table 3: per-service IW distribution", "Table 3");
  auto world = bench::make_world(flags);

  analysis::ServiceClassifier classifier(
      world.internet->registry(),
      [&](net::IPv4Address ip) { return world.internet->truth(ip).rdns; });

  // Paper values: {service → {IW1, IW2, IW4, IW10}} in percent.
  struct PaperRow {
    analysis::ServiceClass service;
    std::array<double, 4> http;
    std::array<double, 4> tls;
  };
  const PaperRow paper_rows[] = {
      {analysis::ServiceClass::Akamai, {-1, -1, -1, -1}, {0.0, 0.0, 100.0, 0.0}},
      {analysis::ServiceClass::Ec2, {0.0, 1.8, 3.4, 94.7}, {0.2, 1.3, 2.6, 95.8}},
      {analysis::ServiceClass::Cloudflare, {0.0, 0.0, 0.0, 100.0},
       {0.0, 0.0, 0.0, 100.0}},
      {analysis::ServiceClass::Azure, {0.0, 7.8, 54.9, 37.1}, {0.1, 4.1, 73.3, 21.9}},
      {analysis::ServiceClass::AccessNetwork, {3.5, 50.2, 20.8, 21.7},
       {4.5, 17.6, 67.1, 10.4}},
  };
  const std::uint32_t iws[] = {1, 2, 4, 10};

  for (const auto protocol : {core::ProbeProtocol::Http, core::ProbeProtocol::Tls}) {
    const bool is_http = protocol == core::ProbeProtocol::Http;
    const auto output = bench::run_scan_or_exit(
        *world.network, *world.internet,
        bench::scan_options(flags, protocol, is_http ? "http" : "tls"));

    std::map<analysis::ServiceClass, ServiceStats> stats;
    for (const auto& record : output.records) {
      if (record.outcome != core::HostOutcome::Success) continue;
      const auto service = classifier.classify(record.ip);
      auto& entry = stats[service];
      ++entry.iw_counts[record.iw_segments];
      ++entry.successes;
    }

    std::printf("--- %s ---\n", is_http ? "HTTP" : "TLS");
    analysis::TextTable table({"Service", "IW1", "IW2", "IW4", "IW10",
                               "paper:IW1", "paper:IW2", "paper:IW4", "paper:IW10",
                               "n"});
    for (const PaperRow& row : paper_rows) {
      const auto& paper = is_http ? row.http : row.tls;
      const auto it = stats.find(row.service);
      std::vector<std::string> cells;
      cells.emplace_back(to_string(row.service));
      for (const std::uint32_t iw : iws) {
        cells.push_back(it == stats.end() || it->second.successes == 0
                            ? "-"
                            : analysis::fmt_double(it->second.share(iw) * 100.0));
      }
      for (const double value : paper) {
        cells.push_back(value < 0 ? "-" : analysis::fmt_double(value));
      }
      cells.push_back(it == stats.end()
                          ? "0"
                          : util::format_count(it->second.successes));
      table.add_row(std::move(cells));
    }
    bench::print_table(table, flags.boolean("csv"));
    std::printf("\n");
  }
  std::printf("Akamai HTTP shows '-' in the paper: its error pages stopped echoing\n"
              "the URI during the study, so HTTP estimates never succeed there.\n");
  return 0;
}
