// Table 2 — lower bounds of IWs for hosts that did not send enough data
// ("Few Data" in Table 1), per the observed MSS, for HTTP and TLS.
#include "bench_common.hpp"

#include <map>

#include "analysis/iw_table.hpp"

using namespace iwscan;

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scan_flags(flags);
  bench::parse_or_exit(flags, argc, argv);

  bench::print_header("Table 2: few-data IW lower bounds", "Table 2");
  auto world = bench::make_world(flags);

  // Paper values (% of few-data hosts), per protocol, bounds NoData..IW10.
  const std::map<std::uint32_t, double> paper_http = {
      {0, 4.8}, {1, 16.5}, {2, 7.1}, {3, 7.2}, {4, 2.9},  {5, 3.6},
      {6, 2.0}, {7, 45.0}, {8, 2.7}, {9, 1.1}, {10, 0.9},
  };
  const std::map<std::uint32_t, double> paper_tls = {
      {0, 17.8}, {1, 56.3}, {2, 5.6}, {3, 0.7}, {4, 1.9},  {5, 2.8},
      {6, 2.4},  {7, 2.4},  {8, 3.4}, {9, 0.4}, {10, 0.8},
  };

  for (const auto protocol : {core::ProbeProtocol::Http, core::ProbeProtocol::Tls}) {
    const bool is_http = protocol == core::ProbeProtocol::Http;
    const auto output = bench::run_scan_or_exit(
        *world.network, *world.internet,
        bench::scan_options(flags, protocol, is_http ? "http" : "tls"));
    const auto bounds = analysis::few_data_lower_bounds(output.records);
    const auto& paper = is_http ? paper_http : paper_tls;

    analysis::TextTable table({"Bound", "Measured", "Paper"});
    for (std::uint32_t bound = 0; bound <= 10; ++bound) {
      const auto it = bounds.find(bound);
      const double measured = it == bounds.end() ? 0.0 : it->second;
      const auto paper_it = paper.find(bound);
      table.add_row({bound == 0 ? "NoData" : ("IW" + std::to_string(bound)),
                     util::format_percent(measured),
                     paper_it == paper.end()
                         ? "-"
                         : util::format_percent(paper_it->second / 100.0)});
    }
    double tail = 0.0;
    for (const auto& [bound, fraction] : bounds) {
      if (bound > 10) tail += fraction;
    }
    table.add_row({">IW10", util::format_percent(tail), "~6.2% (HTTP)"});

    std::printf("--- %s ---\n", is_http ? "HTTP" : "TLS");
    bench::print_table(table, flags.boolean("csv"));
    std::printf("\n");
  }
  return 0;
}
