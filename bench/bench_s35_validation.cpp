// §3.5 — controlled validation + design ablations:
//   (a) ground truth across OS profiles and IW configs (exactness),
//   (b) a NetEM-style loss sweep (never overestimates; tail loss only
//       lowers estimates; the 3-probe rule vs. single probes — D3),
//   (c) announced-MSS ablation (D1: larger announced MSS → more few-data),
//   (d) ACK-release verification ablation (D2: without it, exact-fit
//       responses would be misclassified as Success).
#include "bench_common.hpp"

#include "core/direct_probe.hpp"
#include "httpd/http_server.hpp"
#include "tcpstack/host.hpp"

using namespace iwscan;

namespace {

core::HostScanRecord probe_once(sim::Network& network, net::IPv4Address target,
                                const core::IwScanConfig& config) {
  core::DirectServices services(network);
  return core::probe_host(services, target, config);
}

struct HostSetup {
  sim::EventLoop loop;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<tcp::TcpHost> host;
  net::IPv4Address ip{10, 0, 0, 1};

  HostSetup(std::uint32_t iw_segments, tcp::OsProfile os, std::size_t page,
            double loss, std::uint64_t seed) {
    network = std::make_unique<sim::Network>(loop, seed);
    sim::PathConfig path;
    path.latency = sim::msec(15);
    path.loss_rate = loss;
    network->set_default_path(path);
    tcp::StackConfig stack;
    stack.os = os;
    stack.iw = tcp::IwConfig::segments_of(iw_segments);
    host = std::make_unique<tcp::TcpHost>(*network, ip, stack, seed);
    http::WebConfig web;
    web.root = http::RootBehavior::Page;
    web.page_size = page;
    host->listen(80, http::HttpServerApp::factory(web));
    network->attach(ip, host.get());
  }
};

core::IwScanConfig probe_config(std::uint16_t mss, int probes) {
  core::IwScanConfig config;
  config.protocol = core::ProbeProtocol::Http;
  config.port = 80;
  config.mss_primary = mss;
  config.mss_secondary = 0;
  config.probes_per_mss = probes;
  config.estimator.announced_mss = mss;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_common_flags(flags);
  flags.define_u64("trials", 40, "probe trials per loss level");
  bench::parse_or_exit(flags, argc, argv);
  const bool csv = flags.boolean("csv");

  bench::print_header("§3.5: testbed validation + ablations", "Section 3.5");

  // ---- (a) Ground-truth exactness across OS and IW configurations -------
  std::printf("(a) ground truth, no loss (paper: estimator exact in all cases)\n");
  analysis::TextTable truth_table({"OS", "true IW", "estimated", "outcome"});
  bool all_exact = true;
  for (const auto os : {tcp::OsProfile::Linux, tcp::OsProfile::Windows}) {
    for (const std::uint32_t iw : {1u, 2u, 3u, 4u, 10u, 16u, 32u}) {
      HostSetup setup(iw, os, 64 * 1024, 0.0, 1);
      const auto record = probe_once(*setup.network, setup.ip, probe_config(64, 3));
      truth_table.add_row(
          {os == tcp::OsProfile::Linux ? "Linux" : "Windows", std::to_string(iw),
           std::to_string(record.iw_segments),
           std::string(to_string(record.outcome))});
      all_exact &= record.outcome == core::HostOutcome::Success &&
                   record.iw_segments == iw;
    }
  }
  bench::print_table(truth_table, csv);
  std::printf("all exact: %s\n\n", all_exact ? "YES" : "NO");

  // ---- (b) loss sweep, single vs. 3-probe rule (D3) ----------------------
  std::printf("(b) loss sweep (paper: correct absent tail loss; tail loss only\n"
              "    underestimates; multiple probes mitigate)\n");
  analysis::TextTable loss_table({"loss", "mode", "exact", "under", "over",
                                  "no-estimate"});
  const int trials = static_cast<int>(flags.u64("trials"));
  for (const double loss : {0.0, 0.01, 0.02, 0.05, 0.10, 0.20}) {
    for (const int probes : {1, 3}) {
      int exact = 0;
      int under = 0;
      int over = 0;
      int none = 0;
      for (int t = 0; t < trials; ++t) {
        HostSetup setup(10, tcp::OsProfile::Linux, 64 * 1024, loss,
                        1000 + static_cast<std::uint64_t>(t) * 7 +
                            static_cast<std::uint64_t>(loss * 1e4));
        const auto record =
            probe_once(*setup.network, setup.ip, probe_config(64, probes));
        if (record.outcome != core::HostOutcome::Success) {
          ++none;
        } else if (record.iw_segments == 10) {
          ++exact;
        } else if (record.iw_segments < 10) {
          ++under;
        } else {
          ++over;
        }
      }
      char loss_text[16];
      std::snprintf(loss_text, sizeof(loss_text), "%.0f%%", loss * 100);
      loss_table.add_row({loss_text, probes == 1 ? "1 probe" : "3 probes",
                          std::to_string(exact), std::to_string(under),
                          std::to_string(over), std::to_string(none)});
    }
  }
  bench::print_table(loss_table, csv);
  std::printf("invariant: 'over' must be 0 everywhere.\n\n");

  // ---- (c) announced-MSS ablation (D1) -----------------------------------
  std::printf("(c) announced-MSS ablation (D1: small MSS maximizes the chance\n"
              "    a response fills the IW)\n");
  analysis::TextTable mss_table({"announced MSS", "page 2kB", "page 8kB",
                                 "page 24kB"});
  for (const std::uint16_t mss : {64, 128, 536, 1460}) {
    std::vector<std::string> row{std::to_string(mss)};
    for (const std::size_t page : {2'000u, 8'000u, 24'000u}) {
      HostSetup setup(10, tcp::OsProfile::Linux, page, 0.0, 5);
      const auto record = probe_once(*setup.network, setup.ip, probe_config(mss, 3));
      row.push_back(std::string(to_string(record.outcome)) +
                    (record.outcome == core::HostOutcome::Success
                         ? " (IW " + std::to_string(record.iw_segments) + ")"
                         : ""));
    }
    mss_table.add_row(std::move(row));
  }
  bench::print_table(mss_table, csv);
  std::printf("\n");

  // ---- (d) ACK-release verification ablation (D2) ------------------------
  std::printf("(d) verification ablation (D2): responses that exactly fit the\n"
              "    IW look complete; without the 2*MSS-window ACK release the\n"
              "    estimator could not tell Success from FewData.\n");
  {
    // Exact-fit host: sends exactly IW bytes then FIN.
    const std::size_t overhead = model::http_response_overhead("Apache", 200, 640, true);
    HostSetup exact_fit(10, tcp::OsProfile::Linux, 640 - overhead, 0.0, 9);
    const auto record =
        probe_once(*exact_fit.network, exact_fit.ip, probe_config(64, 3));
    std::printf("exact-fit 640B response on IW10 host → %s (lower bound %u)\n",
                std::string(to_string(record.outcome)).c_str(), record.lower_bound);
    std::printf("with D2 the estimator reports FewData/bound instead of a false\n"
                "Success; a naive byte-count would have claimed IW=10 'success'.\n");
  }
  return 0;
}
