// §4.3 + §5 (future work implemented) — per-service IW customization on
// virtualized infrastructure: generic IP-based probing of Akamai-style
// edges yields only "few data" (no valid Host name ⇒ short error pages),
// while probing with a curated URL list reveals the per-customer IW
// configurations (the paper manually found e.g. IW 16 and IW 32).
#include "bench_common.hpp"

#include "core/direct_probe.hpp"
#include "httpd/http_server.hpp"
#include "tcpstack/host.hpp"

using namespace iwscan;

namespace {

core::HostScanRecord probe(sim::Network& network, net::IPv4Address target,
                           const std::string& curated_host) {
  core::DirectServices services(network);
  core::IwScanConfig config;
  config.protocol = core::ProbeProtocol::Http;
  config.port = 80;
  config.curated_host = curated_host;
  return core::probe_host(services, target, config);
}

}  // namespace

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_common_flags(flags);
  bench::parse_or_exit(flags, argc, argv);

  bench::print_header("§4.3/§5: per-customer IWs behind virtual hosting",
                      "Section 4.3 and the §5 future-work proposal");

  sim::EventLoop loop;
  sim::Network network(loop, flags.u64("seed"));
  sim::PathConfig path;
  path.latency = sim::msec(25);
  network.set_default_path(path);

  // Akamai-style edge nodes: each hosts a customer behind a virtual host,
  // with a per-customer IW configuration (the paper manually observed
  // IW 16 and IW 32 alongside the default 4).
  struct Customer {
    const char* name;       // curated URL list entry (Host header)
    std::uint32_t iw;
    net::IPv4Address edge;
  };
  Customer customers[] = {
      {"www.customer-default.example", 4, net::IPv4Address{10, 40, 0, 1}},
      {"www.customer-media.example", 16, net::IPv4Address{10, 40, 0, 2}},
      {"www.customer-commerce.example", 32, net::IPv4Address{10, 40, 0, 3}},
  };

  std::vector<std::unique_ptr<tcp::TcpHost>> edges;
  for (const auto& customer : customers) {
    tcp::StackConfig stack;
    stack.iw = tcp::IwConfig::segments_of(customer.iw);
    auto edge = std::make_unique<tcp::TcpHost>(network, customer.edge, stack, 5);
    http::WebConfig web;
    web.root = http::RootBehavior::VirtualHosted;
    web.canonical_name = customer.name;
    web.redirected_page_size = 64 * 1024;
    web.server_header = "GHost";
    edge->listen(80, http::HttpServerApp::factory(std::move(web)));
    network.attach(customer.edge, edge.get());
    edges.push_back(std::move(edge));
  }

  analysis::TextTable table({"edge IP", "customer (true IW)", "generic scan",
                             "curated-URL scan"});
  for (const auto& customer : customers) {
    const auto generic = probe(network, customer.edge, "");
    const auto curated = probe(network, customer.edge, customer.name);

    const auto describe = [](const core::HostScanRecord& record) {
      if (record.success()) return "IW " + std::to_string(record.iw_segments);
      if (record.outcome == core::HostOutcome::FewData) {
        return "few-data (bound >= " + std::to_string(record.lower_bound) + ")";
      }
      return std::string(to_string(record.outcome));
    };
    table.add_row({customer.edge.to_string(),
                   std::string(customer.name) + " (IW " +
                       std::to_string(customer.iw) + ")",
                   describe(generic), describe(curated)});
  }
  bench::print_table(table, flags.boolean("csv"));

  std::printf("\nGeneric scanning cannot assess virtualized services: without a\n"
              "valid Host name the edge serves a short error page, so only a\n"
              "lower bound is learned. With a curated URL list (the future work\n"
              "proposed in §5, implemented here as make_url_list_strategy) the\n"
              "per-customer IW configurations become measurable — reproducing\n"
              "the paper's manual finding of customized IW 16/32 at Akamai.\n");
  return 0;
}
