#include "core/direct_probe.hpp"

namespace iwscan::core {
namespace {

// Wires `session` to the services, starts it and steps the loop until
// `done` (set by the session's completion callback) or the loop drains.
template <typename Session>
void run_session(DirectServices& services, Session& session, const bool& done) {
  services.set_handler(
      [&session](const net::Datagram& datagram) { session.on_datagram(datagram); });
  session.start();
  while (!done && services.loop().step()) {
  }
  services.set_handler(nullptr);
}

}  // namespace

DirectServices::DirectServices(sim::Network& network) : network_(network) {
  network_.attach(kAddress, this);
}

DirectServices::~DirectServices() { network_.detach(kAddress); }

void DirectServices::handle_packet(net::PacketView bytes) {
  const auto datagram = net::decode_datagram(bytes);
  if (datagram && handler_) handler_(*datagram);
}

HostScanRecord probe_host(DirectServices& services, net::IPv4Address target,
                          const IwScanConfig& config) {
  HostScanRecord record;
  bool done = false;
  HostProber prober(
      services, target, config, [&](const HostScanRecord& r) { record = r; },
      [&] { done = true; });
  run_session(services, prober, done);
  return record;
}

ConnObservation estimate_connection(DirectServices& services, net::IPv4Address target,
                                    std::uint16_t port, EstimatorConfig config,
                                    net::Bytes request) {
  ConnObservation result;
  bool done = false;
  IwEstimator estimator(services, target, port, config, std::move(request),
                        [&](const ConnObservation& observation) {
                          result = observation;
                          done = true;
                        });
  run_session(services, estimator, done);
  return result;
}

}  // namespace iwscan::core
