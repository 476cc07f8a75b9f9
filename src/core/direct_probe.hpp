// Direct probing: one estimator or prober driven against the network with
// no scan engine in between — the §3.5 validation setup, where single
// testbed hosts with known IWs are probed one at a time. Tests, benches
// and examples share this harness.
#pragma once

#include <cstdint>
#include <functional>

#include "core/estimator.hpp"
#include "core/host_prober.hpp"
#include "netsim/network.hpp"
#include "scanner/scan_engine.hpp"

namespace iwscan::core {

/// SessionServices bound straight to a network at 192.0.2.1. Ports count
/// up from 40000 and session seeds step from 0x5eed by 0x9e3779b97f4a7c15,
/// continuing across every session run on one object.
class DirectServices final : public scan::SessionServices, public sim::Endpoint {
 public:
  static constexpr net::IPv4Address kAddress{192, 0, 2, 1};

  explicit DirectServices(sim::Network& network);
  ~DirectServices() override;

  DirectServices(const DirectServices&) = delete;
  DirectServices& operator=(const DirectServices&) = delete;

  /// Receives every decoded datagram addressed to the scanner (nullptr
  /// drops them).
  void set_handler(std::function<void(const net::Datagram&)> handler) {
    handler_ = std::move(handler);
  }

  // sim::Endpoint
  void handle_packet(net::PacketView bytes) override;

  // SessionServices
  using SessionServices::send_packet;
  void send_packet(net::PacketBuf packet) override { network_.send(std::move(packet)); }
  [[nodiscard]] net::BufferPool& packet_pool() override { return network_.pool(); }
  [[nodiscard]] sim::EventLoop& loop() override { return network_.loop(); }
  [[nodiscard]] net::IPv4Address scanner_address() const override { return kAddress; }
  [[nodiscard]] std::uint16_t allocate_port(net::IPv4Address) override {
    return next_port_++;
  }
  [[nodiscard]] std::uint64_t session_seed(net::IPv4Address) override {
    return seed_ += 0x9e3779b97f4a7c15ULL;
  }

 private:
  sim::Network& network_;
  std::function<void(const net::Datagram&)> handler_;
  std::uint16_t next_port_ = 40000;
  std::uint64_t seed_ = 0x5eed;
};

/// Run one full multi-probe host session to completion; returns its record.
[[nodiscard]] HostScanRecord probe_host(DirectServices& services,
                                        net::IPv4Address target,
                                        const IwScanConfig& config);

/// Run one estimation connection to completion; returns its observation.
[[nodiscard]] ConnObservation estimate_connection(DirectServices& services,
                                                  net::IPv4Address target,
                                                  std::uint16_t port,
                                                  EstimatorConfig config,
                                                  net::Bytes request);

}  // namespace iwscan::core
