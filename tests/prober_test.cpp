// Multi-probe host sessions: 3-probe agreement, dual-MSS byte-limit
// detection, redirect and long-URI escalation (§3.2, §4).
#include <gtest/gtest.h>

#include <optional>

#include "testbed.hpp"

namespace iwscan {
namespace {

using test::Testbed;

core::IwScanConfig http_config() {
  core::IwScanConfig config;
  config.protocol = core::ProbeProtocol::Http;
  config.port = 80;
  return config;
}

core::IwScanConfig tls_config() {
  core::IwScanConfig config;
  config.protocol = core::ProbeProtocol::Tls;
  config.port = 443;
  return config;
}

tcp::StackConfig stack_with_iw(std::uint32_t segments,
                               tcp::OsProfile os = tcp::OsProfile::Linux) {
  tcp::StackConfig stack;
  stack.os = os;
  stack.iw = tcp::IwConfig::segments_of(segments);
  return stack;
}

http::WebConfig big_page(std::size_t bytes) {
  http::WebConfig web;
  web.root = http::RootBehavior::Page;
  web.page_size = bytes;
  return web;
}

TEST(HostProber, SuccessWithAgreementAcrossSixProbes) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 1};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 10u);
  EXPECT_EQ(record.probes_run, 6);  // 3 probes × 2 MSS values
  EXPECT_EQ(record.iw_segments_b, 10u) << "segment-based IW is MSS-invariant";
}

TEST(HostProber, ByteLimitedHostDetectedViaDualMss) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 2};
  tcp::StackConfig stack;
  stack.iw = tcp::IwConfig::bytes_of(4096);
  bed.add_http_host(host, stack, big_page(12'000));

  const auto record = bed.probe_host(host, http_config());
  ASSERT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 64u);
  EXPECT_EQ(record.iw_segments_b, 32u);
  EXPECT_TRUE(record.byte_limited());
}

TEST(HostProber, SegmentHostIsNotByteLimited) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 3};
  bed.add_http_host(host, stack_with_iw(4), big_page(8'000));

  const auto record = bed.probe_host(host, http_config());
  ASSERT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_FALSE(record.byte_limited());
}

TEST(HostProber, RedirectIsFollowedToSuccess) {
  // "/" answers 301 with a Location; the follow-up connection fetches the
  // large canonical page and fills the IW.
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 4};
  http::WebConfig web;
  web.root = http::RootBehavior::RedirectToName;
  web.canonical_name = "www.redirect-target.test";
  web.redirected_page_size = 16'000;
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 10u);
  EXPECT_GT(record.connections_used, 6)
      << "each probe needs the redirect follow-up connection";
}

TEST(HostProber, LongUriBloatsEchoingErrorPages) {
  // 404-echo host: "/" yields a tiny 404, but the bloated URI inflates the
  // error response beyond the IW (§3.2).
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 5};
  http::WebConfig web;
  web.root = http::RootBehavior::NotFoundEcho;
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 10u);
}

TEST(HostProber, NonEchoing404StaysFewData) {
  // The "Akamai change": when the error page stops echoing the URI, the
  // host can no longer be pushed to success.
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 6};
  http::WebConfig web;
  web.root = http::RootBehavior::NotFoundPlain;
  bed.add_http_host(host, stack_with_iw(10), web);

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::FewData);
  EXPECT_GE(record.lower_bound, 1u);
  EXPECT_LE(record.lower_bound, 10u);
}

TEST(HostProber, UnreachableHostShortCircuits) {
  Testbed bed;
  const auto record = bed.probe_host(net::IPv4Address{10, 1, 0, 7}, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Unreachable);
  EXPECT_EQ(record.probes_run, 1) << "no point probing a dead host six times";
}

TEST(HostProber, AbortingHostIsError) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 8};
  // An HTTP host that resets every connection as soon as data arrives.
  class AbortApp final : public tcp::Application {
   public:
    void on_data(tcp::TcpConnection& conn, std::span<const std::uint8_t>) override {
      conn.abort();
    }
  };
  auto host_obj = std::make_unique<tcp::TcpHost>(bed.network(), host,
                                                 stack_with_iw(10), 7);
  host_obj->listen(80, [](net::IPv4Address, std::uint16_t) {
    return std::make_unique<AbortApp>();
  });
  bed.network().attach(host, host_obj.get());

  const auto record = bed.probe_host(host, http_config());
  EXPECT_EQ(record.outcome, core::HostOutcome::Error);
  bed.network().detach(host);
}

TEST(HostProber, TlsHostEndToEnd) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 9};
  tls::TlsConfig config;
  config.chain_bytes = 3'000;
  bed.add_tls_host(host, stack_with_iw(4), config);

  const auto record = bed.probe_host(host, tls_config());
  ASSERT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.iw_segments, 4u);
  EXPECT_EQ(record.iw_segments_b, 4u);
}

TEST(HostProber, TailLossIsAbsorbedByMaximumRule) {
  // With moderate loss, individual probes may underestimate; the ≥2-of-3 +
  // maximum rule should still usually recover IW 10 or fail gracefully —
  // and must never report > 10.
  int successes = 0;
  for (int trial = 0; trial < 10; ++trial) {
    Testbed bed(1000 + static_cast<std::uint64_t>(trial));
    const net::IPv4Address host{10, 1, 1, static_cast<std::uint8_t>(trial + 1)};
    bed.add_http_host(host, stack_with_iw(10), big_page(16'000));
    sim::PathConfig path = bed.network().default_path();
    path.loss_rate = 0.03;
    bed.network().set_path(host, path);

    const auto record = bed.probe_host(host, http_config());
    if (record.outcome == core::HostOutcome::Success) {
      ++successes;
      EXPECT_LE(record.iw_segments, 10u);
    }
  }
  EXPECT_GE(successes, 7) << "3% loss should rarely defeat the 3-probe rule";
}

TEST(HostProber, SingleMssModeSkipsSecondPass) {
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 10};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));

  core::IwScanConfig config = http_config();
  config.mss_secondary = 0;
  const auto record = bed.probe_host(host, config);
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(record.probes_run, 3);
  EXPECT_EQ(record.iw_segments_b, 0u);
}

TEST(DirectProbe, PooledSendsReturnEveryBufferAndStartWithTheFirstPort) {
  std::optional<net::TcpSegment> first;  // outlives the tap that writes it
  Testbed bed;
  const net::IPv4Address host{10, 1, 0, 11};
  bed.add_http_host(host, stack_with_iw(10), big_page(16'000));
  bed.network().set_tap([&](net::PacketView bytes) {
    if (first.has_value()) return;
    const auto datagram = net::decode_datagram(bytes);
    const auto* segment = datagram ? std::get_if<net::TcpSegment>(&*datagram) : nullptr;
    if (segment != nullptr && segment->ip.src == test::kScannerIp) first = *segment;
  });

  const auto record = bed.probe_host(host, http_config());
  bed.loop().run();  // drain parked deliveries and timers
  EXPECT_EQ(record.outcome, core::HostOutcome::Success);
  EXPECT_EQ(bed.network().pool().outstanding(), 0u);
  ASSERT_TRUE(first.has_value());
  EXPECT_TRUE(first->tcp.has(net::kSyn));
  EXPECT_FALSE(first->tcp.has(net::kAck));
  EXPECT_EQ(first->ip.src, (net::IPv4Address{192, 0, 2, 1}));
  EXPECT_EQ(first->tcp.src_port, 40000);
}

}  // namespace
}  // namespace iwscan
