#include "netsim/network.hpp"

#include <utility>

namespace iwscan::sim {

const PathConfig& Network::path_for(net::IPv4Address remote) const {
  const auto it = paths_.find(remote);
  return it == paths_.end() ? default_path_ : it->second;
}

util::Rng& Network::flow_rng(net::IPv4Address src, net::IPv4Address dst) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(src.value()) << 32) | dst.value();
  auto it = flow_rngs_.find(key);
  if (it == flow_rngs_.end()) {
    // iwlint: allow(hot-path) -- one insert per flow, on its first packet
    // only; the map is pre-sized via reserve_endpoints before a scan
    it = flow_rngs_.emplace(key, util::Rng(util::mix64(seed_, key))).first;
  }
  return it->second;
}

void Network::send(net::PacketBuf packet) {
  const net::PacketView bytes = packet.view();
  const auto dst = net::peek_destination(bytes);
  const auto src = net::peek_source(bytes);
  if (!dst || !src) {
    ++stats_.packets_unroutable;
    return;
  }

  ++stats_.packets_sent;
  stats_.bytes_sent += bytes.size();
  if (tap_) tap_(bytes);

  // Materialize the destination now (not at delivery): its path
  // characteristics (MTU, latency, loss) must shape this very packet.
  if (!endpoints_.contains(*dst) && resolver_) {
    resolver_(*dst);  // attaches itself (or stays dark)
  }

  // Path impairments are keyed by the remote (non-scanner) side so that
  // both directions of one host's path share a configuration. We try the
  // destination first (scanner→host), then the source (host→scanner).
  const PathConfig& path =
      paths_.contains(*dst) ? paths_.at(*dst)
      : paths_.contains(*src) ? paths_.at(*src)
                              : default_path_;

  // Path-MTU enforcement (RFC 1191): oversized DF packets are dropped and
  // answered with ICMP Fragmentation Needed carrying the next-hop MTU.
  if (bytes.size() > path.path_mtu) {
    const bool dont_fragment = bytes.size() > 6 && (bytes[6] & 0x40) != 0;
    if (dont_fragment) {
      ++stats_.icmp_frag_needed;
      send_frag_needed(*src, *dst, path.path_mtu, bytes);
      return;
    }
    // Fragmentation itself is not modeled; non-DF oversize is delivered
    // whole (the scanner always sets DF, matching real raw-socket probes).
  }

  if (filter_ && !filter_(bytes)) {
    ++stats_.packets_lost;
    return;
  }

  util::Rng& rng = flow_rng(*src, *dst);
  if (path.loss_rate > 0.0 && rng.chance(path.loss_rate)) {
    ++stats_.packets_lost;
    return;
  }

  SimTime delay = path.latency;
  if (path.jitter > SimTime::zero()) {
    delay += SimTime{static_cast<std::int64_t>(
        rng.uniform01() * static_cast<double>(path.jitter.count()))};
  }
  if (path.reorder_rate > 0.0 && rng.chance(path.reorder_rate)) {
    ++stats_.packets_reordered;
    delay += path.reorder_delay;
  }

  const net::IPv4Address destination = *dst;
  if (path.duplicate_rate > 0.0 && rng.chance(path.duplicate_rate)) {
    // Duplicate delivery (e.g. spurious link-layer retransmission): the
    // copy trails the original slightly. Copying the handle shares the
    // buffer — the duplicate costs a refcount bump, not a byte copy.
    ++stats_.packets_duplicated;
    deliver(delay + path.duplicate_delay, destination, packet);
  }
  deliver(delay, destination, std::move(packet));
}

void Network::deliver(SimTime delay, net::IPv4Address destination,
                      net::PacketBuf packet) {
  loop_.schedule(delay, [this, destination, packet = std::move(packet)]() {
    Endpoint* endpoint = nullptr;
    if (const auto it = endpoints_.find(destination); it != endpoints_.end()) {
      endpoint = it->second;
    } else if (resolver_) {
      endpoint = resolver_(destination);
    }
    if (endpoint == nullptr) {
      ++stats_.packets_unroutable;
      return;
    }
    ++stats_.packets_delivered;
    endpoint->handle_packet(packet.view());
  });
}

void Network::send_frag_needed(net::IPv4Address original_src,
                               net::IPv4Address original_dst,
                               std::uint32_t next_hop_mtu, net::PacketView original) {
  net::IcmpDatagram reply;
  // A real router answers from its own interface address; we source the
  // message from the unreachable destination, which is equally useful to
  // the prober (it matches on the embedded original header).
  reply.ip.src = original_dst;
  reply.ip.dst = original_src;
  reply.ip.ttl = 64;
  reply.icmp.type = net::IcmpType::DestinationUnreachable;
  reply.icmp.code = net::kIcmpFragNeeded;
  reply.icmp.id_or_unused = 0;
  reply.icmp.seq_or_mtu = static_cast<std::uint16_t>(next_hop_mtu);
  // RFC 792: original IP header + first 8 payload bytes.
  const std::size_t quote = std::min<std::size_t>(original.size(), 28);
  // iwlint: allow(hot-path) -- ICMP error path (Fragmentation Needed), not
  // steady-state forwarding; quotes at most 28 bytes of the original
  reply.icmp.payload.assign(original.begin(),
                            original.begin() + static_cast<std::ptrdiff_t>(quote));

  // The ICMP reply traverses the same path back (without MTU trouble).
  net::PacketBuf encoded = pool_.acquire();
  net::encode_into(reply, encoded.bytes());
  const PathConfig& path = path_for(original_dst);
  deliver(path.latency, original_src, std::move(encoded));
}

}  // namespace iwscan::sim
