// §4.2 — IWs defined by a byte limit: scan the universe with MSS 64 and
// MSS 128 (the prober's dual pass) and classify hosts whose segment count
// halves when the MSS doubles. The paper: ~1% of hosts adjust the IW to
// the MSS; ~50% of those send 4 kB (64 → 32 segments, Technicolor CPE at
// Telmex), another group fills 1536 B (24 → 12 segments).
#include "bench_common.hpp"

#include <map>

#include "analysis/iw_table.hpp"

using namespace iwscan;

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scan_flags(flags);
  bench::parse_or_exit(flags, argc, argv);

  bench::print_header("§4.2: IW defined by byte limit (dual-MSS scan)", "Section 4.2");
  auto world = bench::make_world(flags);

  const auto output = bench::run_scan_or_exit(
      *world.network, *world.internet,
      bench::scan_options(flags, core::ProbeProtocol::Http));

  std::uint64_t dual_success = 0;
  std::uint64_t byte_limited = 0;
  std::map<std::uint64_t, std::uint64_t> byte_budget_histogram;  // bytes → hosts
  std::map<std::string, std::uint64_t> byte_hosts_per_as;
  std::uint64_t mss_invariant = 0;

  for (const auto& record : output.records) {
    if (record.outcome != core::HostOutcome::Success || record.iw_segments_b == 0) {
      continue;
    }
    ++dual_success;
    if (record.iw_segments == record.iw_segments_b) {
      ++mss_invariant;
      continue;
    }
    // Byte-counted: segments halve (± the trailing partial segment) when
    // the MSS doubles, and the byte totals agree.
    const bool halves = record.iw_segments_b * 2 == record.iw_segments ||
                        record.iw_segments_b * 2 == record.iw_segments + 1;
    const bool same_bytes = record.iw_bytes == record.iw_bytes_b;
    if (halves && same_bytes) {
      ++byte_limited;
      ++byte_budget_histogram[record.iw_bytes];
      const auto* as = world.internet->registry().find(record.ip);
      if (as) ++byte_hosts_per_as[as->name];
    }
  }

  std::printf("dual-MSS successful hosts: %s\n",
              util::format_count(dual_success).c_str());
  std::printf("MSS-invariant (segment-counted): %s (%s)\n",
              util::format_count(mss_invariant).c_str(),
              util::format_percent(static_cast<double>(mss_invariant) /
                                   static_cast<double>(dual_success))
                  .c_str());
  std::printf("byte-counted IW hosts: %s (%s of dual successes; paper: ~1%%)\n\n",
              util::format_count(byte_limited).c_str(),
              util::format_percent(static_cast<double>(byte_limited) /
                                   static_cast<double>(dual_success))
                  .c_str());

  analysis::TextTable table({"byte budget", "segs @MSS64", "segs @MSS128", "hosts",
                             "share of byte hosts"});
  for (const auto& [bytes, hosts] : byte_budget_histogram) {
    table.add_row({util::format_bytes(bytes), std::to_string(bytes / 64),
                   std::to_string((bytes + 127) / 128), util::format_count(hosts),
                   util::format_percent(static_cast<double>(hosts) /
                                        static_cast<double>(byte_limited))});
  }
  bench::print_table(table, flags.boolean("csv"));

  std::printf("\nbyte-IW hosts per AS (paper: mostly Technicolor modems hosted "
              "by Telmex):\n");
  analysis::TextTable as_table({"AS", "byte-IW hosts"});
  for (const auto& [name, hosts] : byte_hosts_per_as) {
    as_table.add_row({name, util::format_count(hosts)});
  }
  bench::print_table(as_table, flags.boolean("csv"));
  std::printf("\n(paper: 4kB group = 64→32 segments; MTU-fill group = 1536 B:\n"
              " 24→12 segments; GoDaddy's IW48 stays 48 at both MSS values —\n"
              " static, hence NOT counted as byte-limited)\n");
  return 0;
}
