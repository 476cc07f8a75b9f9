// §5 (future work implemented) — monitoring IW adoption over time.
//
// The paper closes by arguing that the IW landscape keeps shifting (IW10
// was enabled in Linux in 2011 yet adoption was still partial in 2017) and
// that "monitoring and better understanding this trend motivates future
// research" — which their weekly 1% scans operationalize. This bench runs
// the scan across simulated epochs of kernel-upgrade drift and tracks the
// adoption curve the methodology would report.
#include "bench_common.hpp"

#include "analysis/iw_table.hpp"

using namespace iwscan;

int main(int argc, char** argv) {
  util::Flags flags;
  bench::define_scan_flags(flags);
  flags.define_u64("epochs", 10, "number of scan epochs to simulate");
  flags.define_double("upgrade-rate", 0.06,
                      "per-epoch legacy-Linux → IW10 upgrade probability");
  flags.define_double("fraction", 0.25,
                      "sample fraction per epoch (the low-footprint mode)");
  bench::parse_or_exit(flags, argc, argv);
  if (!scan::sample_fraction_supported(flags.real("fraction"))) {
    std::fprintf(stderr, "--fraction must be in (0, 1]\n%s",
                 flags.usage(argv[0]).c_str());
    return 2;
  }

  bench::print_header("§5 extension: IW10 adoption trend over time",
                      "the §5 trend-monitoring proposal");

  analysis::TextTable table({"epoch", "scanned", "IW1%", "IW2%", "IW4%", "IW10%",
                             "other%"});
  double first_iw10 = 0;
  double last_iw10 = 0;

  const auto epochs = static_cast<int>(flags.u64("epochs"));
  for (int epoch = 0; epoch <= epochs; ++epoch) {
    sim::EventLoop loop;
    sim::Network network(loop, flags.u64("seed") ^ 1);
    model::ModelConfig config;
    config.scale_log2 = static_cast<int>(flags.u64("scale"));
    config.seed = flags.u64("seed");
    config.loss_rate = flags.real("loss");
    config.epoch = epoch;
    config.upgrade_rate_per_epoch = flags.real("upgrade-rate");
    model::InternetModel internet(network, config);
    internet.install();

    analysis::ScanOptions options = bench::scan_options(
        flags, core::ProbeProtocol::Http, "epoch" + std::to_string(epoch));
    options.sample_fraction = flags.real("fraction");
    const auto output = bench::run_scan_or_exit(network, internet, options);

    const auto fractions = analysis::iw_fractions(output.records);
    const auto share = [&](std::uint32_t iw) {
      const auto it = fractions.find(iw);
      return it == fractions.end() ? 0.0 : it->second;
    };
    const double other =
        1.0 - share(1) - share(2) - share(4) - share(10) - share(3);
    table.add_row({std::to_string(epoch),
                   util::format_count(output.records.size()),
                   analysis::fmt_double(share(1) * 100),
                   analysis::fmt_double(share(2) * 100),
                   analysis::fmt_double(share(4) * 100),
                   analysis::fmt_double(share(10) * 100),
                   analysis::fmt_double(other * 100)});
    if (epoch == 0) first_iw10 = share(10);
    last_iw10 = share(10);
  }

  bench::print_table(table, flags.boolean("csv"));
  std::printf("\nIW10 adoption measured by the scan: %s -> %s over %d epochs\n",
              util::format_percent(first_iw10).c_str(),
              util::format_percent(last_iw10).c_str(), epochs);
  std::printf("(legacy IW 1/2/4 shares shrink as deterministic per-host kernel\n"
              " upgrades land; byte-IW CPE and Windows hosts are unaffected —\n"
              " the heterogeneity the paper predicts will persist)\n");
  return 0;
}
