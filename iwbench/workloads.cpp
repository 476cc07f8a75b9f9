// The three workloads and their untraced (end-to-end) and traced
// (per-layer) runs. Workload choice and metric definitions: README.md.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/iw_table.hpp"
#include "analysis/scan_runner.hpp"
#include "analysis/spill_report.hpp"
#include "core/host_prober.hpp"
#include "inetmodel/internet.hpp"
#include "iwbench.hpp"
#include "netsim/network.hpp"
#include "scanner/scan_engine.hpp"
#include "scanner/stateless.hpp"
#include "scanner/targets.hpp"
#include "store/spill.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace iwbench {
namespace {

using namespace iwscan;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using Span = Tracer::Span;

// The executors' scanner addresses (exec/parallel_runner.cpp and
// scan::SweepConfig's default). Per-flow impairment draws are keyed by
// them, so the benchmark's own drive must use the same ones to reproduce
// the library's records.
constexpr net::IPv4Address kEngineAddress{192, 0, 2, 1};
constexpr net::IPv4Address kSweepAddress{192, 0, 2, 2};

// An untraced run repeats its workload for the requested window but never
// fewer than this many times, so every reported time is a median.
constexpr int kMinReps = 4;
constexpr int kMaxReps = 64;
constexpr int kSetupSamples = 25;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double peak_rss_mib() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2.0;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Confines the calling thread, and the threads it starts, to `width` of
/// the CPUs it was allowed at construction, starting at the `first`-th
/// (cyclically); restores the original set when destroyed. Does nothing
/// where affinity cannot be read or set.
class CpuPin {
 public:
  CpuPin(std::size_t first, std::size_t width) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
    }
    if (cpus.size() <= width) return;
    cpu_set_t pinned;
    CPU_ZERO(&pinned);
    for (std::size_t i = 0; i < width; ++i) CPU_SET(cpus[(first + i) % cpus.size()], &pinned);
    active_ = sched_setaffinity(0, sizeof(pinned), &pinned) == 0;
  }
  ~CpuPin() {
    if (active_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool active_ = false;
};

/// Runs `rep(false)` once unmeasured — the process's first pass faults in
/// its heap and the page cache — then `rep(true)` until `seconds` have
/// passed, at least kMinReps times. Measured rounds rotate over the
/// process's CPUs, `width` at a time (one per worker thread): on a shared
/// VM one vCPU can run ~1.6x slower than its siblings (a busy SMT
/// neighbour), and without rotation a run's result would depend on which
/// vCPU the scheduler happened to place it on.
template <typename Rep>
void repeat_for(double seconds, std::size_t width, Rep&& rep) {
  rep(false);
  const auto start = Clock::now();
  for (int n = 0; n < kMaxReps && (n < kMinReps || seconds_since(start) < seconds); ++n) {
    const CpuPin pin(static_cast<std::size_t>(n), width);
    rep(true);
  }
}

// --- Metric catalogue -----------------------------------------------------

/// Collects one run's metrics; `finish` orders them by the declared
/// catalogue and fills every declared name (0 where a layer does not run
/// in this workload), so each workload emits exactly the declared set.
class MetricSet {
 public:
  void set(std::string_view name, double value) { values_[std::string(name)] = value; }

  [[nodiscard]] std::vector<Metric> finish(bool trace) const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : trace ? per_layer() : end_to_end()) {
      const auto it = values_.find(name);
      out.push_back(Metric{name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

  using Catalogue = std::vector<std::pair<std::string, std::string>>;

  static const Catalogue& end_to_end() {
    static const Catalogue names = {
        {"targets_per_s", "1/s"},
        {"peak_rss_mib", "MiB"},
        {"setup_s", "s"},
        {"iw_exact_share", "share"},
    };
    return names;
  }

  static const Catalogue& per_layer() {
    static const Catalogue names = {
        {"netsim.events", "count"},
        {"netsim.step_s", "s"},
        {"netsim.ns_per_event", "ns"},
        {"netsim.packets", "count"},
        {"netsim.lost_share", "share"},
        {"netsim.reordered_share", "share"},
        {"netsim.unattributed_s", "s"},
        {"netsim.virtual_s", "s"},
        {"scanner.engine_rx_s", "s"},
        {"scanner.engine_rx_self_s", "s"},
        {"scanner.ns_per_rx", "ns"},
        {"scanner.rx_packets", "count"},
        {"scanner.sweep_rx_s", "s"},
        {"scanner.cookie_reject_share", "share"},
        {"scanner.duplicate_events", "count"},
        {"scanner.stray_share", "share"},
        {"scanner.sessions_peak", "count"},
        {"scanner.packets_per_target", "count"},
        {"core.sessions", "count"},
        {"core.create_s", "s"},
        {"core.start_s", "s"},
        {"core.datagram_s", "s"},
        {"core.ns_per_datagram", "ns"},
        {"core.probes_per_host", "count"},
        {"core.success_share", "share"},
        {"core.budget_kills", "count"},
        {"inetmodel.hosts_instantiated", "count"},
        {"inetmodel.live_hosts_peak", "count"},
        {"inetmodel.truth_ns", "ns"},
        {"inetmodel.adversarial_hosts", "count"},
        {"tcpstack.host_tx_per_target", "count"},
        {"exec.outstanding_peak", "count"},
        {"exec.shard_finish_spread_s", "s"},
        {"exec.promoted_share", "share"},
        {"store.append_s", "s"},
        {"store.ns_per_append", "ns"},
        {"store.segments", "count"},
        {"store.bytes_per_record", "B"},
        {"store.open_s", "s"},
        {"store.next_s", "s"},
        {"store.ns_per_next", "ns"},
        {"analysis.summarize_s", "s"},
        {"trace.overhead_share", "share"},
    };
    return names;
  }

 private:
  std::map<std::string, double, std::less<>> values_;
};

// --- Worlds ---------------------------------------------------------------

struct ScanWorkload {
  std::string_view name;
  int scale;
  core::ProbeProtocol protocol;
  bool two_phase;
  std::uint64_t max_promoted;
  std::uint64_t shards;
  bool spill;
  double cdn_fraction;
  double adversarial_fraction;
};

// Default ScanOptions: HTTP, 3 probes x 2 MSS, shards=1, records in RAM,
// default world (0.2% loss, 0.3% reorder).
constexpr ScanWorkload kStatefulHttp{"stateful_http", 16, core::ProbeProtocol::Http,
                                     false, 0, 1, false, 0.0, 0.0};
// Two-phase TLS over a large, mostly dark space with CDN and hostile
// overlays; phase 2 capped so the stateless sweep dominates.
constexpr ScanWorkload kSweepTlsCapped{"sweep_tls_capped", 19, core::ProbeProtocol::Tls,
                                       true, 2048, 2, true, 0.2, 0.02};

struct World {
  sim::EventLoop loop;
  std::unique_ptr<sim::Network> network;
  std::unique_ptr<model::InternetModel> internet;
};

std::unique_ptr<World> make_world(const ScanWorkload& workload, int scale,
                                  const Seeds& seeds) {
  auto world = std::make_unique<World>();
  world->network = std::make_unique<sim::Network>(world->loop, seeds.population ^ 1);
  model::ModelConfig config;
  config.scale_log2 = scale;
  config.seed = seeds.population;
  config.cdn_fraction = workload.cdn_fraction;
  config.adversarial_fraction = workload.adversarial_fraction;
  world->internet = std::make_unique<model::InternetModel>(*world->network, config);
  world->internet->install();
  return world;
}

analysis::ScanOptions scan_options(const ScanWorkload& workload, const Seeds& seeds,
                                   const std::string& spill_dir) {
  analysis::ScanOptions options;
  options.protocol = workload.protocol;
  options.scan_seed = seeds.scan;
  options.shards = workload.shards;
  options.two_phase = workload.two_phase;
  options.max_promoted_hosts = workload.max_promoted;
  if (workload.spill) options.spill_dir = spill_dir;
  return options;
}

core::IwScanConfig probe_config(const ScanWorkload& workload) {
  core::IwScanConfig probe;
  probe.protocol = workload.protocol;
  probe.port = workload.protocol == core::ProbeProtocol::Http ? 80 : 443;
  return probe;
}

/// This process's scratch directory under the run's work directory.
fs::path run_root(const RunConfig& config) {
  return fs::path(config.work_dir) /
         ("iwbench-" + config.workload + "-" + std::to_string(::getpid()));
}

/// A path under run_root with nothing at it yet; the workload's set-up (or
/// the SpillWriter) creates the directory.
std::string fresh_dir(const RunConfig& config, std::string_view tag) {
  const fs::path dir = run_root(config) / std::string(tag);
  fs::remove_all(dir);
  return dir.string();
}

void remove_run_dirs(const RunConfig& config) {
  std::error_code ignored;
  fs::remove_all(run_root(config), ignored);
}

/// Oracle pass plus the launched-vs-recorded check for one scan's output.
OracleTally check_scan(const ScanWorkload& workload, const model::InternetModel& internet,
                       const std::vector<core::HostScanRecord>& records,
                       std::uint64_t launched) {
  OracleTally tally;
  for (const core::HostScanRecord& record : records) {
    check_record(record, internet.truth(record.ip),
                 workload.protocol == core::ProbeProtocol::Tls, tally);
  }
  tally.missing = launched > records.size() ? launched - records.size()
                                            : records.size() - launched;
  return tally;
}

// --- Instrumented drive (traced run) ---------------------------------------

struct LayerCounts {
  std::uint64_t engine_rx = 0;
  std::uint64_t sweep_rx = 0;
  std::uint64_t sessions = 0;
  std::uint64_t sessions_peak = 0;
  std::uint64_t live_hosts_peak = 0;
};

/// Times one endpoint's packet handling; re-attached at the endpoint's
/// address after it attached itself in start().
class TimedEndpoint final : public sim::Endpoint {
 public:
  TimedEndpoint(sim::Endpoint& inner, Tracer& tracer, Span span, std::uint64_t& calls,
                const model::InternetModel& internet, std::uint64_t& live_hosts_peak)
      : inner_(inner),
        tracer_(tracer),
        span_(span),
        calls_(calls),
        internet_(internet),
        live_hosts_peak_(live_hosts_peak) {}

  void handle_packet(net::PacketView bytes) override {
    ++calls_;
    live_hosts_peak_ = std::max<std::uint64_t>(live_hosts_peak_, internet_.live_hosts());
    Tracer::Scope scope(&tracer_, span_);
    inner_.handle_packet(bytes);
  }

 private:
  sim::Endpoint& inner_;
  Tracer& tracer_;
  Span span_;
  std::uint64_t& calls_;
  const model::InternetModel& internet_;
  std::uint64_t& live_hosts_peak_;
};

class TimedSession final : public scan::ProbeSession {
 public:
  TimedSession(std::unique_ptr<scan::ProbeSession> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void start() override {
    Tracer::Scope scope(&tracer_, Span::Start);
    inner_->start();
  }
  // The inner session may finish (and the engine retire this wrapper)
  // inside these calls; only the tracer, which outlives the scan, is
  // touched after they return.
  void on_datagram(const net::Datagram& datagram) override {
    Tracer::Scope scope(&tracer_, Span::Datagram);
    inner_->on_datagram(datagram);
  }
  void on_budget_exhausted(scan::BudgetKind kind) override {
    inner_->on_budget_exhausted(kind);
  }

 private:
  std::unique_ptr<scan::ProbeSession> inner_;
  Tracer& tracer_;
};

/// Wraps core::IwProbeModule to time session creation and every session
/// call, and to sample live sessions and hosts.
class TimedModule final : public scan::ProbeModule {
 public:
  TimedModule(scan::ProbeModule& inner, Tracer& tracer, LayerCounts& counts,
              const model::InternetModel& internet)
      : inner_(inner), tracer_(tracer), counts_(counts), internet_(internet) {}

  void watch(const scan::ScanEngine& engine) { engine_ = &engine; }

  std::unique_ptr<scan::ProbeSession> create_session(scan::SessionServices& services,
                                                     net::IPv4Address target,
                                                     std::function<void()> finish) override {
    ++counts_.sessions;
    if (engine_ != nullptr) {
      counts_.sessions_peak =
          std::max<std::uint64_t>(counts_.sessions_peak, engine_->live_sessions() + 1);
    }
    counts_.live_hosts_peak =
        std::max<std::uint64_t>(counts_.live_hosts_peak, internet_.live_hosts());
    std::unique_ptr<scan::ProbeSession> session;
    {
      Tracer::Scope scope(&tracer_, Span::Create);
      session = inner_.create_session(services, target, std::move(finish));
    }
    return std::make_unique<TimedSession>(std::move(session), tracer_);
  }

 private:
  scan::ProbeModule& inner_;
  Tracer& tracer_;
  LayerCounts& counts_;
  const model::InternetModel& internet_;
  const scan::ScanEngine* engine_ = nullptr;
};

struct DriveResult {
  std::vector<core::HostScanRecord> records;  // cycle order
  scan::EngineStats engine;
  scan::SweepStats sweep;
  sim::NetworkStats network;
  std::uint64_t events = 0;
  std::uint64_t targets = 0;
  sim::SimTime virtual_time{};
  std::uint64_t spill_segments = 0;
  std::uint64_t spill_bytes = 0;
  std::uint64_t spill_records = 0;
  bool store_ok = true;
  double wall_s = 0.0;
};

/// Runs one ScanEngine over `source` to completion on `world`, as the
/// executors do, sinking (cycle, record) pairs. With a tracer the module
/// and the engine's receive path are wrapped and timed.
template <typename Sink>
scan::EngineStats run_engine(World& world, scan::TargetSource& source,
                             const ScanWorkload& workload, const Seeds& seeds,
                             Tracer* tracer, LayerCounts& counts, Sink&& sink) {
  std::unordered_map<net::IPv4Address, std::uint64_t> cycle_of;
  core::IwProbeModule module(probe_config(workload), [&](const core::HostScanRecord& record) {
    const auto it = cycle_of.find(record.ip);
    const std::uint64_t cycle = it == cycle_of.end() ? 0 : it->second;
    if (it != cycle_of.end()) cycle_of.erase(it);
    sink(cycle, record);
  });
  std::optional<TimedModule> timed;
  if (tracer != nullptr) timed.emplace(module, *tracer, counts, *world.internet);

  scan::EngineConfig config;
  config.scanner_address = kEngineAddress;
  const analysis::ScanOptions defaults;
  config.rate_pps = defaults.rate_pps;
  config.max_outstanding = defaults.max_outstanding;
  config.seed = seeds.scan;
  config.budget = defaults.budget;
  scan::ScanEngine engine(*world.network, config, source,
                          timed ? static_cast<scan::ProbeModule&>(*timed) : module);
  if (timed) timed->watch(engine);
  engine.set_launch_observer(
      [&](net::IPv4Address ip, std::uint64_t cycle) { cycle_of[ip] = cycle; });

  std::optional<TimedEndpoint> rx;
  engine.start();
  if (tracer != nullptr) {
    rx.emplace(engine, *tracer, Span::EngineRx, counts.engine_rx, *world.internet,
               counts.live_hosts_peak);
    world.network->attach(kEngineAddress, &*rx);
  }
  {
    Tracer::Scope step(tracer, Span::Step);
    while (!engine.done() && world.loop.step()) {
    }
  }
  world.network->detach(kEngineAddress);
  return engine.stats();
}

/// stateful_http, driven by hand: the single-shard executor path
/// (exec::ParallelScanRunner with shards=1), then analysis::summarize.
DriveResult drive_stateful(World& world, const ScanWorkload& workload, const Seeds& seeds,
                           Tracer* tracer, LayerCounts& counts) {
  DriveResult result;
  const auto started = Clock::now();
  Tracer::Scope scan_span(tracer, Span::Scan);
  const std::uint64_t events_before = world.loop.events_processed();
  const sim::SimTime virtual_start = world.loop.now();
  scan::GeneratorTargetSource source(scan::TargetGenerator(
      world.internet->registry().scan_space(), {}, seeds.scan));
  std::vector<std::pair<std::uint64_t, core::HostScanRecord>> tagged;
  result.engine = run_engine(world, source, workload, seeds, tracer, counts,
                             [&](std::uint64_t cycle, const core::HostScanRecord& record) {
                               tagged.emplace_back(cycle, record);
                             });
  result.virtual_time = world.loop.now() - virtual_start;
  result.events = world.loop.events_processed() - events_before;
  std::sort(tagged.begin(), tagged.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  result.records.reserve(tagged.size());
  for (auto& entry : tagged) result.records.push_back(std::move(entry.second));
  {
    Tracer::Scope scope(tracer, Span::Summarize);
    (void)analysis::summarize(result.records);
  }
  result.targets = result.engine.targets_started;
  result.network = world.network->stats();
  result.wall_s = seconds_since(started);
  return result;
}

/// sweep_tls_capped, driven by hand on one shard: StatelessSweep over the
/// whole space, the capped responsive set (lowest cycle indices) through
/// a ScanEngine, both record streams spilled, and the host records merged
/// back and summarized — the exec::TwoPhaseRunner capped path plus
/// analysis::summarize_spill_files.
DriveResult drive_two_phase(World& world, const ScanWorkload& workload,
                            const Seeds& seeds, Tracer* tracer, LayerCounts& counts,
                            const std::string& spill_dir) {
  DriveResult result;
  const auto started = Clock::now();
  Tracer::Scope scan_span(tracer, Span::Scan);
  const std::uint64_t events_before = world.loop.events_processed();
  const sim::SimTime virtual_start = world.loop.now();

  scan::TargetGenerator targets(world.internet->registry().scan_space(), {}, seeds.scan);
  result.targets = targets.address_space_size();
  scan::SweepConfig sweep_config;
  sweep_config.target_port = probe_config(workload).port;
  sweep_config.rate_pps = analysis::ScanOptions{}.sweep_rate_pps;
  sweep_config.seed = seeds.scan;
  std::unordered_map<std::uint64_t, scan::SweepRecord> by_cycle;
  scan::StatelessSweep sweep(
      *world.network, sweep_config, std::move(targets), [&](const scan::SweepEvent& event) {
        scan::SweepRecord& record = by_cycle[event.cycle];
        record.cycle = event.cycle;
        record.ip = event.source;
        switch (event.kind) {
          case scan::SweepEventKind::Responsive:
            record.responsive = true;
            record.window = event.window;
            record.mss = event.mss;
            break;
          case scan::SweepEventKind::Closed:
            record.closed = true;
            break;
          case scan::SweepEventKind::Banner:
            record.banner_length = event.banner_length;
            record.banner = event.banner;
            break;
        }
      });
  std::optional<TimedEndpoint> rx;
  sweep.start();
  if (tracer != nullptr) {
    rx.emplace(sweep, *tracer, Span::SweepRx, counts.sweep_rx, *world.internet,
               counts.live_hosts_peak);
    world.network->attach(kSweepAddress, &*rx);
  }
  {
    Tracer::Scope step(tracer, Span::Step);
    while (!sweep.done() && world.loop.step()) {
    }
  }
  if (world.network->attached(kSweepAddress)) world.network->detach(kSweepAddress);
  result.sweep = sweep.stats();

  std::vector<scan::SweepRecord> sweep_records;
  sweep_records.reserve(by_cycle.size());
  for (auto& [cycle, record] : by_cycle) sweep_records.push_back(record);
  std::sort(sweep_records.begin(), sweep_records.end(),
            [](const auto& a, const auto& b) { return a.cycle < b.cycle; });
  std::vector<scan::ListTargetSource::Entry> promoted;
  for (const scan::SweepRecord& record : sweep_records) {
    if (record.responsive) promoted.emplace_back(record.ip, record.cycle);
  }
  if (promoted.size() > workload.max_promoted) promoted.resize(workload.max_promoted);

  store::SpillConfig spill_config;
  spill_config.directory = spill_dir;
  spill_config.seed = seeds.scan;
  std::vector<std::string> host_files;
  {
    store::SpillWriter<scan::SweepRecord> sweep_spill(spill_config);
    for (const scan::SweepRecord& record : sweep_records) {
      Tracer::Scope scope(tracer, Span::Append);
      sweep_spill.append(record.cycle, record);
    }
    store::SpillWriter<core::HostScanRecord> host_spill(spill_config);
    scan::ListTargetSource source(std::move(promoted));
    result.engine = run_engine(world, source, workload, seeds, tracer, counts,
                               [&](std::uint64_t cycle, const core::HostScanRecord& record) {
                                 Tracer::Scope scope(tracer, Span::Append);
                                 host_spill.append(cycle, record);
                               });
    {
      Tracer::Scope scope(tracer, Span::Append);
      result.store_ok = sweep_spill.close() && host_spill.close();
    }
    result.spill_segments = sweep_spill.segments_flushed() + host_spill.segments_flushed();
    result.spill_records = sweep_spill.appended() + host_spill.appended();
    result.spill_bytes = fs::file_size(sweep_spill.path()) + fs::file_size(host_spill.path());
    host_files.push_back(host_spill.path());
  }
  result.virtual_time = world.loop.now() - virtual_start;
  result.events = world.loop.events_processed() - events_before;

  std::string error;
  std::optional<store::MergeReader<core::HostScanRecord>> merge;
  {
    Tracer::Scope scope(tracer, Span::Open);
    merge = store::open_merge<core::HostScanRecord>(host_files, &error);
  }
  if (!merge.has_value()) {
    result.store_ok = false;
  } else {
    analysis::DatasetSummary summary;
    std::uint64_t cycle = 0;
    core::HostScanRecord record;
    while (true) {
      bool more = false;
      {
        Tracer::Scope scope(tracer, Span::Next);
        more = merge->next(cycle, record);
      }
      if (!more) break;
      {
        Tracer::Scope scope(tracer, Span::Summarize);
        analysis::accumulate(summary, record);
      }
      result.records.push_back(record);
    }
    result.store_ok = result.store_ok && merge->ok();
  }
  result.network = world.network->stats();
  result.wall_s = seconds_since(started);
  return result;
}

// --- Scan workloads -------------------------------------------------------

struct ApiRun {
  analysis::ScanOutput output;
  std::vector<core::HostScanRecord> records;  // cycle order, RAM or merged spill
  std::vector<double> setup_s;  // one sample per world construction
  double scan_s = 0.0;
  std::uint64_t targets = 0;
  std::uint64_t launched = 0;
  bool store_ok = true;
  std::string store_error;
  std::unique_ptr<World> world;
};

/// One end-to-end run through the public API: world set-up, then the
/// timed run_iw_scan + dataset summary.
ApiRun api_run(const RunConfig& config, const ScanWorkload& workload, int scale,
               const std::string& spill_dir, const exec::ProgressFn& progress) {
  ApiRun run;
  // Set-up is milliseconds, so it is sampled several times per scan; the
  // world built last is the one scanned.
  for (int sample = 0; sample < kSetupSamples; ++sample) {
    run.world.reset();
    const auto setup_start = Clock::now();
    run.world = make_world(workload, scale, config.seeds);
    if (workload.spill) fs::create_directories(spill_dir);
    run.setup_s.push_back(seconds_since(setup_start));
  }
  analysis::ScanOptions options = scan_options(workload, config.seeds, spill_dir);
  options.progress = progress;

  const auto scan_start = Clock::now();
  run.output = analysis::run_iw_scan(*run.world->network, *run.world->internet, options);
  if (workload.spill) {
    analysis::SpillSummary summary;
    run.store_ok = analysis::summarize_spill_files(run.output.spill_files, summary,
                                                   run.store_error);
  } else {
    (void)analysis::summarize(run.output.records);
  }
  run.scan_s = seconds_since(scan_start);

  run.targets = workload.two_phase ? run.output.sweep.targets_probed
                                   : run.output.engine.targets_started;
  run.launched = run.output.engine.targets_started;
  if (workload.spill) {
    if (run.store_ok &&
        !store::read_merged(run.output.spill_files, run.records, &run.store_error)) {
      run.store_ok = false;
    }
  } else {
    run.records = std::move(run.output.records);
  }
  return run;
}

Outcome run_scan_untraced(const RunConfig& config, const ScanWorkload& workload,
                          int scale) {
  Outcome outcome;
  std::vector<double> rates;
  std::vector<double> setups;
  OracleTally total;
  std::optional<std::uint64_t> first_digest;
  repeat_for(config.seconds, workload.shards, [&](bool measured) {
    const std::string spill_dir = fresh_dir(config, "rep");
    ApiRun run = api_run(config, workload, scale, spill_dir, {});
    if (measured) {
      rates.push_back(ratio(static_cast<double>(run.targets), run.scan_s));
      setups.insert(setups.end(), run.setup_s.begin(), run.setup_s.end());
    }

    const OracleTally tally = check_scan(workload, *run.world->internet, run.records,
                                         run.launched);
    const std::uint64_t digest = digest_records(run.records);
    if (!first_digest) first_digest = digest;
    outcome.attempted += run.records.size();
    outcome.failed += tally.violations() + (run.store_ok ? 0 : 1) +
                      (digest == *first_digest ? 0 : 1);
    if (!run.store_ok) outcome.notes.push_back("store error: " + run.store_error);
    if (!measured) {
      total = tally;
      outcome.digest = digest;
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s: scale %d, %llu targets, %llu launched, %zu records, "
                    "%.3f virtual s, %.3f scanner packets/target",
                    std::string(workload.name).c_str(), scale,
                    static_cast<unsigned long long>(run.targets),
                    static_cast<unsigned long long>(run.launched), run.records.size(),
                    std::chrono::duration<double>(run.output.duration).count(),
                    ratio(static_cast<double>(run.output.engine.packets_sent +
                                              run.output.sweep.packets_sent),
                          static_cast<double>(run.targets)));
      outcome.notes.emplace_back(line);
    }
    remove_run_dirs(config);
  });
  char line[256];
  std::snprintf(line, sizeof(line),
                "oracle (per rep): %llu checked, %llu success (%llu exact), %llu over, "
                "%llu bound-above, %llu paced-success, %llu missing, %llu adversarial "
                "excluded",
                static_cast<unsigned long long>(total.checked),
                static_cast<unsigned long long>(total.success),
                static_cast<unsigned long long>(total.exact),
                static_cast<unsigned long long>(total.over),
                static_cast<unsigned long long>(total.bound_above),
                static_cast<unsigned long long>(total.paced_success),
                static_cast<unsigned long long>(total.missing),
                static_cast<unsigned long long>(total.adversarial));
  outcome.notes.emplace_back(line);
  std::snprintf(line, sizeof(line), "measured reps: %zu (after one warm-up), targets/s:",
                rates.size());
  std::string reps = line;
  for (double rate : rates) reps += " " + std::to_string(static_cast<long long>(rate));
  outcome.notes.push_back(reps);

  MetricSet metrics;
  metrics.set("targets_per_s", median(rates));
  metrics.set("setup_s", median(setups));
  metrics.set("iw_exact_share", total.exact_share());
  metrics.set("peak_rss_mib", peak_rss_mib());
  outcome.metrics = metrics.finish(false);
  outcome.correct = outcome.failed == 0;
  return outcome;
}

Outcome run_scan_traced(const RunConfig& config, const ScanWorkload& workload, int scale) {
  Outcome outcome;
  MetricSet metrics;

  // 1. The public API run the records are checked against; its progress
  //    snapshots give the executor's view.
  std::uint64_t outstanding_peak = 0;
  std::uint64_t shards_seen = 0;
  std::vector<Clock::time_point> shard_finish;
  const exec::ProgressFn progress = [&](const exec::ProgressSnapshot& snap) {
    outstanding_peak = std::max(outstanding_peak, snap.outstanding);
    if (snap.shards_done > shards_seen) {
      shards_seen = snap.shards_done;
      shard_finish.push_back(Clock::now());
    }
  };
  ApiRun api = api_run(config, workload, scale, fresh_dir(config, "api"), progress);
  const OracleTally tally = check_scan(workload, *api.world->internet, api.records,
                                       api.launched);
  outcome.attempted = api.records.size();
  outcome.failed = tally.violations() + (api.store_ok ? 0 : 1);
  outcome.digest = digest_records(api.records);
  const std::uint64_t api_promoted = workload.two_phase ? api.output.promoted : api.launched;
  const double api_targets = static_cast<double>(api.targets);
  api.world.reset();

  // 2. The benchmark's own drive, untraced, then 3. traced: same work.
  auto drive = [&](Tracer* tracer, LayerCounts& counts, std::string_view tag) {
    auto world = make_world(workload, scale, config.seeds);
    DriveResult result =
        workload.two_phase
            ? drive_two_phase(*world, workload, config.seeds, tracer, counts,
                              fresh_dir(config, tag))
            : drive_stateful(*world, workload, config.seeds, tracer, counts);
    return std::make_pair(std::move(world), std::move(result));
  };
  LayerCounts untraced_counts;
  auto [plain_world, plain] = drive(nullptr, untraced_counts, "plain");
  plain_world.reset();
  Tracer tracer;
  LayerCounts counts;
  auto [world, traced] = drive(&tracer, counts, "traced");

  const bool same = traced.records == api.records && plain.records == api.records &&
                    traced.store_ok && plain.store_ok;
  if (!same) {
    ++outcome.failed;
    outcome.notes.emplace_back(
        "determinism check FAILED: traced/untraced drive records differ from the "
        "API run's records");
  } else {
    outcome.notes.emplace_back(
        "determinism check: traced and untraced records identical (" +
        std::to_string(api.records.size()) + " records)");
  }

  // inetmodel.truth over every scanned address, after the scan.
  std::vector<net::IPv4Address> addresses;
  {
    scan::TargetGenerator targets(world->internet->registry().scan_space(), {},
                                  config.seeds.scan);
    while (const auto ip = targets.next()) addresses.push_back(*ip);
  }
  std::uint64_t present = 0;
  {
    Tracer::Scope scope(&tracer, Span::Truth);
    for (const net::IPv4Address ip : addresses) present += world->internet->truth(ip).present;
  }
  outcome.notes.emplace_back("truth pass: " + std::to_string(present) + " of " +
                             std::to_string(addresses.size()) + " addresses present");

  const double targets = static_cast<double>(traced.targets);
  const double step_s = tracer.seconds(Span::Step);
  const double events = static_cast<double>(traced.events);
  const sim::NetworkStats& net = traced.network;
  const double scanner_tx =
      static_cast<double>(traced.engine.packets_sent + traced.sweep.packets_sent);
  metrics.set("netsim.events", events);
  metrics.set("netsim.step_s", step_s);
  metrics.set("netsim.ns_per_event", ratio(step_s * 1e9, events));
  metrics.set("netsim.packets", static_cast<double>(net.packets_sent));
  metrics.set("netsim.lost_share", ratio(static_cast<double>(net.packets_lost),
                                         static_cast<double>(net.packets_sent)));
  metrics.set("netsim.reordered_share", ratio(static_cast<double>(net.packets_reordered),
                                              static_cast<double>(net.packets_sent)));
  metrics.set("netsim.unattributed_s", tracer.self_seconds(Span::Step));
  metrics.set("netsim.virtual_s", std::chrono::duration<double>(traced.virtual_time).count());

  const double engine_rx_s = tracer.seconds(Span::EngineRx);
  const double datagram_s = tracer.seconds(Span::Datagram);
  metrics.set("scanner.engine_rx_s", engine_rx_s);
  metrics.set("scanner.engine_rx_self_s", engine_rx_s - datagram_s);
  metrics.set("scanner.ns_per_rx",
              ratio(engine_rx_s * 1e9, static_cast<double>(counts.engine_rx)));
  metrics.set("scanner.rx_packets", static_cast<double>(counts.engine_rx + counts.sweep_rx));
  metrics.set("scanner.sweep_rx_s", tracer.seconds(Span::SweepRx));
  metrics.set("scanner.cookie_reject_share",
              ratio(static_cast<double>(traced.sweep.cookie_rejected),
                    static_cast<double>(traced.sweep.packets_received)));
  metrics.set("scanner.duplicate_events", static_cast<double>(traced.sweep.duplicate_events));
  metrics.set("scanner.stray_share", ratio(static_cast<double>(traced.engine.stray_packets),
                                           static_cast<double>(traced.engine.packets_received)));
  metrics.set("scanner.sessions_peak", static_cast<double>(counts.sessions_peak));
  metrics.set("scanner.packets_per_target", ratio(scanner_tx, targets));

  metrics.set("core.sessions", static_cast<double>(counts.sessions));
  metrics.set("core.create_s", tracer.seconds(Span::Create));
  metrics.set("core.start_s", tracer.seconds(Span::Start));
  metrics.set("core.datagram_s", datagram_s);
  metrics.set("core.ns_per_datagram",
              ratio(datagram_s * 1e9, static_cast<double>(tracer.calls(Span::Datagram))));
  double probes = 0.0;
  double success = 0.0;
  for (const core::HostScanRecord& record : traced.records) {
    probes += record.probes_run;
    success += record.success() ? 1.0 : 0.0;
  }
  const double records = static_cast<double>(traced.records.size());
  metrics.set("core.probes_per_host", ratio(probes, records));
  metrics.set("core.success_share", ratio(success, records));
  metrics.set("core.budget_kills",
              static_cast<double>(traced.engine.sessions_killed_wall +
                                  traced.engine.sessions_killed_bytes +
                                  traced.engine.sessions_killed_packets));

  metrics.set("inetmodel.hosts_instantiated",
              static_cast<double>(world->internet->hosts_instantiated()));
  metrics.set("inetmodel.live_hosts_peak", static_cast<double>(counts.live_hosts_peak));
  metrics.set("inetmodel.truth_ns", ratio(tracer.seconds(Span::Truth) * 1e9,
                                          static_cast<double>(addresses.size())));
  metrics.set("inetmodel.adversarial_hosts", static_cast<double>(tally.adversarial));
  metrics.set("tcpstack.host_tx_per_target",
              ratio(static_cast<double>(net.packets_sent) - scanner_tx, targets));

  metrics.set("exec.outstanding_peak", static_cast<double>(outstanding_peak));
  metrics.set("exec.shard_finish_spread_s",
              shard_finish.size() < 2
                  ? 0.0
                  : std::chrono::duration<double>(shard_finish.back() - shard_finish.front())
                        .count());
  metrics.set("exec.promoted_share", ratio(static_cast<double>(api_promoted), api_targets));

  const double append_s = tracer.seconds(Span::Append);
  const double next_s = tracer.seconds(Span::Next);
  metrics.set("store.append_s", append_s);
  metrics.set("store.ns_per_append",
              ratio(append_s * 1e9, static_cast<double>(traced.spill_records)));
  metrics.set("store.segments", static_cast<double>(traced.spill_segments));
  metrics.set("store.bytes_per_record", ratio(static_cast<double>(traced.spill_bytes),
                                              static_cast<double>(traced.spill_records)));
  metrics.set("store.open_s", tracer.seconds(Span::Open));
  metrics.set("store.next_s", next_s);
  metrics.set("store.ns_per_next",
              ratio(next_s * 1e9, static_cast<double>(tracer.calls(Span::Next))));
  metrics.set("analysis.summarize_s", tracer.seconds(Span::Summarize));
  metrics.set("trace.overhead_share", ratio(traced.wall_s - plain.wall_s, plain.wall_s));

  char line[256];
  std::snprintf(line, sizeof(line),
                "traced wall %.3f s vs untraced %.3f s; step loop %.3f s over %.0f events",
                traced.wall_s, plain.wall_s, step_s, events);
  outcome.notes.emplace_back(line);
  const std::string trace_path =
      (fs::path(config.work_dir) / ("iwbench-trace-" + config.workload + ".json")).string();
  if (tracer.write(trace_path)) outcome.notes.push_back("spans written to " + trace_path);
  remove_run_dirs(config);

  outcome.metrics = metrics.finish(true);
  outcome.correct = outcome.failed == 0;
  return outcome;
}

// --- spill_merge ------------------------------------------------------------

// 2^21 records (~100 MiB of segments) per round: at 2^22 and above a
// round's page-cache traffic made rounds swing by +-20% on a shared 4-vCPU
// VM, while 2^21 rounds repeated within a run give medians within a few
// percent. Every round still streams far more than any CPU cache.
constexpr int kSpillMergeScale = 21;
constexpr std::uint64_t kSpillProcesses = 4;
constexpr std::size_t kBatch = 4096;

/// Deterministic host record for a cycle index: every field derives from
/// (seeds, cycle), so the verifier regenerates what the writer appended.
core::HostScanRecord synthetic_record(std::uint64_t key, std::uint64_t cycle) {
  const std::uint64_t h = util::mix64(key, cycle);
  const std::uint64_t g = util::mix64(h, 0x5EEDULL);
  core::HostScanRecord record;
  record.ip = net::IPv4Address(static_cast<std::uint32_t>(h >> 32));
  record.outcome = static_cast<core::HostOutcome>(h & 0x03u);
  record.iw_segments = static_cast<std::uint32_t>((h >> 8) & 0x3F);
  record.iw_bytes = static_cast<std::uint64_t>(record.iw_segments) * 64;
  record.observed_mss = static_cast<std::uint16_t>(64 + (g & 0x3F));
  record.lower_bound = static_cast<std::uint32_t>((h >> 16) & 0x0F);
  record.iw_segments_b = record.iw_segments / 2;
  record.iw_bytes_b = record.iw_bytes;
  record.observed_mss_b = static_cast<std::uint16_t>(record.observed_mss * 2);
  record.fin_seen = (g & 0x100u) != 0;
  record.reorder_seen = (g & 0x200u) != 0;
  record.loss_suspected = (g & 0x400u) != 0;
  record.anomaly = static_cast<core::ProbeAnomaly>((g >> 16) % 13);
  record.probes_run = static_cast<std::uint8_t>(1 + ((g >> 24) & 0x07u));
  record.connections_used = record.probes_run;
  return record;
}

struct SpillRound {
  std::vector<double> setup_s;
  double write_s = 0.0;
  double read_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t read = 0;
  std::uint64_t mismatched = 0;  // wrong order, content, or count
  std::uint64_t success = 0;
  std::uint64_t exact = 0;  // Success records read back with their iw intact
  std::uint64_t segments = 0;
  std::uint64_t bytes = 0;
  std::uint64_t digest = 0;
  bool ok = true;
  std::string error;
};

/// Writes 2^scale synthetic records as kSpillProcesses spill shards, then
/// merge-reads them back. Record synthesis and verification sit outside
/// the timed calls (batched); with a tracer every append and next is a
/// span of its own.
SpillRound spill_round(const RunConfig& config, int scale, Tracer* tracer) {
  SpillRound round;
  const std::uint64_t total = std::uint64_t{1} << scale;
  const std::uint64_t mask = total - 1;
  const std::uint64_t key = util::mix64(config.seeds.population, config.seeds.scan);
  round.records = total;

  // Set-up (directory and writers) is sampled like the scans' world build;
  // the writers opened last are the ones written through.
  const std::string dir = fresh_dir(config, "spill");
  std::vector<std::unique_ptr<store::SpillWriter<core::HostScanRecord>>> writers;
  for (int sample = 0; sample < kSetupSamples; ++sample) {
    writers.clear();
    fs::remove_all(dir);
    const auto setup_start = Clock::now();
    fs::create_directories(dir);
    for (std::uint64_t p = 0; p < kSpillProcesses; ++p) {
      store::SpillConfig spill;
      spill.directory = dir;
      spill.seed = config.seeds.scan;
      spill.shard = static_cast<std::uint32_t>(p);
      spill.total_shards = static_cast<std::uint32_t>(kSpillProcesses);
      writers.push_back(std::make_unique<store::SpillWriter<core::HostScanRecord>>(spill));
    }
    round.setup_s.push_back(seconds_since(setup_start));
  }

  // Write: records complete out of cycle order in a real scan; an odd
  // multiplier scrambles the order (a bijection mod 2^scale), and shard p
  // owns the cycles == p (mod kSpillProcesses), as with --shard p/N.
  Tracer::Scope scan_span(tracer, Span::Scan);
  const std::uint64_t multiplier = (util::mix64(key, 1) | 1u) & mask;
  std::vector<std::pair<std::uint64_t, core::HostScanRecord>> batch;
  batch.reserve(kBatch);
  double write_s = 0.0;
  for (std::uint64_t base = 0; base < total; base += kBatch) {
    batch.clear();
    for (std::uint64_t i = base; i < std::min(total, base + kBatch); ++i) {
      const std::uint64_t cycle = (i * multiplier) & mask;
      batch.emplace_back(cycle, synthetic_record(key, cycle));
    }
    const auto start = Clock::now();
    for (const auto& [cycle, record] : batch) {
      Tracer::Scope scope(tracer, Span::Append);
      writers[cycle % kSpillProcesses]->append(cycle, record);
    }
    write_s += seconds_since(start);
  }
  std::vector<std::string> files;
  {
    const auto start = Clock::now();
    Tracer::Scope scope(tracer, Span::Append);
    for (auto& writer : writers) {
      if (!writer->close()) {
        round.ok = false;
        round.error = writer->error();
      }
    }
    write_s += seconds_since(start);
  }
  for (auto& writer : writers) {
    round.segments += writer->segments_flushed();
    files.push_back(writer->path());
    round.bytes += fs::file_size(writer->path());
  }
  writers.clear();
  round.write_s = write_s;

  // Merge read back in global cycle order; verify every record.
  double read_s = 0.0;
  std::optional<store::MergeReader<core::HostScanRecord>> merge;
  {
    const auto start = Clock::now();
    Tracer::Scope scope(tracer, Span::Open);
    merge = store::open_merge<core::HostScanRecord>(files, &round.error);
    read_s += seconds_since(start);
  }
  if (!merge.has_value()) {
    round.ok = false;
    return round;
  }
  std::vector<std::pair<std::uint64_t, core::HostScanRecord>> got(kBatch);
  std::uint64_t digest = total;
  while (true) {
    std::size_t n = 0;
    const auto start = Clock::now();
    for (; n < kBatch; ++n) {
      Tracer::Scope scope(tracer, Span::Next);
      if (!merge->next(got[n].first, got[n].second)) break;
    }
    read_s += seconds_since(start);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [cycle, record] = got[i];
      const core::HostScanRecord expected = synthetic_record(key, cycle);
      if (cycle != round.read || !(record == expected)) ++round.mismatched;
      if (expected.success()) {
        ++round.success;
        if (record.iw_segments == expected.iw_segments) ++round.exact;
      }
      digest = util::mix64(digest ^ cycle, record.ip.value() ^
                                               (std::uint64_t{record.iw_segments} << 32));
      ++round.read;
    }
    if (n < kBatch) break;
  }
  round.read_s = read_s;
  if (!merge->ok()) {
    round.ok = false;
    round.error = merge->error();
  }
  if (round.read != total) round.mismatched += total > round.read ? total - round.read : 1;
  round.digest = digest;
  merge.reset();
  remove_run_dirs(config);
  return round;
}

Outcome run_spill_merge(const RunConfig& config, int scale) {
  Outcome outcome;
  MetricSet metrics;
  auto account = [&](const SpillRound& round) {
    outcome.attempted += round.records;
    outcome.failed += round.mismatched + (round.ok ? 0 : 1);
    if (!round.ok) outcome.notes.push_back("store error: " + round.error);
  };

  if (!config.trace) {
    std::vector<double> rates;
    std::vector<double> setups;
    std::vector<double> writes;
    std::vector<double> reads;
    double exact_share = 0.0;
    repeat_for(config.seconds, 1, [&](bool measured) {
      const SpillRound round = spill_round(config, scale, nullptr);
      account(round);
      if (!measured) {
        outcome.digest = round.digest;
        exact_share = ratio(static_cast<double>(round.exact),
                            static_cast<double>(round.success));
        return;
      }
      if (round.digest != outcome.digest) ++outcome.failed;
      const double records = static_cast<double>(round.records);
      rates.push_back(ratio(records, round.write_s + round.read_s));
      writes.push_back(ratio(records, round.write_s));
      reads.push_back(ratio(records, round.read_s));
      setups.insert(setups.end(), round.setup_s.begin(), round.setup_s.end());
    });
    char line[256];
    std::snprintf(line, sizeof(line),
                  "spill_merge: 2^%d records, %zu measured reps; median write %.0f records/s, "
                  "merge read %.0f records/s",
                  scale, rates.size(), median(writes), median(reads));
    outcome.notes.emplace_back(line);
    std::string per_rep = "records/s per measured rep:";
    for (double rate : rates) per_rep += " " + std::to_string(static_cast<long long>(rate));
    outcome.notes.push_back(per_rep);
    metrics.set("targets_per_s", median(rates));
    metrics.set("setup_s", median(setups));
    metrics.set("iw_exact_share", exact_share);
    metrics.set("peak_rss_mib", peak_rss_mib());
    outcome.metrics = metrics.finish(false);
  } else {
    const SpillRound plain = spill_round(config, scale, nullptr);
    account(plain);
    Tracer tracer;
    const SpillRound traced = spill_round(config, scale, &tracer);
    account(traced);
    outcome.digest = traced.digest;
    if (traced.digest != plain.digest) ++outcome.failed;
    const double records = static_cast<double>(traced.records);
    const double append_s = tracer.seconds(Span::Append);
    const double next_s = tracer.seconds(Span::Next);
    metrics.set("store.append_s", append_s);
    metrics.set("store.ns_per_append", ratio(append_s * 1e9, records));
    metrics.set("store.segments", static_cast<double>(traced.segments));
    metrics.set("store.bytes_per_record", ratio(static_cast<double>(traced.bytes), records));
    metrics.set("store.open_s", tracer.seconds(Span::Open));
    metrics.set("store.next_s", next_s);
    metrics.set("store.ns_per_next",
                ratio(next_s * 1e9, static_cast<double>(tracer.calls(Span::Next))));
    const double plain_s = plain.write_s + plain.read_s;
    metrics.set("trace.overhead_share",
                ratio(traced.write_s + traced.read_s - plain_s, plain_s));
    const std::string trace_path =
        (fs::path(config.work_dir) / ("iwbench-trace-" + config.workload + ".json"))
            .string();
    if (tracer.write(trace_path)) outcome.notes.push_back("spans written to " + trace_path);
    outcome.metrics = metrics.finish(true);
  }
  outcome.correct = outcome.failed == 0;
  return outcome;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      std::string(kStatefulHttp.name), std::string(kSweepTlsCapped.name), "spill_merge"};
  return names;
}

Outcome run_workload(const RunConfig& config) {
  auto checked_scale = [&](int fallback, int low, int high) {
    const int scale = config.scale > 0 ? config.scale : fallback;
    if (scale < low || scale > high) {
      throw std::invalid_argument(config.workload + " scale must be in [" +
                                  std::to_string(low) + ", " + std::to_string(high) + "]");
    }
    return scale;
  };
  if (config.workload == "spill_merge") {
    return run_spill_merge(config, checked_scale(kSpillMergeScale, 10, 26));
  }
  for (const ScanWorkload* workload : {&kStatefulHttp, &kSweepTlsCapped}) {
    if (config.workload != workload->name) continue;
    // The synthetic AS registry supports 2^12 .. 2^24 addresses.
    const int scale = checked_scale(workload->scale, 12, 24);
    return config.trace ? run_scan_traced(config, *workload, scale)
                        : run_scan_untraced(config, *workload, scale);
  }
  throw std::invalid_argument("unknown workload: " + config.workload);
}

}  // namespace iwbench
