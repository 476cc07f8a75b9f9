#include "exec/executor.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <variant>

#include "exec/channel.hpp"
#include "exec/shard_plan.hpp"
#include "exec/thread_pool.hpp"
#include "store/spill.hpp"
#include "util/check.hpp"

namespace iwscan::exec {

namespace {

// Must stay distinct from StatelessSweep's address (SweepConfig default):
// the two tiers run as separate flows so phase 1 cannot perturb phase 2.
constexpr net::IPv4Address kScannerAddress{192, 0, 2, 1};
constexpr std::size_t kChannelCapacity = 1024;

/// Promoted hosts awaiting phase 2, in cycle order: (target, cycle index).
using PromotionList = std::vector<scan::ListTargetSource::Entry>;

enum class Stage : std::uint8_t {
  Scan,   // stateful: the engine walks the worker's stride
  Sweep,  // two-phase phase 1: the sweep walks the worker's stride
  Probe,  // two-phase phase 2: the engine over the worker's promoted hosts
};

/// Launches and completed records since the worker's previous report.
struct Tick {
  std::uint64_t launched = 0;
  std::uint64_t completed = 0;
};

/// A worker's last message of a stage: everything it produced.
struct WorkerDone {
  std::uint64_t worker = 0;
  Tick tick;
  scan::EngineStats engine;
  scan::SweepStats sweep;
  sim::SimTime duration{};
  PromotionList responsive;  // Sweep: every responsive host, cycle order
  std::string spill_file;  // spill mode: the worker's files
  std::string sweep_spill_file;
  store::SegmentReader<core::HostScanRecord> segments;  // RAM: its segments
  store::SegmentReader<scan::SweepRecord> sweep_segments;
  std::string error;
};

using Message = std::variant<Tick, WorkerDone>;

/// An identically-seeded private copy of the caller's world (shards>1).
struct PrivateWorld {
  sim::EventLoop loop;
  sim::Network network;
  model::InternetModel internet;

  PrivateWorld(const sim::Network& reference, const model::ModelConfig& config)
      : network(loop, reference.seed()), internet(network, config) {
    network.set_default_path(reference.default_path());
    internet.install();
  }
};

/// Folds a cycle's sweep events (Responsive, then possibly Banner; or
/// Closed) into one SweepRecord per host.
class SweepCollector {
 public:
  void on_event(const scan::SweepEvent& event) {
    scan::SweepRecord& record = by_cycle_[event.cycle];
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
  }

  [[nodiscard]] std::vector<scan::SweepRecord> take_sorted() {
    std::vector<scan::SweepRecord> records;
    records.reserve(by_cycle_.size());
    for (auto& [cycle, record] : by_cycle_) records.push_back(std::move(record));
    by_cycle_.clear();
    std::sort(records.begin(), records.end(),
              [](const scan::SweepRecord& a, const scan::SweepRecord& b) {
                return a.cycle < b.cycle;
              });
    return records;
  }

 private:
  std::unordered_map<std::uint64_t, scan::SweepRecord> by_cycle_;
};

/// A worker's stride of the global permutation: the process's residue,
/// subdivided by worker.
struct Stride {
  std::uint64_t shard = 0;
  std::uint64_t total = 1;
};

Stride stride_of(const ScanJob& job, const ShardSpec& spec) {
  return {job.process_shard + job.process_shards * spec.shard,
          job.process_shards * spec.total_shards};
}

scan::TargetGenerator stride_targets(const ScanJob& job, Stride stride) {
  return scan::TargetGenerator(job.allow, job.block, job.scan_seed, job.sample_fraction,
                               stride.shard, stride.total);
}

scan::EngineConfig engine_config_for(const ScanJob& job, const ShardSpec& spec) {
  scan::EngineConfig config;
  config.scanner_address = kScannerAddress;
  config.rate_pps = spec.rate_pps;
  config.max_outstanding = spec.max_outstanding;
  config.seed = job.scan_seed;
  config.budget = job.budget;
  return config;
}

scan::SweepConfig sweep_config_for(const ScanJob& job, const ShardSpec& spec) {
  scan::SweepConfig config;  // scanner_address/source_port keep their defaults
  config.target_port = job.probe.port;
  config.rate_pps = job.sweep_rate_pps / static_cast<double>(spec.total_shards);
  config.seed = job.scan_seed;
  return config;
}

store::SpillConfig spill_config_for(const ScanJob& job, Stride stride) {
  store::SpillConfig config;
  config.directory = job.spill_dir;
  config.segment_bytes = job.spill_segment_bytes;
  config.seed = job.scan_seed;
  config.shard = static_cast<std::uint32_t>(stride.shard);
  config.total_shards = static_cast<std::uint32_t>(stride.total);
  return config;
}

/// Closes a worker's writer and hands off what it wrote: its file (spill
/// mode) or its sorted segments in memory, opened for the caller's merge.
/// An I/O failure (disk full, unwritable directory) lands in `error` and
/// yields no file.
template <class Record>
void hand_off(store::SpillWriter<Record>& writer, std::string& file,
              store::SegmentReader<Record>& segments, std::string& error) {
  if (!writer.close()) {
    error = writer.error();
  } else if (segments.open(writer.take_segments(), &error)) {
    file = writer.path();
  }
}

/// Starts a sweep or an engine and steps its loop until it is done;
/// returns the virtual time that took.
template <class Tier>
sim::SimTime run_to_done(Tier& tier, sim::EventLoop& loop) {
  const sim::SimTime start = loop.now();
  tier.start();
  while (!tier.done() && loop.step()) {
  }
  return loop.now() - start;
}

/// Phase 1 on one worker: sweeps its stride, writes the sweep records and
/// lists the responsive hosts in cycle order.
WorkerDone sweep_worker(const ScanJob& job, const ShardSpec& spec,
                        sim::Network& network) {
  WorkerDone done;
  done.worker = spec.shard;
  const Stride stride = stride_of(job, spec);
  SweepCollector collector;
  scan::StatelessSweep sweep(
      network, sweep_config_for(job, spec), stride_targets(job, stride),
      [&](const scan::SweepEvent& event) { collector.on_event(event); });
  done.duration = run_to_done(sweep, network.loop());
  done.sweep = sweep.stats();
  store::SpillWriter<scan::SweepRecord> sink(spill_config_for(job, stride));
  for (const scan::SweepRecord& record : collector.take_sorted()) {
    sink.append(record.cycle, record);
    if (record.responsive) done.responsive.emplace_back(record.ip, record.cycle);
  }
  hand_off(sink, done.sweep_spill_file, done.sweep_segments, done.error);
  return done;
}

/// A stateful scan (Scan: the worker's stride) or phase 2 (Probe: its
/// promoted hosts) on one worker; progress ticks go to `channel`.
WorkerDone engine_worker(const ScanJob& job, const ShardSpec& spec, Stage stage,
                         sim::Network& network, PromotionList promoted,
                         BoundedChannel<Message>& channel) {
  WorkerDone done;
  done.worker = spec.shard;
  const Stride stride = stride_of(job, spec);
  std::optional<scan::GeneratorTargetSource> walked;
  if (stage == Stage::Scan) walked.emplace(stride_targets(job, stride));
  scan::ListTargetSource listed(std::move(promoted));
  scan::TargetSource& source =
      walked ? static_cast<scan::TargetSource&>(*walked) : listed;

  store::SpillWriter<core::HostScanRecord> hosts(spill_config_for(job, stride));
  std::unordered_map<net::IPv4Address, std::uint64_t> cycle_of;
  std::uint64_t completed = 0;
  core::IwProbeModule module(job.probe, [&](const core::HostScanRecord& record) {
    const auto it = cycle_of.find(record.ip);
    const std::uint64_t cycle = it == cycle_of.end() ? 0 : it->second;
    if (it != cycle_of.end()) cycle_of.erase(it);  // one record per host
    hosts.append(cycle, record);
    ++done.tick.completed;
    if (job.progress && job.progress_interval > 0 &&
        ++completed % job.progress_interval == 0) {
      channel.push(std::exchange(done.tick, Tick{}));
    }
  });
  scan::ScanEngine engine(network, engine_config_for(job, spec), source, module);
  engine.set_launch_observer([&](net::IPv4Address ip, std::uint64_t cycle) {
    cycle_of[ip] = cycle;
    ++done.tick.launched;
  });
  done.duration = run_to_done(engine, network.loop());
  done.engine = engine.stats();
  hand_off(hosts, done.spill_file, done.segments, done.error);
  return done;
}

/// The hand-off from phase 1 to phase 2: each worker's responsive hosts,
/// cut to the job's cap. Cycle indices are globally unique, so the K-th
/// smallest responsive cycle is the exact truncation threshold for any
/// worker count. max_promoted_hosts == 0 promotes every responsive host.
std::vector<PromotionList> promote(const ScanJob& job, std::vector<WorkerDone>& swept,
                                   ScanResult& result) {
  std::vector<PromotionList> lists;
  std::vector<std::uint64_t> cycles;
  for (WorkerDone& fin : swept) {
    for (const scan::ListTargetSource::Entry& entry : fin.responsive) {
      cycles.push_back(entry.second);
    }
    lists.push_back(std::move(fin.responsive));
  }
  const std::uint64_t responsive = cycles.size();
  result.promoted = job.max_promoted_hosts == 0
                        ? responsive
                        : std::min<std::uint64_t>(responsive, job.max_promoted_hosts);
  result.truncated = responsive - result.promoted;
  if (result.truncated == 0) return lists;
  const auto kth = cycles.begin() + static_cast<std::ptrdiff_t>(result.promoted - 1);
  std::nth_element(cycles.begin(), kth, cycles.end());
  const std::uint64_t threshold = *kth;
  for (PromotionList& list : lists) {
    std::erase_if(list, [threshold](const scan::ListTargetSource::Entry& entry) {
      return entry.second > threshold;
    });
  }
  return lists;
}

/// Adds one worker's stats to the total; the first assigns, so the time
/// window is the workers' own envelope.
template <class Stats>
void add_stats(Stats& total, const Stats& part, bool first) {
  if (first) {
    total = part;
  } else {
    total += part;
  }
}

}  // namespace

ScanResult run_scan(const ScanJob& job, sim::Network& network,
                    model::InternetModel& internet) {
  IWSCAN_ASSERT(scan::sample_fraction_supported(job.sample_fraction),
                "sample_fraction must be in (0, 1]");
  ScanResult result;
  result.address_space = scan::TargetGenerator(job.allow, job.block, job.scan_seed,
                                               job.sample_fraction)
                             .address_space_size();
  const ShardPlan plan = ShardPlan::make(job.shards, job.rate_pps, job.max_outstanding);
  const std::uint64_t workers = plan.shards.size();
  const model::ModelConfig model_config = internet.config();

  // Declared before the pool, so they outlive every task. A private world
  // lives from its worker's first stage to the end of its last one.
  BoundedChannel<Message> channel(kChannelCapacity);
  std::vector<std::unique_ptr<PrivateWorld>> worlds(workers);
  std::vector<store::SegmentReader<core::HostScanRecord>> host_runs;
  std::vector<store::SegmentReader<scan::SweepRecord>> sweep_runs;
  ThreadPool pool(std::min<std::size_t>(
      workers, std::max<std::size_t>(1, std::thread::hardware_concurrency())));

  Tick totals;
  std::uint64_t workers_done = 0;
  auto report = [&] {
    if (!job.progress) return;
    ProgressSnapshot snap;
    snap.targets_started = totals.launched;
    snap.records_merged = totals.completed;
    snap.outstanding = totals.launched - totals.completed;
    snap.shards_done = workers_done;
    snap.shards_total = workers;
    job.progress(snap);
  };

  // Runs one stage on every worker and folds what they report into
  // `result`, in worker order; returns the stage's WorkerDone messages.
  auto run_stage = [&](Stage stage, std::vector<PromotionList> lists) {
    for (const ShardSpec& spec : plan.shards) {
      pool.submit([&, spec, stage, list = std::move(lists[spec.shard])]() mutable {
        std::unique_ptr<PrivateWorld>& world = worlds[spec.shard];
        if (workers > 1 && !world) {
          world = std::make_unique<PrivateWorld>(network, model_config);
        }
        sim::Network& fabric = world ? world->network : network;
        WorkerDone done =
            stage == Stage::Sweep
                ? sweep_worker(job, spec, fabric)
                : engine_worker(job, spec, stage, fabric, std::move(list), channel);
        if (stage != Stage::Sweep) world.reset();  // the worker's last stage
        channel.push(std::move(done));
      });
    }
    std::vector<WorkerDone> done(workers);
    for (std::uint64_t pending = workers; pending > 0;) {
      Message message = *channel.pop();  // never closed: every worker reports
      if (const Tick* tick = std::get_if<Tick>(&message)) {
        totals.launched += tick->launched;
        totals.completed += tick->completed;
        report();
        continue;
      }
      WorkerDone& fin = std::get<WorkerDone>(message);
      totals.launched += fin.tick.launched;
      totals.completed += fin.tick.completed;
      --pending;
      if (stage != Stage::Sweep) {
        ++workers_done;
        report();
      }
      done[fin.worker] = std::move(fin);
    }
    sim::SimTime slowest{};
    for (WorkerDone& fin : done) {  // fixed worker order, schedule-independent
      const bool first = &fin == &done.front();
      if (stage == Stage::Sweep) {
        add_stats(result.sweep, fin.sweep, first);
      } else {
        add_stats(result.engine, fin.engine, first);
      }
      slowest = std::max(slowest, fin.duration);
      if (!fin.spill_file.empty()) {
        result.spill_files.push_back(std::move(fin.spill_file));
      }
      if (!fin.sweep_spill_file.empty()) {
        result.sweep_spill_files.push_back(std::move(fin.sweep_spill_file));
      }
      if (result.error.empty()) result.error = std::move(fin.error);
      host_runs.push_back(std::move(fin.segments));
      sweep_runs.push_back(std::move(fin.sweep_segments));
    }
    result.duration += slowest;
    return done;
  };

  if (job.two_phase) {
    std::vector<WorkerDone> swept =
        run_stage(Stage::Sweep, std::vector<PromotionList>(workers));
    run_stage(Stage::Probe, promote(job, swept, result));
  } else {
    run_stage(Stage::Scan, std::vector<PromotionList>(workers));
  }

  // One K-way merge by cycle index, the one that reads spill files back,
  // turns the workers' in-memory segments into the records. Cycle indices
  // are unique across workers (each owns one stride), so this recovers the
  // shards=1 emission order. In spill mode every run is empty, and so are
  // the records.
  std::string merge_error;
  if (!store::read_merged(std::move(host_runs), result.records, &merge_error) ||
      !store::read_merged(std::move(sweep_runs), result.sweep_records, &merge_error)) {
    if (result.error.empty()) result.error = std::move(merge_error);
  }
  return result;
}

}  // namespace iwscan::exec
