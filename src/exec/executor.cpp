#include "exec/executor.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <iterator>
#include <limits>
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

namespace iwscan::exec {

namespace {

// Must stay distinct from StatelessSweep's address (SweepConfig default):
// the two tiers run as separate flows so phase 1 cannot perturb phase 2.
constexpr net::IPv4Address kScannerAddress{192, 0, 2, 1};
constexpr std::size_t kChannelCapacity = 1024;
/// Responsive hosts buffered between the sweep and the engine before
/// backpressure pauses the sweep's SYN pacing.
constexpr std::size_t kPromotionQueueCapacity = 1024;

template <class Record>
struct TaggedRecord {
  std::uint64_t cycle = 0;  // global permutation-cycle index of the target
  Record record;
};

template <class Record>
using Run = std::vector<TaggedRecord<Record>>;

/// Promoted hosts awaiting phase 2, in cycle order: (target, cycle index).
using PromotionList = std::vector<scan::ListTargetSource::Entry>;

enum class Stage : std::uint8_t {
  Scan,    // stateful: the engine walks the worker's stride
  Stream,  // two-phase: the sweep walks the stride and feeds the engine live
  Sweep,   // capped phase 1: the sweep alone
  Probe,   // capped phase 2: the engine over a promotion list
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
  std::uint64_t promoted = 0;  // Stream: hosts the sweep fed the engine
  PromotionList responsive;    // Sweep: every responsive host, cycle order
  Run<core::HostScanRecord> records;  // in-memory sinks
  Run<scan::SweepRecord> sweep_records;
  std::string spill_file;  // spill sinks
  std::string sweep_spill_file;
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

/// The live hand-off between the sweep and the engine (Stream stage).
/// Single-threaded by construction: both endpoints live on one event loop,
/// so push/next/close never race and need no lock.
class PromotionSource final : public scan::TargetSource {
 public:
  [[nodiscard]] Pull next(net::IPv4Address& target, std::uint64_t& cycle) override {
    if (queue_.empty()) return closed_ ? Pull::Exhausted : Pull::Pending;
    target = queue_.front().first;
    cycle = queue_.front().second;
    queue_.pop_front();
    if (on_drain_) on_drain_();  // room again — un-throttle the sweep
    return Pull::Ready;
  }

  void set_wakeup(std::function<void()> wakeup) override {
    wakeup_ = std::move(wakeup);
  }

  void push(net::IPv4Address ip, std::uint64_t cycle) {
    queue_.emplace_back(ip, cycle);
    if (wakeup_) wakeup_();
  }

  /// No further pushes will ever happen (the sweep completed).
  void close() {
    closed_ = true;
    if (wakeup_) wakeup_();
  }

  [[nodiscard]] bool full() const noexcept {
    return queue_.size() >= kPromotionQueueCapacity;
  }

  void set_on_drain(std::function<void()> on_drain) {
    on_drain_ = std::move(on_drain);
  }

 private:
  std::deque<scan::ListTargetSource::Entry> queue_;
  bool closed_ = false;
  std::function<void()> wakeup_;
  std::function<void()> on_drain_;
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

/// Upper bound on the records a stride can emit, scaled by the sample
/// fraction. Pre-sizes the in-memory run so the record path never
/// reallocates mid-scan (pinned in tests/alloc_budget_test.cpp).
std::size_t expected_records(const ScanJob& job, std::uint64_t address_space,
                             Stride stride) {
  const std::uint64_t slice = (address_space + stride.total - 1) / stride.total;
  if (job.sample_fraction >= 1.0) return static_cast<std::size_t>(slice);
  return static_cast<std::size_t>(static_cast<double>(slice) * job.sample_fraction) +
         1;
}

/// Closes a spill writer. An I/O failure (disk full, unwritable directory)
/// lands in `error` and yields no path.
template <class Record>
std::string finish_spill(store::SpillWriter<Record>& writer, std::string& error) {
  if (writer.close()) return writer.path();
  if (error.empty()) error = writer.error();
  return {};
}

/// Where one worker writes one record kind: an in-memory run the caller
/// merges, or the worker's own spill file.
template <class Record>
class RecordSink {
 public:
  RecordSink(const ScanJob& job, Stride stride, std::size_t expected) {
    if (job.spill_dir.empty()) {
      run_.reserve(expected);
    } else {
      spill_.emplace(spill_config_for(job, stride));
    }
  }

  void append(std::uint64_t cycle, const Record& record) {
    if (spill_) {
      spill_->append(cycle, record);
    } else {
      run_.push_back({cycle, record});
    }
  }

  void hand_off(Run<Record>& run, std::string& spill_file, std::string& error) {
    if (spill_) {
      spill_file = finish_spill(*spill_, error);
    } else {
      run = std::move(run_);
    }
  }

 private:
  Run<Record> run_;
  std::optional<store::SpillWriter<Record>> spill_;
};

/// One worker, one stage: drives the sweep and/or the engine over this
/// worker's targets on `network` until both are done.
WorkerDone run_worker(const ScanJob& job, const ShardSpec& spec, Stage stage,
                      sim::Network& network, PromotionList promoted,
                      BoundedChannel<Message>& channel) {
  WorkerDone done;
  done.worker = spec.shard;
  const Stride stride = stride_of(job, spec);
  auto stride_targets = [&] {
    return scan::TargetGenerator(job.allow, job.block, job.scan_seed,
                                 job.sample_fraction, stride.shard, stride.total);
  };

  std::optional<scan::GeneratorTargetSource> walked;
  PromotionSource live;
  scan::ListTargetSource listed(std::move(promoted));
  SweepCollector collector;
  std::optional<scan::StatelessSweep> sweep;
  if (stage == Stage::Scan) {
    walked.emplace(stride_targets());
  } else if (stage != Stage::Probe) {
    sweep.emplace(network, sweep_config_for(job, spec), stride_targets(),
                  [&](const scan::SweepEvent& event) {
                    collector.on_event(event);
                    if (stage == Stage::Stream &&
                        event.kind == scan::SweepEventKind::Responsive) {
                      live.push(event.source, event.cycle);
                      ++done.promoted;
                    }
                  });
  }
  if (stage == Stage::Stream) {
    sweep->set_throttle([&live] { return live.full(); });
    live.set_on_drain([&sweep] { sweep->wake(); });
    sweep->set_on_complete([&live] { live.close(); });
  }

  std::optional<RecordSink<core::HostScanRecord>> hosts;
  std::optional<core::IwProbeModule> module;
  std::optional<scan::ScanEngine> engine;
  std::unordered_map<net::IPv4Address, std::uint64_t> cycle_of;
  std::uint64_t completed = 0;
  if (stage != Stage::Sweep) {
    hosts.emplace(job, stride,
                  walked ? expected_records(job, walked->size_hint(), stride)
                         : listed.size_hint());
    module.emplace(job.probe, [&](const core::HostScanRecord& record) {
      const auto it = cycle_of.find(record.ip);
      const std::uint64_t cycle = it == cycle_of.end() ? 0 : it->second;
      if (it != cycle_of.end()) cycle_of.erase(it);  // one record per host
      hosts->append(cycle, record);
      ++done.tick.completed;
      if (job.progress && job.progress_interval > 0 &&
          ++completed % job.progress_interval == 0) {
        channel.push(std::exchange(done.tick, Tick{}));
      }
    });
    scan::TargetSource& source = walked ? static_cast<scan::TargetSource&>(*walked)
                                 : stage == Stage::Stream
                                     ? static_cast<scan::TargetSource&>(live)
                                     : listed;
    engine.emplace(network, engine_config_for(job, spec), source, *module);
    engine->set_launch_observer([&](net::IPv4Address ip, std::uint64_t cycle) {
      cycle_of[ip] = cycle;
      ++done.tick.launched;
    });
  }

  const sim::SimTime start = network.loop().now();
  if (sweep) sweep->start();
  if (engine) engine->start();
  while (((sweep && !sweep->done()) || (engine && !engine->done())) &&
         network.loop().step()) {
  }
  done.duration = network.loop().now() - start;

  if (sweep) {
    done.sweep = sweep->stats();
    std::vector<scan::SweepRecord> swept = collector.take_sorted();
    RecordSink<scan::SweepRecord> sink(job, stride, swept.size());
    for (const scan::SweepRecord& record : swept) {
      sink.append(record.cycle, record);
      if (stage == Stage::Sweep && record.responsive) {
        done.responsive.emplace_back(record.ip, record.cycle);
      }
    }
    sink.hand_off(done.sweep_records, done.sweep_spill_file, done.error);
  }
  if (engine) {
    done.engine = engine->stats();
    hosts->hand_off(done.records, done.spill_file, done.error);
  }
  return done;
}

/// Concatenates the workers' runs and sorts them once by cycle index.
/// Cycle indices are unique across workers (each owns one stride), so this
/// recovers the shards=1 emission order.
template <class Record>
std::vector<Record> sorted_records(std::vector<Run<Record>>& runs) {
  if (runs.empty()) return {};
  std::size_t total = 0;
  for (const Run<Record>& run : runs) total += run.size();
  Run<Record> tagged = std::move(runs.front());
  tagged.reserve(total);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    tagged.insert(tagged.end(), std::make_move_iterator(runs[i].begin()),
                  std::make_move_iterator(runs[i].end()));
    Run<Record>().swap(runs[i]);
  }
  std::sort(tagged.begin(), tagged.end(),
            [](const TaggedRecord<Record>& a, const TaggedRecord<Record>& b) {
              return a.cycle < b.cycle;
            });
  std::vector<Record> records;
  records.reserve(tagged.size());
  for (TaggedRecord<Record>& entry : tagged) records.push_back(std::move(entry.record));
  return records;
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
  ScanResult result;
  result.address_space = scan::TargetGenerator(job.allow, job.block, job.scan_seed,
                                               job.sample_fraction)
                             .address_space_size();
  const ShardPlan plan = ShardPlan::make(job.shards, job.rate_pps, job.max_outstanding);
  const std::uint64_t workers = plan.shards.size();
  const bool capped = job.two_phase && job.max_promoted_hosts > 0;
  const model::ModelConfig model_config = internet.config();

  // Declared before the pool, so they outlive every task. A private world
  // lives from its worker's first stage to the end of its last one.
  BoundedChannel<Message> channel(kChannelCapacity);
  std::vector<std::unique_ptr<PrivateWorld>> worlds(workers);
  std::vector<Run<core::HostScanRecord>> host_runs;
  std::vector<Run<scan::SweepRecord>> sweep_runs;
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
        WorkerDone done = run_worker(job, spec, stage,
                                     world ? world->network : network,
                                     std::move(list), channel);
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
      if (stage != Stage::Sweep) add_stats(result.engine, fin.engine, first);
      if (stage == Stage::Stream || stage == Stage::Sweep) {
        add_stats(result.sweep, fin.sweep, first);
      }
      result.promoted += fin.promoted;
      slowest = std::max(slowest, fin.duration);
      if (!fin.spill_file.empty()) {
        result.spill_files.push_back(std::move(fin.spill_file));
      }
      if (!fin.sweep_spill_file.empty()) {
        result.sweep_spill_files.push_back(std::move(fin.sweep_spill_file));
      }
      if (result.error.empty()) result.error = std::move(fin.error);
      host_runs.push_back(std::move(fin.records));
      sweep_runs.push_back(std::move(fin.sweep_records));
    }
    result.duration += slowest;
    return done;
  };

  const Stage first_stage =
      capped ? Stage::Sweep : job.two_phase ? Stage::Stream : Stage::Scan;
  std::vector<WorkerDone> phase1 =
      run_stage(first_stage, std::vector<PromotionList>(workers));
  if (capped) {
    // Cycle indices are globally unique, so the K-th smallest responsive
    // cycle is the exact truncation threshold for any worker count.
    std::vector<std::uint64_t> cycles;
    for (const WorkerDone& fin : phase1) {
      for (const scan::ListTargetSource::Entry& entry : fin.responsive) {
        cycles.push_back(entry.second);
      }
    }
    const std::uint64_t responsive = cycles.size();
    result.promoted = std::min<std::uint64_t>(responsive, job.max_promoted_hosts);
    result.truncated = responsive - result.promoted;
    std::uint64_t threshold = std::numeric_limits<std::uint64_t>::max();
    if (result.truncated > 0) {
      const auto kth = cycles.begin() + static_cast<std::ptrdiff_t>(result.promoted - 1);
      std::nth_element(cycles.begin(), kth, cycles.end());
      threshold = *kth;
    }
    std::vector<PromotionList> lists;
    for (WorkerDone& fin : phase1) {
      std::erase_if(fin.responsive,
                    [threshold](const scan::ListTargetSource::Entry& entry) {
                      return entry.second > threshold;
                    });
      lists.push_back(std::move(fin.responsive));
    }
    run_stage(Stage::Probe, std::move(lists));
  }

  result.records = sorted_records(host_runs);
  result.sweep_records = sorted_records(sweep_runs);
  return result;
}

}  // namespace iwscan::exec
