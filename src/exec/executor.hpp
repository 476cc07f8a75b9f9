// The scan executor: one engine drives every survey.
//
// Every scan — stateful or two-phase, records in RAM or spilled, shards=1
// included — runs as N workers on the ThreadPool. A worker drives one
// ScanEngine over a scan::TargetSource and writes its records into its own
// store::SpillWriter, which sorts them into segments on the worker's
// thread: a file under spill_dir, or, without one, segments kept in memory
// that the calling thread merges into ScanResult::records with the same
// K-way merge that reads spill files back. An engine pulls from one of two
// sources:
//
//   stride    stateful: the worker's stride of the TargetGenerator;
//   promoted  two-phase phase 2: a ListTargetSource of the worker's share
//             of the responsive hosts.
//
// Two-phase always runs the sweep first — the ZBanner split (PAPERS.md):
// phase 1 sweeps every worker's stride with a StatelessSweep to its
// cooldown, the caller cuts the responsive hosts to max_promoted_hosts (the
// K smallest global cycle indices), and phase 2 probes each worker's share
// on the world phase 1 swept.
//
// Byte-identical output for any N rests on three legs:
//   1. per-target determinism upstream — session seeds, source ports
//      (scan::SessionServices) and path impairments (sim::Network per-flow
//      RNGs) depend only on (seed, target), never on launch interleaving;
//   2. identically-seeded worlds — shards=1 runs on the caller's world;
//      shards>1 gives each worker a private copy seeded like it, and host
//      behavior depends only on time *since its first packet*, so per-shard
//      pacing differences cannot leak into records. The sweep scans from its
//      own source address, so running it first cannot perturb phase 2;
//   3. a total merge order — every record is tagged with its target's
//      global permutation-cycle index (see PermutationIterator).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/host_prober.hpp"
#include "exec/progress.hpp"
#include "inetmodel/internet.hpp"
#include "scanner/scan_engine.hpp"
#include "scanner/stateless.hpp"

namespace iwscan::exec {

/// One scan. analysis::ScanOptions extends it with the protocol and
/// address-space choices run_iw_scan resolves into `probe` and `allow`.
struct ScanJob {
  core::IwScanConfig probe;           // protocol/port must already be resolved
  double rate_pps = 150'000;          // paper's moderate rate (§3.4); global
  double sample_fraction = 1.0;  // in (0, 1]; §4.1: 0.01 = "1% is enough"
  std::uint64_t scan_seed = 7;
  std::size_t max_outstanding = 20'000;  // global session cap
  scan::SessionBudget budget;  // per-session graceful-degradation caps
  std::vector<net::Cidr> allow;
  std::vector<net::Cidr> block;  // never probed (ZMap ethics model)
  // Worker count. Rates and the session cap are divided evenly across
  // workers; the merged output is byte-identical for any value on a fresh
  // world with the same seeds.
  std::uint64_t shards = 1;
  // Multi-process operator mode (ZMap-style --shard i/N --seed S): this
  // process owns the permutation residue `process_shard` (mod
  // `process_shards`); workers subdivide that stride further. Cycle indices
  // stay global, so spill files from all processes merge back into the
  // single-process record order (tools/iwmerge).
  std::uint64_t process_shard = 0;
  std::uint64_t process_shards = 1;
  // Two-phase mode: a stateless sweep covers the space and only responsive
  // hosts are promoted into the stateful IW estimator. Records are
  // byte-identical to a stateful-everywhere scan restricted to that set.
  bool two_phase = false;
  double sweep_rate_pps = 600'000;  // phase-1 SYN rate (global)
  // 0 promotes every responsive host; K>0 caps phase 2 at the K responsive
  // hosts with the lowest global permutation-cycle indices, for any worker
  // count. With process_shards>1
  // the cap is per process: processes cannot see each other's sweeps.
  std::uint64_t max_promoted_hosts = 0;
  // Bounded-memory result path: when non-empty, each worker streams its
  // records into columnar spill files under this directory instead of RAM —
  // RSS stays O(spill_segment_bytes) per worker, not O(targets). Read them
  // back with store::open_merge or tools/iwmerge. The files must not exist
  // yet: two scans into one directory are an error, not an overwrite.
  std::string spill_dir;
  std::size_t spill_segment_bytes = 1u << 20;
  ProgressFn progress;  // optional; invoked on the calling thread
  std::uint64_t progress_interval = 1024;  // records per worker between ticks
};

struct ScanResult {
  std::vector<core::HostScanRecord> records;  // permutation-cycle order
  scan::EngineStats engine;                   // summed over workers
  sim::SimTime duration{};  // virtual time: slowest worker, summed over phases
  std::uint64_t address_space = 0;            // allowlist size
  // Two-phase mode only (empty/zero otherwise):
  std::vector<scan::SweepRecord> sweep_records;  // phase-1 output, cycle order
  scan::SweepStats sweep;
  std::uint64_t promoted = 0;   // responsive hosts handed to phase 2
  std::uint64_t truncated = 0;  // responsive hosts dropped by the cap
  // Spill mode only (records/sweep_records stay empty): one file per worker
  // and record kind, in worker order.
  std::vector<std::string> spill_files;
  std::vector<std::string> sweep_spill_files;
  // Non-empty when a spill file could not be written (disk full, unwritable
  // directory); that worker's records are lost and its file is not listed.
  std::string error;
};

/// Runs the scan to completion. shards<=1 executes on the caller's world;
/// shards>1 leaves it untouched and builds one identically-seeded private
/// world per worker, so the merged output is byte-identical to a shards=1
/// run on a fresh world with the same seeds.
[[nodiscard]] ScanResult run_scan(const ScanJob& job, sim::Network& network,
                                  model::InternetModel& internet);

}  // namespace iwscan::exec
