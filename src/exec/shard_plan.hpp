// Shard planning: how one logical scan is split across worker threads.
//
// Shards partition the permutation cycle by stride (shard k of n visits
// indices k, k+n, k+2n, … — exactly ZMap's multi-scanner sharding), so
// every shard shares the same allowlist/blocklist/seed verbatim and the
// partition is disjoint by construction. What *is* divided is the resource
// budget: each worker gets an equal slice of the global packet rate and of
// the outstanding-session cap, so shards=N never exceeds the footprint the
// caller configured for shards=1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace iwscan::exec {

struct ShardSpec {
  std::uint64_t shard = 0;
  std::uint64_t total_shards = 1;
  double rate_pps = 0;             // this worker's share of the global rate
  std::size_t max_outstanding = 1; // this worker's share of the session cap
};

struct ShardPlan {
  std::vector<ShardSpec> shards;

  /// Divides the global rate and session budget evenly over `total_shards`
  /// workers (at least one; per-shard max_outstanding at least one).
  [[nodiscard]] static ShardPlan make(std::uint64_t total_shards, double rate_pps,
                                      std::size_t max_outstanding);
};

/// Parses a process-shard spec "i/N" (this process scans stride i of N)
/// into `shard` and `total`. Returns false, leaving both untouched, unless
/// the text is exactly two unsigned integers with i < N.
[[nodiscard]] bool parse_shard_spec(std::string_view text, std::uint64_t& shard,
                                    std::uint64_t& total);

}  // namespace iwscan::exec
