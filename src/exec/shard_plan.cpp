#include "exec/shard_plan.hpp"

#include <algorithm>

#include "util/strings.hpp"

namespace iwscan::exec {

ShardPlan ShardPlan::make(std::uint64_t total_shards, double rate_pps,
                          std::size_t max_outstanding) {
  const std::uint64_t count = total_shards == 0 ? 1 : total_shards;
  ShardPlan plan;
  plan.shards.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    ShardSpec spec;
    spec.shard = k;
    spec.total_shards = count;
    spec.rate_pps = rate_pps / static_cast<double>(count);
    spec.max_outstanding =
        std::max<std::size_t>(1, max_outstanding / static_cast<std::size_t>(count));
    plan.shards.push_back(spec);
  }
  return plan;
}

bool parse_shard_spec(std::string_view text, std::uint64_t& shard,
                      std::uint64_t& total) {
  const auto parts = util::split(text, '/');
  if (parts.size() != 2) return false;
  const auto i = util::parse_u64(parts[0]);
  const auto n = util::parse_u64(parts[1]);
  if (!i.has_value() || !n.has_value() || *n == 0 || *i >= *n) return false;
  shard = *i;
  total = *n;
  return true;
}

}  // namespace iwscan::exec
