// Streaming report generation over spilled scan records. This is the
// read side of the bounded-memory contract (store/spill.hpp): the paper's
// Table 1 / Fig. 3 aggregates are folds, so a whole-IPv4 result set can be
// reduced through the K-way merge iterator one record at a time — peak RSS
// stays O(segment), never O(records). tools/iwmerge is the CLI wrapper.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "analysis/iw_table.hpp"
#include "core/result.hpp"
#include "store/spill.hpp"

namespace iwscan::analysis {

/// Everything the quickstart report needs, computed in one streaming pass.
struct SpillSummary {
  DatasetSummary summary;
  std::map<std::uint32_t, std::uint64_t> histogram;  // IW segments → hosts
  std::uint64_t records = 0;
  std::uint64_t seed = 0;  // scan seed stamped in the segment headers
};

/// Folds one merged record stream into a SpillSummary. The reader's own
/// error state (CRC mismatch, cycle regression) terminates the fold; check
/// `reader.ok()` afterwards.
[[nodiscard]] SpillSummary summarize_spill(
    store::MergeReader<core::HostScanRecord>& reader);

/// Convenience: collect spill inputs (files or directories), open the
/// merge and fold. Returns false with a diagnostic in `error` on any
/// integrity or identity failure (mixed seeds, overlapping shards,
/// corrupted segments).
[[nodiscard]] bool summarize_spill_files(const std::vector<std::string>& inputs,
                                         SpillSummary& out, std::string& error);

}  // namespace iwscan::analysis
