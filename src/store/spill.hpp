// The record path of every scan: append-only spill writers, segment
// readers, and the K-way merge that reconstructs the global record order
// (DESIGN.md §10).
//
// SpillWriter caps a writer's working set at O(segment): records
// accumulate in a fixed-capacity buffer, and when it fills the buffer is
// sorted by global permutation-cycle index and flushed as one
// self-describing, CRC-guarded segment (store/spill_format.hpp). A writer
// with a directory flushes into a file there; one without keeps its
// segments in memory. Every segment is a sorted run either way, so reading
// records back — from files, from memory, or both — is one K-way heap merge
// over all segments of all shards. Cycle indices are globally unique, which
// makes the merged stream byte-identical to what a single-process
// single-thread scan would have produced, for any {process × thread}
// sharding.
//
// Hot-path contract (iwlint): SpillWriter::append and SegmentReader::next
// are IWSCAN_HOT roots — no allocation, no locking, no syscalls per
// record. The segment flush (sort + encode + CRC + buffered write) is the
// audited IWSCAN_HOT_BOUNDARY; it reuses its scratch buffers' capacity, so
// steady-state appends stay allocation-free (tests/alloc_budget_test.cpp).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netbase/wire.hpp"
#include "store/crc32.hpp"
#include "store/spill_format.hpp"
#include "util/annotations.hpp"

namespace iwscan::store {

struct SpillConfig {
  std::string directory;  // created if missing; empty keeps segments in memory
  std::size_t segment_bytes = kDefaultSegmentBytes;
  std::uint64_t seed = 0;  // scan seed, stamped into every segment header
  std::uint32_t shard = 0;
  std::uint32_t total_shards = 1;
};

/// Canonical file name for one shard's spill of one record kind, e.g.
/// "host-00002-of-00008.iwspill".
[[nodiscard]] std::string spill_file_name(RecordKind kind, std::uint32_t shard,
                                          std::uint32_t total_shards);

/// dir + "/" + name (no-op join when dir is empty).
[[nodiscard]] std::string join_path(const std::string& dir, const std::string& name);

/// True iff the two permutation strides intersect: shard_a (mod total_a)
/// and shard_b (mod total_b) share a residue class exactly when
/// shard_a ≡ shard_b (mod gcd(total_a, total_b)).
[[nodiscard]] bool shards_overlap(std::uint32_t shard_a, std::uint32_t total_a,
                                  std::uint32_t shard_b, std::uint32_t total_b);

/// Expands inputs (spill files or directories containing them) into the
/// sorted list of files of `kind`, matched by file-name prefix.
[[nodiscard]] bool collect_spill_files(const std::vector<std::string>& inputs,
                                       RecordKind kind,
                                       std::vector<std::string>& files,
                                       std::string* error);

namespace detail {

/// Buffered append-only segment sink: a file opened with exclusive create,
/// or, until open() is called, a byte buffer in memory. Keeps cstdio out of
/// the templates so the flush path stays one audited syscall site.
class FileSink {
 public:
  FileSink() = default;
  ~FileSink();
  FileSink(const FileSink&) = delete;
  FileSink& operator=(const FileSink&) = delete;

  [[nodiscard]] bool open(const std::string& path, std::string* error);
  void write(std::span<const std::uint8_t> bytes);
  [[nodiscard]] bool close();
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  /// What an in-memory sink holds (nothing for a file).
  [[nodiscard]] net::Bytes take_memory() noexcept { return std::move(memory_); }

 private:
  std::FILE* file_ = nullptr;
  net::Bytes memory_;
  bool ok_ = true;
};

/// Creates `directory` (and parents) if needed, then opens the sink on
/// `path`, which must not exist yet.
[[nodiscard]] bool open_spill_sink(const std::string& directory,
                                   const std::string& path, FileSink& sink,
                                   std::string* error);

}  // namespace detail

/// Read-only memory mapping of a whole spill file. Segment payload spans
/// point into the mapping, so readers never copy the file into RAM — the
/// kernel pages it in on demand and may evict it under pressure.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile();
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] bool map(const std::string& path, std::string* error);
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept {
    return {static_cast<const std::uint8_t*>(data_), size_};
  }

 private:
  void unmap() noexcept;
  void* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One validated segment inside a mapped spill file.
struct SegmentView {
  SegmentMeta meta;
  std::span<const std::uint8_t> payload;
};

/// Streams (cycle, record) pairs into fixed-size sorted segments, in a file
/// under config.directory or, when that is empty, in memory (take_segments).
/// Records may arrive in any order (sessions complete out of cycle order);
/// each segment is sorted at flush time.
template <class Record>
class SpillWriter {
 public:
  explicit SpillWriter(const SpillConfig& config)
      : seed_(config.seed),
        shard_(config.shard),
        total_shards_(config.total_shards) {
    const std::size_t capacity = std::clamp<std::size_t>(
        config.segment_bytes / RecordTraits<Record>::wire_bytes, 1, 1u << 26);
    buffer_.resize(capacity);
    if (config.directory.empty()) return;
    path_ = join_path(config.directory,
                      spill_file_name(RecordTraits<Record>::kind, shard_,
                                      total_shards_));
    ok_ = detail::open_spill_sink(config.directory, path_, sink_, &error_);
  }
  ~SpillWriter() { close(); }
  SpillWriter(const SpillWriter&) = delete;
  SpillWriter& operator=(const SpillWriter&) = delete;

  /// Hot per-record entry point: one buffer store, no allocation, no lock;
  /// only a full buffer crosses into the flush boundary below.
  IWSCAN_HOT void append(std::uint64_t cycle, const Record& record) {
    if (count_ == buffer_.size()) flush_segment();
    buffer_[count_].cycle = cycle;
    buffer_[count_].record = record;
    ++count_;
    ++appended_;
  }

  /// Flushes the tail segment and closes the file. False on any I/O error
  /// (disk full, unwritable directory, existing file); error() has the
  /// detail.
  bool close() {
    if (closed_) return ok_;
    closed_ = true;
    if (ok_) flush_segment();
    if (!sink_.close()) ok_ = false;
    if (!ok_ && error_.empty()) error_ = "I/O error writing " + path_;
    return ok_;
  }

  /// Empty for an in-memory writer.
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  /// An in-memory writer's segments, once closed; read them back with
  /// SegmentReader::open.
  [[nodiscard]] net::Bytes take_segments() noexcept { return sink_.take_memory(); }
  [[nodiscard]] std::uint64_t appended() const noexcept { return appended_; }
  [[nodiscard]] std::uint64_t segments_flushed() const noexcept {
    return segments_flushed_;
  }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  struct Tagged {
    std::uint64_t cycle = 0;
    Record record{};
  };

  /// The audited hot/cold hand-off: sort the run, encode it through the
  /// wire codecs into reused scratch buffers, CRC it, and hand it to the
  /// buffered file sink in two writes.
  IWSCAN_HOT_BOUNDARY void flush_segment() {
    if (!ok_) count_ = 0;  // a failed file drops records; close() reports it
    if (count_ == 0) return;
    std::sort(buffer_.begin(),
              buffer_.begin() + static_cast<std::ptrdiff_t>(count_),
              [](const Tagged& a, const Tagged& b) { return a.cycle < b.cycle; });
    payload_.clear();
    net::WireWriter writer(payload_);
    for (std::size_t i = 0; i < count_; ++i) {
      encode_record(writer, buffer_[i].cycle, buffer_[i].record);
    }
    SegmentMeta meta;
    meta.kind = RecordTraits<Record>::kind;
    meta.seed = seed_;
    meta.shard = shard_;
    meta.total_shards = total_shards_;
    meta.record_bytes = static_cast<std::uint32_t>(RecordTraits<Record>::wire_bytes);
    meta.record_count = static_cast<std::uint32_t>(count_);
    meta.first_cycle = buffer_.front().cycle;
    meta.last_cycle = buffer_[count_ - 1].cycle;
    meta.payload_crc = crc32(payload_);
    header_.clear();
    encode_segment_header(header_, meta);
    sink_.write(header_);
    sink_.write(payload_);
    if (!sink_.ok()) ok_ = false;
    count_ = 0;
    ++segments_flushed_;
  }

  std::uint64_t seed_ = 0;
  std::uint32_t shard_ = 0;
  std::uint32_t total_shards_ = 1;
  std::vector<Tagged> buffer_;  // fixed capacity; count_ tracks the fill
  std::size_t count_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t segments_flushed_ = 0;
  net::Bytes payload_;  // encode scratch, capacity reused across segments
  net::Bytes header_;
  std::string path_;
  std::string error_;
  detail::FileSink sink_;
  bool ok_ = true;
  bool closed_ = false;
};

/// Reads one writer's segments — a mapped spill file, or an in-memory
/// writer's bytes — after walking and validating every segment (structure
/// + header CRC + payload CRC + uniform seed/shard identity), then iterates
/// records in segment order via next().
template <class Record>
class SegmentReader {
 public:
  [[nodiscard]] bool open(const std::string& path, std::string* error) {
    path_ = path;
    return file_.map(path, error) && index(file_.bytes(), error);
  }

  /// Opens an in-memory writer's segments (SpillWriter::take_segments).
  [[nodiscard]] bool open(net::Bytes segments, std::string* error) {
    path_ = "in-memory segments";
    owned_ = std::move(segments);
    return index(owned_, error);
  }

  /// Hot sequential read: records in segment order (per-segment cycle order).
  IWSCAN_HOT bool next(std::uint64_t& cycle, Record& out) {
    while (segment_index_ < segments_.size()) {
      if (cursor_.remaining() >= RecordTraits<Record>::wire_bytes) {
        decode_record(cursor_, cycle, out);
        return true;
      }
      ++segment_index_;
      if (segment_index_ < segments_.size()) {
        cursor_ = net::WireReader(segments_[segment_index_].payload);
      }
    }
    return false;
  }

  [[nodiscard]] const std::vector<SegmentView>& segments() const noexcept {
    return segments_;
  }
  [[nodiscard]] std::uint64_t record_count() const noexcept { return record_count_; }
  [[nodiscard]] bool has_identity() const noexcept { return !segments_.empty(); }
  [[nodiscard]] std::uint64_t seed() const noexcept {
    return segments_.empty() ? 0 : segments_.front().meta.seed;
  }
  [[nodiscard]] std::uint32_t shard() const noexcept {
    return segments_.empty() ? 0 : segments_.front().meta.shard;
  }
  [[nodiscard]] std::uint32_t total_shards() const noexcept {
    return segments_.empty() ? 1 : segments_.front().meta.total_shards;
  }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  bool index(std::span<const std::uint8_t> bytes, std::string* error) {
    net::WireReader reader(bytes);
    while (reader.remaining() > 0) {
      SegmentMeta meta;
      std::string detail_error;
      if (!decode_segment_header(reader, meta, &detail_error)) {
        return fail(error, detail_error);
      }
      if (meta.kind != RecordTraits<Record>::kind) {
        return fail(error, "segment holds the wrong record kind");
      }
      if (meta.record_bytes != RecordTraits<Record>::wire_bytes) {
        return fail(error, "segment record width " +
                               std::to_string(meta.record_bytes) +
                               " does not match this build's codec");
      }
      const std::size_t payload_bytes =
          std::size_t{meta.record_count} * RecordTraits<Record>::wire_bytes;
      if (!reader.require(payload_bytes)) {
        return fail(error, "truncated segment payload (file cut short mid-segment)");
      }
      const std::span<const std::uint8_t> payload = reader.raw(payload_bytes);
      if (crc32(payload) != meta.payload_crc) {
        return fail(error, "segment payload CRC mismatch (corrupted records)");
      }
      if (!segments_.empty()) {
        const SegmentMeta& first = segments_.front().meta;
        if (meta.seed != first.seed || meta.shard != first.shard ||
            meta.total_shards != first.total_shards) {
          return fail(error, "segments disagree on seed/shard identity");
        }
      }
      record_count_ += meta.record_count;
      segments_.push_back(SegmentView{meta, payload});
    }
    if (!segments_.empty()) {
      cursor_ = net::WireReader(segments_.front().payload);
    }
    return true;
  }

  bool fail(std::string* error, const std::string& detail) const {
    if (error != nullptr) *error = path_ + ": " + detail;
    return false;
  }

  MappedFile file_;
  net::Bytes owned_;  // open(net::Bytes)'s segments
  std::vector<SegmentView> segments_;
  std::uint64_t record_count_ = 0;
  std::size_t segment_index_ = 0;
  net::WireReader cursor_{std::span<const std::uint8_t>{}};
  std::string path_;
};

/// K-way merge over every segment of every input file: streams records in
/// strictly increasing global cycle order. Cycle uniqueness is enforced —
/// a repeated or out-of-order cycle (overlapping shards, duplicated
/// inputs) stops the stream with ok() == false instead of emitting a
/// corrupt merge.
template <class Record>
class MergeReader {
 public:
  explicit MergeReader(std::vector<SegmentReader<Record>> inputs)
      : inputs_(std::move(inputs)) {
    for (const SegmentReader<Record>& input : inputs_) {
      for (const SegmentView& segment : input.segments()) {
        if (segment.meta.record_count == 0) continue;
        Cursor cursor;
        cursor.reader = net::WireReader(segment.payload);
        decode_record(cursor.reader, cursor.cycle, cursor.record);
        cursors_.push_back(std::move(cursor));
      }
      record_count_ += input.record_count();
    }
    heap_.resize(cursors_.size());
    for (std::size_t i = 0; i < heap_.size(); ++i) heap_[i] = i;
    std::make_heap(heap_.begin(), heap_.end(), CycleGreater{this});
  }

  bool next(std::uint64_t& cycle, Record& out) {
    if (!error_.empty() || heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), CycleGreater{this});
    Cursor& top = cursors_[heap_.back()];
    cycle = top.cycle;
    out = top.record;
    if (top.reader.remaining() >= RecordTraits<Record>::wire_bytes) {
      decode_record(top.reader, top.cycle, top.record);
      std::push_heap(heap_.begin(), heap_.end(), CycleGreater{this});
    } else {
      heap_.pop_back();
    }
    if (emitted_ > 0 && cycle <= last_cycle_) {
      error_ = "cycle index " + std::to_string(cycle) +
               " repeats or regresses in the merge (overlapping or "
               "duplicated spill inputs)";
      return false;
    }
    last_cycle_ = cycle;
    ++emitted_;
    return true;
  }

  [[nodiscard]] std::uint64_t record_count() const noexcept { return record_count_; }
  [[nodiscard]] std::uint64_t seed() const noexcept {
    for (const SegmentReader<Record>& input : inputs_) {
      if (input.has_identity()) return input.seed();
    }
    return 0;
  }
  [[nodiscard]] bool ok() const noexcept { return error_.empty(); }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }

 private:
  struct Cursor {
    net::WireReader reader{std::span<const std::uint8_t>{}};
    std::uint64_t cycle = 0;
    Record record{};
  };
  struct CycleGreater {
    const MergeReader* self;
    bool operator()(std::size_t a, std::size_t b) const {
      return self->cursors_[a].cycle > self->cursors_[b].cycle;
    }
  };

  std::vector<SegmentReader<Record>> inputs_;  // owns the mappings
  std::vector<Cursor> cursors_;
  std::vector<std::size_t> heap_;
  std::uint64_t record_count_ = 0;
  std::uint64_t last_cycle_ = 0;
  std::uint64_t emitted_ = 0;
  std::string error_;
};

/// Cross-validates opened readers, then hands back their merge. Rejects,
/// with a clear error, inputs from different scans (mixed seeds) and
/// overlapping shard strides.
template <class Record>
[[nodiscard]] std::optional<MergeReader<Record>> open_merge(
    std::vector<SegmentReader<Record>> readers, std::string* error) {
  const SegmentReader<Record>* reference = nullptr;
  for (const SegmentReader<Record>& reader : readers) {
    if (!reader.has_identity()) continue;  // empty spill: nothing to clash
    if (reference == nullptr) {
      reference = &reader;
      continue;
    }
    if (reader.seed() != reference->seed()) {
      if (error != nullptr) {
        *error = "mixed scan seeds: " + reference->path() + " has seed " +
                 std::to_string(reference->seed()) + " but " + reader.path() +
                 " has seed " + std::to_string(reader.seed()) +
                 "; spill files merge only within a single scan";
      }
      return std::nullopt;
    }
  }
  for (std::size_t i = 0; i < readers.size(); ++i) {
    if (!readers[i].has_identity()) continue;
    for (std::size_t j = i + 1; j < readers.size(); ++j) {
      if (!readers[j].has_identity()) continue;
      if (shards_overlap(readers[i].shard(), readers[i].total_shards(),
                         readers[j].shard(), readers[j].total_shards())) {
        if (error != nullptr) {
          *error = "overlapping shards: " + readers[i].path() + " covers shard " +
                   std::to_string(readers[i].shard()) + "/" +
                   std::to_string(readers[i].total_shards()) + " and " +
                   readers[j].path() + " covers shard " +
                   std::to_string(readers[j].shard()) + "/" +
                   std::to_string(readers[j].total_shards()) +
                   "; their permutation strides intersect, so the same "
                   "targets would merge twice";
        }
        return std::nullopt;
      }
    }
  }
  return MergeReader<Record>(std::move(readers));
}

/// Same, after opening each of `files`; unreadable or corrupt files are
/// rejected too.
template <class Record>
[[nodiscard]] std::optional<MergeReader<Record>> open_merge(
    const std::vector<std::string>& files, std::string* error) {
  std::vector<SegmentReader<Record>> readers(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!readers[i].open(files[i], error)) return std::nullopt;
  }
  return open_merge(std::move(readers), error);
}

/// Merges `inputs` — spill file paths, or opened SegmentReaders — fully
/// into RAM: an in-RAM scan's result, tests, small scans.
template <class Record, class Inputs = std::vector<std::string>>
[[nodiscard]] bool read_merged(Inputs inputs, std::vector<Record>& out,
                               std::string* error) {
  auto merge = open_merge<Record>(std::move(inputs), error);
  if (!merge.has_value()) return false;
  out.clear();
  out.reserve(static_cast<std::size_t>(merge->record_count()));
  std::uint64_t cycle = 0;
  Record record{};
  while (merge->next(cycle, record)) out.push_back(record);
  if (!merge->ok()) {
    if (error != nullptr) *error = merge->error();
    return false;
  }
  return true;
}

}  // namespace iwscan::store
