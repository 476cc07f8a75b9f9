// In-memory span tracer for the benchmark's traced run. Spans are opened
// and closed by the benchmark's own code around its calls into iwscan's
// public API (no tracing lives inside src/). Every span is folded into a
// per-name aggregate of calls, duration and self time (duration minus what
// child spans cover). Phase spans (scan, step loop, merge open, truth
// pass) are also kept individually — name, start, end, parent — and
// written out when the run ends; per-packet and per-record spans are
// aggregate-only, so a traced run stays O(phases) in memory however many
// calls it times.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace iwbench {

class Tracer {
 public:
  enum class Span : std::uint8_t {
    Scan,       // one whole driven scan or spill round trip
    Step,       // netsim: the benchmark's EventLoop::step() loop
    SweepRx,    // scanner: StatelessSweep::handle_packet
    EngineRx,   // scanner: ScanEngine::handle_packet
    Create,     // core: IwProbeModule::create_session
    Start,      // core: ProbeSession::start
    Datagram,   // core: ProbeSession::on_datagram
    Append,     // store: SpillWriter::append (+ close)
    Open,       // store: open_merge
    Next,       // store: MergeReader::next
    Summarize,  // analysis: summarize / accumulate
    Truth,      // inetmodel: InternetModel::truth over the scanned space
    kCount,
  };
  static constexpr std::size_t kSpans = static_cast<std::size_t>(Span::kCount);

  [[nodiscard]] static std::string_view name(Span span) noexcept;

  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  /// RAII span; a null tracer makes it a no-op, so untraced code paths
  /// share the traced ones without paying for the clock.
  class Scope {
   public:
    Scope(Tracer* tracer, Span span) : tracer_(tracer) {
      if (tracer_ != nullptr) tracer_->open(span);
    }
    ~Scope() {
      if (tracer_ != nullptr) tracer_->close();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  Tracer();

  void open(Span span);
  void close();

  [[nodiscard]] const Totals& totals(Span span) const noexcept {
    return totals_[static_cast<std::size_t>(span)];
  }
  [[nodiscard]] double seconds(Span span) const noexcept {
    return static_cast<double>(totals(span).total_ns) * 1e-9;
  }
  [[nodiscard]] double self_seconds(Span span) const noexcept {
    return static_cast<double>(totals(span).self_ns) * 1e-9;
  }
  [[nodiscard]] std::uint64_t calls(Span span) const noexcept {
    return totals(span).calls;
  }

  /// Writes the kept spans and the per-name aggregates as JSON.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  [[nodiscard]] static bool phase(Span span) noexcept {
    return span == Span::Scan || span == Span::Step || span == Span::Open ||
           span == Span::Truth;
  }

  struct Frame {
    Span span;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t kept;  // index into kept_, or -1
  };
  struct Kept {
    Span span;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  // innermost enclosing kept span, or -1
  };

  [[nodiscard]] std::int64_t now_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Frame> stack_;
  std::array<Totals, kSpans> totals_{};
  std::vector<Kept> kept_;
};

}  // namespace iwbench
