#include "trace.hpp"

#include <cstdio>

namespace iwbench {

std::string_view Tracer::name(Span span) noexcept {
  switch (span) {
    case Span::Scan: return "scan";
    case Span::Step: return "netsim.step";
    case Span::SweepRx: return "scanner.sweep_rx";
    case Span::EngineRx: return "scanner.engine_rx";
    case Span::Create: return "core.create";
    case Span::Start: return "core.start";
    case Span::Datagram: return "core.datagram";
    case Span::Append: return "store.append";
    case Span::Open: return "store.open";
    case Span::Next: return "store.next";
    case Span::Summarize: return "analysis.summarize";
    case Span::Truth: return "inetmodel.truth";
    case Span::kCount: break;
  }
  return "?";
}

Tracer::Tracer() : origin_(Clock::now()) { stack_.reserve(16); }

void Tracer::open(Span span) {
  std::int32_t kept = -1;
  if (phase(span)) {
    std::int32_t parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend() && parent < 0; ++it) {
      parent = it->kept;
    }
    kept = static_cast<std::int32_t>(kept_.size());
    kept_.push_back(Kept{span, 0, 0, parent});
  }
  stack_.push_back(Frame{span, now_ns(), 0, kept});
  if (kept >= 0) kept_[static_cast<std::size_t>(kept)].start_ns = stack_.back().start_ns;
}

void Tracer::close() {
  const std::int64_t end = now_ns();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = end - frame.start_ns;
  Totals& totals = totals_[static_cast<std::size_t>(frame.span)];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration - frame.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.kept >= 0) kept_[static_cast<std::size_t>(frame.kept)].end_ns = end;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "{\"spans\": [");
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& span = kept_[i];
    const std::string_view label = name(span.span);
    std::fprintf(file,
                 "%s\n  {\"id\": %zu, \"name\": \"%.*s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d}",
                 i == 0 ? "" : ",", i, static_cast<int>(label.size()), label.data(),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns), span.parent);
  }
  std::fprintf(file, "\n], \"aggregates\": [");
  bool first = true;
  for (std::size_t i = 0; i < kSpans; ++i) {
    if (totals_[i].calls == 0) continue;
    const std::string_view label = name(static_cast<Span>(i));
    std::fprintf(file,
                 "%s\n  {\"name\": \"%.*s\", \"calls\": %llu, \"total_ns\": %lld, "
                 "\"self_ns\": %lld}",
                 first ? "" : ",", static_cast<int>(label.size()), label.data(),
                 static_cast<unsigned long long>(totals_[i].calls),
                 static_cast<long long>(totals_[i].total_ns),
                 static_cast<long long>(totals_[i].self_ns));
    first = false;
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace iwbench
