// Benchmark-side spans. A span records one call into a library layer: its
// name, start, end, the span that caused it and the id of the block or
// request it belongs to. Spans stay in memory (one Tracer per thread, no
// locking) and are written out when the run ends. A null Tracer* turns every
// ScopedSpan into a no-op, which is how untraced runs measure.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  ///< string literal
    std::uint64_t trace_id = 0;  ///< block or request id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;    ///< index in this tracer, -1 = root
  };

  explicit Tracer(std::uint32_t thread_id, Clock::time_point epoch)
      : thread_id_(thread_id), epoch_(epoch) {}

  /// Opens a span under the current one; `trace_id` 0 inherits the
  /// parent's id.
  std::int32_t open(const char* name, std::uint64_t trace_id);
  void close(std::int32_t index);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint32_t thread_id() const noexcept { return thread_id_; }

 private:
  std::int64_t now_ns() const;

  std::uint32_t thread_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t trace_id = 0)
      : tracer_(tracer), index_(tracer ? tracer->open(name, trace_id) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

/// Per span name: call durations and self times (duration minus the time
/// its child spans cover), in seconds.
struct LayerTimes {
  std::vector<double> duration_s;
  std::vector<double> self_s;

  double total_self() const;
  double median_ms() const { return quantile(duration_s, 0.5) * 1e3; }
};

std::map<std::string, LayerTimes> layer_times(
    const std::vector<const Tracer*>& tracers);

/// Writes every span as one tab-separated line:
/// thread, index, parent, trace_id, name, start_ns, end_ns.
/// Returns false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
