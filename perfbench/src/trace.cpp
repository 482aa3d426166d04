#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <memory>

namespace perfbench {

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t Tracer::open(const char* name, std::uint64_t trace_id) {
  Span span;
  span.name = name;
  span.parent = current_;
  span.trace_id =
      trace_id == 0 && current_ >= 0 ? spans_[current_].trace_id : trace_id;
  span.start_ns = now_ns();
  spans_.push_back(span);
  current_ = static_cast<std::int32_t>(spans_.size() - 1);
  return current_;
}

void Tracer::close(std::int32_t index) {
  spans_[index].end_ns = now_ns();
  current_ = spans_[index].parent;
}

double LayerTimes::total_self() const {
  double total = 0.0;
  for (const double s : self_s) total += s;
  return total;
}

std::map<std::string, LayerTimes> layer_times(
    const std::vector<const Tracer*>& tracers) {
  std::map<std::string, LayerTimes> layers;
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const auto& span : spans) {
      if (span.parent >= 0) child_ns[span.parent] += span.end_ns - span.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
      LayerTimes& layer = layers[spans[i].name];
      layer.duration_s.push_back(static_cast<double>(duration) * 1e-9);
      layer.self_s.push_back(static_cast<double>(duration - child_ns[i]) *
                             1e-9);
    }
  }
  return layers;
}

bool write_spans(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!file) return false;
  std::fprintf(file.get(),
               "thread\tindex\tparent\ttrace_id\tname\tstart_ns\tend_ns\n");
  for (const Tracer* tracer : tracers) {
    const auto& spans = tracer->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(file.get(), "%u\t%zu\t%d\t%llu\t%s\t%lld\t%lld\n",
                   tracer->thread_id(), i, spans[i].parent,
                   static_cast<unsigned long long>(spans[i].trace_id),
                   spans[i].name, static_cast<long long>(spans[i].start_ns),
                   static_cast<long long>(spans[i].end_ns));
    }
  }
  return std::ferror(file.get()) == 0;
}

}  // namespace perfbench
