// In-memory span recorder for the traced run.
//
// Spans are taken by the benchmark around its own calls into the library's
// layers (name, layer, start, end, parent span, batch id). They stay in
// memory while the run measures and are written out once, at the end, as
// Chrome trace-event JSON, which Perfetto and chrome://tracing load as is.
// A layer's self time is its spans' durations minus the part of each span
// its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr int kNoParent = -1;

  struct Span {
    std::string layer;
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = kNoParent;
    std::int64_t batch = -1;
    int lane = 0;  // Chrome "tid": which benchmark thread the span ran on
  };

  /// Record a finished span; returns its id (for children's `parent`).
  int add(std::string layer, std::string name, std::int64_t start_ns,
          std::int64_t end_ns, int parent = kNoParent, std::int64_t batch = -1,
          int lane = 0);

  /// Open a span now; end() closes it. Children may be recorded in between.
  int begin(std::string layer, std::string name, int parent = kNoParent,
            std::int64_t batch = -1);
  void end(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Total span time and self time per layer, in milliseconds.
  struct LayerTime {
    double total_ms = 0.0;
    double self_ms = 0.0;
    std::size_t spans = 0;
  };
  std::map<std::string, LayerTime> layer_times() const;

  /// Durations (ns) of every span with this layer and name.
  std::vector<std::int64_t> durations(const std::string& layer,
                                      const std::string& name) const;

  /// Write {"traceEvents": [...], "metadata": {...}}; `metadata` is a JSON
  /// object literal. Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::string& metadata) const;

 private:
  std::vector<Span> spans_;
};

/// Records one scope as a span when a tracer is given; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* layer, const char* name,
             int parent = Tracer::kNoParent, std::int64_t batch = -1)
      : tracer_(tracer),
        id_(tracer == nullptr ? Tracer::kNoParent
                              : tracer->begin(layer, name, parent, batch)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench
