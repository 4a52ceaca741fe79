#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int Tracer::add(std::string layer, std::string name, std::int64_t start_ns,
                std::int64_t end_ns, int parent, std::int64_t batch,
                int lane) {
  spans_.push_back(Span{std::move(layer), std::move(name), start_ns, end_ns,
                        parent, batch, lane});
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::begin(std::string layer, std::string name, int parent,
                  std::int64_t batch) {
  const std::int64_t start = now_ns();
  return add(std::move(layer), std::move(name), start, start, parent, batch);
}

std::map<std::string, Tracer::LayerTime> Tracer::layer_times() const {
  // Children's intervals, clipped to their parent, per parent span.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) covered[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    std::int64_t union_ns = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : intervals) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) {
        union_ns += hi - from;
        reach = hi;
      }
    }
    LayerTime& t = out[s.layer];
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    t.self_ms += static_cast<double>(s.end_ns - s.start_ns - union_ns) / 1e6;
    t.spans += 1;
  }
  return out;
}

std::vector<std::int64_t> Tracer::durations(const std::string& layer,
                                            const std::string& name) const {
  std::vector<std::int64_t> out;
  for (const Span& s : spans_) {
    if (s.layer == layer && s.name == name) out.push_back(s.end_ns - s.start_ns);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& metadata) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : std::min_element(
      spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
        return a.start_ns < b.start_ns;
      })->start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Complete ("X") events; timestamps in microseconds from the first span.
    std::fprintf(f,
                 "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"cat\":\"%s\","
                 "\"name\":\"%s.%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%zu,\"parent\":%d,\"batch\":%lld}}\n",
                 i == 0 ? "" : ",", s.lane, s.layer.c_str(), s.layer.c_str(),
                 s.name.c_str(), static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                 static_cast<long long>(s.batch));
  }
  std::fprintf(f, "],\"metadata\":%s}\n", metadata.c_str());
  return std::fclose(f) == 0;
}

}  // namespace perfbench
