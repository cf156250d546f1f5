// Measurement plumbing of cordon_bench: clock, order statistics,
// the metric sink, and the in-memory span tracer of the traced run.
//
// Spans are recorded by the benchmark around its own calls into each layer
// (the program under test carries no benchmark hooks).  Each span has a
// name, start, end, parent span and request id; they stay in memory and
// are written once, at exit, as Chrome Trace Event JSON.  Spans that
// belong to one in-flight request (its open-loop `request` root and the
// `service.submit` / `service.wait` children) are laid out on per-request
// lanes when written, so every track nests properly.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace bench {

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample;
/// 0 for an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Ordered metric sink: name -> (value, unit).
class Metrics {
 public:
  void set(const std::string& name, double value, const char* unit) {
    values_[name] = {value, unit};
  }
  [[nodiscard]] double get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0 : it->second.first;
  }
  [[nodiscard]] const std::map<std::string, std::pair<double, std::string>>&
  all() const {
    return values_;
  }

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0, end_ns = 0;
    std::uint32_t thread = 0;
    bool on_request_lane = false;
    std::uint64_t id = 0, parent = 0, request = 0;
    const char* label = nullptr;  // family, or batch mode
  };

  /// Chrome `tid` of request lane 0; benchmark threads count up from 1.
  static constexpr std::uint32_t kLaneTid = 100000;

  static Tracer& get() {
    static Tracer t;
    return t;
  }

  void enable() { on_ = true; }
  [[nodiscard]] bool on() const { return on_; }

  [[nodiscard]] std::uint64_t next_id() {
    return last_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Stores a finished span in the calling thread's own buffer, so
  /// recording takes no lock; `s.id` must come from next_id.
  void record(Span s) {
    if (!on_) return;
    Buffer& b = buffer();
    s.thread = b.thread;
    b.spans.push_back(s);
  }

  /// Writes every span as Chrome Trace Event JSON, sorted by start.  Call
  /// once every recording thread has finished.
  bool write_chrome(const std::string& path);

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };

  /// The calling thread's buffer, registered on first use.  Buffers are
  /// owned here, so they outlive the threads that filled them.
  Buffer& buffer() {
    thread_local Buffer* mine = [this] {
      std::lock_guard lock(mu_);
      buffers_.push_back(std::make_unique<Buffer>());
      buffers_.back()->thread = static_cast<std::uint32_t>(buffers_.size());
      return buffers_.back().get();
    }();
    return *mine;
  }

  bool on_ = false;
  std::atomic<std::uint64_t> last_id_{0};
  std::mutex mu_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span on the calling thread; nested ScopedSpans on one thread
/// take the enclosing one as their parent.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* label = nullptr) {
    Tracer& t = Tracer::get();
    if (!t.on()) return;
    span_.name = name;
    span_.label = label;
    span_.id = t.next_id();
    span_.parent = current();
    current() = span_.id;
    span_.start_ns = to_ns(Clock::now());
  }
  ~ScopedSpan() {
    if (span_.id == 0) return;
    span_.end_ns = to_ns(Clock::now());
    current() = span_.parent;
    Tracer::get().record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  static std::uint64_t& current() {
    thread_local std::uint64_t id = 0;
    return id;
  }
  Tracer::Span span_;
};

template <typename T>
using MinHeap = std::priority_queue<T, std::vector<T>, std::greater<>>;

inline bool Tracer::write_chrome(const std::string& path) {
  std::vector<Span> spans;
  for (const auto& b : buffers_)
    spans.insert(spans.end(), b->spans.begin(), b->spans.end());
  // Lay request spans out on lanes: a request takes the lowest lane
  // whose previous request has ended, so one lane never overlaps.
  std::map<std::uint64_t, std::pair<std::int64_t, std::int64_t>> extent;
  for (const Span& s : spans) {
    if (!s.on_request_lane) continue;
    auto [it, fresh] = extent.try_emplace(s.request, s.start_ns, s.end_ns);
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.start_ns);
      it->second.second = std::max(it->second.second, s.end_ns);
    }
  }
  std::vector<std::pair<std::pair<std::int64_t, std::int64_t>, std::uint64_t>>
      order;
  for (const auto& [req, iv] : extent) order.push_back({iv, req});
  std::sort(order.begin(), order.end());
  MinHeap<std::pair<std::int64_t, std::uint32_t>> busy;  // (end, lane)
  MinHeap<std::uint32_t> free_lanes;
  std::uint32_t lanes = 0;
  std::unordered_map<std::uint64_t, std::uint32_t> lane_of;
  for (const auto& [iv, req] : order) {
    while (!busy.empty() && busy.top().first <= iv.first) {
      free_lanes.push(busy.top().second);
      busy.pop();
    }
    std::uint32_t lane = lanes;
    if (free_lanes.empty()) {
      ++lanes;
    } else {
      lane = free_lanes.top();
      free_lanes.pop();
    }
    lane_of[req] = lane;
    busy.push({iv.second, lane});
  }

  std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  // Parents before children: by start, then longest first.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns - a.start_ns > b.end_ns - b.start_ns;
  });

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  const char* sep = "";
  auto thread_name = [&](std::uint32_t tid, const char* what,
                         std::uint32_t n) {
    std::fprintf(f,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%u,\"args\":{\"name\":\"%s %u\"}}",
                 sep, tid, what, n);
    sep = ",\n";
  };
  for (std::uint32_t t = 1; t <= buffers_.size(); ++t)
    thread_name(t, "bench thread", t);
  for (std::uint32_t l = 0; l < lanes; ++l)
    thread_name(kLaneTid + l, "request lane", l);
  for (const Span& s : spans) {
    std::uint32_t tid =
        s.on_request_lane ? kLaneTid + lane_of[s.request] : s.thread;
    // Printed 1 ns short, so spans that touch (a request's submit and
    // wait) still read as disjoint after a reader's float rounding.
    const std::int64_t dur_ns =
        std::max<std::int64_t>(0, s.end_ns - s.start_ns - 1);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"req\":%llu,\"label\":\"%s\"}}",
                 sep, s.name, tid,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(dur_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 s.label == nullptr ? "" : s.label);
    sep = ",\n";
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace bench
