// In-memory span recorder for the traced run. Spans are recorded around
// calls into the engine's public layer functions from the benchmark's own
// code (the engine itself is not instrumented) and written out once, at
// the end of the run.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the monotonic clock since the first call (process start,
/// in practice: main() calls it first).
inline double NowMs() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::milli>(Clock::now() - epoch)
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t stmt = 0;    // statement id shared by every span of a statement
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  double ms() const { return end_ms - start_ms; }
};

class Tracer {
 public:
  /// Records a finished span and returns its id (ids start at 1).
  uint64_t Record(const std::string& name, uint64_t parent, uint64_t stmt,
                  double start_ms, double end_ms) {
    std::lock_guard<std::mutex> lk(mu_);
    Span s;
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.stmt = stmt;
    s.name = name;
    s.start_ms = start_ms;
    s.end_ms = end_ms;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  /// Opens a span whose children are recorded before it ends.
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t stmt,
                 double start_ms) {
    return Record(name, parent, stmt, start_ms, start_ms);
  }
  void End(uint64_t id, double end_ms) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_[id - 1].end_ms = end_ms;
  }

  std::vector<Span> Snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    return spans_;
  }

  /// One JSON object per line: id, parent, stmt, name, start_ms, end_ms.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lk(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"id\":%llu,\"parent\":%llu,\"stmt\":%llu,\"name\":\"%s\","
                   "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.stmt), s.name.c_str(),
                   s.start_ms, s.end_ms);
    }
    return std::fclose(f) == 0;
  }

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
