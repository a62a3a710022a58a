// Span recorder and per-tick latency histogram for the traced benchmark run.
//
// The benchmark times each layer from the outside, around the call into
// the layer's entry point, so it carries its own recorder instead of using
// the simulator's observability library: a change to that library must not
// change what the benchmark measures. Spans stay in memory and are written
// once, after the run.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace essent_bench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  int64_t startNs = 0;  // relative to the recorder's epoch
  int64_t endNs = 0;
  int parent = -1;      // index of the enclosing span, -1 for a root
  double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

class Recorder {
 public:
  explicit Recorder(std::string workload) : workload_(std::move(workload)), epoch_(Clock::now()) {}

  // Opens a span nested in the innermost open one; returns its id.
  int open(const std::string& name) {
    int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, nowNs(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(id);
    return id;
  }
  void close(int id) {
    spans_[static_cast<size_t>(id)].endNs = nowNs();
    stack_.pop_back();
  }
  // Records an interval measured elsewhere (a child process) under the
  // innermost open span.
  void add(const std::string& name, Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, toNs(start), toNs(end), stack_.empty() ? -1 : stack_.back()});
  }

  class Scope {
   public:
    Scope(Recorder& rec, const std::string& name) : rec_(rec), id_(rec.open(name)) {}
    ~Scope() { rec_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Recorder& rec_;
    int id_;
  };

  const Span& span(int id) const { return spans_[static_cast<size_t>(id)]; }

  // Seconds covered by the direct children of span `id` (children never
  // overlap: each layer call returns before the next starts, and child
  // processes are recorded under their own parent span).
  double childSeconds(int id) const {
    double s = 0;
    for (const Span& sp : spans_)
      if (sp.parent == id) s += sp.seconds();
    return s;
  }

  // Seconds of the first direct child of `parent` named `name` (0 if none).
  double childNamed(int parent, const std::string& name) const {
    for (const Span& sp : spans_)
      if (sp.parent == parent && sp.name == name) return sp.seconds();
    return 0;
  }

  // One JSON object: {"workload", "spans": [{"id","name","start_ns","end_ns","parent"}]}.
  bool write(const std::string& path, const std::string& extraJson) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "{\"workload\": \"%s\", \"spans\": [", workload_.c_str());
    for (size_t i = 0; i < spans_.size(); i++) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                      "\"parent\": %d, \"workload\": \"%s\"}",
                   i ? "," : "", i, s.name.c_str(), static_cast<long long>(s.startNs),
                   static_cast<long long>(s.endNs), s.parent, workload_.c_str());
    }
    std::fprintf(f, "\n]%s%s}\n", extraJson.empty() ? "" : ", ", extraJson.c_str());
    return std::fclose(f) == 0;
  }

 private:
  int64_t toNs(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  int64_t nowNs() const { return toNs(Clock::now()); }

  std::string workload_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Log2 histogram with 16 linear sub-buckets per power of two, so a bucket
// spans at most 1/16 of its lower bound and quantiles are within ~6%.
// Values below 16 get exact buckets.
class TickHistogram {
 public:
  void add(uint64_t ns) {
    buckets_[index(ns)]++;
    count_++;
  }
  uint64_t count() const { return count_; }

  // Quantile q in [0, 1], interpolated linearly inside the bucket.
  double quantile(double q) const {
    if (count_ == 0) return 0;
    double target = q * static_cast<double>(count_);
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); i++) {
      if (buckets_[i] == 0) continue;
      if (static_cast<double>(seen + buckets_[i]) >= target) {
        double frac = (target - static_cast<double>(seen)) / static_cast<double>(buckets_[i]);
        return lower(i) + frac * width(i);
      }
      seen += buckets_[i];
    }
    return lower(buckets_.size() - 1);
  }

  // [[lower_ns, count], ...] over the non-empty buckets.
  std::string json() const {
    std::string s = "[";
    char buf[64];
    for (size_t i = 0; i < buckets_.size(); i++) {
      if (buckets_[i] == 0) continue;
      std::snprintf(buf, sizeof buf, "%s[%llu, %llu]", s.size() > 1 ? ", " : "",
                    static_cast<unsigned long long>(lower(i)),
                    static_cast<unsigned long long>(buckets_[i]));
      s += buf;
    }
    return s + "]";
  }

 private:
  static constexpr unsigned kSub = 16;

  static size_t index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    unsigned msb = 63u - static_cast<unsigned>(__builtin_clzll(v));  // >= 4
    uint64_t sub = (v >> (msb - 4)) & (kSub - 1);
    return static_cast<size_t>((msb - 3) * kSub + sub);
  }
  static double lower(size_t i) {
    if (i < kSub) return static_cast<double>(i);
    unsigned msb = static_cast<unsigned>(i / kSub) + 3;
    return static_cast<double>((kSub + i % kSub) << (msb - 4));
  }
  static double width(size_t i) {
    if (i < kSub) return 1;
    unsigned msb = static_cast<unsigned>(i / kSub) + 3;
    return static_cast<double>(uint64_t{1} << (msb - 4));
  }

  std::array<uint64_t, 64 * kSub> buckets_{};
  uint64_t count_ = 0;
};

}  // namespace essent_bench
