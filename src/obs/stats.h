// Report-building value types, serializable to JSON (obs/json.h): an
// integer-sample histogram (the schedule's partition-size summary) and an
// accumulating wall-clock timer (the compile phase timings). Live runtime
// metrics go to obs::MetricsRegistry (obs/metrics.h) instead.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/json.h"

namespace essent::obs {

// Power-of-two bucketed histogram for nonnegative integer samples (op
// counts, fanouts, window activity): bucket i counts samples in
// [2^(i-1), 2^i), bucket 0 counts zeros. 65 buckets cover uint64_t.
class Histogram {
 public:
  void record(uint64_t value);
  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ ? min_ : 0; }
  uint64_t max() const { return max_; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }  // trailing zeros trimmed
  Json toJson() const;

 private:
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
  std::vector<uint64_t> buckets_;
};

// Accumulating wall-clock timer: total seconds + invocation count.
struct Timer {
  double seconds = 0.0;
  uint64_t calls = 0;
  void record(double s) { seconds += s; calls++; }
  Json toJson() const;
};

}  // namespace essent::obs
