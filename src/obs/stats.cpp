#include "obs/stats.h"

namespace essent::obs {

void Histogram::record(uint64_t value) {
  count_++;
  sum_ += value;
  if (value < min_) min_ = value;
  if (value > max_) max_ = value;
  size_t bucket = 0;
  while (value != 0) {  // bucket = 1 + floor(log2(value)) for value > 0
    bucket++;
    value >>= 1;
  }
  if (buckets_.size() <= bucket) buckets_.resize(bucket + 1, 0);
  buckets_[bucket]++;
}

Json Histogram::toJson() const {
  Json j = Json::object();
  j["count"] = count_;
  j["sum"] = sum_;
  j["min"] = min();
  j["max"] = max_;
  j["mean"] = mean();
  Json b = Json::array();
  for (uint64_t v : buckets_) b.push(v);
  j["pow2_buckets"] = std::move(b);
  return j;
}

Json Timer::toJson() const {
  Json j = Json::object();
  j["seconds"] = seconds;
  j["calls"] = calls;
  return j;
}

}  // namespace essent::obs
