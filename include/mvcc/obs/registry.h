// Named-metric registry: the export surface of the obs/ layer.
//
// Instrumentation sites look a metric up ONCE (a function-local static
// reference) and then touch only the lock-free Counter / Gauge /
// LatencyHistogram itself — the registry mutex guards registration and
// dumping, never the hot path. Metrics live for the process; lookup by the
// same name always returns the same object, so independent subsystems can
// share a metric by agreeing on its name.
//
// dump_json emits one flat JSON object with one key per scalar —
// histograms expand to name/count, name/min, name/mean, name/p50,
// name/p99, name/p999 and a name/buckets array of [lower, upper, count]
// triples so external tools can re-plot full distributions, and a
// histogram that never recorded emits no keys at all. It takes an
// optional prefix so multi-process pipelines (each bench dumps its own
// registry) can namespace their keys before a collector merges them.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "mvcc/obs/counter.h"
#include "mvcc/obs/histogram.h"

namespace mvcc::obs {

// A single writer-racing-friendly value: set() publishes, update_max()
// keeps a running high-water mark (relaxed CAS, contended only while the
// mark is actually rising).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }

  void update_max(std::int64_t v) {
    std::int64_t cur = v_.load(std::memory_order_relaxed);
    while (cur < v && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
    }
  }

  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  Counter& counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return *slot;
  }

  Gauge& gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return *slot;
  }

  LatencyHistogram& histogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<LatencyHistogram>();
    return *slot;
  }

  // One flat JSON object, keys sorted by name (std::map order).
  std::string dump_json(const std::string& prefix = "") const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, value] : flat_values(prefix)) {
      out += first ? "\n" : ",\n";
      first = false;
      out += "  \"";
      out += name;
      out += "\": ";
      out += value;
    }
    out += first ? "}" : "\n}";
    return out;
  }

 private:
  Registry() = default;

  static std::string fmt_double(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
  }

  std::map<std::string, std::string> flat_values(
      const std::string& prefix) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::map<std::string, std::string> out;
    for (const auto& [name, c] : counters_) {
      out[prefix + name] = std::to_string(c->value());
    }
    for (const auto& [name, g] : gauges_) {
      out[prefix + name] = std::to_string(g->value());
    }
    for (const auto& [name, h] : histograms_) {
      if (h->count() == 0) continue;  // all-zero quantiles would read as data
      out[prefix + name + "/count"] = std::to_string(h->count());
      out[prefix + name + "/min"] = std::to_string(h->min());
      out[prefix + name + "/mean"] = fmt_double(h->mean());
      out[prefix + name + "/p50"] = fmt_double(h->quantile(0.50));
      out[prefix + name + "/p99"] = fmt_double(h->quantile(0.99));
      out[prefix + name + "/p999"] = fmt_double(h->quantile(0.999));
      out[prefix + name + "/buckets"] = h->buckets_json();
    }
    return out;
  }

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

inline Registry& registry() { return Registry::instance(); }

}  // namespace mvcc::obs
