#pragma once

// Shared, lazily constructed test fixtures. Building a SyntheticInternet
// and workloads takes ~100 ms; tests within one binary share one instance.
// Also the thread-count guard the parallel tests share.

#include "lina/exec/thread_pool.hpp"
#include "lina/mobility/content_workload.hpp"
#include "lina/mobility/device_workload.hpp"
#include "lina/routing/synthetic_internet.hpp"

namespace lina::testing {

/// Restores the default worker count on scope exit, also on failure, so a
/// test's thread override cannot leak into the rest of the binary.
struct ThreadCountGuard {
  ~ThreadCountGuard() { exec::set_default_threads(0); }
};

inline const routing::SyntheticInternet& shared_internet() {
  static const routing::SyntheticInternet instance = [] {
    routing::SyntheticInternetConfig config;
    config.topology.tier1_count = 8;
    config.topology.tier2_count = 30;
    config.topology.stub_count = 250;
    return routing::SyntheticInternet(config);
  }();
  return instance;
}

inline const std::vector<mobility::DeviceTrace>& shared_device_traces() {
  static const std::vector<mobility::DeviceTrace> traces = [] {
    mobility::DeviceWorkloadConfig config;
    config.user_count = 80;
    config.days = 7;
    return mobility::DeviceWorkloadGenerator(shared_internet(), config)
        .generate();
  }();
  return traces;
}

inline const mobility::ContentCatalog& shared_content_catalog() {
  static const mobility::ContentCatalog catalog = [] {
    mobility::ContentWorkloadConfig config;
    config.popular_domains = 60;
    config.unpopular_domains = 60;
    config.days = 5;
    return mobility::ContentWorkloadGenerator(shared_internet(), config)
        .generate();
  }();
  return catalog;
}

}  // namespace lina::testing
