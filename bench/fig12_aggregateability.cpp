// Reproduces Figure 12 (§7.3): FIB aggregateability of popular content —
// the ratio of the complete name table to its LPM-compressed size — at
// each vantage router, and the contrast with unpopular content.

#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "lina/names/interner.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/snap/store.hpp"

using namespace lina;

int main(int argc, char** argv) {
  bench::Harness harness(argc, argv, "fig12_aggregateability");
  bench::print_figure_header(
      "Figure 12 — FIB aggregateability of popular content",
      "aggregateability between 2x and 16x across routers; unpopular "
      "domains have hardly any subdomains, so the long tail stores one "
      "entry per name.");

  const auto& catalog = bench::paper_content_catalog();
  const auto popular = core::evaluate_aggregateability(
      bench::paper_internet().vantages(), catalog.popular);
  const auto unpopular = core::evaluate_aggregateability(
      bench::paper_internet().vantages(), catalog.unpopular);

  std::vector<std::pair<std::string, double>> rows;
  for (const auto& r : popular) rows.emplace_back(r.router, r.ratio());
  std::cout << stats::bar_chart(rows, "x") << "\n";

  stats::Table table;
  table.header({"router", "complete", "LPM", "ratio (popular)",
                "ratio (unpopular)"});
  for (std::size_t i = 0; i < popular.size(); ++i) {
    const double cells[] = {static_cast<double>(popular[i].complete_entries),
                            static_cast<double>(popular[i].lpm_entries),
                            popular[i].ratio(), unpopular[i].ratio()};
    table.append_row(popular[i].router, cells, 2);
  }
  std::cout << table.str() << "\n";

  double lo = 1e9, hi = 0.0;
  for (const auto& r : popular) {
    lo = std::min(lo, r.ratio());
    hi = std::max(hi, r.ratio());
  }
  harness.result("aggregateability_min", lo);
  harness.result("aggregateability_max", hi);

  // Storage-footprint headline: deterministic live-table bytes summed over
  // vantages, plus the shared component-interner vocabulary. The byte
  // figures derive from live node counts (not allocator capacities), so
  // they are stable across runs and machines.
  double popular_bytes = 0.0;
  for (const auto& r : popular) {
    popular_bytes += static_cast<double>(r.table_bytes);
  }
  harness.result("popular_name_table_bytes_total", popular_bytes);
  const auto& interner = names::ComponentInterner::global();
  harness.result("interner_components",
                 static_cast<double>(interner.size()));
  obs::metric::name_interner_entries().set(
      static_cast<double>(interner.size()));
  obs::metric::name_interner_bytes().set(
      static_cast<double>(interner.bytes()));
  std::cout << "Measured popular aggregateability range: "
            << stats::fmt(lo, 1) << "x - " << stats::fmt(hi, 1)
            << "x (paper: 2x - 16x); unpopular stays near 1x as the tail "
               "has no hierarchy to compress.\n";

  // Durable-snapshot footprint of the popular-name table (lina::snap):
  // persist the first vantage's complete best-port name FIB — the table
  // Figure 12 measures — and reload it. Snapshot bytes are deterministic
  // (spelling-sorted component ids), so bytes/entry is a gated headline;
  // the load time is a reported timing.
  harness.phase("snapshot");
  {
    namespace fs = std::filesystem;
    const auto& vantage = bench::paper_internet().vantages().front();
    routing::NameFib name_fib;
    core::announce_best_ports(vantage.fib().freeze(), catalog.popular,
                              name_fib);
    const fs::path dir =
        fs::temp_directory_path() /
        ("lina-snap-bench-fig12-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    std::uint64_t snapshot_bytes = 0;
    {
      snap::SnapshotStore store(dir);
      snapshot_bytes = store.save_name_fib("popular", name_fib).bytes;
    }
    const auto start = std::chrono::steady_clock::now();
    std::size_t loaded_entries = 0;
    {
      const snap::SnapshotStore store(dir);
      loaded_entries = store.load_name_fib("popular").size();
    }
    const double load_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    if (loaded_entries != name_fib.size()) {
      std::cerr << "name snapshot reload lost entries: " << loaded_entries
                << " != " << name_fib.size() << "\n";
      return 1;
    }
    harness.result("snapshot_name_entries",
                   static_cast<double>(name_fib.size()));
    harness.result("snapshot_bytes_per_entry",
                   static_cast<double>(snapshot_bytes) /
                       static_cast<double>(name_fib.size()));
    harness.result("snapshot_load_ms", load_ms);
    std::cout << "snapshot: popular name FIB at " << vantage.name() << ", "
              << name_fib.size() << " entries, " << snapshot_bytes
              << " bytes ("
              << stats::fmt(static_cast<double>(snapshot_bytes) /
                                static_cast<double>(name_fib.size()),
                            2)
              << " B/entry), reloaded in " << stats::fmt(load_ms, 2)
              << " ms\n";
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
  return 0;
}
