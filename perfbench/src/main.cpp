// lina_perfbench: runs one workload of the lina benchmark and writes its
// raw measurements as one JSON object. perfbench/run.py builds this
// binary, chooses its arguments, and turns the record into metrics.
//
//   lina_perfbench --workload <name> --seed <n> --threads <n>
//                  --setups <n> --warmup <n> --seconds <s> --trace <0|1>
//                  --obs <0|1> --probe <alu|memory> --scratch <dir>
//                  --out <file> [--spans <file>]
//
// The binary sets the workload up --setups times, each time timing the
// build of its inputs and the --warmup unmeasured passes that follow, then
// runs measured passes until --seconds have passed. With --trace 1 it
// alternates untraced and traced passes; traced passes record spans
// (written to --spans at exit) and, with --obs 1, enable the lina::obs
// registry to read its work counters. Every set-up
// and pass is bracketed by a speed probe (alu_probe_s or memory_probe_s,
// as --probe says) and records the hypervisor steal time it suffered (see
// steal_s). Exit status: 0 all output checks passed, 1 a check failed,
// 2 bad arguments or a refused build, 3 an exception.

#include <sched.h>
#include <spawn.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "lina/exec/thread_pool.hpp"
#include "lina/obs/metrics.hpp"
#include "lina/obs/registry.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Values;

struct Options {
  std::string workload;
  std::uint64_t seed = perfbench::kPinnedSeed;
  std::size_t threads = 1;
  std::size_t setups = 1;
  std::size_t warmup = 0;
  double seconds = 1.0;
  bool trace = false;
  bool obs = false;
  std::string probe = "alu";
  std::string scratch;
  std::string out;
  std::string spans;
};

struct RunRecord {
  std::size_t id = 0;
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double probe_s = 0.0;
  double steal_s = 0.0;
  Values counts;
};

struct SetupRecord {
  double seconds = 0.0;  // building the inputs
  double probe_s = 0.0;
  double steal_s = 0.0;
  Values values;
  std::vector<RunRecord> warmups;  // the unmeasured passes that follow
};

/// CPU time the hypervisor gave to other guests, summed over this
/// machine's CPUs (the "steal" column of /proc/stat); 0 where unknown.
double steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  stat >> cpu;
  for (std::uint64_t& f : field) stat >> f;
  if (!stat || cpu != "cpu") return 0.0;
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

volatile std::uint64_t probe_sink = 0;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

/// CPU seconds a fixed integer hash chain (independent of lina) takes
/// right now; CPU time, so hypervisor steal does not count. On shared
/// hosts the machine's speed drifts by 10-20% over minutes; run.py scales
/// each end-to-end time by the probe measured beside it
/// (perfbench/README.md).
double alu_probe_s() {
  const double start = thread_cpu_s();
  std::uint64_t h = 1;
  for (std::uint64_t i = 0; i < 25'000'000; ++i) {
    h ^= h >> 13;
    h *= 0x9E3779B97F4A7C15ULL;
    h += i;
  }
  probe_sink = h;
  return thread_cpu_s() - start;
}

constexpr const char* kMemoryProbeArg = "--memory-probe";

/// The memory probe's body, run in a child process (see memory_probe_s):
/// prints the CPU seconds of one million dependent loads at hashed
/// positions of a fresh 32 MiB buffer, far beyond this host's per-core L2.
int run_memory_probe() {
  // Not outlive the runner that started it.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  constexpr std::size_t kBytes = std::size_t{32} << 20;
  void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return 3;
  auto* words = static_cast<std::uint64_t*>(mem);
  for (std::size_t i = 0; i < kBytes / 8; ++i) {
    words[i] = i * 0x9E3779B97F4A7C15ULL;  // backs every page
  }
  const double start = thread_cpu_s();
  std::uint64_t x = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    // The next position depends on the loaded word, so loads cannot
    // overlap; the top 22 bits index the buffer's 4 Mi words.
    x = words[((x ^ i) * 0xD6E8FEB86659FD93ULL) >> 42];
  }
  probe_sink = x;
  std::cout << std::setprecision(17) << thread_cpu_s() - start << "\n";
  return 0;
}

/// CPU seconds of the memory probe, run in a child process so that its
/// buffer never counts in this process's peak RSS; it tracks contention
/// for the shared cache and memory that the hash chain does not feel.
double memory_probe_s() {
  int out[2];
  if (pipe(out) != 0) throw std::runtime_error("memory probe: pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  char self[] = "/proc/self/exe";
  std::string arg = kMemoryProbeArg;
  char* argv[] = {self, arg.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, self, &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string text;
  char buffer[64];
  while (spawned == 0) {
    const ssize_t n = read(out[0], buffer, sizeof buffer);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buffer, static_cast<std::size_t>(n));
  }
  close(out[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) {
    throw std::runtime_error("memory probe failed");
  }
  return std::stod(text);
}

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "lina_perfbench: " << message << "\n";
  std::exit(2);
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") o.workload = value;
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--threads") o.threads = std::stoul(value);
      else if (arg == "--setups") o.setups = std::stoul(value);
      else if (arg == "--warmup") o.warmup = std::stoul(value);
      else if (arg == "--seconds") o.seconds = std::stod(value);
      else if (arg == "--trace") o.trace = value == "1";
      else if (arg == "--obs") o.obs = value == "1";
      else if (arg == "--probe") o.probe = value;
      else if (arg == "--scratch") o.scratch = value;
      else if (arg == "--out") o.out = value;
      else if (arg == "--spans") o.spans = value;
      else usage_error("unknown argument " + arg);
    } catch (const std::logic_error&) {
      usage_error("bad value '" + value + "' for " + arg);
    }
  }
  if (o.workload.empty() || o.scratch.empty() || o.out.empty()) {
    usage_error("--workload, --scratch and --out are required");
  }
  if (o.setups == 0) usage_error("--setups must be at least 1");
  if (o.trace && o.spans.empty()) usage_error("--trace 1 needs --spans");
  if (o.probe != "alu" && o.probe != "memory") {
    usage_error("--probe must be alu or memory");
  }
  return o;
}

/// Timings from a Debug or sanitizer build say nothing about the code.
std::string refused_build_reason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") return "Debug build";
  return "";
}

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out << '\\' << ch;
    else if (static_cast<unsigned char>(ch) < 0x20) out << ' ';
    else out << ch;
  }
  out << '"';
}

void write_values(std::ostream& out, const Values& values) {
  out << '{';
  const char* sep = "";
  for (const auto& [key, value] : values) {
    out << sep;
    write_string(out, key);
    out << ':' << value;
    sep = ",";
  }
  out << '}';
}

/// The lina::obs counters a traced run reads: deterministic work counts
/// at the trace-store and LPM boundaries.
Values obs_counters() {
  using namespace lina::obs::metric;
  return {{"trace.bytes_read", static_cast<double>(trace_bytes_read().value())},
          {"net.lpm_lookups",
           static_cast<double>(ip_trie_lpm_lookups().value())},
          {"net.lpm_node_visits",
           static_cast<double>(ip_trie_lpm_node_visits().value())}};
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == kMemoryProbeArg) {
    return run_memory_probe();
  }
  const Options options = parse(argc, argv);
  const auto speed_probe_s =
      options.probe == "memory" ? memory_probe_s : alu_probe_s;
  if (const std::string reason = refused_build_reason(); !reason.empty()) {
    usage_error("refusing to measure a " + reason);
  }
  const std::size_t nproc = online_cpus();
  if (options.threads == 0 || options.threads > nproc) {
    usage_error("--threads must be between 1 and nproc (" +
                std::to_string(nproc) + ")");
  }
  lina::exec::set_default_threads(options.threads);

  try {
    perfbench::Tracer tracer;
    perfbench::Checks checks;
    std::unique_ptr<perfbench::Workload> workload;
    std::size_t passes = 0;  // warm-up and measured passes share ids
    // One pass over the current set-up, bracketed by speed probes.
    const auto run_pass = [&](bool traced) {
      RunRecord record;
      record.id = passes++;
      record.traced = traced;
      const fs::path scratch =
          fs::path(options.scratch) / ("run-" + std::to_string(record.id));
      fs::create_directories(scratch);
      perfbench::RunContext ctx{tracer, checks, record.counts, scratch};

      const double probe_before = speed_probe_s();
      tracer.enable(record.traced);
      lina::obs::Registry::instance().enable(record.traced && options.obs);
      const Values before = obs_counters();
      tracer.begin_run(static_cast<std::uint32_t>(record.id));
      const double steal_start = steal_s();
      const std::int64_t cpu_start = perfbench::process_cpu_ns();
      const std::int64_t wall_start = perfbench::steady_ns();
      {
        perfbench::Span root(tracer, "run");
        workload->run(ctx);
      }
      record.wall_s =
          static_cast<double>(perfbench::steady_ns() - wall_start) / 1e9;
      record.cpu_s =
          static_cast<double>(perfbench::process_cpu_ns() - cpu_start) / 1e9;
      record.steal_s = steal_s() - steal_start;
      if (record.traced && options.obs) {
        for (const auto& [key, value] : obs_counters()) {
          record.counts[key] = value - before.at(key);
        }
      }
      lina::obs::Registry::instance().enable(false);
      tracer.enable(false);
      fs::remove_all(scratch);
      record.probe_s = (probe_before + speed_probe_s()) / 2.0;
      return record;
    };

    std::vector<SetupRecord> setups;
    for (std::size_t i = 0; i < options.setups; ++i) {
      workload.reset();  // never hold two set-ups at once
      SetupRecord setup;
      const double probe_before = speed_probe_s();
      const double steal_start = steal_s();
      const std::int64_t start = perfbench::steady_ns();
      workload =
          perfbench::set_up(options.workload, options.seed, setup.values);
      setup.seconds =
          static_cast<double>(perfbench::steady_ns() - start) / 1e9;
      setup.steal_s = steal_s() - steal_start;
      if (!workload) usage_error("unknown workload '" + options.workload + "'");
      setup.probe_s = (probe_before + speed_probe_s()) / 2.0;
      // The first passes over fresh inputs fill lazy caches, so they
      // belong to every set-up.
      for (std::size_t w = 0; w < options.warmup; ++w) {
        setup.warmups.push_back(run_pass(false));
      }
      setups.push_back(std::move(setup));
    }

    std::vector<RunRecord> runs;
    const std::int64_t measure_start = perfbench::steady_ns();
    std::size_t traced_runs = 0;
    while (true) {
      const double elapsed =
          static_cast<double>(perfbench::steady_ns() - measure_start) / 1e9;
      if (!runs.empty() && elapsed >= options.seconds &&
          (!options.trace || traced_runs > 0)) {
        break;
      }
      // Traced and untraced passes alternate, so drift on the machine
      // lands on both sides of the tracing-overhead ratio.
      runs.push_back(run_pass(options.trace && runs.size() % 2 == 1));
      traced_runs += runs.back().traced ? 1 : 0;
    }

    std::ofstream out(options.out);
    out << std::setprecision(17);
    out << "{\"workload\":";
    write_string(out, options.workload);
    out << ",\"seed\":" << options.seed << ",\"threads\":" << options.threads
        << ",\"nproc\":" << nproc
        << ",\"hardware_threads\":" << lina::exec::hardware_threads()
        << ",\"compiler\":";
    write_string(out, std::string("g++ ") + __VERSION__);
    out << ",\"build_type\":";
    write_string(out, PERFBENCH_BUILD_TYPE);
    out << ",\"probe\":";
    write_string(out, options.probe);
    const auto write_runs = [&out](const std::vector<RunRecord>& list) {
      out << '[';
      for (std::size_t i = 0; i < list.size(); ++i) {
        const RunRecord& r = list[i];
        out << (i ? "," : "") << "{\"id\":" << r.id
            << ",\"traced\":" << (r.traced ? "true" : "false")
            << ",\"wall_s\":" << r.wall_s << ",\"cpu_s\":" << r.cpu_s
            << ",\"probe_s\":" << r.probe_s << ",\"steal_s\":" << r.steal_s
            << ",\"counts\":";
        write_values(out, r.counts);
        out << '}';
      }
      out << ']';
    };
    out << ",\"setups\":[";
    for (std::size_t i = 0; i < setups.size(); ++i) {
      out << (i ? "," : "") << "{\"seconds\":" << setups[i].seconds
          << ",\"probe_s\":" << setups[i].probe_s
          << ",\"steal_s\":" << setups[i].steal_s << ",\"values\":";
      write_values(out, setups[i].values);
      out << ",\"warmups\":";
      write_runs(setups[i].warmups);
      out << '}';
    }
    out << "],\"runs\":";
    write_runs(runs);
    out << ",\"checks\":{\"attempted\":" << checks.attempted()
        << ",\"failed\":" << checks.failed() << ",\"failures\":[";
    for (std::size_t i = 0; i < checks.failures().size(); ++i) {
      if (i) out << ',';
      write_string(out, checks.failures()[i]);
    }
    out << "]},\"peak_rss_mib\":" << perfbench::peak_rss_mib() << "}\n";
    out.close();
    if (options.trace) tracer.write_jsonl(options.spans);
    if (!out) {
      std::cerr << "lina_perfbench: cannot write " << options.out << "\n";
      return 3;
    }
    return checks.failed() == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::cerr << "lina_perfbench: " << error.what() << "\n";
    return 3;
  }
}
