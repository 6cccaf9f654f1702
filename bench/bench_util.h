// Shared plumbing for the figure/table bench binaries.
//
// Each bench reproduces one table or figure of the paper: it runs the §8
// testbed workload (scaled down by default so every binary terminates in
// seconds on one core; scale up with --queries/--arrivals) and prints the
// same rows/series the paper reports, plus the paper's qualitative claim so
// the output is self-checking.

#ifndef AQSIOS_BENCH_BENCH_UTIL_H_
#define AQSIOS_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/sharded_dsms.h"
#include "obs/chrome_trace.h"
#include "obs/shard_trace.h"
#include "obs/tracer.h"

namespace aqsios::bench {

/// Standard workload knobs shared by all figure benches.
struct BenchArgs {
  int queries = 60;
  int64_t arrivals = 15000;
  uint64_t seed = 42;
  std::string utilizations = "0.5,0.7,0.8,0.9,0.95";
  /// Also emit the sweep as JSON (machine-readable, for plotting).
  bool json = false;
  /// Worker threads for RunSweep cells (0 = one per hardware thread,
  /// 1 = serial). Any value produces bit-identical results.
  int threads = 0;
  /// Replay arrivals from this aqsios-trace file (e.g. a converted
  /// LBL-PKT-4) instead of the synthetic On/Off process.
  std::string trace;
  /// Write a Chrome trace-event JSON of one traced simulation (the sweep's
  /// first utilization under its first policy) to this path; load it in
  /// Perfetto / chrome://tracing. Empty = no trace.
  std::string trace_out;
  /// Tuple-train batch size forwarded to SimulationOptions::batch_size:
  /// 1 = classic per-tuple dispatch, 0 = drain the picked queue, k > 1 =
  /// up to k tuples per scheduling decision.
  int batch = 1;
  /// Shards forwarded to SimulationOptions::shards: 1 = the classic
  /// single-scheduler runtime (byte-identical results); K > 1 = the
  /// shard-parallel runtime (docs/scaling.md).
  int shards = 1;

  std::vector<double> UtilizationList() const {
    std::vector<double> result;
    std::string token;
    for (char c : utilizations + ",") {
      if (c == ',') {
        if (!token.empty()) result.push_back(std::strtod(token.c_str(), nullptr));
        token.clear();
      } else {
        token += c;
      }
    }
    return result;
  }
};

/// Registers the standard flags and parses argv; exits on --help or error.
/// Callers may override the scale defaults (e.g. the clustering benches use
/// more queries so per-cluster amortization resembles the paper's 500-query
/// testbed).
inline BenchArgs ParseBenchArgs(const std::string& name, int argc,
                                const char* const* argv, FlagSet* flags,
                                int default_queries = 60,
                                int64_t default_arrivals = 15000) {
  static BenchArgs args;  // targets must outlive Parse
  args = BenchArgs();
  args.queries = default_queries;
  args.arrivals = default_arrivals;
  flags->AddInt("queries", &args.queries, "number of registered CQs");
  flags->AddInt("arrivals", &args.arrivals, "total stream arrivals");
  int64_t seed = 42;
  flags->AddInt("seed", &seed, "workload seed");
  flags->AddString("utils", &args.utilizations,
                   "comma-separated utilization sweep");
  flags->AddBool("json", &args.json, "also print the sweep as JSON");
  flags->AddInt("threads", &args.threads,
                "sweep worker threads (0 = all hardware threads, 1 = serial; "
                "results are identical for any value)");
  flags->AddString("trace", &args.trace,
                   "replay arrivals from this trace file (e.g. converted "
                   "LBL-PKT-4) instead of synthetic On/Off traffic");
  flags->AddString("trace-out", &args.trace_out,
                   "write a Chrome trace-event JSON (Perfetto-loadable) of "
                   "one traced run to this path");
  flags->AddInt("batch", &args.batch,
                "tuple-train batch size (1 = per-tuple dispatch, 0 = drain "
                "the picked queue, k > 1 = up to k tuples per decision)");
  flags->AddInt("shards", &args.shards,
                "scheduler shards (1 = classic single-scheduler runtime; "
                "K > 1 = partitioned shard-parallel runtime)");
  const Status status = flags->Parse(argc, argv);
  if (!status.ok()) {
    if (flags->help_requested()) std::exit(0);
    std::cerr << name << ": " << status << "\n" << flags->Usage();
    std::exit(2);
  }
  args.seed = static_cast<uint64_t>(seed);
  return args;
}

/// The paper's default single-stream testbed configuration.
inline query::WorkloadConfig TestbedConfig(const BenchArgs& args) {
  query::WorkloadConfig config;
  config.num_queries = args.queries;
  config.num_arrivals = args.arrivals;
  config.seed = args.seed;
  if (!args.trace.empty()) {
    config.arrival_pattern = query::ArrivalPattern::kTraceFile;
    config.trace_path = args.trace;
  }
  return config;
}

/// A SweepConfig pre-filled with the standard knobs (testbed workload,
/// utilization list, worker threads); callers add policies and options.
inline core::SweepConfig TestbedSweep(const BenchArgs& args) {
  core::SweepConfig sweep;
  sweep.workload = TestbedConfig(args);
  sweep.utilizations = args.UtilizationList();
  sweep.threads = args.threads;
  // Stage-attribute every 32nd arrival id: cheap (one modulo per emission),
  // deterministic, and the same tuples are sampled under every policy, so
  // the per-policy attribution blocks in the JSON reports are comparable.
  sweep.options.attribution_sample_every = 32;
  sweep.options.batch_size = args.batch;
  sweep.options.shards = args.shards;
  return sweep;
}

inline void PrintHeader(const std::string& title, const std::string& claim) {
  std::cout << "=== " << title << " ===\n";
  std::cout << "paper claim: " << claim << "\n\n";
}

/// Emits the sweep as a JSON line when --json was passed.
inline void MaybePrintJson(const BenchArgs& args,
                           const std::vector<core::SweepCell>& cells) {
  if (!args.json) return;
  std::cout << "JSON: " << core::SweepToJson(cells) << "\n";
}

/// When --trace-out was passed, re-runs the sweep's (first utilization,
/// first policy) cell with an event tracer attached and writes the Chrome
/// trace-event JSON. Runs *after* the sweep so its results are untouched
/// (and identical whether or not a trace is requested — tracing is
/// observation-only).
inline void MaybeWriteTrace(const BenchArgs& args,
                            const core::SweepConfig& sweep) {
  if (args.trace_out.empty()) return;
  query::WorkloadConfig workload_config = sweep.workload;
  workload_config.utilization = sweep.utilizations.front();
  const query::Workload workload = query::GenerateWorkload(workload_config);

  core::SimulationOptions options = sweep.options;
  obs::ChromeTraceMeta meta;
  meta.num_queries = workload.plan.num_queries();
  meta.num_shards = options.shards > 1 ? options.shards : 1;
  Status status = Status::Ok();
  size_t kept = 0;
  size_t dropped = 0;
  if (options.shards > 1) {
    // Sharded runs need one private single-producer sink per shard; the
    // per-shard timelines are merged into one deterministic trace.
    std::vector<obs::EventTracer> tracers(
        static_cast<size_t>(options.shards));
    std::vector<obs::EventTracer*> tracer_ptrs;
    for (obs::EventTracer& tracer : tracers) tracer_ptrs.push_back(&tracer);
    const core::ShardedRunResult sharded = core::SimulateSharded(
        workload, sweep.policies.front(), options, &tracer_ptrs);
    meta.policy = sharded.result.policy_name;
    std::vector<obs::ShardTraceInput> inputs;
    for (size_t s = 0; s < tracers.size(); ++s) {
      inputs.push_back({&tracers[s], &sharded.query_id_maps[s]});
      kept += tracers[s].size();
      dropped += tracers[s].dropped();
    }
    status = obs::WriteChromeTrace(args.trace_out,
                                   obs::MergeShardTraces(inputs), meta);
  } else {
    obs::EventTracer tracer;
    options.tracer = &tracer;
    const core::RunResult result =
        core::Simulate(workload, sweep.policies.front(), options);
    meta.policy = result.policy_name;
    kept = tracer.size();
    dropped = tracer.dropped();
    status = obs::WriteChromeTrace(args.trace_out, tracer, meta);
  }
  if (!status.ok()) {
    std::cerr << "trace-out: " << status << "\n";
    std::exit(1);
  }
  std::cout << "wrote trace " << args.trace_out << " (" << kept
            << " events kept, " << dropped << " dropped, policy "
            << meta.policy << " at utilization "
            << sweep.utilizations.front() << ")\n";
}

/// Prints "<label>: <a> vs <b> (<percent>% lower)" comparisons used by the
/// self-check lines under each table.
inline void PrintReduction(const std::string& label, double ours,
                           double baseline) {
  const double percent =
      baseline > 0.0 ? (1.0 - ours / baseline) * 100.0 : 0.0;
  std::cout << label << ": " << ours << " vs " << baseline << "  ("
            << percent << "% lower)\n";
}

// ---------------------------------------------------------------------------
// aqsios-bench-perf/1 reports (BENCH_perf.json).

/// The host's CPU model name: the first "model name" line of /proc/cpuinfo,
/// or "unknown" where there is none.
inline std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const size_t start = line.find_first_not_of(' ', colon + 1);
    return start == std::string::npos ? "unknown" : line.substr(start);
  }
  return "unknown";
}

inline std::string CompilerId() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// `text` as a JSON string literal.
inline std::string JsonString(const std::string& text) {
  std::string quoted = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) quoted += c;
  }
  return quoted + "\"";
}

/// The report header lines that say how and where its cells were measured:
/// "mode" ("quick" cells reuse the full-mode names at smaller sizes),
/// "cpu_model", "nproc" (hardware threads) and "compiler", in that order.
inline std::vector<std::string> ProvenanceLines(bool quick) {
  return {
      std::string("  \"mode\": \"") + (quick ? "quick" : "full") + "\",",
      "  \"cpu_model\": " + JsonString(CpuModel()) + ",",
      "  \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
          ",",
      "  \"compiler\": " + JsonString(CompilerId()) + ",",
  };
}

/// Splices `cells` (one JSON object line each, without trailing comma) into
/// the aqsios-bench-perf/1 report at `path`. Benchmark lines whose name
/// starts with one of `owned_prefixes` are replaced, the others (micro
/// benches, the other splicing benches' cells) kept verbatim, and trailing
/// commas re-normalized. A missing report, or a file not in the report's
/// shape, is replaced by a fresh report whose header carries this run's
/// provenance and workload knobs. An existing report is only spliced into
/// when its header carries this run's ProvenanceLines exactly: otherwise
/// the cells would inherit another host's or mode's header, so `bench`
/// reports the mismatch, leaves the file untouched and returns false (write
/// to another --out instead). Also returns false when `path` cannot be
/// written.
inline bool SplicePerfReport(const std::string& bench, const std::string& path,
                             const std::vector<std::string>& owned_prefixes,
                             const std::vector<std::string>& cells,
                             bool quick, int queries, int64_t arrivals,
                             uint64_t seed, int reps, double total_wall_ms) {
  const std::vector<std::string> provenance = ProvenanceLines(quick);
  const auto owned = [&](const std::string& line) {
    for (const std::string& prefix : owned_prefixes) {
      if (line.rfind("    {\"name\": \"" + prefix, 0) == 0) return true;
    }
    return false;
  };
  std::vector<std::string> header;
  std::vector<std::string> kept;
  bool parsed = false;
  {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      if (!parsed) {
        header.push_back(line);
        parsed = line == "  \"benchmarks\": [";
      } else if (line.rfind("    {\"name\": ", 0) == 0 && !owned(line)) {
        // Footer lines ("  ]", "}") are re-emitted from scratch below.
        if (line.back() == ',') line.pop_back();
        kept.push_back(line);
      }
    }
  }
  if (parsed) {
    for (const std::string& expected : provenance) {
      const size_t colon = expected.find(':');
      const std::string key = expected.substr(0, colon + 1);
      std::string found;
      for (const std::string& line : header) {
        if (line.rfind(key, 0) == 0) found = line;
      }
      if (found != expected) {
        // The text after "<key>: ", without a trailing comma.
        const auto value = [&](std::string line) {
          if (line.back() == ',') line.pop_back();
          return line.substr(std::min(colon + 2, line.size()));
        };
        std::cerr << bench << ": not splicing into " << path << ": its "
                  << key.substr(2, key.size() - 3) << " is "
                  << (found.empty() ? "missing" : value(found))
                  << ", this run's is " << value(expected)
                  << " (write to another --out)\n";
        return false;
      }
    }
  } else {
    std::ostringstream os;
    os.precision(17);
    os << "{\n  \"schema\": \"aqsios-bench-perf/1\",\n";
    for (const std::string& line : provenance) os << line << "\n";
    os << "  \"queries\": " << queries << ",\n";
    os << "  \"arrivals\": " << arrivals << ",\n";
    os << "  \"seed\": " << seed << ",\n";
    os << "  \"reps\": " << reps << ",\n";
    os << "  \"total_wall_ms\": " << total_wall_ms << ",\n";
    os << "  \"benchmarks\": [";
    header.clear();
    std::istringstream is(os.str());
    for (std::string line; std::getline(is, line);) header.push_back(line);
  }

  std::vector<std::string> body = kept;
  body.insert(body.end(), cells.begin(), cells.end());
  std::ofstream out(path);
  if (!out.good()) {
    std::cerr << bench << ": cannot write " << path << "\n";
    return false;
  }
  for (const std::string& line : header) out << line << "\n";
  for (size_t i = 0; i < body.size(); ++i) {
    out << body[i] << (i + 1 < body.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  if (!out.good()) {
    std::cerr << bench << ": cannot write " << path << "\n";
    return false;
  }
  return true;
}

}  // namespace aqsios::bench

#endif  // AQSIOS_BENCH_BENCH_UTIL_H_
