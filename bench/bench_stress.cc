// Sustained-overload stress harness (docs/overload.md).
//
// Runs an O(10^4)-query §8 testbed cell under bursty MMPP On/Off arrivals
// calibrated *past* saturation (default utilization 3.0 — offered work is
// three times the service rate, so queues grow without bound unless
// something gives) and measures how the overload-survival machinery trades
// completeness for responsiveness:
//
//  * the shed frontier: policies {hnr, lsf, bsd} × shed_fraction
//    {0, 0.25, 0.5, 1.0} with the engine's QoS-aware source shedder
//    (exec::ShedConfig) — each cell reports shed_ratio vs p99_slowdown, the
//    frontier a deployment picks its operating point from;
//  * the admission cells: the same policies at shards=4 with per-class
//    admission control (sched::AdmissionConfig) capping each shard's
//    per-window tuple budget at roughly half the offered rate.
//
// Cells are spliced into the aqsios-bench-perf/1 report (default:
// BENCH_perf.json — run from the repo root to refresh the tracked
// trajectory) as
//   {"name": "stress/<policy>/q=N/shed=F", "ns_per_op": wall_ns/offered,
//    "ops": offered, "wall_ms": W, "shed_ratio": R, "p99_slowdown": P,
//    "avg_slowdown": A, "peak_queued_tuples": Q, "tuples_emitted": E,
//    "healthy": B, "health": "<verdict>"}
// and "stress/<policy>/q=N/admission=shards4" lines carrying
// "admission_dropped" instead of "shed_ratio". Existing stress/ lines are
// replaced; every other benchmark line and the report header are preserved
// byte-for-byte. The health fields restate the telemetry watchdog's run-end
// verdict (core::RestateHealth, docs/telemetry.md) from the deterministic
// counters — overload cells are expected to read unhealthy.
//
// --metrics-out / --telemetry-jsonl / --metrics-port attach a live
// telemetry sampler (obs::TelemetrySampler) to the first repetition of each
// cell; later repetitions run bare, so the determinism CHECK doubles as
// proof that sampling never perturbs results.
//
// In full mode the suite aborts unless, for every policy, (a) repeated runs
// agree exactly (the determinism contract: the shed set is static and
// admission keys on the arrival sequence alone), (b) full shedding bounds
// peak_queued_tuples by the configured queue cap, (c) the frontier is real —
// p99 slowdown under full shedding beats the no-shedding baseline — and
// (d) the admission cells actually dropped arrivals. --quick runs a
// scaled-down cell as a CI/sanitizer smoke test and skips the (c) bar
// (tiny workloads make the frontier noisy).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/flags.h"
#include "core/dsms.h"
#include "core/report.h"
#include "core/sharded_dsms.h"
#include "obs/telemetry.h"
#include "query/workload.h"
#include "sched/policy.h"

namespace aqsios {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct PolicyUnderTest {
  const char* label;
  sched::PolicyKind kind;
};

constexpr PolicyUnderTest kPolicies[] = {
    {"hnr", sched::PolicyKind::kHnr},
    {"lsf", sched::PolicyKind::kLsf},
    {"bsd", sched::PolicyKind::kBsd},
};

struct StressCell {
  std::string policy;
  double shed_fraction = 0.0;   // frontier cells
  bool admission = false;       // admission cells (shards=4)
  double wall_ms = 0.0;         // fastest repetition
  int64_t offered = 0;          // tuples offered to the shedder / router
  double shed_ratio = 0.0;
  double p99_slowdown = 0.0;
  double avg_slowdown = 0.0;
  int64_t peak_queued_tuples = 0;
  int64_t tuples_emitted = 0;
  int64_t admission_dropped = 0;
  /// Run-end health verdict, restated deterministically from the merged
  /// counters (core::RestateHealth) — independent of sampler timing.
  obs::HealthVerdict health;
};

/// Live-telemetry wiring shared by all cells (docs/telemetry.md). When any
/// output is enabled the first repetition of each cell runs with a hub +
/// sampler attached; later repetitions run bare, so the existing
/// repetition-determinism CHECK doubles as a live proof that telemetry
/// never perturbs results.
struct TelemetrySetup {
  obs::TelemetryOptions options;
  bool enabled = false;
};

/// Runs `body` (one simulation) with a sampler attached to `hub`.
template <typename Body>
void WithSampler(const TelemetrySetup& telemetry, obs::TelemetryHub* hub,
                 const std::string& policy_label, Body&& body) {
  obs::TelemetryMeta meta;
  meta.job = "bench_stress";
  meta.policy = policy_label;
  obs::TelemetrySampler sampler(hub, telemetry.options, meta);
  sampler.Start();
  body();
  sampler.Stop();
}

/// The virtual-result signature repeated runs must reproduce exactly.
struct CellSignature {
  int64_t tuples_emitted = 0;
  int64_t tuples_shed = 0;
  int64_t admission_dropped = 0;
  double p99_slowdown = 0.0;

  bool operator==(const CellSignature& other) const {
    return tuples_emitted == other.tuples_emitted &&
           tuples_shed == other.tuples_shed &&
           admission_dropped == other.admission_dropped &&
           p99_slowdown == other.p99_slowdown;
  }
};

/// One frontier cell: `reps` timed runs of (policy, shed_fraction), fastest
/// wall kept, virtual results checked identical across repetitions.
StressCell RunShedCell(const query::Workload& workload,
                       const sched::PolicyConfig& policy,
                       const std::string& label, double shed_fraction,
                       int64_t queue_cap, int reps,
                       const TelemetrySetup& telemetry) {
  core::SimulationOptions options;
  options.qos.track_per_class = false;
  options.shed.enabled = true;
  options.shed.queue_cap = queue_cap;
  options.shed.shed_fraction = shed_fraction;

  StressCell cell;
  cell.policy = label;
  cell.shed_fraction = shed_fraction;
  CellSignature first_sig;
  for (int rep = 0; rep < reps; ++rep) {
    core::RunResult result;
    const bool sampled = telemetry.enabled && rep == 0;
    const Clock::time_point start = Clock::now();
    if (sampled) {
      obs::TelemetryHub hub(1);
      options.telemetry = &hub;
      WithSampler(telemetry, &hub, label, [&] {
        result = core::Simulate(workload, policy, options);
      });
      options.telemetry = nullptr;
    } else {
      result = core::Simulate(workload, policy, options);
    }
    const double ms = ElapsedMs(start);
    CellSignature sig;
    sig.tuples_emitted = result.qos.tuples_emitted;
    sig.tuples_shed = result.counters.tuples_shed;
    sig.p99_slowdown = result.qos.p99_slowdown;
    if (rep == 0) {
      first_sig = sig;
      cell.wall_ms = ms;
      cell.offered = result.counters.tuples_offered;
      cell.shed_ratio = result.counters.ShedRatio();
      cell.p99_slowdown = result.qos.p99_slowdown;
      cell.avg_slowdown = result.qos.avg_slowdown;
      cell.peak_queued_tuples = result.counters.peak_queued_tuples;
      cell.tuples_emitted = result.qos.tuples_emitted;
      cell.health = core::RestateHealth(result, telemetry.options.watchdog);
    } else {
      AQSIOS_CHECK(sig == first_sig)
          << "repeated stress runs diverged at " << label
          << "/shed=" << shed_fraction;
      cell.wall_ms = std::min(cell.wall_ms, ms);
    }
  }
  return cell;
}

/// One admission cell: shards=4, per-class admission budgets capped at
/// roughly half the offered per-window rate, shedding off.
StressCell RunAdmissionCell(const query::Workload& workload,
                            const sched::PolicyConfig& policy,
                            const std::string& label, int reps,
                            const TelemetrySetup& telemetry) {
  core::SimulationOptions options;
  options.qos.track_per_class = false;
  options.shards = 4;
  options.admission.enabled = true;
  options.admission.window_seconds = 1.0;
  // Budget ≈ half the offered rate: arrivals fan out to every shard
  // subscribed to their stream (all 4 here — queries hash across shards),
  // so the offered per-window demand is 4 × arrivals / span windows.
  const double span = workload.arrivals.arrivals.empty()
                          ? 1.0
                          : workload.arrivals.arrivals.back().time;
  const double windows = std::max(1.0, std::ceil(span / 1.0));
  options.admission.tuples_per_window = std::max<int64_t>(
      1, static_cast<int64_t>(
             4.0 * static_cast<double>(workload.arrivals.arrivals.size()) /
             (2.0 * windows)));

  StressCell cell;
  cell.policy = label;
  cell.admission = true;
  CellSignature first_sig;
  for (int rep = 0; rep < reps; ++rep) {
    core::ShardedRunResult sharded;
    const bool sampled = telemetry.enabled && rep == 0;
    const Clock::time_point start = Clock::now();
    if (sampled) {
      obs::TelemetryHub hub(4);
      options.telemetry = &hub;
      WithSampler(telemetry, &hub, label, [&] {
        sharded = core::SimulateSharded(workload, policy, options);
      });
      options.telemetry = nullptr;
    } else {
      sharded = core::SimulateSharded(workload, policy, options);
    }
    const double ms = ElapsedMs(start);
    int64_t dropped = 0;
    int64_t routed = 0;
    for (const core::ShardRunStats& stats : sharded.shard_stats) {
      dropped += stats.admission_dropped;
      routed += stats.arrivals;
    }
    CellSignature sig;
    sig.tuples_emitted = sharded.result.qos.tuples_emitted;
    sig.admission_dropped = dropped;
    sig.p99_slowdown = sharded.result.qos.p99_slowdown;
    if (rep == 0) {
      first_sig = sig;
      cell.wall_ms = ms;
      cell.offered = routed + dropped;
      cell.p99_slowdown = sharded.result.qos.p99_slowdown;
      cell.avg_slowdown = sharded.result.qos.avg_slowdown;
      cell.peak_queued_tuples = sharded.result.counters.peak_queued_tuples;
      cell.tuples_emitted = sharded.result.qos.tuples_emitted;
      cell.admission_dropped = dropped;
      cell.health = core::RestateHealth(sharded.result,
                                        telemetry.options.watchdog, routed,
                                        dropped);
    } else {
      AQSIOS_CHECK(sig == first_sig)
          << "repeated admission runs diverged at " << label;
      cell.wall_ms = std::min(cell.wall_ms, ms);
    }
  }
  return cell;
}

std::string CellName(const StressCell& cell, int queries) {
  std::ostringstream os;
  os << "stress/" << cell.policy << "/q=" << queries;
  if (cell.admission) {
    os << "/admission=shards4";
  } else {
    os << "/shed=" << cell.shed_fraction;
  }
  return os.str();
}

std::string CellLine(const StressCell& cell, int queries) {
  std::ostringstream os;
  os.precision(17);
  const double wall_ns = cell.wall_ms * 1e6;
  os << "    {\"name\": \"" << CellName(cell, queries)
     << "\", \"ns_per_op\": "
     << wall_ns / static_cast<double>(std::max<int64_t>(cell.offered, 1))
     << ", \"ops\": " << cell.offered << ", \"wall_ms\": " << cell.wall_ms;
  if (cell.admission) {
    os << ", \"admission_dropped\": " << cell.admission_dropped;
  } else {
    os << ", \"shed_ratio\": " << cell.shed_ratio;
  }
  os << ", \"p99_slowdown\": " << cell.p99_slowdown
     << ", \"avg_slowdown\": " << cell.avg_slowdown
     << ", \"peak_queued_tuples\": " << cell.peak_queued_tuples
     << ", \"tuples_emitted\": " << cell.tuples_emitted
     << ", \"healthy\": " << (cell.health.healthy ? "true" : "false")
     << ", \"health\": \"" << cell.health.ToString() << "\"}";
  return os.str();
}

int Main(int argc, char** argv) {
  std::string out = "BENCH_perf.json";
  int queries = 10000;
  int64_t arrivals = 1000;
  int64_t seed = 42;
  int reps = 2;
  double utilization = 3.0;
  int64_t queue_cap = 4096;
  bool quick = false;
  std::string metrics_out;
  std::string telemetry_jsonl;
  double telemetry_period_ms = 100.0;
  int metrics_port = -1;
  FlagSet flags("bench_stress");
  flags.AddString("out", &out,
                  "perf report to splice the stress cells into (empty = "
                  "stdout only)");
  flags.AddInt("queries", &queries, "registered CQs for the stress cell");
  flags.AddInt("arrivals", &arrivals, "stream arrivals for the stress cell");
  flags.AddInt("seed", &seed, "workload seed");
  flags.AddInt("reps", &reps, "repetitions per cell (min is reported)");
  flags.AddDouble("utilization", &utilization,
                  "target utilization; > 1 = sustained overload");
  flags.AddInt("queue-cap", &queue_cap,
               "shedder queue cap (total queued tuples) for the shed cells");
  flags.AddBool("quick", &quick,
                "CI smoke mode: scaled-down cell, 1 rep, no frontier bar");
  flags.AddString("metrics-out", &metrics_out,
                  "OpenMetrics exposition file, atomically replaced every "
                  "sampler tick (empty = no live telemetry)");
  flags.AddString("telemetry-jsonl", &telemetry_jsonl,
                  "structured telemetry log (one JSON object per sample)");
  flags.AddDouble("telemetry-period-ms", &telemetry_period_ms,
                  "sampler period in wall milliseconds");
  flags.AddInt("metrics-port", &metrics_port,
               "serve /metrics on 127.0.0.1:<port> while sampling "
               "(0 = ephemeral, -1 = off)");
  const Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    if (flags.help_requested()) return 0;
    std::cerr << "bench_stress: " << status << "\n" << flags.Usage();
    return 2;
  }
  if (quick) {
    reps = 1;
    queries = std::min(queries, 400);
    arrivals = std::min<int64_t>(arrivals, 400);
    queue_cap = std::min<int64_t>(queue_cap, 512);
  }
  AQSIOS_CHECK(utilization > 1.0)
      << "a stress harness below saturation measures nothing";

  TelemetrySetup telemetry;
  telemetry.options.metrics_out = metrics_out;
  telemetry.options.jsonl_out = telemetry_jsonl;
  telemetry.options.period_ms = telemetry_period_ms;
  telemetry.options.http_port = metrics_port;
  // The run-end verdict keys off the same cap the shedder enforces; the
  // defaults (20% shed / rejected-arrival fractions) mark the overload
  // cells unhealthy, which is the point of a stress suite.
  telemetry.options.watchdog.queue_cap = queue_cap;
  telemetry.enabled =
      !metrics_out.empty() || !telemetry_jsonl.empty() || metrics_port >= 0;

  const Clock::time_point suite_start = Clock::now();

  query::WorkloadConfig config;
  config.num_queries = queries;
  config.num_arrivals = arrivals;
  config.seed = static_cast<uint64_t>(seed);
  config.utilization = utilization;
  const query::Workload workload = query::GenerateWorkload(config);
  std::cout << "stress testbed: " << queries << " queries, " << arrivals
            << " MMPP arrivals, target utilization " << utilization
            << " (calibrated " << workload.expected_utilization << ")\n\n";

  const double shed_fractions[] = {0.0, 0.25, 0.5, 1.0};
  std::vector<StressCell> cells;
  for (const PolicyUnderTest& under_test : kPolicies) {
    const sched::PolicyConfig policy = sched::PolicyConfig::Of(under_test.kind);
    StressCell baseline;
    StressCell full_shed;
    for (const double fraction : shed_fractions) {
      cells.push_back(RunShedCell(workload, policy, under_test.label, fraction,
                                  queue_cap, reps, telemetry));
      const StressCell& cell = cells.back();
      std::cout << CellName(cell, queries) << ": shed_ratio "
                << cell.shed_ratio << ", p99 slowdown " << cell.p99_slowdown
                << ", peak queue " << cell.peak_queued_tuples << ", health "
                << cell.health.ToString() << ", " << cell.wall_ms << " ms\n";
      if (fraction == 0.0) baseline = cell;
      if (fraction == 1.0) full_shed = cell;
    }
    AQSIOS_CHECK(baseline.shed_ratio == 0.0)
        << under_test.label << ": shed_fraction=0 must shed nothing";
    AQSIOS_CHECK(full_shed.peak_queued_tuples <= queue_cap)
        << under_test.label << ": full shedding must bound the queue at "
        << queue_cap << ", got " << full_shed.peak_queued_tuples;
    if (!quick) {
      AQSIOS_CHECK(full_shed.shed_ratio > 0.0)
          << under_test.label
          << ": sustained overload past a finite cap must shed";
      AQSIOS_CHECK(full_shed.p99_slowdown < baseline.p99_slowdown)
          << under_test.label
          << ": the frontier is inverted — full shedding must beat the "
             "no-shedding p99 (" << full_shed.p99_slowdown << " vs "
          << baseline.p99_slowdown << ")";
    }

    cells.push_back(
        RunAdmissionCell(workload, policy, under_test.label, reps, telemetry));
    const StressCell& admission = cells.back();
    std::cout << CellName(admission, queries) << ": dropped "
              << admission.admission_dropped << "/" << admission.offered
              << ", p99 slowdown " << admission.p99_slowdown << ", health "
              << admission.health.ToString() << ", " << admission.wall_ms
              << " ms\n\n";
    AQSIOS_CHECK(admission.admission_dropped > 0)
        << under_test.label
        << ": a budget at half the offered rate must drop arrivals";
  }

  std::vector<std::string> lines;
  for (const StressCell& cell : cells) {
    lines.push_back(CellLine(cell, queries));
  }
  const double total_wall_ms = ElapsedMs(suite_start);
  if (!out.empty()) {
    if (!bench::SplicePerfReport("bench_stress", out, {"stress/"}, lines, quick,
                                 queries, arrivals,
                                 static_cast<uint64_t>(seed), reps,
                                 total_wall_ms)) {
      return 1;
    }
    std::cout << "spliced " << lines.size() << " stress cells into " << out
              << "\n";
  } else {
    for (const std::string& line : lines) std::cout << line << "\n";
  }
  std::cout << "total: " << total_wall_ms << " ms\n";
  return 0;
}

}  // namespace
}  // namespace aqsios

int main(int argc, char** argv) { return aqsios::Main(argc, argv); }
