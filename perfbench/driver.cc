// perfbench_driver: runs one named workload and prints its metrics.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--spans-out <path>] [--source-rev <text>]
//
// --trace 0 (the end-to-end pass) times setup several times and the
// simulate call repeatedly for --seconds, and prints the end-to-end metrics
// of kEndToEndMetrics. --trace 1 (the traced pass) wraps the scheduler in a
// counting/timing decorator, times each module's calls from outside, and
// prints the per-layer metrics of kPerLayerMetrics. Both passes check the
// outputs; the last line of stdout is one JSON object
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// where `attempted` counts simulate calls and `failed` those whose output
// checks failed. Any failed check makes the exit code 1.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/json.h"
#include "core/dsms.h"
#include "core/report.h"
#include "core/sharded_dsms.h"
#include "exec/engine.h"
#include "metrics/qos.h"
#include "obs/tracer.h"
#include "perfbench/metric_table.h"
#include "perfbench/span_log.h"
#include "perfbench/traced_scheduler.h"
#include "perfbench/workloads.h"
#include "sched/policy.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace aqsios::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The q-quantile of `values` by nearest rank below: sorted[floor(q (n-1))].
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<size_t>(rank)];
}

/// Index of the lower-median element of `values`.
size_t MedianIndex(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  return order[(order.size() - 1) / 2];
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    const size_t last = model.find_last_not_of(' ');
    if (first != std::string::npos) {
      return model.substr(first, last - first + 1);
    }
  }
#endif
  return "unknown";
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Host-speed calibration ------------------------------------------------
// The 4-core host this benchmark was defined on is shared with other
// machines' work. Whole-machine slow phases lasting seconds to minutes made
// the same simulate call up to 50% slower on every CPU at once, with no steal
// time visible inside the guest, so the fastest decile of one 15 s run still
// moved 25% between runs. A fixed kernel slows in the same phases: a
// dependent pointer chase over a 128 KiB random cycle, which stays in a
// core's private cache. One chunk of it runs after every timed span (after
// one untimed pass that brings the cycle back into cache, so the span's own
// cache footprint does not change the chunk's time), and the span is
// reported as
//   wall time / mean(chunk before, chunk after) x kReferenceChunkSeconds,
// i.e. in seconds of a host that runs one chunk in kReferenceChunkSeconds.
// Spans longer than the phases are cut into virtual-time epochs (see
// RunEngine) so that each piece is calibrated by the chunks around it. The
// uncalibrated figures are printed on the `note:` lines.
class HostCalibration {
 public:
  /// One chunk's time on the reference host: its fast-phase time on the host
  /// the benchmark was defined on (Intel Xeon, 4 vCPUs, 2.1 GHz).
  static constexpr double kReferenceChunkSeconds = 0.8e-3;

  HostCalibration() : next_(kCycle) {
    std::vector<uint32_t> order(kCycle);
    for (uint32_t i = 0; i < kCycle; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), std::mt19937(12345));
    for (uint32_t i = 0; i < kCycle; ++i) {
      next_[order[i]] = order[(i + 1) % kCycle];
    }
    last_chunk_s_ = Chunk();
  }

  /// Reference-host seconds of a span of `wall_s` that has just ended.
  double Calibrate(double wall_s) {
    const double chunk_s = Chunk();
    const double calibrated =
        wall_s / (0.5 * (last_chunk_s_ + chunk_s)) * kReferenceChunkSeconds;
    last_chunk_s_ = chunk_s;
    chunks_.push_back(chunk_s);
    return calibrated;
  }

  const std::vector<double>& chunks() const { return chunks_; }
  /// Keeps the kernel's work observable.
  uint64_t checksum() const { return sink_; }

 private:
  static constexpr uint32_t kCycle = 1u << 15;  // 128 KiB of uint32_t
  static constexpr int kChunkSteps = 200000;

  double Chunk() {
    uint32_t cursor = cursor_;
    for (uint32_t step = 0; step < kCycle; ++step) cursor = next_[cursor];
    const Clock::time_point start = Clock::now();
    for (int step = 0; step < kChunkSteps; ++step) {
      cursor = next_[cursor];
      sink_ += cursor;
    }
    const double seconds = Since(start);
    cursor_ = cursor;
    return seconds;
  }

  std::vector<uint32_t> next_;
  uint32_t cursor_ = 0;
  uint64_t sink_ = 0;
  double last_chunk_s_ = 0.0;
  std::vector<double> chunks_;
};

// --- Output checks ---------------------------------------------------------

class Checker {
 public:
  /// Records one simulate call; `ok` false marks it failed.
  void Attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  /// Evaluates `condition`; on failure prints `what` and returns false.
  bool Expect(bool condition, const std::string& what) {
    if (!condition) {
      std::cerr << "perfbench: CHECK FAILED: " << what << "\n";
      all_passed_ = false;
    }
    return condition;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return failed_ == 0 && all_passed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool all_passed_ = true;
};

/// Invariants visible from outside one run: slowdown >= 1, measured
/// utilization <= 1, work conservation offered = delivered + shed, and the
/// §9.2 overhead identity where overhead is charged.
bool CheckRunInvariants(const WorkloadSpec& spec,
                        const query::Workload& workload,
                        const core::RunResult& result,
                        const std::vector<core::ShardRunStats>* shards,
                        Checker* checker) {
  constexpr double kEps = 1e-9;
  const metrics::QosSnapshot& qos = result.qos;
  const exec::RunCounters& c = result.counters;
  bool ok = true;
  ok &= checker->Expect(qos.tuples_emitted > 0, "no tuple was emitted");
  ok &= checker->Expect(qos.avg_slowdown >= 1.0 - kEps &&
                            qos.p50_slowdown >= 1.0 - kEps &&
                            qos.max_slowdown >= qos.p99_slowdown - kEps,
                        "slowdown below 1 or max below p99");
  if (shards == nullptr) {
    ok &= checker->Expect(c.busy_time <= c.end_time * (1.0 + kEps),
                          "measured utilization above 1");
  } else {
    for (const core::ShardRunStats& s : *shards) {
      ok &= checker->Expect(s.busy_seconds <= s.end_seconds * (1.0 + kEps),
                            "a shard's measured utilization is above 1");
    }
  }
  if (spec.fanout_per_arrival > 0) {
    const int64_t offered = spec.fanout_per_arrival *
                            static_cast<int64_t>(workload.arrivals.size());
    const int64_t delivered =
        c.train_dispatches > 0 ? c.train_tuples : c.unit_executions;
    ok &= checker->Expect(offered == delivered + c.tuples_shed,
                          "offered != delivered + shed");
    if (spec.options.shed.enabled) {
      ok &= checker->Expect(c.tuples_offered == offered,
                            "engine's offered count differs from fan-out");
    }
  }
  if (spec.options.charge_scheduling_overhead) {
    const double expected = static_cast<double>(c.overhead_operations) *
                            workload.plan.MinOperatorCost();
    ok &= checker->Expect(
        std::abs(c.overhead_time - expected) <= 1e-9 * std::max(1.0, expected),
        "charged overhead differs from operations x unit cost");
  }
  return ok;
}

// --- Runs ------------------------------------------------------------------

struct EngineRun {
  core::RunResult result;
  double build_s = 0.0;
  double run_s = 0.0;
  double calibrated_run_s = 0.0;
  double snapshot_s = 0.0;
  int64_t units = 0;
};

/// Builds an engine over `workload`, runs it and snapshots the collector,
/// timing each step. With `spans` set, each step is also recorded as a span
/// under `parent`, and `traced` (the decorator `scheduler` is, if any) gets
/// the run span as the parent of its sampled call spans. With `calibration`
/// set, the run is driven as Begin, `epochs` RunUntil calls at equal
/// fractions of the arrival horizon (the last one unbounded), and Finish,
/// which the engine guarantees to replay Run exactly; each epoch is timed
/// and calibrated on its own into `calibrated_run_s`.
EngineRun RunEngine(const query::Workload& workload,
                    std::unique_ptr<sched::Scheduler> scheduler,
                    const sched::PolicyConfig& policy,
                    const core::SimulationOptions& options,
                    SpanLog* spans = nullptr, int parent = -1,
                    TracedScheduler* traced = nullptr,
                    HostCalibration* calibration = nullptr, int epochs = 1) {
  const exec::EngineConfig config = core::MakeEngineConfig(
      options, policy, workload.plan.MinOperatorCost());
  metrics::QosCollector collector(options.qos);
  EngineRun out;
  const Clock::time_point t0 = Clock::now();
  exec::Engine engine(&workload.plan, &workload.arrivals, config,
                      scheduler.get(), &collector);
  const Clock::time_point t1 = Clock::now();
  out.units = static_cast<int64_t>(engine.units().size());
  int run_span = -1;
  if (spans != nullptr) {
    spans->Add("exec.unit_build", t0, t1, parent);
    run_span = spans->Open("exec.run", t1, parent);
    if (traced != nullptr) traced->set_parent_span(run_span);
  }
  if (calibration == nullptr) {
    const Clock::time_point t2 = Clock::now();
    out.result.counters = engine.Run();
    out.run_s = Since(t2);
  } else {
    const double horizon = workload.arrivals.Horizon();
    engine.Begin();
    for (int k = 1; k <= epochs; ++k) {
      const double barrier =
          k < epochs ? horizon * static_cast<double>(k) / epochs
                     : std::numeric_limits<double>::infinity();
      const Clock::time_point start = Clock::now();
      engine.RunUntil(barrier);
      const double wall_s = Since(start);
      out.run_s += wall_s;
      out.calibrated_run_s += calibration->Calibrate(wall_s);
    }
    out.result.counters = engine.Finish();
  }
  const Clock::time_point t3 = Clock::now();
  out.result.qos = collector.Snapshot();
  const Clock::time_point t4 = Clock::now();
  if (spans != nullptr) {
    spans->Close(run_span, t3);
    spans->Add("metrics.snapshot", t3, t4, parent);
  }
  out.build_s = std::chrono::duration<double>(t1 - t0).count();
  out.snapshot_s = std::chrono::duration<double>(t4 - t3).count();
  out.result.policy_name = scheduler->name();
  out.result.qos.shed_count = out.result.counters.tuples_shed;
  out.result.qos.shed_ratio = out.result.counters.ShedRatio();
  return out;
}

/// The Engine constructor alone: the unit-table build every run pays.
/// Returns its wall seconds; stores the number of units built in `units`.
double TimeUnitBuild(const query::Workload& workload,
                     const sched::PolicyConfig& policy,
                     const core::SimulationOptions& options,
                     int64_t* units = nullptr) {
  const exec::EngineConfig config = core::MakeEngineConfig(
      options, policy, workload.plan.MinOperatorCost());
  std::unique_ptr<sched::Scheduler> scheduler = sched::CreateScheduler(policy);
  const Clock::time_point start = Clock::now();
  exec::Engine engine(&workload.plan, &workload.arrivals, config,
                      scheduler.get(), nullptr);
  const double seconds = Since(start);
  if (units != nullptr) *units = static_cast<int64_t>(engine.units().size());
  return seconds;
}

struct ShardedRun {
  core::ShardedRunResult sharded;
  double wall_s = 0.0;
};

ShardedRun RunSharded(const query::Workload& workload,
                      const sched::PolicyConfig& policy,
                      const core::SimulationOptions& options) {
  ShardedRun out;
  const Clock::time_point start = Clock::now();
  out.sharded = core::SimulateSharded(workload, policy, options);
  out.wall_s = Since(start);
  return out;
}

/// Operators the plan executes per tuple path: every chain operator, with a
/// shared leaf counted once per sharing group. All workloads here are
/// single-stream.
int64_t OperatorCount(const query::GlobalPlan& plan) {
  int64_t ops = 0;
  for (const query::CompiledQuery& q : plan.queries()) {
    ops += static_cast<int64_t>(q.spec().left_ops.size());
  }
  for (const query::SharingGroup& g : plan.sharing_groups()) {
    ops -= static_cast<int64_t>(g.members.size()) - 1;
  }
  return ops;
}

// --- End-to-end pass --------------------------------------------------------

using Metrics = std::vector<std::pair<std::string, double>>;

Metrics VirtualMetrics(const query::Workload& workload,
                       const core::RunResult& r) {
  const exec::RunCounters& c = r.counters;
  // The §9.2 overhead in the paper's unit (one cheapest-operator cost per
  // priority computation or comparison) as a share of the virtual timeline.
  // Where it is charged, end_time already contains it; where it is not, the
  // share is what charging it would take without changing the schedule.
  const double overhead_s = static_cast<double>(c.overhead_operations) *
                            workload.plan.MinOperatorCost();
  const double timeline_s =
      c.overhead_time > 0.0 ? c.end_time : c.end_time + overhead_s;
  const double overhead_share =
      timeline_s > 0.0 ? overhead_s / timeline_s : 0.0;
  const double delivered_ratio =
      c.tuples_offered > 0
          ? static_cast<double>(c.tuples_offered - c.tuples_shed) /
                static_cast<double>(c.tuples_offered)
          : 1.0;
  return {{"avg_slowdown", r.qos.avg_slowdown},
          {"p50_slowdown", r.qos.p50_slowdown},
          {"p99_slowdown", r.qos.p99_slowdown},
          {"max_slowdown", r.qos.max_slowdown},
          {"rms_slowdown", r.qos.rms_slowdown},
          {"avg_response_ms", r.qos.avg_response * 1e3},
          {"overhead_share", overhead_share},
          {"delivered_ratio", delivered_ratio}};
}

struct PassResult {
  Metrics metrics;
  std::vector<std::string> notes;
};

/// One simulate call of input set `workload`; timed and calibrated when
/// `calibration` is set.
struct TimedRun {
  core::RunResult result;
  std::vector<core::ShardRunStats> shard_stats;
  double wall_s = 0.0;
  double calibrated_s = 0.0;
};

TimedRun Simulate(const WorkloadSpec& spec, const query::Workload& workload,
                  const sched::PolicyConfig& policy,
                  const core::SimulationOptions& options,
                  HostCalibration* calibration = nullptr) {
  TimedRun out;
  if (spec.sharded) {
    ShardedRun run = RunSharded(workload, policy, options);
    out.wall_s = run.wall_s;
    if (calibration != nullptr) {
      out.calibrated_s = calibration->Calibrate(run.wall_s);
    }
    out.shard_stats = std::move(run.sharded.shard_stats);
    out.result = std::move(run.sharded.result);
  } else {
    EngineRun run = RunEngine(workload, sched::CreateScheduler(policy), policy,
                              options, nullptr, -1, nullptr, calibration,
                              spec.timing_epochs);
    out.wall_s = run.run_s;
    out.calibrated_s = run.calibrated_run_s;
    out.result = std::move(run.result);
  }
  return out;
}

/// Timed simulate calls an end-to-end run makes even past `--seconds`.
constexpr int kMinTimedCalls = 3;

PassResult EndToEndPass(WorkloadSpec spec, double seconds, Checker* checker) {
  PassResult out;
  const int sets = spec.sub_seeds;
  HostCalibration calibration;
  // Setup: every input set built setup_reps times (inputs plus the engine's
  // unit table); setup_s is the median calibrated build time.
  std::vector<query::Workload> workloads(static_cast<size_t>(sets));
  std::vector<double> setup_times;
  std::vector<double> raw_setup_times;
  for (int j = 0; j < sets; ++j) {
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      BuildTimes build;
      const Clock::time_point start = Clock::now();
      workloads[static_cast<size_t>(j)] = BuildInputs(&spec, j, &build);
      TimeUnitBuild(workloads[static_cast<size_t>(j)], spec.policy,
                    spec.options);
      const double wall_s = Since(start);
      raw_setup_times.push_back(wall_s);
      setup_times.push_back(calibration.Calibrate(wall_s));
    }
  }

  // Timed calls cycle through the input sets for `seconds`, at least once
  // per set. The first call on each set fixes its virtual-time results;
  // every later call on it must reproduce them byte for byte.
  std::vector<std::vector<double>> rates(static_cast<size_t>(sets));
  std::vector<double> raw_rates;
  // Peak RSS is read once every input set has run once: later repeats only
  // add allocator fragmentation, whose amount would depend on how many
  // repeats the host's speed allowed.
  double peak_rss_mb = 0.0;
  std::vector<core::RunResult> firsts(static_cast<size_t>(sets));
  std::vector<std::string> first_json(static_cast<size_t>(sets));
  const Clock::time_point loop_start = Clock::now();
  int calls = 0;
  for (; calls < std::max(sets, kMinTimedCalls) || Since(loop_start) < seconds;
       ++calls) {
    const size_t j = static_cast<size_t>(calls % sets);
    const query::Workload& workload = workloads[j];
    TimedRun run = Simulate(spec, workload, spec.policy, spec.options,
                            &calibration);
    const double arrivals = static_cast<double>(workload.arrivals.size());
    raw_rates.push_back(arrivals / run.wall_s);
    rates[j].push_back(arrivals / run.calibrated_s);
    const std::string json = core::RunResultToJson(run.result);
    bool ok = CheckRunInvariants(spec, workload, run.result,
                                 spec.sharded ? &run.shard_stats : nullptr,
                                 checker);
    if (calls < sets) {
      first_json[j] = json;
      firsts[j] = std::move(run.result);
      if (calls == sets - 1) peak_rss_mb = PeakRssMb();
    } else {
      ok &= checker->Expect(json == first_json[j],
                            "virtual-time results differ between repeats");
    }
    checker->Attempt(ok);
  }

  // Emissions do not depend on the schedule: a second policy must emit
  // exactly as many tuples on every input set.
  if (spec.has_reference) {
    for (size_t j = 0; j < workloads.size(); ++j) {
      const TimedRun reference = Simulate(spec, workloads[j],
                                          spec.reference_policy,
                                          spec.reference_options);
      checker->Attempt(checker->Expect(
          reference.result.qos.tuples_emitted == firsts[j].qos.tuples_emitted,
          "tuples_emitted differs from the reference policy's run"));
    }
  }

  // Per input set, the fastest decile of its calls; then the mean over sets,
  // since the sets' work differs with their seeds.
  double rate = 0.0;
  for (const std::vector<double>& set_rates : rates) {
    rate += Quantile(set_rates, 0.9) / static_cast<double>(sets);
  }
  out.metrics.push_back({"arrivals_per_s", rate});
  out.metrics.push_back({"setup_s", Median(setup_times)});
  out.metrics.push_back({"peak_rss_mb", peak_rss_mb});
  Metrics mean = VirtualMetrics(workloads[0], firsts[0]);
  for (size_t j = 1; j < workloads.size(); ++j) {
    const Metrics m = VirtualMetrics(workloads[j], firsts[j]);
    for (size_t k = 0; k < mean.size(); ++k) mean[k].second += m[k].second;
  }
  for (auto& [name, value] : mean) {
    out.metrics.push_back({name, value / static_cast<double>(sets)});
  }
  std::ostringstream runs;
  runs << "timed_runs=" << calls << " input_sets=" << sets
       << " setup_builds=" << setup_times.size()
       << " tuples_emitted=" << firsts[0].qos.tuples_emitted;
  out.notes.push_back(runs.str());
  std::ostringstream host;
  host << "uncalibrated arrivals_per_s p90 " << Quantile(raw_rates, 0.9)
       << " median " << Median(raw_rates) << ", uncalibrated setup_s median "
       << Median(raw_setup_times) << ", calibration chunk median "
       << Median(calibration.chunks()) << " s (reference "
       << HostCalibration::kReferenceChunkSeconds << " s, checksum "
       << calibration.checksum() % 1000 << ")";
  out.notes.push_back(host.str());
  return out;
}

// --- Traced pass -------------------------------------------------------------

/// One-in-N sampling of the decorated scheduler calls.
constexpr int kSampleEvery = 16;

struct TracedIteration {
  double total_s = 0.0;
  BuildTimes build;
  double unit_build_s = 0.0;
  double run_s = 0.0;       // traced Engine::Run or SimulateSharded wall
  double sched_s = 0.0;     // decorator estimate (single engine)
  double snapshot_s = 0.0;
  double untraced_run_s = 0.0;
  int64_t units = 0;
  core::RunResult result;
  std::vector<core::ShardRunStats> shard_stats;
  std::array<TracedScheduler::KindStats, TracedScheduler::kNumKinds> kinds{};
  int64_t candidates = 0;
  int64_t priority_computations = 0;
};

double ReplayRecordNs(const query::Workload& workload,
                      const core::SimulationOptions& options,
                      const std::vector<metrics::OutputRecord>& outputs) {
  if (outputs.empty()) return 0.0;
  metrics::QosCollector collector(options.qos);
  const Clock::time_point start = Clock::now();
  for (const metrics::OutputRecord& o : outputs) {
    const query::QuerySpec& s = workload.plan.query(o.query).spec();
    collector.RecordOutput(o.query, s.cost_class, s.class_selectivity,
                           o.arrival_time, o.response, o.slowdown);
  }
  const double ns = Since(start) * 1e9;
  return ns / static_cast<double>(outputs.size());
}

PassResult TracedPass(WorkloadSpec spec, double seconds, SpanLog* spans,
                      Checker* checker) {
  PassResult out;
  std::vector<TracedIteration> iters;
  query::Workload workload;
  double tracer_ratio = 0.0;
  int64_t tracer_events = 0;
  double record_ns = 0.0;
  double one_thread_wall_s = 0.0;
  const int64_t clock_read_ns = ClockReadNs();
  HostCalibration calibration;

  const Clock::time_point loop_start = Clock::now();
  for (int i = 0; i < 2 || Since(loop_start) < seconds; ++i) {
    TracedIteration it;
    const Clock::time_point root_start = Clock::now();
    const int root = spans->Open("trace.total", root_start);
    {
      const Clock::time_point start = Clock::now();
      const int build_span = spans->Open("setup.inputs", start, root);
      workload = BuildInputs(&spec, 0, &it.build);
      spans->Close(build_span, Clock::now());
    }
    // Copied after BuildInputs, which finishes the input-dependent options.
    core::SimulationOptions traced_options = spec.options;
    traced_options.qos.track_outputs = true;
    if (spec.sharded) {
      const Clock::time_point t0 = Clock::now();
      it.unit_build_s =
          TimeUnitBuild(workload, spec.policy, spec.options, &it.units);
      spans->Add("exec.unit_build", t0, Clock::now(), root);
      const Clock::time_point t1 = Clock::now();
      ShardedRun run = RunSharded(workload, spec.policy, traced_options);
      spans->Add("core.simulate_sharded", t1, Clock::now(), root);
      it.run_s = run.wall_s;
      it.shard_stats = run.sharded.shard_stats;
      it.result = std::move(run.sharded.result);
    } else {
      auto owned = std::make_unique<TracedScheduler>(
          sched::CreateScheduler(spec.policy), kSampleEvery, spans,
          clock_read_ns);
      TracedScheduler* traced = owned.get();
      EngineRun run = RunEngine(workload, std::move(owned), spec.policy,
                                traced_options, spans, root, traced);
      it.unit_build_s = run.build_s;
      it.run_s = run.run_s;
      it.snapshot_s = run.snapshot_s;
      it.units = run.units;
      it.sched_s = traced->EstimatedSeconds();
      for (int k = 0; k < TracedScheduler::kNumKinds; ++k) {
        it.kinds[static_cast<size_t>(k)] =
            traced->stats(static_cast<TracedScheduler::CallKind>(k));
      }
      it.candidates = traced->candidates();
      it.priority_computations = traced->priority_computations();
      it.result = std::move(run.result);
    }
    const Clock::time_point root_end = Clock::now();
    spans->Close(root, root_end);
    it.total_s = std::chrono::duration<double>(root_end - root_start).count();

    bool ok = CheckRunInvariants(spec, workload, it.result,
                                 spec.sharded ? &it.shard_stats : nullptr,
                                 checker);
    // Slowdown >= 1 per output, up to the rounding of response = departure
    // - arrival on the absolute virtual clock.
    bool all_at_least_one = true;
    for (const metrics::OutputRecord& o : it.result.qos.outputs) {
      const double rounding = 64.0 * std::numeric_limits<double>::epsilon() *
                              std::max(1.0, o.arrival_time + o.response);
      if (!((1.0 - o.slowdown) * o.response <= rounding)) {
        all_at_least_one = false;
      }
    }
    ok &= checker->Expect(all_at_least_one, "an output's slowdown is below 1");
    if (!spec.sharded) {
      ok &= checker->Expect(
          it.candidates == it.result.counters.decision_candidates &&
              it.priority_computations ==
                  it.result.counters.priority_computations,
          "decorator's decision counts differ from the engine's");
    }
    if (i == 0) {
      record_ns = ReplayRecordNs(workload, spec.options, it.result.qos.outputs);
    }
    checker->Attempt(ok);

    // The untraced twin: same inputs, no decorator, no output tracking, and
    // driven exactly as the end-to-end pass drives it (in calibrated
    // epochs), so the comparison also checks that epoch-driven runs
    // reproduce Engine::Run.
    TimedRun twin = Simulate(spec, workload, spec.policy, spec.options,
                             &calibration);
    it.untraced_run_s = twin.wall_s;
    const core::RunResult& untraced = twin.result;
    checker->Attempt(checker->Expect(
        core::RunResultToJson(untraced) == core::RunResultToJson(it.result),
        "traced and untraced virtual-time results differ"));

    if (i == 0 && spec.sharded) {
      core::SimulationOptions one = spec.options;
      one.shard_threads = 1;
      ShardedRun run = RunSharded(workload, spec.policy, one);
      one_thread_wall_s = run.wall_s;
      checker->Attempt(checker->Expect(
          core::RunResultToJson(run.sharded.result) ==
              core::RunResultToJson(untraced),
          "1-thread sharded results differ from the multi-thread run"));
    }
    if (i == 0 && !spec.sharded) {
      // An EventTracer attached through SimulationOptions::tracer.
      obs::EventTracer tracer;
      core::SimulationOptions with_tracer = spec.options;
      with_tracer.tracer = &tracer;
      EngineRun run = RunEngine(workload, sched::CreateScheduler(spec.policy),
                                spec.policy, with_tracer);
      tracer_events = tracer.recorded();
      tracer_ratio = run.run_s / it.untraced_run_s;
      checker->Attempt(checker->Expect(
          core::RunResultToJson(run.result) == core::RunResultToJson(untraced),
          "attaching an EventTracer changed the results"));
    }
    it.result.qos.outputs.clear();
    it.result.qos.outputs.shrink_to_fit();
    iters.push_back(std::move(it));
  }

  std::vector<double> totals;
  std::vector<double> ratios;
  for (const TracedIteration& it : iters) {
    totals.push_back(it.total_s);
    ratios.push_back(it.run_s / it.untraced_run_s);
  }
  const TracedIteration& it = iters[MedianIndex(totals)];
  const exec::RunCounters& c = it.result.counters;

  double core_wall_s = 0.0, shard_sum_s = 0.0, serial_s = 0.0;
  double efficiency = 0.0, speedup = 0.0, imbalance = 0.0;
  int64_t migrations = 0, steals = 0, routed = 0;
  double exec_self_s = 0.0;
  if (spec.sharded) {
    const double threads = static_cast<double>(spec.options.shard_threads);
    core_wall_s = it.run_s;
    for (const core::ShardRunStats& s : it.shard_stats) {
      shard_sum_s += s.wall_ms * 1e-3;
      migrations += s.migrations;
      steals += s.steals;
      routed += s.arrivals;
    }
    serial_s = core_wall_s - shard_sum_s / threads;
    efficiency = shard_sum_s / (threads * core_wall_s);
    speedup = one_thread_wall_s / it.untraced_run_s;
    core::ShardedRunResult for_imbalance;
    for_imbalance.shard_stats = it.shard_stats;
    imbalance = for_imbalance.LoadImbalance();
  } else {
    exec_self_s = it.run_s - it.sched_s;
  }
  const double attributed = it.build.stream_s + it.build.query_s +
                            it.unit_build_s + exec_self_s + it.sched_s +
                            it.snapshot_s + core_wall_s;
  const double unattributed = it.total_s - attributed;

  const auto& pick = it.kinds[TracedScheduler::kPick];
  const auto& enq = it.kinds[TracedScheduler::kEnqueue];
  const auto& deq = it.kinds[TracedScheduler::kDequeue];
  const auto& rekey = it.kinds[TracedScheduler::kRekey];
  const auto per = [](double s, int64_t n) {
    return n > 0 ? s * 1e9 / static_cast<double>(n) : 0.0;
  };
  const auto count = [](int64_t n) { return static_cast<double>(n); };
  Metrics& m = out.metrics;
  m.push_back({"stream.generate_s", it.build.stream_s});
  m.push_back({"stream.arrivals", count(workload.arrivals.size())});
  m.push_back({"query.plan_build_s", it.build.query_s});
  m.push_back({"query.units", count(it.units)});
  m.push_back({"query.operators", count(OperatorCount(workload.plan))});
  m.push_back({"exec.unit_build_s", it.unit_build_s});
  m.push_back({"exec.self_s", exec_self_s});
  m.push_back({"exec.ns_per_decision",
               spec.sharded ? 0.0 : per(exec_self_s, c.scheduling_points)});
  m.push_back({"exec.scheduling_points", count(c.scheduling_points)});
  m.push_back({"exec.operator_invocations",
               static_cast<double>(c.operator_invocations)});
  m.push_back({"exec.ns_per_operator_invocation",
               spec.sharded ? 0.0 : per(exec_self_s, c.operator_invocations)});
  m.push_back({"exec.train_dispatches", count(c.train_dispatches)});
  m.push_back({"exec.mean_train_tuples",
               c.train_dispatches > 0
                   ? static_cast<double>(c.train_tuples) /
                         static_cast<double>(c.train_dispatches)
                   : 0.0});
  m.push_back({"exec.peak_queued_tuples", count(c.peak_queued_tuples)});
  m.push_back({"exec.tuples_offered", count(c.tuples_offered)});
  m.push_back({"exec.tuples_shed", count(c.tuples_shed)});
  m.push_back({"sched.self_s", it.sched_s});
  m.push_back({"sched.pick_calls", count(pick.calls)});
  m.push_back({"sched.pick_ns", pick.MeanNs()});
  m.push_back({"sched.enqueue_calls", count(enq.calls)});
  m.push_back({"sched.enqueue_ns", enq.MeanNs()});
  m.push_back({"sched.dequeue_calls", count(deq.calls)});
  m.push_back({"sched.dequeue_ns", deq.MeanNs()});
  m.push_back({"sched.priority_computations",
               static_cast<double>(it.priority_computations)});
  m.push_back({"sched.candidates_per_pick",
               pick.calls > 0 ? static_cast<double>(it.candidates) /
                                    static_cast<double>(pick.calls)
                              : 0.0});
  m.push_back({"sched.rekey_calls", count(rekey.calls)});
  m.push_back({"sched.rekey_ns", rekey.MeanNs()});
  m.push_back({"sched.calibration_epochs", count(c.calibration_epochs)});
  m.push_back({"sched.calibration_rekeys", count(c.calibration_rekeys)});
  m.push_back({"metrics.outputs", count(it.result.qos.tuples_emitted)});
  m.push_back({"metrics.record_ns", record_ns});
  m.push_back({"metrics.snapshot_s", it.snapshot_s});
  m.push_back({"core.wall_s", core_wall_s});
  m.push_back({"core.shard_wall_sum_s", shard_sum_s});
  m.push_back({"core.serial_s", serial_s});
  m.push_back({"core.parallel_efficiency", efficiency});
  m.push_back({"core.thread_speedup", speedup});
  m.push_back({"core.load_imbalance", imbalance});
  m.push_back({"core.migrations", count(migrations)});
  m.push_back({"core.steals", count(steals)});
  m.push_back({"core.routed_arrivals", count(routed)});
  m.push_back({"obs.tracer_events", count(tracer_events)});
  m.push_back({"obs.tracer_overhead_ratio", tracer_ratio});
  m.push_back({"trace.total_s", it.total_s});
  m.push_back({"trace.overhead_ratio", Median(ratios)});
  m.push_back({"trace.span_count", count(spans->recorded())});
  m.push_back({"unattributed", unattributed});
  m.push_back({"unattributed_share", unattributed / it.total_s});

  std::ostringstream note;
  note << "traced_iterations=" << iters.size()
       << " sample_every=" << kSampleEvery
       << " clock_read_ns=" << clock_read_ns
       << " spans_kept=" << spans->spans().size()
       << " spans_dropped=" << spans->dropped();
  out.notes.push_back(note.str());
  return out;
}

// --- Main ------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string spans_out;
  std::string source_rev = "unknown";
};

int Usage(const std::string& error) {
  std::cerr << "perfbench_driver: " << error << "\n"
            << "usage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <path>] "
               "[--source-rev <text>]\nworkloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end == '\0' && !(args->seconds > 0.0 && args->seconds <= 600.0)) {
        *error = "--seconds must be in (0, 600]";
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
      if (*end == '\0' && args->trace != 0 && args->trace != 1) {
        *error = "--trace must be 0 or 1";
        return false;
      }
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--source-rev") {
      args->source_rev = value;
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      *error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (args->workload.empty()) {
    *error = "--workload is required";
    return false;
  }
  return true;
}

void PrintProvenance(const Args& args, const WorkloadSpec& spec) {
  JsonWriter json;
  json.BeginObject();
  json.Key("source_rev");
  json.String(args.source_rev);
  json.Key("compiler");
  json.String(PERFBENCH_COMPILER);
  json.Key("cxx_flags");
  json.String(PERFBENCH_CXX_FLAGS);
  json.Key("build_type");
  json.String(PERFBENCH_BUILD_TYPE);
  json.Key("cpu_model");
  json.String(CpuModel());
  json.Key("nproc");
  json.Number(static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Key("workload");
  json.String(spec.Identity());
  json.Key("seed");
  json.Number(static_cast<int64_t>(args.seed));
  json.Key("threads");
  json.Number(
      static_cast<int64_t>(spec.sharded ? spec.options.shard_threads : 1));
  json.Key("seconds");
  json.Number(args.seconds);
  json.Key("pass");
  json.String(args.trace ? "traced" : "end_to_end");
  json.Key("time_model");
  json.String(
      "virtual-time open loop: arrivals are due at fixed virtual times and "
      "delivered exactly then (no generator lateness); response time counts "
      "from the due time. Host metrics are batch work per second at the "
      "stated size.");
  json.EndObject();
  std::cout << "provenance: " << json.str() << "\n";
}

template <size_t N>
bool SameNames(const Metrics& metrics, const std::array<MetricDef, N>& table) {
  if (metrics.size() != N) return false;
  for (size_t i = 0; i < N; ++i) {
    if (metrics[i].first != table[i].name) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) return Usage(error);
  WorkloadSpec spec;
  if (!MakeSpec(args.workload, args.seed, &spec)) {
    return Usage("unknown workload " + args.workload);
  }
  PrintProvenance(args, spec);

  Checker checker;
  SpanLog spans;
  PassResult pass = args.trace
                        ? TracedPass(spec, args.seconds, &spans, &checker)
                        : EndToEndPass(spec, args.seconds, &checker);
  for (const std::string& note : pass.notes) {
    std::cout << "note: " << note << "\n";
  }
  const bool names_ok = args.trace ? SameNames(pass.metrics, kPerLayerMetrics)
                                   : SameNames(pass.metrics, kEndToEndMetrics);
  checker.Expect(names_ok, "printed metric names differ from metric_table.h");
  if (args.trace && !args.spans_out.empty() &&
      !spans.WriteJsonLines(args.spans_out)) {
    std::cerr << "perfbench: cannot write spans to " << args.spans_out << "\n";
  }

  std::map<std::string, std::string> units;
  for (const MetricDef& d : kEndToEndMetrics) units[d.name] = d.unit;
  for (const MetricDef& d : kPerLayerMetrics) units[d.name] = d.unit;
  std::ostringstream metrics;
  metrics.precision(17);
  for (const auto& [name, value] : pass.metrics) {
    checker.Expect(std::isfinite(value), "metric " + name + " is not finite");
    metrics << (metrics.tellp() > 0 ? ", " : "") << "\"" << name
            << "\": {\"value\": " << (std::isfinite(value) ? value : 0.0)
            << ", \"unit\": \"" << units[name] << "\"}";
  }
  std::cout << "{\"correct\": " << (checker.correct() ? "true" : "false")
            << ", \"attempted\": " << checker.attempted()
            << ", \"failed\": " << checker.failed() << ", \"metrics\": {"
            << metrics.str() << "}}" << std::endl;
  return checker.correct() ? 0 : 1;
}

}  // namespace
}  // namespace aqsios::perfbench

int main(int argc, char** argv) { return aqsios::perfbench::Main(argc, argv); }
