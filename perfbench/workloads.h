// The benchmark's four named workloads.
//
// Each workload is a pure function of its seed: the same seed builds the
// same plan and arrival table, and the driver runs it with fixed options.
// The size (queries, arrivals, shards, threads) is part of the workload's
// identity string, so a report can never be compared with a report of a
// different size under the same name.

#ifndef AQSIOS_PERFBENCH_WORKLOADS_H_
#define AQSIOS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/dsms.h"
#include "query/workload.h"
#include "sched/policy.h"

namespace aqsios::perfbench {

/// Wall seconds spent inside each module while building a workload's inputs.
struct BuildTimes {
  /// stream:: calls (arrival processes, table merge). Zero when the arrivals
  /// come out of query::GenerateWorkload, which builds them internally.
  double stream_s = 0.0;
  /// query:: calls (GenerateWorkload, CompiledQuery, GlobalPlan).
  double query_s = 0.0;
};

struct WorkloadSpec {
  std::string name;
  uint64_t seed = 0;
  int queries = 0;
  int64_t arrivals = 0;
  /// The policy under test and the options it runs with. Single-engine
  /// workloads turn `options` into an exec::EngineConfig with
  /// core::MakeEngineConfig; sharded workloads pass it to
  /// core::SimulateSharded as is.
  sched::PolicyConfig policy;
  core::SimulationOptions options;
  bool sharded = false;
  /// A second policy whose run must emit exactly as many tuples: emissions
  /// of single-stream workloads without shedding do not depend on the
  /// schedule. Unset (`has_reference` false) where shedding makes the
  /// emitted set schedule-dependent.
  bool has_reference = false;
  sched::PolicyConfig reference_policy;
  core::SimulationOptions reference_options;
  /// Leaf-queue admissions each arrival triggers (the queries subscribed to
  /// its stream), used to check offered = delivered + shed from outside the
  /// engine; 0 skips the check (the sharded workload's shared leaves).
  int64_t fanout_per_arrival = 0;
  /// Input sets per run, each built from its own sub-seed of `seed`; the
  /// virtual-time metrics and the rate are means over the sets. One set's
  /// slowdowns moved up to 15% between seeds on skew_elastic (whose only
  /// random input is its Poisson timestamps) and its rate and tail up to
  /// 12% on the testbed workloads.
  int sub_seeds = 1;
  /// Setup builds per input set (setup_s is the median over all of them).
  int setup_reps = 31;
  /// Virtual-time epochs a timed single-engine run is cut into, so that
  /// each piece is short next to the host's slow phases (driver.cc,
  /// HostCalibration).
  int timing_epochs = 1;

  /// Seed of input set `index`: `seed` itself for index 0.
  uint64_t SubSeed(int index) const;

  /// "<name>/q=<queries>/arrivals=<n>/policy=<p>/..." — the identity under
  /// which results may be compared.
  std::string Identity() const;
};

/// Names of every workload, in report order.
const std::vector<std::string>& WorkloadNames();

/// The spec of `name` at `seed`; false when `name` is unknown.
bool MakeSpec(const std::string& name, uint64_t seed, WorkloadSpec* spec);

/// Builds the plan and arrival table of input set `sub` of `spec`, timing
/// the stream and query calls separately into `times`. Finishes any option
/// that depends on the built inputs (the drift step time, the calibration
/// period).
query::Workload BuildInputs(WorkloadSpec* spec, int sub, BuildTimes* times);

}  // namespace aqsios::perfbench

#endif  // AQSIOS_PERFBENCH_WORKLOADS_H_
