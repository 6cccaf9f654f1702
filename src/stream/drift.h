// Mid-run statistics drift: the workload scenario where online calibration
// pays off (ROADMAP item 2, docs/calibration.md).
//
// A drift scenario multiplies the per-tuple processing cost and/or the
// operator selectivities of a *subset of queries* (ids with
// `id % modulo == phase`) by a factor that steps or ramps at a configured
// virtual time. Selecting by query id — not by stream — matters because the
// single-stream workloads attach every query to stream 0: per-stream drift
// would scale all queries uniformly and leave every policy's *relative*
// priorities intact, which is exactly the case where static priorities stay
// optimal and there is nothing to adapt to.
//
// Determinism contract: the factor for a tuple is a pure function of
// (query id, the tuple's arrival time) — never of the engine clock at
// processing time — so filter outcomes and clock charges are identical
// across policies, repetitions, and shard layouts. A factor of exactly 1.0
// multiplies bit-exactly (IEEE 754), so `enabled = false` (or a query
// outside the drifting subset before the step) perturbs nothing.

#ifndef AQSIOS_STREAM_DRIFT_H_
#define AQSIOS_STREAM_DRIFT_H_

#include "common/sim_time.h"

namespace aqsios::stream {

struct DriftConfig {
  bool enabled = false;
  /// Queries with `id % modulo == phase` drift; the rest stay static. The
  /// id is the query's id in the full plan: a static shard's engine maps
  /// its local dense ids back (exec::Engine::SetGlobalQueryIds).
  int modulo = 2;
  int phase = 0;
  /// Virtual time the drift begins.
  SimTime step_time = 0.0;
  /// Linear ramp duration from factor 1 to the target (0 = hard step).
  SimTime ramp_seconds = 0.0;
  /// Target multiplier on the drifting queries' per-tuple cost (the engine
  /// scales every clock charge of such a tuple — and the tuple's true ideal
  /// time, so reported slowdowns stay honest stretch).
  double cost_factor = 1.0;
  /// Target multiplier on the drifting queries' operator selectivities.
  double selectivity_factor = 1.0;

  bool AppliesTo(int query) const {
    if (!enabled) return false;
    return modulo > 0 && query % modulo == phase;
  }

  /// Ramp progress at time t: 0 before the step, linear over the ramp, 1
  /// after (a zero ramp is a hard step).
  double Progress(SimTime t) const {
    if (t <= step_time) return 0.0;
    if (ramp_seconds <= 0.0 || t >= step_time + ramp_seconds) return 1.0;
    return (t - step_time) / ramp_seconds;
  }

  double CostFactorAt(int query, SimTime t) const {
    if (!AppliesTo(query)) return 1.0;
    return 1.0 + (cost_factor - 1.0) * Progress(t);
  }

  double SelectivityFactorAt(int query, SimTime t) const {
    if (!AppliesTo(query)) return 1.0;
    return 1.0 + (selectivity_factor - 1.0) * Progress(t);
  }
};

}  // namespace aqsios::stream

#endif  // AQSIOS_STREAM_DRIFT_H_
