// Aurora-style QoS-graph scheduling (Carney et al., VLDB'03), the
// application-specified alternative the paper contrasts with in §10.
//
// Each query carries a *QoS graph*: a non-increasing piecewise-linear
// utility over output latency. Aurora's QoS-aware scheduler runs the
// operator whose pending work is about to lose the most utility: the
// priority here is the current utility-loss rate of the head tuple times
// the unit's output rate,
//
//     V_x = (−du/dλ at λ = W_x) · S_x / C̄_x ,
//
// i.e. "utility preserved per second of processing". The paper's §10 point
// stands: this needs the user to predict an appropriate graph per query;
// the slowdown metrics need nothing. The default graph is derived from the
// query's ideal processing time T: full utility until `flat_until_stretch`
// × T of latency, linearly decaying to zero at `zero_at_stretch` × T.

#ifndef AQSIOS_SCHED_QOS_GRAPH_H_
#define AQSIOS_SCHED_QOS_GRAPH_H_

#include <set>
#include <utility>
#include <vector>

#include "sched/scheduler.h"

namespace aqsios::sched {

/// A non-increasing piecewise-linear utility-of-latency curve.
class QosGraph {
 public:
  /// Points are (latency seconds, utility), strictly increasing in latency,
  /// non-increasing in utility; the first point defines the utility at and
  /// before its latency, the last holds beyond it.
  explicit QosGraph(std::vector<std::pair<SimTime, double>> points);

  /// Two-segment convenience graph: utility 1 until `flat_until`, linear to
  /// 0 at `zero_at`.
  static QosGraph FlatThenLinear(SimTime flat_until, SimTime zero_at);

  /// Utility at the given output latency.
  double UtilityAt(SimTime latency) const;

  /// Left-continuous decay rate −du/dλ at the given latency (>= 0; 0 on
  /// flat segments and beyond the last point).
  double DecayRateAt(SimTime latency) const;

  const std::vector<std::pair<SimTime, double>>& points() const {
    return points_;
  }

 private:
  std::vector<std::pair<SimTime, double>> points_;
};

struct QosGraphOptions {
  /// Default graph shape in units of each query's ideal processing time T:
  /// full utility until flat_until_stretch·T, zero at zero_at_stretch·T.
  double flat_until_stretch = 5.0;
  double zero_at_stretch = 50.0;
};

/// Aurora's QoS-aware scheduler over the default (stretch-derived) graphs.
class QosGraphScheduler final : public Scheduler {
 public:
  explicit QosGraphScheduler(const QosGraphOptions& options);

  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  /// Readiness depends only on the final queue state: reconcile once.
  void OnBatchDequeue(int unit, int /*count*/) override { OnDequeue(unit); }
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  void ResyncQueues(SimTime now) override;
  const char* name() const override { return "QoS-Graph"; }

  /// The priority assigned to `unit` at `now` (exposed for tests).
  double PriorityOf(const Unit& unit, SimTime now) const;

 private:
  QosGraphOptions options_;
  const UnitTable* units_ = nullptr;
  std::vector<QosGraph> graphs_;
  std::set<int> ready_;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_QOS_GRAPH_H_
