// Generalized lp-norm slowdown scheduling.
//
// BSD (Eq. 6) is the p = 2 member of a family: minimizing the lp norm of
// slowdowns Σ H^p leads, by the same two-segment exchange argument as
// §4.2.2, to the priority
//
//     V_x = (S_x / (C̄_x · T^p)) · W^(p-1)
//
// (the marginal increase of Σ S·(W/T)^p per unit of delay, divided by the
// segment cost). p = 1 recovers HNR exactly (the W term vanishes and the
// priority is the static normalized rate); p = 2 recovers BSD; large p
// weighs the worst-stretched tuple ever more heavily and approaches LSF's
// behaviour. This generalization is the natural "future work" knob of the
// paper: one parameter sweeps average-case optimization into worst-case
// optimization.

#ifndef AQSIOS_SCHED_LP_NORM_POLICY_H_
#define AQSIOS_SCHED_LP_NORM_POLICY_H_

#include <set>
#include <string>
#include <vector>

#include "sched/scheduler.h"

namespace aqsios::sched {

class LpNormScheduler final : public Scheduler {
 public:
  /// p must be >= 1. p=1 ~ HNR, p=2 ~ BSD.
  explicit LpNormScheduler(double p);

  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  /// Readiness depends only on the final queue state: reconcile once.
  void OnBatchDequeue(int unit, int /*count*/) override { OnDequeue(unit); }
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  /// Recomputes the precomputed static factors from refreshed stats.
  void OnStatsUpdated() override;
  void ResyncQueues(SimTime now) override;
  const char* name() const override { return name_.c_str(); }
  /// V = (S/(C̄·T^p))·W^(p-1): the static factor is the line's growth
  /// coefficient, so shed the lowest static factors first.
  double ShedPriority(const Unit& unit) const override;

  double p() const { return p_; }

  /// The instantaneous priority this policy assigns (exposed for tests).
  double PriorityOf(const Unit& unit, SimTime now) const;

 private:
  double p_;
  std::string name_;
  const UnitTable* units_ = nullptr;
  std::set<int> ready_;
  /// Static part S/(C̄·T^p) per unit, precomputed at Attach.
  std::vector<double> static_priority_;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_LP_NORM_POLICY_H_
