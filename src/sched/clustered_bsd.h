// Efficient BSD implementations (§6.2): clustering, Fagin-style search
// pruning, and clustered processing.
//
// The scheduler keeps one FIFO per cluster. A cluster's priority at a
// scheduling point is (pseudo priority) × (wait of its oldest pending
// tuple). Selection is either a linear scan over the non-empty clusters or —
// with `use_fagin` — the top-1 variant of Fagin's Algorithm over two sorted
// lists (clusters by static pseudo priority, clusters by head wait time),
// which typically stops after touching a handful of clusters (§6.2.2, the
// RxW-style pruning).
//
// With `clustered_processing`, one scheduling decision executes the head
// tuple through *every* member query of the winning cluster (§6.2.3),
// amortizing the decision cost.

#ifndef AQSIOS_SCHED_CLUSTERED_BSD_H_
#define AQSIOS_SCHED_CLUSTERED_BSD_H_

#include <cstdint>
#include <deque>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sched/clustering.h"
#include "sched/kinetic_index.h"
#include "sched/scheduler.h"

namespace aqsios::sched {

struct ClusteredBsdOptions {
  ClusteringKind clustering = ClusteringKind::kLogarithmic;
  /// Number of clusters m (the paper's sweet spot is ~12, Figure 13).
  int num_clusters = 12;
  /// Enable Fagin top-1 search pruning (§6.2.2).
  bool use_fagin = false;
  /// Enable clustered processing (§6.2.3).
  bool clustered_processing = false;
  /// Answer the cluster-selection scan from a kinetic index (wall-clock
  /// only; decisions and simulated charges are bit-identical to the scan).
  /// Ignored when `use_fagin` is set — the Fagin traversal's charges depend
  /// on its own sorted-access order, so it keeps its list-based structures.
  bool use_kinetic_index = true;
};

class ClusteredBsdScheduler final : public Scheduler {
 public:
  explicit ClusteredBsdScheduler(const ClusteredBsdOptions& options);

  void Attach(const UnitTable* units) override;
  void OnEnqueue(int unit) override;
  void OnDequeue(int unit) override;
  /// Retires the train's extra entries from the unit's cluster FIFO and
  /// re-keys the cluster's head once for the whole batch.
  void OnBatchDequeue(int unit, int count) override;
  bool PickNext(SimTime now, SchedulingCost* cost,
                std::vector<int>* out) override;
  /// Rebuilds the per-cluster shadow FIFOs canonically — member units'
  /// queued entries merged by (arrival index, unit id) — plus the head keys.
  void ResyncQueues(SimTime now) override;
  /// Calibration path: units whose drifted Φ crossed a frozen range edge are
  /// re-bucketed. Only the clusters that lost or gained members have their
  /// shadow FIFOs rebuilt and their head lines re-keyed (Insert/Erase per
  /// affected cluster — never a full index Clear); the Φ-domain partition
  /// and pseudo priorities stay frozen from Attach.
  void OnCalibratedStats(const std::vector<int>& changed,
                         SimTime now) override;
  const char* name() const override { return name_.c_str(); }
  /// Same Φ line as exact BSD: clustering changes how the line is *served*
  /// (per-cluster pseudo priorities), not which sources matter least.
  double ShedPriority(const Unit& unit) const override {
    return unit.stats.phi;
  }

  const Clustering& clustering() const { return clustering_; }
  const ClusteredBsdOptions& options() const { return options_; }
  /// Test introspection: the kinetic index (clears/recompute counters).
  const KineticIndex& index() const { return index_; }

 private:
  struct Entry {
    int unit = 0;
    stream::ArrivalId arrival = 0;
    SimTime arrival_time = 0.0;
  };

  /// Linear scan over non-empty clusters; returns the winning cluster.
  int SelectByScan(SimTime now, SchedulingCost* cost) const;
  /// Fagin top-1 over the two sorted lists; returns the winning cluster.
  int SelectByFagin(SimTime now, SchedulingCost* cost) const;
  /// Kinetic-index argmax charging exactly what SelectByScan charges.
  int SelectByKinetic(SimTime now, SchedulingCost* cost);

  /// Whether the kinetic index replaces by_head_time_ for this config.
  bool kinetic_active() const {
    return options_.use_kinetic_index && !options_.use_fagin;
  }

  SimTime HeadTime(int cluster) const {
    return cluster_queues_[static_cast<size_t>(cluster)].front().arrival_time;
  }

  ClusteredBsdOptions options_;
  std::string name_;
  const UnitTable* units_ = nullptr;
  Clustering clustering_;
  std::vector<std::deque<Entry>> cluster_queues_;
  /// Cluster ids in descending pseudo-priority order (Fagin's list A).
  std::vector<int> by_pseudo_priority_;
  /// Non-empty clusters keyed by oldest-pending-arrival time, i.e. by
  /// descending head wait (Fagin's list B). Doubles as the non-empty set.
  /// Unused when kinetic_active(): the index then tracks the same clusters
  /// keyed by the line pseudo_c * (t - head_c) with tie key head_c, which
  /// reproduces this set's iteration-order tie-break exactly.
  std::set<std::pair<SimTime, int>> by_head_time_;
  KineticIndex index_{KineticIndex::EvalMode::kScaled};
  /// Per-cluster marker of the last Fagin pass that evaluated it (avoids
  /// duplicate evaluations when a cluster surfaces in both sorted lists).
  mutable std::vector<int> seen_epoch_;
  mutable int fagin_epoch_ = 0;
  /// OnCalibratedStats scratch (preallocated at Attach): which clusters a
  /// re-bucketing pass touched, and the list of their ids.
  std::vector<uint8_t> cluster_affected_;
  std::vector<int> affected_clusters_;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_CLUSTERED_BSD_H_
