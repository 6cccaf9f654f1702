// Argmax index over linearly-growing priorities.
//
// The time-varying policies (LSF, BSD, clustered BSD) assign every ready
// unit a priority that is a *linear function of the virtual clock*:
//
//   LSF:        p_u(t) = (t - a_u) / T_u            (slope 1/T_u)
//   BSD:        p_u(t) = phi_u * (t - a_u)          (slope phi_u)
//   clustered:  p_c(t) = pseudo_c * (t - head_c)    (slope pseudo_c)
//
// where a_u is the head tuple's arrival time (the line's *anchor*). The index
// answers the argmax over ready units with one evaluation per distinct
// anchor.
//
// Live ids are grouped into buckets keyed by the exact anchor value. With a
// single-stream workload every arrival fans out to all subscribed units, so
// hundreds of ready units share a few dozen anchors. Inside a bucket
// x = t - anchor is one shared value, and the scan's arithmetic (`x / coef`
// or `coef * x`) is monotone in coef under IEEE rounding: non-decreasing in
// coef for kScaled and in -coef for kRatio when x >= 0, non-increasing when
// x < 0. Each bucket is kept sorted by that dominance key (then tie key), so
// its best line sits at one end — the back for x >= 0, the front for x < 0 —
// and the lines whose priority equals the best form a contiguous run from
// that end. ArgMax evaluates one line per bucket, takes the maximum, and
// walks the equal-priority run of each bucket that reached it to pick the
// smallest (tie, id). That is exact with no precondition: near-ties that
// round equal, x = 0 (every line of the bucket ties) and anchors ahead of
// `now` all fall out of the same walk.
//
// Units that share an anchor mostly share the coefficient too (the paper's
// testbed draws queries from a few cost and selectivity classes), so a
// multi-line bucket stores *groups*: one per distinct (coef, tie) key, in
// dominance order, each holding its ids in ascending order on intrusive
// per-id links. Identical lines tie forever and the scan would take the
// smallest id, so a group's head is its only candidate: a pick looks at the
// neighbouring group rather than the neighbouring id, the run walk steps
// group by group, an insert usually appends at a group's tail, and the
// dequeue re-key of a pick's winner pops its group's head. A one-line
// bucket keeps its line in the bucket record and no group.
//
// Anchors map to buckets through an open-addressing table that starts at
// kInitialAnchorSlots and doubles whenever a new bucket would fill more than
// a third of it, so inputs with hundreds of distinct anchors (every line its
// own bucket) stay exact and keep short probes; a pick then costs one
// evaluation per line, like the scan. The measured traffic (every
// benchmark workload and sweep cell peaks at a few dozen buckets) and the
// many-anchor cells are in docs/performance.md.
//
// Bit-identical contract: the index must return exactly the unit the linear
// scan in basic_policies.cc / clustered_bsd.cc would return, including its
// priority *value* with identical floating-point rounding. Two rules make
// that hold:
//
//  1. Comparisons evaluate the scan's own arithmetic (EvalMode::kRatio =
//     `(t - anchor) / coef`, EvalMode::kScaled = `coef * (t - anchor)`),
//     never rearranged line algebra.
//  2. Ties reproduce the scan's iteration order: the scan iterates an
//     ordered set and keeps the first maximum (strict `>`), so ties go to
//     the smallest (tie_key, id) pair. LSF/BSD pass tie_key = 0 (lowest id
//     wins, matching std::set<int>); clustered BSD passes tie_key =
//     head time (matching its std::set<pair<SimTime, cluster>>).
//
// Measured effect (arrivals per second and traced pick cost on the
// benchmark's paper_q500 workload, with provenance): docs/performance.md.

#ifndef AQSIOS_SCHED_KINETIC_INDEX_H_
#define AQSIOS_SCHED_KINETIC_INDEX_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/sim_time.h"

namespace aqsios::sched {

class KineticIndex {
 public:
  enum class EvalMode {
    /// p(t) = (t - anchor) / coef — LSF's HeadWait(now) / ideal_time.
    kRatio,
    /// p(t) = coef * (t - anchor) — BSD's phi * HeadWait(now) and the
    /// clustered pseudo_priority * (now - head_time).
    kScaled,
  };

  explicit KineticIndex(EvalMode mode) : mode_(mode) {}

  /// Pre-sizes the index for ids in [0, max_ids) and clears it. The index
  /// grows on demand if a larger id is inserted later.
  void Reserve(int max_ids);

  /// Removes all entries (capacities are kept).
  void Clear();

  /// Inserts id with the given line, or re-keys it if already present.
  /// `coef` must be > 0 (priorities are nonnegative and increasing).
  void Insert(int id, double anchor, double coef, double tie_key = 0.0);

  /// Removes id; no-op when absent.
  void Erase(int id);

  bool Contains(int id) const {
    return id >= 0 && id < capacity_ && occupied_[static_cast<size_t>(id)] != 0;
  }

  bool empty() const { return size_ == 0; }
  int size() const { return size_; }

  /// Returns the id maximizing p(now) — ties broken by smallest
  /// (tie_key, id) — and stores its priority, computed with the scan's exact
  /// arithmetic, into *priority when non-null. -1 when empty. `now` must be
  /// non-decreasing across calls (the simulation clock is monotone).
  int ArgMax(SimTime now, double* priority = nullptr);

  /// The priority the scan formula assigns to `id` at time `t` (test aid).
  double EvalAt(int id, SimTime t) const {
    return Eval(id, t);
  }

  /// Priority lines evaluated since construction: one per bucket scanned,
  /// plus one per neighbouring group checked for a tie, plus one when a zero
  /// maximum is re-evaluated for its sign. Deterministic for a given
  /// operation sequence, so tests and benchmarks can count the work an
  /// ArgMax did.
  int64_t line_evaluations() const { return line_evaluations_; }

  /// Live anchor buckets: one per distinct live anchor (introspection).
  int bucket_count() const { return static_cast<int>(buckets_.size()); }

  /// Slots of the anchor -> bucket table; at least three per live bucket
  /// (introspection).
  int anchor_slots() const { return static_cast<int>(anchor_table_.size()); }

  /// Full wipes (Clear calls) since construction. The calibration re-key
  /// path must never trigger one — tests pin this counter to prove re-keys
  /// stay incremental (Insert-on-existing-id) instead of degenerating into
  /// rebuild-the-world.
  int64_t clears() const { return clears_; }

  /// Initial slots of the anchor -> bucket table (a power of two). It holds
  /// 85 buckets before its first doubling, more than any benchmark workload
  /// keeps live (docs/performance.md).
  static constexpr size_t kInitialAnchorSlots = 256;

 private:
  double Eval(int slot, double t) const {
    const Line& line = lines_[static_cast<size_t>(slot)];
    return mode_ == EvalMode::kRatio ? (t - line.anchor) / line.coef
                                     : line.coef * (t - line.anchor);
  }

  /// Stores id's line: anchor, coefficient and tie key.
  void SetLine(int id, double anchor, double coef, double tie_key) {
    lines_[static_cast<size_t>(id)] = Line{anchor, coef, tie_key};
  }

  /// A line's ordering key with an id: a bucket's best-end candidate, or
  /// the running winner of a tie walk.
  struct Member {
    double coef;
    double tie;
    int id;
  };

  /// The scan's tie-break: smaller (tie key, id) first.
  static bool TieBreaksBefore(const Member& a, const Member& b) {
    return a.tie != b.tie ? a.tie < b.tie : a.id < b.id;
  }

  /// The identical lines of a multi-line bucket: every live id with this
  /// bucket's anchor and this (coef, tie) key, linked in ascending id order
  /// through links_. Its head is the smallest (tie, id) of the group, so it
  /// is the only member a pick ever has to look at.
  struct Group {
    double coef;
    double tie;
    int head;
    int tail;
  };

  /// One record per live bucket. `back` and `front` are the candidates
  /// (head ids) of the bucket's last and first group; they are the same id
  /// exactly when the bucket holds a single group, one line or several
  /// identical ones. The bucket's anchor sits at the same position in
  /// `anchors_`.
  struct Bucket {
    Member back;
    Member front;
    int handle;  // index into groups_ / head_pos_
    int lines;   // live ids in the bucket
  };

  /// Group order: ascending dominance key (coef for kScaled, -coef for
  /// kRatio), then tie key.
  bool Precedes(double coef, double tie, const Group& group) const {
    if (coef != group.coef) {
      return mode_ == EvalMode::kRatio ? coef > group.coef
                                       : coef < group.coef;
    }
    return tie < group.tie;
  }

  /// Position of the live bucket with this anchor value, or -1.
  int FindBucket(double anchor) const;

  /// Home slot of an anchor key (Fibonacci hashing: the top bits of
  /// key * 2^64 / phi, as many as the table has index bits).
  size_t AnchorHome(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> anchor_shift_);
  }

  /// Adds / removes the anchor table entry of a live bucket's anchor.
  void MapAnchor(double anchor, int handle);
  void UnmapAnchor(double anchor);

  /// Doubles the anchor table and re-enters every live bucket's anchor.
  void GrowAnchorTable();

  /// Swap-removes the bucket at `pos` and recycles its handle.
  void ReleaseBucket(size_t pos);

  /// Adds live id (its line already stored) to the bucket at `pos` — the
  /// FindBucket answer for its anchor — or opens one when `pos` is -1,
  /// growing the anchor table first when the new bucket would overload it.
  void AddToBucket(int id, int pos);

  /// Removes live id (its line still stored) from its bucket; releases the
  /// bucket when it empties.
  void RemoveFromBucket(int id);

  /// Links id into `group` at its ascending-id place.
  void LinkIntoGroup(Group& group, int id);

  /// The id after `id` in its group, -1 at the tail.
  int& NextOf(int id) { return links_[static_cast<size_t>(id)].next; }

  /// Re-reads `bucket`'s candidates from its groups after a change.
  static void SetEnds(Bucket& bucket, const std::vector<Group>& groups) {
    const Group& back = groups.back();
    const Group& front = groups.front();
    bucket.back = Member{back.coef, back.tie, back.head};
    bucket.front = Member{front.coef, front.tie, front.head};
  }

  /// The scan's priority for the best end of the bucket at `pos`.
  template <EvalMode kMode>
  double BucketPriority(size_t pos, double now) const {
    const double x = now - anchors_[pos];
    const double coef = x >= 0.0 ? buckets_[pos].back.coef
                                 : buckets_[pos].front.coef;
    return kMode == EvalMode::kRatio ? x / coef : coef * x;
  }

  /// Empties every bucket, keeping the group vectors and the anchor table's
  /// size for reuse.
  void DropBuckets();

  /// Walks the groups of bucket `pos` whose priority equals `best` (from
  /// the end the scan evaluated) and folds the smallest (tie, id) among
  /// their heads into *winner.
  void ResolveRun(size_t pos, double now, double best, Member* winner);

  template <EvalMode kMode>
  int BucketArgMax(SimTime now, double* priority);

  /// BucketArgMax's slow path: the winning bucket has a run to walk, other
  /// buckets tied it, or the maximum is zero. Kept out of line so the scan
  /// stays a leaf function with few live registers.
  template <EvalMode kMode>
  [[gnu::noinline]] int ResolveTies(SimTime now, double best,
                                    size_t best_pos, bool tied,
                                    double* priority);

  EvalMode mode_;
  int capacity_ = 0;  // id slots, power of two (0 until first Reserve)
  int size_ = 0;
  int64_t line_evaluations_ = 0;
  int64_t clears_ = 0;

  /// Per-id line state. The bucket records carry their candidates' keys,
  /// so the pick's scan never reads these; inserts, removals and the
  /// zero-priority re-evaluation do.
  struct Line {
    double anchor = 0.0;
    double coef = 1.0;
    double tie = 0.0;
  };

  std::vector<char> occupied_;
  std::vector<Line> lines_;

  /// The live buckets and, at the same positions, their anchors, packed for
  /// the ArgMax scan.
  std::vector<Bucket> buckets_;
  std::vector<double> anchors_;
  /// No live bucket's anchor exceeds this (-inf when there are none).
  double anchor_ceiling_ = -std::numeric_limits<double>::infinity();
  /// Open-addressing map (linear probing, backward-shift deletion) from
  /// each live bucket's anchor key to its handle; handle -1 marks an empty
  /// slot. A dequeue re-keys a unit to its next queued tuple, usually older
  /// than the newest arrival, so the ceiling test cannot answer it; with
  /// tens of one-line buckets a scan of the anchors costs more than the
  /// probe (overload_trains, docs/performance.md). Its size is a power of
  /// two, at least three times the live bucket count.
  struct AnchorSlot {
    uint64_t key = 0;
    int handle = -1;
  };
  std::vector<AnchorSlot> anchor_table_ =
      std::vector<AnchorSlot>(kInitialAnchorSlots);
  /// 64 minus the table's index bits: AnchorHome's shift.
  int anchor_shift_ = 64 - std::countr_zero(kInitialAnchorSlots);

  /// Groups of each bucket handle with two or more lines, sorted by
  /// Precedes; empty for a one-line bucket, whose line lives in its record
  /// alone, so opening, re-keying and closing one-line buckets never touches
  /// these vectors. A vector keeps its capacity across reuse of its handle.
  std::vector<std::vector<Group>> groups_;
  std::vector<int> head_pos_;      // handle -> position in buckets_
  std::vector<int> free_handles_;  // released handles
  /// Per-id bucket membership (live ids): the bucket's handle, and the next
  /// larger id of the id's group (-1 at its tail; set only in multi-line
  /// buckets). One array rather than two: a separate link array
  /// grew drift_calibrated's peak heap (docs/performance.md).
  struct Link {
    int handle = -1;
    int next = -1;
  };
  std::vector<Link> links_;
};

}  // namespace aqsios::sched

#endif  // AQSIOS_SCHED_KINETIC_INDEX_H_
