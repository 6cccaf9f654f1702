#include "sched/kinetic_index.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.h"

namespace aqsios::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Exact bit pattern: a re-key to a bit-identical line is a no-op, and
/// bit-identical lines tie forever.
uint64_t Bits(double value) { return std::bit_cast<uint64_t>(value); }

/// Buckets key anchors by value: +0 and -0 share a key (their x = now -
/// anchor compare equal; see ResolveTies for the returned priority).
uint64_t AnchorKey(double anchor) { return anchor == 0.0 ? 0 : Bits(anchor); }
}  // namespace

void KineticIndex::Reserve(int max_ids) {
  // Power-of-two capacities: exact sizes shifted the heap's layout enough to
  // raise drift_calibrated's peak RSS (docs/performance.md).
  int capacity = 1;
  while (capacity < max_ids) capacity <<= 1;
  capacity_ = capacity;
  const size_t slots = static_cast<size_t>(capacity_);
  occupied_.assign(slots, 0);
  lines_.assign(slots, Line{});
  links_.assign(slots, Link{});
  DropBuckets();
  size_ = 0;
}

void KineticIndex::Clear() {
  ++clears_;
  std::fill(occupied_.begin(), occupied_.end(), 0);
  DropBuckets();
  size_ = 0;
}

void KineticIndex::Insert(int id, double anchor, double coef,
                          double tie_key) {
  AQSIOS_DCHECK_GE(id, 0);
  AQSIOS_DCHECK_GT(coef, 0.0);
  if (id >= capacity_) {
    if (capacity_ == 0) capacity_ = 1;
    while (capacity_ <= id) capacity_ <<= 1;
    const size_t slots = static_cast<size_t>(capacity_);
    occupied_.resize(slots, 0);
    lines_.resize(slots, Line{});
    links_.resize(slots, Link{});
  }
  const size_t slot = static_cast<size_t>(id);
  const Line& line = lines_[slot];
  const bool present = occupied_[slot] != 0;
  if (present && Bits(line.anchor) == Bits(anchor) && line.coef == coef &&
      line.tie == tie_key) {
    return;  // same line: nothing to re-key
  }
  if (present) {
    const size_t pos = static_cast<size_t>(
        head_pos_[static_cast<size_t>(links_[slot].handle)]);
    Bucket& bucket = buckets_[pos];
    if (bucket.lines == 1) {
      // A sole member moving to an anchor no other bucket holds (clustered
      // BSD's re-key to a new head) rewrites its bucket in place; measured
      // against a release plus reopen in docs/performance.md.
      const int target = FindBucket(anchor);
      if (target < 0 || target == static_cast<int>(pos)) {
        if (target < 0) {
          UnmapAnchor(anchors_[pos]);
          MapAnchor(anchor, bucket.handle);
        }
        SetLine(id, anchor, coef, tie_key);
        const Member member{coef, tie_key, id};
        anchors_[pos] = anchor;
        bucket.back = member;
        bucket.front = member;
        anchor_ceiling_ = std::max(anchor_ceiling_, anchor);
        return;
      }
    }
    RemoveFromBucket(id);
  } else {
    occupied_[slot] = 1;
    ++size_;
  }
  SetLine(id, anchor, coef, tie_key);
  AddToBucket(id, FindBucket(anchor));
}

void KineticIndex::Erase(int id) {
  if (!Contains(id)) return;
  RemoveFromBucket(id);
  occupied_[static_cast<size_t>(id)] = 0;
  --size_;
}

int KineticIndex::ArgMax(SimTime now, double* priority) {
  if (size_ == 0) return -1;
  return mode_ == EvalMode::kRatio
             ? BucketArgMax<EvalMode::kRatio>(now, priority)
             : BucketArgMax<EvalMode::kScaled>(now, priority);
}

int KineticIndex::FindBucket(double anchor) const {
  // Time moves forward, so a new anchor is usually past every anchor seen
  // so far: that answers "no bucket" without a probe.
  if (!(anchor <= anchor_ceiling_)) return -1;
  const uint64_t key = AnchorKey(anchor);
  const size_t mask = anchor_table_.size() - 1;
  for (size_t i = AnchorHome(key);; i = (i + 1) & mask) {
    const AnchorSlot& slot = anchor_table_[i];
    if (slot.handle < 0) return -1;
    if (slot.key == key) return head_pos_[static_cast<size_t>(slot.handle)];
  }
}

void KineticIndex::MapAnchor(double anchor, int handle) {
  AQSIOS_DCHECK_LE(3 * buckets_.size(), anchor_table_.size())
      << "anchor table loaded past a third";
  const uint64_t key = AnchorKey(anchor);
  const size_t mask = anchor_table_.size() - 1;
  size_t i = AnchorHome(key);
  while (anchor_table_[i].handle >= 0) i = (i + 1) & mask;
  anchor_table_[i] = AnchorSlot{key, handle};
}

void KineticIndex::UnmapAnchor(double anchor) {
  const size_t mask = anchor_table_.size() - 1;
  const uint64_t key = AnchorKey(anchor);
  size_t hole = AnchorHome(key);
  for (size_t probes = 0;
       anchor_table_[hole].handle < 0 || anchor_table_[hole].key != key;
       ++probes) {
    AQSIOS_CHECK_LT(probes, anchor_table_.size())
        << "anchor missing from its table";
    hole = (hole + 1) & mask;
  }
  // Backward-shift deletion: move each later entry of the probe run whose
  // home does not lie cyclically after the hole back into it, so lookups
  // need no tombstones.
  for (size_t j = (hole + 1) & mask; anchor_table_[j].handle >= 0;
       j = (j + 1) & mask) {
    const size_t home = AnchorHome(anchor_table_[j].key);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      anchor_table_[hole] = anchor_table_[j];
      hole = j;
    }
  }
  anchor_table_[hole].handle = -1;
}

void KineticIndex::GrowAnchorTable() {
  anchor_table_.assign(2 * anchor_table_.size(), AnchorSlot{});
  --anchor_shift_;
  for (size_t pos = 0; pos < buckets_.size(); ++pos) {
    MapAnchor(anchors_[pos], buckets_[pos].handle);
  }
}

void KineticIndex::AddToBucket(int id, int pos) {
  const Line& line = lines_[static_cast<size_t>(id)];
  if (pos < 0) {
    if (3 * (buckets_.size() + 1) > anchor_table_.size()) GrowAnchorTable();
    int handle;
    if (free_handles_.empty()) {
      handle = static_cast<int>(groups_.size());
      groups_.emplace_back();
      head_pos_.push_back(-1);
    } else {
      handle = free_handles_.back();
      free_handles_.pop_back();
    }
    head_pos_[static_cast<size_t>(handle)] = bucket_count();
    const Member member{line.coef, line.tie, id};
    anchors_.push_back(line.anchor);
    buckets_.push_back(Bucket{member, member, handle, 1});
    MapAnchor(line.anchor, handle);
    anchor_ceiling_ = std::max(anchor_ceiling_, line.anchor);
    links_[static_cast<size_t>(id)].handle = handle;
    return;
  }
  Bucket& bucket = buckets_[static_cast<size_t>(pos)];
  std::vector<Group>& groups = groups_[static_cast<size_t>(bucket.handle)];
  if (bucket.lines == 1) {  // was one-line: its line becomes a group
    const Member& only = bucket.back;
    groups.push_back(Group{only.coef, only.tie, only.id, only.id});
    NextOf(only.id) = -1;
  }
  ++bucket.lines;
  // Groups are few, and a line usually joins the back one (the winner's
  // class), so step from the back.
  size_t g = groups.size();
  while (g > 0 && Precedes(line.coef, line.tie, groups[g - 1])) --g;
  if (g > 0 && groups[g - 1].coef == line.coef &&
      groups[g - 1].tie == line.tie) {
    LinkIntoGroup(groups[g - 1], id);
  } else {
    groups.insert(groups.begin() + static_cast<std::ptrdiff_t>(g),
                  Group{line.coef, line.tie, id, id});
    NextOf(id) = -1;
  }
  SetEnds(bucket, groups);
  links_[static_cast<size_t>(id)].handle = bucket.handle;
}

void KineticIndex::LinkIntoGroup(Group& group, int id) {
  // A class of units usually receives its arrivals in id order, so the
  // tail append is the common case.
  if (id > group.tail) {
    NextOf(group.tail) = id;
    NextOf(id) = -1;
    group.tail = id;
  } else if (id < group.head) {
    NextOf(id) = group.head;
    group.head = id;
  } else {
    int prev = group.head;
    while (NextOf(prev) < id) {
      prev = NextOf(prev);
      AQSIOS_DCHECK_GE(prev, 0) << "group chain ends before its tail";
    }
    NextOf(id) = NextOf(prev);
    NextOf(prev) = id;
  }
}

void KineticIndex::RemoveFromBucket(int id) {
  const int handle = links_[static_cast<size_t>(id)].handle;
  const size_t pos =
      static_cast<size_t>(head_pos_[static_cast<size_t>(handle)]);
  Bucket& bucket = buckets_[pos];
  if (bucket.lines == 1) {
    ReleaseBucket(pos);
    return;
  }
  std::vector<Group>& groups = groups_[static_cast<size_t>(handle)];
  const Line& line = lines_[static_cast<size_t>(id)];
  // The winner's group sits at the back, so search from there.
  size_t g = groups.size() - 1;
  while (groups[g].coef != line.coef || groups[g].tie != line.tie) {
    AQSIOS_DCHECK_GT(g, 0u) << "id " << id << " missing from its bucket";
    --g;
  }
  Group& group = groups[g];
  if (group.head == id) {  // usually the last pick's winner: pop the head
    if (group.tail == id) {
      groups.erase(groups.begin() + static_cast<std::ptrdiff_t>(g));
    } else {
      group.head = NextOf(id);
    }
  } else {
    int prev = group.head;
    while (NextOf(prev) != id) {
      prev = NextOf(prev);
      AQSIOS_DCHECK_GE(prev, 0) << "id " << id << " missing from its group";
    }
    NextOf(prev) = NextOf(id);
    if (group.tail == id) group.tail = prev;
  }
  if (--bucket.lines == 1) {  // one-line again: the line leaves its group
    const Group& only = groups.front();
    bucket.back = Member{only.coef, only.tie, only.head};
    bucket.front = bucket.back;
    groups.clear();
  } else {
    SetEnds(bucket, groups);
  }
}

void KineticIndex::ReleaseBucket(size_t pos) {
  UnmapAnchor(anchors_[pos]);
  free_handles_.push_back(buckets_[pos].handle);
  if (pos + 1 != buckets_.size()) {
    anchors_[pos] = anchors_.back();
    buckets_[pos] = buckets_.back();
    head_pos_[static_cast<size_t>(buckets_[pos].handle)] =
        static_cast<int>(pos);
  }
  anchors_.pop_back();
  buckets_.pop_back();
}

void KineticIndex::DropBuckets() {
  for (const Bucket& bucket : buckets_) {
    groups_[static_cast<size_t>(bucket.handle)].clear();
    free_handles_.push_back(bucket.handle);
  }
  anchors_.clear();
  buckets_.clear();
  anchor_ceiling_ = -kInf;
  std::fill(anchor_table_.begin(), anchor_table_.end(), AnchorSlot{});
}

void KineticIndex::ResolveRun(size_t pos, double now, double best,
                              Member* winner) {
  const Bucket& bucket = buckets_[pos];
  const auto consider = [&](const Member& member) {
    if (winner->id < 0 || TieBreaksBefore(member, *winner)) *winner = member;
  };
  // The scan evaluated the end group and got `best`; its equal-priority
  // neighbours form a contiguous run of groups from that end (monotone key
  // order). Every group shares the bucket's x, so a neighbour's priority is
  // its coefficient applied to x — the scan's formula for its lines — and
  // its head is its smallest (tie, id).
  if (bucket.lines == 1) {
    consider(bucket.back);  // a one-line bucket has no run
    return;
  }
  const std::vector<Group>& groups =
      groups_[static_cast<size_t>(bucket.handle)];
  const double x = now - anchors_[pos];
  const bool ratio = mode_ == EvalMode::kRatio;
  const auto tied_with_best = [&](const Group& group) {
    ++line_evaluations_;
    return (ratio ? x / group.coef : group.coef * x) == best;
  };
  const auto consider_group = [&](const Group& group) {
    consider(Member{group.coef, group.tie, group.head});
  };
  if (x >= 0.0) {  // walk groups from the back
    size_t g = groups.size() - 1;
    consider_group(groups[g]);
    while (g > 0 && tied_with_best(groups[g - 1])) consider_group(groups[--g]);
  } else {  // walk groups from the front
    size_t g = 0;
    consider_group(groups[g]);
    while (g + 1 < groups.size() && tied_with_best(groups[g + 1])) {
      consider_group(groups[++g]);
    }
  }
}

template <KineticIndex::EvalMode kMode>
int KineticIndex::BucketArgMax(SimTime now, double* priority) {
  // One exact evaluation per bucket, with the scan's arithmetic on the
  // bucket's best-end coefficient. `tied` records whether a later bucket
  // reached the running maximum exactly.
  const double* const anchors = anchors_.data();
  const Bucket* const buckets = buckets_.data();
  const size_t n = buckets_.size();
  size_t best_pos = 0;
  double best = BucketPriority<kMode>(0, now);
  bool tied = false;
  const auto fold = [&](size_t k, double p) {
    if (p > best) {
      best = p;
      best_pos = k;
      tied = false;
    } else if (p == best) {
      tied = true;
    }
  };
  if (now >= anchor_ceiling_) {
    // Every anchor is at or behind the clock (the usual case), so every
    // bucket's best line is its back: no per-bucket choice of end.
    for (size_t k = 1; k < n; ++k) {
      const double x = now - anchors[k];
      const double coef = buckets[k].back.coef;
      fold(k, kMode == EvalMode::kRatio ? x / coef : coef * x);
    }
  } else {
    for (size_t k = 1; k < n; ++k) fold(k, BucketPriority<kMode>(k, now));
  }
  line_evaluations_ += static_cast<int64_t>(n);
  const Bucket& top = buckets[best_pos];
  if (!tied && best != 0.0 && now >= anchors[best_pos]) {
    // The common case: the winning bucket's back group won outright — it is
    // the only group, or its neighbour group already falls short of it —
    // and the group's head is its smallest (tie, id).
    bool alone = top.front.id == top.back.id;
    if (!alone) {
      const std::vector<Group>& groups =
          groups_[static_cast<size_t>(top.handle)];
      const double x = now - anchors[best_pos];
      const double coef = groups[groups.size() - 2].coef;
      ++line_evaluations_;
      alone = (kMode == EvalMode::kRatio ? x / coef : coef * x) != best;
    }
    if (alone) {
      if (priority != nullptr) *priority = best;
      return top.back.id;
    }
  }
  return ResolveTies<kMode>(now, best, best_pos, tied, priority);
}

template <KineticIndex::EvalMode kMode>
int KineticIndex::ResolveTies(SimTime now, double best, size_t best_pos,
                              bool tied, double* priority) {
  // Walk the winning bucket's equal-priority run and, when other buckets
  // reached the same maximum, theirs too.
  Member winner{0.0, 0.0, -1};
  ResolveRun(best_pos, now, best, &winner);
  if (tied) {
    for (size_t k = best_pos + 1; k < buckets_.size(); ++k) {
      ++line_evaluations_;
      if (BucketPriority<kMode>(k, now) == best) {
        ResolveRun(k, now, best, &winner);
      }
    }
  }
  if (priority != nullptr) {
    // `best` is the winner's own priority bit for bit, except that a zero
    // may differ in sign: buckets key anchors by value, so the winner's
    // anchor may be the other zero of its bucket's key. Re-evaluate then.
    if (best == 0.0) {
      ++line_evaluations_;
      best = Eval(winner.id, now);
    }
    *priority = best;
  }
  return winner.id;
}

}  // namespace aqsios::sched
