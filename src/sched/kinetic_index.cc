#include "sched/kinetic_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
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

/// Home slot of a key in the anchor table (Fibonacci hashing: the top bits
/// of key * 2^64 / phi).
size_t AnchorHome(uint64_t key) {
  static_assert(KineticIndex::kAnchorSlots == 256);
  return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> 56);
}
}  // namespace

void KineticIndex::Reserve(int max_ids) {
  int capacity = 1;
  while (capacity < max_ids) capacity <<= 1;
  capacity_ = capacity;
  const size_t slots = static_cast<size_t>(capacity_);
  occupied_.assign(slots, 0);
  lines_.assign(slots, Line{});
  links_.assign(slots, Link{});
  DropBuckets();
  tree_ = false;
  nodes_.clear();
  size_ = 0;
}

void KineticIndex::Clear() {
  ++clears_;
  std::fill(occupied_.begin(), occupied_.end(), 0);
  DropBuckets();
  std::fill(nodes_.begin(), nodes_.end(), Node{-1, kInf, kInf});
  size_ = 0;
}

void KineticIndex::Insert(int id, double anchor, double coef,
                          double tie_key) {
  AQSIOS_DCHECK_GE(id, 0);
  AQSIOS_DCHECK_GT(coef, 0.0);
  if (id >= capacity_) {
    int capacity = capacity_ == 0 ? 1 : capacity_;
    while (capacity <= id) capacity <<= 1;
    const size_t slots = static_cast<size_t>(capacity);
    occupied_.resize(slots, 0);
    lines_.resize(slots, Line{});
    links_.resize(slots, Link{});
    if (tree_) {
      Rebuild(capacity);
    } else {
      capacity_ = capacity;
    }
  }
  const size_t slot = static_cast<size_t>(id);
  const Line& line = lines_[slot];
  const bool present = occupied_[slot] != 0;
  if (present && Bits(line.anchor) == Bits(anchor) && line.coef == coef &&
      line.tie == tie_key) {
    return;  // same line: nothing to re-key
  }
  if (tree_) {
    if (!present) {
      occupied_[slot] = 1;
      ++size_;
      nodes_[static_cast<size_t>(capacity_ + id)].winner = id;
    }
    SetLine(id, anchor, coef, tie_key);
    MarkPath(id);
    return;
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
  if (tree_) {
    nodes_[static_cast<size_t>(capacity_ + id)].winner = -1;
    MarkPath(id);
  } else {
    RemoveFromBucket(id);
  }
  occupied_[static_cast<size_t>(id)] = 0;
  --size_;
}

void KineticIndex::SetLine(int id, double anchor, double coef,
                           double tie_key) {
  Line& line = lines_[static_cast<size_t>(id)];
  line.anchor = anchor;
  line.coef = coef;
  line.tie = tie_key;
  if (tree_) line.slope = mode_ == EvalMode::kRatio ? 1.0 / coef : coef;
}

int KineticIndex::ArgMax(SimTime now, double* priority) {
  if (size_ == 0) return -1;
  last_time_ = now;
  if (tree_) return TreeArgMax(now, priority);
  return mode_ == EvalMode::kRatio
             ? BucketArgMax<EvalMode::kRatio>(now, priority)
             : BucketArgMax<EvalMode::kScaled>(now, priority);
}

// --- bucket mode -------------------------------------------------------------

int KineticIndex::FindBucket(double anchor) const {
  // Time moves forward, so a new anchor is usually past every anchor seen
  // so far: that answers "no bucket" without a probe.
  if (!(anchor <= anchor_ceiling_)) return -1;
  const uint64_t key = AnchorKey(anchor);
  for (size_t i = AnchorHome(key);; i = (i + 1) & (kAnchorSlots - 1)) {
    const AnchorSlot& slot = anchor_table_[i];
    if (slot.handle < 0) return -1;
    if (slot.key == key) return head_pos_[static_cast<size_t>(slot.handle)];
  }
}

void KineticIndex::MapAnchor(double anchor, int handle) {
  const uint64_t key = AnchorKey(anchor);
  size_t i = AnchorHome(key);
  while (anchor_table_[i].handle >= 0) i = (i + 1) & (kAnchorSlots - 1);
  anchor_table_[i] = AnchorSlot{key, handle};
}

void KineticIndex::UnmapAnchor(double anchor) {
  constexpr size_t kMask = kAnchorSlots - 1;
  const uint64_t key = AnchorKey(anchor);
  size_t hole = AnchorHome(key);
  for (size_t probes = 0;
       anchor_table_[hole].handle < 0 || anchor_table_[hole].key != key;
       ++probes) {
    AQSIOS_CHECK_LT(probes, kAnchorSlots) << "anchor missing from its table";
    hole = (hole + 1) & kMask;
  }
  // Backward-shift deletion: move each later entry of the probe run whose
  // home does not lie cyclically after the hole back into it, so lookups
  // need no tombstones.
  for (size_t j = (hole + 1) & kMask; anchor_table_[j].handle >= 0;
       j = (j + 1) & kMask) {
    const size_t home = AnchorHome(anchor_table_[j].key);
    if (((j - home) & kMask) >= ((j - hole) & kMask)) {
      anchor_table_[hole] = anchor_table_[j];
      hole = j;
    }
  }
  anchor_table_[hole].handle = -1;
}

void KineticIndex::AddToBucket(int id, int pos) {
  const Line& line = lines_[static_cast<size_t>(id)];
  if (pos < 0) {
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
    if (bucket_count() > kTreeEnterBuckets) EnterTree();
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
  anchor_table_.fill(AnchorSlot{});
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

// --- mode switches -----------------------------------------------------------

void KineticIndex::EnterTree() {
  DropBuckets();
  tree_ = true;
  for (int id = 0; id < capacity_; ++id) {
    if (!occupied_[static_cast<size_t>(id)]) continue;
    Line& line = lines_[static_cast<size_t>(id)];
    line.slope = mode_ == EvalMode::kRatio ? 1.0 / line.coef : line.coef;
  }
  recount_countdown_ = kRecountPeriod;
  Rebuild(capacity_);
}

void KineticIndex::LeaveTree() {
  tree_ = false;
  nodes_.clear();
  for (int id = 0; id < capacity_; ++id) {
    if (occupied_[static_cast<size_t>(id)]) {
      AddToBucket(id, FindBucket(lines_[static_cast<size_t>(id)].anchor));
    }
  }
}

int KineticIndex::CountAnchorsUpTo(int limit) {
  anchor_scratch_.clear();
  for (int id = 0; id < capacity_; ++id) {
    if (!occupied_[static_cast<size_t>(id)]) continue;
    const uint64_t bits = Bits(lines_[static_cast<size_t>(id)].anchor);
    if (std::find(anchor_scratch_.begin(), anchor_scratch_.end(), bits) !=
        anchor_scratch_.end()) {
      continue;
    }
    anchor_scratch_.push_back(bits);
    if (static_cast<int>(anchor_scratch_.size()) >= limit) break;
  }
  return static_cast<int>(anchor_scratch_.size());
}

// --- tree mode ---------------------------------------------------------------

void KineticIndex::Rebuild(int new_capacity) {
  capacity_ = new_capacity;
  const size_t leaves = static_cast<size_t>(capacity_);
  nodes_.assign(leaves * 2, Node{-1, kInf, kInf});
  for (int slot = 0; slot < capacity_; ++slot) {
    if (occupied_[static_cast<size_t>(slot)]) {
      nodes_[static_cast<size_t>(capacity_ + slot)].winner = slot;
    }
  }
  for (int node = capacity_ - 1; node >= 1; --node) {
    RecomputeNode(node, last_time_);
  }
}

void KineticIndex::MarkPath(int slot) {
  // Flag the leaf and its ancestors as dirty (-inf expiry). Stops as soon as
  // an ancestor is already dirty: by construction dirtiness always extends
  // to the root, so the remaining prefix is already marked. No priority
  // arithmetic happens here — it is all deferred to the next ArgMax, which
  // both deduplicates overlapping paths and evaluates matches at the query
  // time instead of a stale clock.
  size_t node = static_cast<size_t>(capacity_ + slot);
  while (nodes_[node].subtree_exp != -kInf) {
    nodes_[node].subtree_exp = -kInf;
    if (node == 1) break;
    node >>= 1;
  }
}

void KineticIndex::RecomputeNode(int node, double t) {
  const size_t i = static_cast<size_t>(node);
  const size_t l = i << 1;
  const size_t r = l | 1;
  const int wl = nodes_[l].winner;
  const int wr = nodes_[r].winner;
  int winner;
  double match_exp = kInf;
  if (wl < 0 || wr < 0) {
    winner = wl < 0 ? wr : wl;
  } else {
    line_evaluations_ += 2;
    const double pl = Eval(wl, t);
    const double pr = Eval(wr, t);
    const Line& ll = lines_[static_cast<size_t>(wl)];
    const Line& lr = lines_[static_cast<size_t>(wr)];
    bool left_wins;
    if (pl != pr) {
      left_wins = pl > pr;
    } else if (ll.tie != lr.tie) {
      left_wins = ll.tie < lr.tie;
    } else {
      left_wins = wl < wr;
    }
    winner = left_wins ? wl : wr;
    const Line& lw = left_wins ? ll : lr;
    const Line& lo = left_wins ? lr : ll;
    // The computed comparison is only trusted while the exact gap
    // D = P_w - P_o exceeds a guard band of kBand * (|P_w| + |P_o|), far
    // wider than the few-ulp rounding of either evaluation. D changes at
    // rate s_w - s_o and the band grows at most at rate kBand * (s_w + s_o),
    // so the match holds at least until the gap closes onto the band.
    constexpr double kBand = 1e-9;
    const double pw = left_wins ? pl : pr;
    const double po = left_wins ? pr : pl;
    const double gap = (pw - po) - kBand * (std::abs(pw) + std::abs(po));
    if (!(gap > 0.0)) {
      // Inside the band — a near-tie, possibly distinct lines that round to
      // equal priorities: re-decide on every query. Identical lines tie
      // forever and keep their tie-break, so they need no certificate.
      if (Bits(lw.anchor) != Bits(lo.anchor) || lw.coef != lo.coef) {
        match_exp = t;
      }
    } else {
      const double closing =
          (lo.slope - lw.slope) + kBand * (lw.slope + lo.slope);
      if (closing > 0.0) match_exp = t + gap / closing;
    }
  }
  nodes_[i].winner = winner;
  nodes_[i].match_exp = match_exp;
  nodes_[i].subtree_exp = std::min(
      match_exp, std::min(nodes_[l].subtree_exp, nodes_[r].subtree_exp));
}

bool KineticIndex::RefreshNode(int node, double now) {
  const size_t i = static_cast<size_t>(node);
  const size_t l = i << 1;
  const size_t r = l | 1;
  bool left_changed = false;
  bool right_changed = false;
  if (static_cast<int>(l) >= capacity_) {
    // Children are leaves. A leaf with an expired (-inf, i.e. dirty) marker
    // had its line rewritten — or the slot emptied — by an Insert/Erase
    // since the last query. Reporting "changed" forces every ancestor match
    // its line participates in to be recomputed: the winning *slot* of
    // those matches may be unchanged while the line behind it is not, so a
    // slot comparison alone would be unsound.
    if (nodes_[l].subtree_exp <= now) {
      nodes_[l].subtree_exp = kInf;
      left_changed = true;
    }
    if (nodes_[r].subtree_exp <= now) {
      nodes_[r].subtree_exp = kInf;
      right_changed = true;
    }
  } else {
    // Recurse only into expired/dirty subtrees; clean ones are not entered.
    if (nodes_[l].subtree_exp <= now) left_changed = RefreshNode(l, now);
    if (nodes_[r].subtree_exp <= now) right_changed = RefreshNode(r, now);
  }
  const int old_winner = nodes_[i].winner;
  if (!(left_changed || right_changed) && nodes_[i].match_exp > now) {
    // Only descendants tightened their expiries; the cached match is intact.
    nodes_[i].subtree_exp =
        std::min(nodes_[i].match_exp,
                 std::min(nodes_[l].subtree_exp, nodes_[r].subtree_exp));
    return false;
  }
  RecomputeNode(node, now);
  const int w = nodes_[i].winner;
  if (w != old_winner) return true;
  // Same winning slot — but if the winner came out of a subtree that
  // reported a change, its *line* may have been rewritten, and ancestors
  // matched against the old line must re-run their matches too.
  return w == nodes_[l].winner ? left_changed : right_changed;
}

int KineticIndex::TreeArgMax(SimTime now, double* priority) {
  if (--recount_countdown_ <= 0) {
    recount_countdown_ = kRecountPeriod;
    if (CountAnchorsUpTo(kTreeLeaveBuckets + 1) <= kTreeLeaveBuckets) {
      LeaveTree();
      return ArgMax(now, priority);
    }
  }
  if (capacity_ > 1) {
    if (nodes_[1].subtree_exp <= now) RefreshNode(1, now);
  } else {
    // Single-leaf tree: node 1 is the leaf itself; just clear its marker.
    nodes_[1].subtree_exp = kInf;
  }
  const int winner = nodes_[1].winner;
  if (priority != nullptr) {
    ++line_evaluations_;
    *priority = Eval(winner, now);
  }
  return winner;
}

}  // namespace aqsios::sched
