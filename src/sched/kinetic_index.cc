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
  bucket_of_.assign(slots, -1);
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
    bucket_of_.resize(slots, -1);
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
    const size_t pos =
        static_cast<size_t>(head_pos_[static_cast<size_t>(bucket_of_[slot])]);
    Bucket& bucket = buckets_[pos];
    if (bucket.front.id == bucket.back.id) {
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

bool KineticIndex::Precedes(const Member& a, const Member& b) const {
  if (a.coef != b.coef) {
    return mode_ == EvalMode::kRatio ? a.coef > b.coef : a.coef < b.coef;
  }
  return TieBreaksBefore(a, b);
}

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
  const Member member{line.coef, line.tie, id};
  if (pos < 0) {
    int handle;
    if (free_handles_.empty()) {
      handle = static_cast<int>(members_.size());
      members_.emplace_back();
      head_pos_.push_back(-1);
    } else {
      handle = free_handles_.back();
      free_handles_.pop_back();
    }
    head_pos_[static_cast<size_t>(handle)] = bucket_count();
    anchors_.push_back(line.anchor);
    buckets_.push_back(Bucket{member, member, handle});
    MapAnchor(line.anchor, handle);
    anchor_ceiling_ = std::max(anchor_ceiling_, line.anchor);
    bucket_of_[static_cast<size_t>(id)] = handle;
    if (bucket_count() > kTreeEnterBuckets) EnterTree();
    return;
  }
  Bucket& bucket = buckets_[static_cast<size_t>(pos)];
  std::vector<Member>& members = members_[static_cast<size_t>(bucket.handle)];
  if (members.empty()) members.push_back(bucket.back);  // was one-line
  // Insertion step from the back: buckets are small, so an inline shift
  // beats a binary search plus a library memmove.
  members.push_back(member);
  size_t i = members.size() - 1;
  for (; i > 0 && Precedes(member, members[i - 1]); --i) {
    members[i] = members[i - 1];
  }
  members[i] = member;
  bucket.back = members.back();
  bucket.front = members.front();
  bucket_of_[static_cast<size_t>(id)] = bucket.handle;
}

void KineticIndex::RemoveFromBucket(int id) {
  const int handle = bucket_of_[static_cast<size_t>(id)];
  const size_t pos =
      static_cast<size_t>(head_pos_[static_cast<size_t>(handle)]);
  Bucket& bucket = buckets_[pos];
  if (bucket.front.id == bucket.back.id) {
    ReleaseBucket(pos);
    return;
  }
  std::vector<Member>& members = members_[static_cast<size_t>(handle)];
  if (members.back().id != id) {
    size_t i = 0;
    while (members[i].id != id) ++i;
    for (; i + 1 < members.size(); ++i) members[i] = members[i + 1];
  }
  members.pop_back();
  bucket.back = members.back();
  bucket.front = members.front();
  if (members.size() == 1) members.clear();  // one-line again
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
    members_[static_cast<size_t>(bucket.handle)].clear();
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
  const std::vector<Member>& members =
      members_[static_cast<size_t>(bucket.handle)];
  const auto consider = [&](const Member& member) {
    if (winner->id < 0 || TieBreaksBefore(member, *winner)) *winner = member;
  };
  // The scan evaluated the end member and got `best`; its equal-priority
  // neighbours form a contiguous run from that end (monotone key order).
  // Every member shares the bucket's x, so a neighbour's priority is its
  // inline coefficient applied to x — the scan's formula for its line.
  if (bucket.front.id == bucket.back.id) {
    consider(bucket.back);  // a one-line bucket has no run
    return;
  }
  const double x = now - anchors_[pos];
  const bool ratio = mode_ == EvalMode::kRatio;
  const auto priority_of = [&](const Member& m) {
    ++line_evaluations_;
    return ratio ? x / m.coef : m.coef * x;
  };
  // Members with one coefficient are identical lines here, so the run is
  // walked a coefficient group at a time: within a group the order is by
  // (tie, id), so its first member is the group's candidate.
  const auto by_key = [this](const Member& a, const Member& b) {
    return mode_ == EvalMode::kRatio ? a.coef > b.coef : a.coef < b.coef;
  };
  const auto begin = members.begin();
  const auto end = members.end();
  if (x >= 0.0) {
    auto group_end = end;  // walk groups from the back
    do {
      const auto group = std::lower_bound(begin, group_end, *(group_end - 1),
                                          by_key);
      consider(*group);
      group_end = group;
    } while (group_end != begin && priority_of(*(group_end - 1)) == best);
  } else {
    auto group = begin;  // walk groups from the front
    do {
      consider(*group);
      group = std::upper_bound(group, end, *group, by_key);
    } while (group != end && priority_of(*group) == best);
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
    // The common case: the winning bucket's back line won outright — it is
    // alone, or its neighbour already falls short of it.
    bool alone = top.front.id == top.back.id;
    if (!alone) {
      const std::vector<Member>& members =
          members_[static_cast<size_t>(top.handle)];
      const double x = now - anchors[best_pos];
      const double coef = members[members.size() - 2].coef;
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
