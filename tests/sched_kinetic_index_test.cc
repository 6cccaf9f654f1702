// KineticIndex correctness: randomized equivalence against a brute-force
// reference (both eval modes; distinct-anchor traces from a few dozen to
// hundreds of anchors; shared-anchor traces with rounding near-ties,
// colliding tie keys, anchors at and ahead of the clock, or groups of
// identical lines, all with bursts of hundreds of distinct anchors that grow
// the anchor table and then fold back), the anchor table's growth itself,
// golden-trace equivalence of the kinetic schedulers against their naive
// scan twins (picks *and* simulated SchedulingCost charges), and
// full-simulation equality kinetic on vs off.

#include "sched/kinetic_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <vector>

#include "core/dsms.h"
#include "core/report.h"
#include "query/workload.h"
#include "sched/basic_policies.h"
#include "sched/clustered_bsd.h"
#include "sched/policy.h"

namespace aqsios::sched {
namespace {

// ---------------------------------------------------------------------------
// Brute-force reference.

struct RefLine {
  double anchor = 0.0;
  double coef = 1.0;
  double tie = 0.0;
};

/// The scan the index must reproduce bit for bit: first maximum under
/// strict >, iterating ids in ascending order (ties therefore go to the
/// smallest (tie, id)).
int ReferenceArgMax(const std::map<int, RefLine>& lines,
                    KineticIndex::EvalMode mode, double now,
                    double* priority) {
  int best = -1;
  double best_priority = 0.0;
  double best_tie = 0.0;
  for (const auto& [id, line] : lines) {
    const double p = mode == KineticIndex::EvalMode::kRatio
                         ? (now - line.anchor) / line.coef
                         : line.coef * (now - line.anchor);
    if (best < 0 || p > best_priority ||
        (p == best_priority && line.tie < best_tie)) {
      best = id;
      best_priority = p;
      best_tie = line.tie;
    }
  }
  if (best >= 0 && priority != nullptr) *priority = best_priority;
  return best;
}

/// Compares one ArgMax of the index against the reference, priority bit
/// for bit, and checks the anchor table's load.
void ExpectSameArgMax(KineticIndex& index,
                      const std::map<int, RefLine>& reference,
                      KineticIndex::EvalMode mode, double now, int step) {
  double expected_priority = 0.0;
  const int expected = ReferenceArgMax(reference, mode, now, &expected_priority);
  double actual_priority = 0.0;
  const int actual = index.ArgMax(now, &actual_priority);
  ASSERT_EQ(actual, expected) << "step " << step << " now=" << now
                              << " buckets=" << index.bucket_count()
                              << " p=" << actual_priority << " vs "
                              << expected_priority;
  if (expected >= 0) {
    ASSERT_EQ(std::bit_cast<uint64_t>(actual_priority),
              std::bit_cast<uint64_t>(expected_priority))
        << "step " << step;
  }
  ASSERT_LE(3 * index.bucket_count(), index.anchor_slots()) << "step " << step;
}

/// Drives the index and the reference through `steps` random mutations and
/// queries over ids in [0, max_id), then drains the index in random order,
/// and asserts identical answers throughout. Returns the peak number of
/// live buckets (distinct anchors).
int RunRandomizedTrace(KineticIndex::EvalMode mode, int max_id, int steps,
                       uint64_t seed, bool reserve_first) {
  KineticIndex index(mode);
  if (reserve_first) index.Reserve(max_id);
  std::map<int, RefLine> reference;
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> id_dist(0, max_id - 1);
  std::uniform_real_distribution<double> anchor_dist(0.0, 10.0);
  std::uniform_real_distribution<double> coef_dist(0.01, 5.0);
  std::uniform_int_distribution<int> op_dist(0, 9);
  std::uniform_int_distribution<int> tie_dist(0, 2);
  double now = 0.0;
  int peak_buckets = 0;
  for (int step = 0; step < steps; ++step) {
    const int op = op_dist(rng);
    if (op < 5) {  // insert or re-key
      const int id = id_dist(rng);
      RefLine line;
      // Anchors may lie ahead of `now` (a queue head that arrived "recently"
      // relative to a stale clock) and ties collide often on purpose.
      line.anchor = anchor_dist(rng);
      line.coef = coef_dist(rng);
      line.tie = static_cast<double>(tie_dist(rng));
      reference[id] = line;
      index.Insert(id, line.anchor, line.coef, line.tie);
    } else if (op < 7) {  // erase
      const int id = id_dist(rng);
      reference.erase(id);
      index.Erase(id);
    } else {  // query at an advanced clock
      now += anchor_dist(rng) * 0.3;
      ExpectSameArgMax(index, reference, mode, now, step);
    }
    if (::testing::Test::HasFatalFailure()) return peak_buckets;
    EXPECT_EQ(index.size(), static_cast<int>(reference.size()));
    peak_buckets = std::max(peak_buckets, index.bucket_count());
  }
  // Drain: the buckets shrink back while the table keeps its size.
  std::vector<int> live;
  for (const auto& entry : reference) live.push_back(entry.first);
  std::shuffle(live.begin(), live.end(), rng);
  for (size_t k = 0; k < live.size(); ++k) {
    reference.erase(live[k]);
    index.Erase(live[k]);
    if (k % 8 == 0) {
      now += 0.01;
      ExpectSameArgMax(index, reference, mode, now, steps);
      if (::testing::Test::HasFatalFailure()) return peak_buckets;
    }
  }
  EXPECT_TRUE(index.empty());
  EXPECT_EQ(index.bucket_count(), 0);
  return peak_buckets;
}

TEST(KineticIndexTest, RandomizedTraceDenseRatio) {
  // max_id 60: even with every anchor distinct the buckets stay within the
  // anchor table's initial size, one line each.
  RunRandomizedTrace(KineticIndex::EvalMode::kRatio, 60, 4000, 0xA1, true);
}

TEST(KineticIndexTest, RandomizedTraceDenseScaled) {
  RunRandomizedTrace(KineticIndex::EvalMode::kScaled, 60, 4000, 0xB2, true);
}

TEST(KineticIndexTest, RandomizedTraceTreeRatio) {
  // max_id 600 with continuous anchors: every live line is its own bucket,
  // past 300 of them, so the anchor table doubles at least twice before the
  // drain folds the buckets away again.
  const int peak =
      RunRandomizedTrace(KineticIndex::EvalMode::kRatio, 600, 4000, 0xC3, true);
  EXPECT_GE(peak, 300);
}

TEST(KineticIndexTest, RandomizedTraceTreeScaled) {
  const int peak = RunRandomizedTrace(KineticIndex::EvalMode::kScaled, 600,
                                      4000, 0xD4, true);
  EXPECT_GE(peak, 300);
}

TEST(KineticIndexTest, RandomizedTraceGrowthSwitch) {
  // No Reserve: the id capacity starts at zero and grows on demand while the
  // anchor table doubles under it, past 300 distinct anchors.
  const int peak = RunRandomizedTrace(KineticIndex::EvalMode::kScaled, 500,
                                      5000, 0xE5, false);
  EXPECT_GE(peak, 300);
}

/// The line pools a bucketed trace draws from.
struct BucketedInputs {
  std::vector<double> anchors;
  std::vector<double> coefs;
  int tie_values = 3;
  /// Adds coefficient-only re-keys and drains of whole buckets down to one
  /// line (the group <-> one-line collapses).
  bool group_heavy = false;
};

/// Near-tie lines: anchors from a pool of 8 values (queries sometimes land
/// exactly on one, giving x = 0, and early on most lie ahead of `now`),
/// coefficients from a small pool plus their std::nextafter neighbours (so
/// distinct coefficients round to equal priorities), colliding tie keys.
BucketedInputs NearTieInputs() {
  BucketedInputs inputs;
  inputs.anchors = {0.0, 0.25, 1.0, 2.5, 2.5000000000000004, 4.0, 6.1, 9.3};
  for (const double base : {0.1, 0.3, 1.0, 1.7, 3.0}) {
    inputs.coefs.push_back(base);
    inputs.coefs.push_back(std::nextafter(base, 0.0));
    inputs.coefs.push_back(std::nextafter(base, 10.0));
    inputs.coefs.push_back(std::nextafter(std::nextafter(base, 10.0), 10.0));
  }
  return inputs;
}

/// Identical lines: 3 anchors x 2 well-separated coefficients x 2 tie keys,
/// so a bucket holds a few groups of many ids each. Ids arrive and leave in
/// random order, so they join and leave groups at the head, in the middle
/// and at the tail.
BucketedInputs GroupHeavyInputs() {
  BucketedInputs inputs;
  inputs.anchors = {0.0, 1.5, 3.0};
  inputs.coefs = {0.5, 2.0};
  inputs.tie_values = 2;
  inputs.group_heavy = true;
  return inputs;
}

/// Drives the index and the reference through a trace whose lines actually
/// share anchors, drawn from `inputs`. Bursts move every id onto its own
/// distinct anchor (growing the anchor table when max_id is large) and then
/// fold them back onto the pool, and Clear/Reserve happen mid-trace.
/// Returns the peak number of live buckets.
int RunBucketedTrace(KineticIndex::EvalMode mode, int max_id, int steps,
                     uint64_t seed, const BucketedInputs& inputs) {
  KineticIndex index(mode);
  index.Reserve(max_id);
  std::map<int, RefLine> reference;
  std::mt19937_64 rng(seed);
  const std::vector<double>& anchor_pool = inputs.anchors;
  const std::vector<double>& coef_pool = inputs.coefs;
  std::uniform_int_distribution<int> id_dist(0, max_id - 1);
  std::uniform_int_distribution<size_t> anchor_pick(0, anchor_pool.size() - 1);
  std::uniform_int_distribution<size_t> coef_pick(0, coef_pool.size() - 1);
  std::uniform_int_distribution<int> tie_dist(0, inputs.tie_values - 1);
  std::uniform_int_distribution<int> op_dist(0, 999);
  std::uniform_real_distribution<double> step_dist(0.0, 0.02);
  double now = 0.0;
  int peak_buckets = 0;
  const auto query = [&](int step) {
    peak_buckets = std::max(peak_buckets, index.bucket_count());
    ExpectSameArgMax(index, reference, mode, now, step);
  };
  for (int step = 0; step < steps; ++step) {
    const int op = op_dist(rng);
    if (inputs.group_heavy && op < 100 && !reference.empty()) {
      // Re-key a live id to the other coefficient, keeping its anchor (and
      // so its bucket) and its tie key.
      auto it = reference.begin();
      std::advance(it, static_cast<long>(rng() % reference.size()));
      RefLine& line = it->second;
      const double old_coef = line.coef;
      while (line.coef == old_coef) line.coef = coef_pool[coef_pick(rng)];
      index.Insert(it->first, line.anchor, line.coef, line.tie);
    } else if (inputs.group_heavy && op < 130) {
      // Drain one anchor's bucket in random order down to a single line
      // (groups collapse into a one-line bucket), querying on the way.
      const double anchor = anchor_pool[anchor_pick(rng)];
      std::vector<int> ids;
      for (const auto& [id, line] : reference) {
        if (line.anchor == anchor) ids.push_back(id);
      }
      std::shuffle(ids.begin(), ids.end(), rng);
      for (size_t k = 1; k < ids.size(); ++k) {
        reference.erase(ids[k]);
        index.Erase(ids[k]);
        if (k % 4 == 0) query(step);
      }
      query(step);
    } else if (op < 450) {  // insert or re-key on the pooled lines
      const int id = id_dist(rng);
      RefLine line;
      line.anchor = anchor_pool[anchor_pick(rng)];
      line.coef = coef_pool[coef_pick(rng)];
      line.tie = static_cast<double>(tie_dist(rng));
      reference[id] = line;
      index.Insert(id, line.anchor, line.coef, line.tie);
    } else if (op < 650) {  // erase
      const int id = id_dist(rng);
      reference.erase(id);
      index.Erase(id);
    } else if (op < 990) {  // query, sometimes exactly at a pooled anchor
      if (op < 700) {
        const double target = anchor_pool[anchor_pick(rng)];
        if (target >= now) now = target;
      } else {
        now += step_dist(rng);
      }
      query(step);
    } else if (op < 995) {
      // Burst: re-key every id, in random order, onto its own anchor past
      // the pool, querying on the way, then fold them back onto the pool in
      // random order; the buckets shrink back to the pool's few.
      std::vector<int> ids(static_cast<size_t>(max_id));
      for (int id = 0; id < max_id; ++id) ids[static_cast<size_t>(id)] = id;
      std::shuffle(ids.begin(), ids.end(), rng);
      for (size_t k = 0; k < ids.size(); ++k) {
        RefLine line;
        line.anchor = 20.0 + 0.37 * static_cast<double>(k) + 0.001 * step;
        line.coef = coef_pool[coef_pick(rng)];
        line.tie = static_cast<double>(tie_dist(rng));
        reference[ids[k]] = line;
        index.Insert(ids[k], line.anchor, line.coef, line.tie);
        if (k % 32 == 0) query(step);
      }
      query(step);
      std::shuffle(ids.begin(), ids.end(), rng);
      for (size_t k = 0; k < ids.size(); ++k) {
        RefLine& line = reference[ids[k]];
        line.anchor = anchor_pool[anchor_pick(rng)];
        index.Insert(ids[k], line.anchor, line.coef, line.tie);
        if (k % 32 == 0) {
          now += 1e-4;
          query(step);
        }
      }
      query(step);
    } else if (op < 998) {
      reference.clear();
      index.Clear();
    } else {
      reference.clear();
      index.Reserve(max_id);
    }
    if (::testing::Test::HasFatalFailure()) return peak_buckets;
    EXPECT_EQ(index.size(), static_cast<int>(reference.size()));
  }
  return peak_buckets;
}

TEST(KineticIndexTest, RandomizedBucketedTraceRatio) {
  // 300 ids: each burst holds 300 distinct anchors, so the anchor table
  // doubles twice (256 -> 1024 slots).
  for (const BucketedInputs& inputs : {NearTieInputs(), GroupHeavyInputs()}) {
    const int peak = RunBucketedTrace(KineticIndex::EvalMode::kRatio, 300,
                                      6000, 0x51, inputs);
    EXPECT_GE(peak, 300) << "the trace must grow the anchor table";
  }
}

TEST(KineticIndexTest, RandomizedBucketedTraceScaled) {
  for (const BucketedInputs& inputs : {NearTieInputs(), GroupHeavyInputs()}) {
    const int peak = RunBucketedTrace(KineticIndex::EvalMode::kScaled, 300,
                                      6000, 0x52, inputs);
    EXPECT_GE(peak, 300) << "the trace must grow the anchor table";
  }
}

TEST(KineticIndexTest, RandomizedBucketedTraceSmallIds) {
  // 40 ids never grow the anchor table: large shared buckets (near-tie
  // lines) or small groups (identical ones), with bursts of one-line
  // buckets.
  for (const BucketedInputs& inputs : {NearTieInputs(), GroupHeavyInputs()}) {
    for (const auto mode :
         {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
      RunBucketedTrace(mode, 40, 6000, 0x53, inputs);
    }
  }
}

TEST(KineticIndexTest, SharedAnchorsFormOneBucketEach) {
  KineticIndex index(KineticIndex::EvalMode::kScaled);
  index.Reserve(400);
  // 300 lines over 3 anchors: three buckets.
  for (int id = 0; id < 300; ++id) {
    index.Insert(id, static_cast<double>(id % 3), 1.0 + 0.01 * id);
  }
  EXPECT_EQ(index.bucket_count(), 3);
  // Best at t=10: max over anchors a of (10 - a) * coef — anchor 0 with the
  // steepest member of that bucket (id 297, coef 3.97).
  const int64_t before = index.line_evaluations();
  double priority = 0.0;
  EXPECT_EQ(index.ArgMax(10.0, &priority), 297);
  EXPECT_EQ(priority, (1.0 + 0.01 * 297) * 10.0);
  // One evaluation per bucket plus one neighbour check in the winner's run.
  EXPECT_EQ(index.line_evaluations() - before, 4);
}

TEST(KineticIndexTest, BucketCountTracksDistinctAnchors) {
  // One bucket per distinct live anchor: phases that grow the anchor set
  // past the anchor table's first doubling alternate with phases that drain
  // it to a handful of lines, with re-keys throughout.
  KineticIndex index(KineticIndex::EvalMode::kScaled);
  index.Reserve(300);
  std::map<int, double> anchor_of;
  std::mt19937_64 rng(0x7AB1E);
  std::uniform_int_distribution<int> id_dist(0, 299);
  std::uniform_int_distribution<int> anchor_dist(0, 399);
  const auto check = [&](int phase) {
    std::map<double, int> distinct;
    for (const auto& entry : anchor_of) ++distinct[entry.second];
    ASSERT_EQ(index.bucket_count(), static_cast<int>(distinct.size()))
        << "phase " << phase;
    ASSERT_LE(3 * index.bucket_count(), index.anchor_slots());
  };
  for (int phase = 0; phase < 6; ++phase) {
    for (int step = 0; step < 400; ++step) {  // grow and re-key
      const int id = id_dist(rng);
      const double anchor = 0.5 * anchor_dist(rng);
      anchor_of[id] = anchor;
      index.Insert(id, anchor, 1.0 + id);
      check(phase);
    }
    while (anchor_of.size() > 3) {  // drain, re-keying now and then
      auto it = anchor_of.begin();
      std::advance(it, static_cast<long>(rng() % anchor_of.size()));
      if (rng() % 4 == 0) {
        it->second = 0.5 * anchor_dist(rng);
        index.Insert(it->first, it->second, 1.0 + it->first);
      } else {
        index.Erase(it->first);
        anchor_of.erase(it);
      }
      check(phase);
    }
  }
  EXPECT_GT(index.anchor_slots(),
            static_cast<int>(KineticIndex::kInitialAnchorSlots));
}

TEST(KineticIndexTest, EqualCoefficientsTieToSmallestTieThenId) {
  // A whole bucket of equal lines: the run walk must reach the smallest
  // (tie, id) wherever it sits in the bucket, on both sides of the anchor.
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    KineticIndex index(mode);
    index.Reserve(16);
    for (int id = 0; id < 10; ++id) {
      index.Insert(id, 5.0, 2.0, /*tie_key=*/static_cast<double>(9 - id % 4));
    }
    // Ties 9,8,7,6,9,8,7,6,9,8 by id: smallest tie 6 at ids 3 and 7.
    EXPECT_EQ(index.ArgMax(8.0), 3);   // x > 0
    KineticIndex ahead(mode);
    ahead.Reserve(16);
    for (int id = 0; id < 10; ++id) {
      ahead.Insert(id, 5.0, 2.0, static_cast<double>(9 - id % 4));
    }
    EXPECT_EQ(ahead.ArgMax(4.0), 3);   // x < 0: anchor ahead of now
    EXPECT_EQ(ahead.ArgMax(5.0), 3);   // x = 0
  }
}

TEST(KineticIndexTest, AnchorTableDoublesPastAThirdFull) {
  // 1000 one-line buckets on distinct anchors: the table doubles whenever a
  // new bucket would fill more than a third of it, and never shrinks.
  KineticIndex index(KineticIndex::EvalMode::kRatio);
  index.Reserve(1000);
  int slots = index.anchor_slots();
  EXPECT_EQ(slots, static_cast<int>(KineticIndex::kInitialAnchorSlots));
  int doublings = 0;
  for (int id = 0; id < 1000; ++id) {
    index.Insert(id, static_cast<double>(id), 1.0 + (id % 7));
    if (index.anchor_slots() != slots) {
      EXPECT_EQ(index.anchor_slots(), 2 * slots) << "id " << id;
      EXPECT_GT(3 * index.bucket_count(), slots) << "doubled early";
      slots = index.anchor_slots();
      ++doublings;
    }
    ASSERT_LE(3 * index.bucket_count(), slots) << "id " << id;
  }
  EXPECT_EQ(doublings, 4);  // 256 -> 4096 slots for 1000 buckets
  // At t = 2000 the line (t - a) / c is largest for the smallest coefficient
  // (id % 7 == 0) and then the oldest anchor: id 0.
  double priority = 0.0;
  EXPECT_EQ(index.ArgMax(2000.0, &priority), 0);
  EXPECT_EQ(priority, 2000.0);
  const int64_t before = index.line_evaluations();
  index.ArgMax(2000.0);
  EXPECT_EQ(index.line_evaluations() - before, 1000) << "one per bucket";
  for (int id = 0; id < 998; ++id) index.Erase(id);
  EXPECT_EQ(index.bucket_count(), 2);
  EXPECT_EQ(index.anchor_slots(), slots);
  // id 998: (2000 - 998) / (1 + 4); id 999: (2000 - 999) / (1 + 5).
  EXPECT_EQ(index.ArgMax(2000.0, &priority), 998);
  EXPECT_EQ(priority, (2000.0 - 998.0) / 5.0);
}

TEST(KineticIndexTest, ClearEmptiesBothModes) {
  for (const auto mode :
       {KineticIndex::EvalMode::kRatio, KineticIndex::EvalMode::kScaled}) {
    KineticIndex index(mode);
    index.Reserve(500);
    index.Insert(1, 0.0, 1.0);
    index.Insert(2, 0.0, 2.0);
    for (int k = 0; k < 200; ++k) index.Insert(100 + k, 1.0 + k, 1.0);
    const int slots = index.anchor_slots();
    EXPECT_GT(slots, static_cast<int>(KineticIndex::kInitialAnchorSlots));
    index.Clear();
    EXPECT_TRUE(index.empty());
    EXPECT_EQ(index.bucket_count(), 0);
    EXPECT_EQ(index.anchor_slots(), slots) << "Clear keeps the table";
    EXPECT_EQ(index.ArgMax(5.0), -1);
    index.Insert(3, 0.0, 1.0);
    EXPECT_EQ(index.ArgMax(5.0), 3);
    EXPECT_EQ(index.clears(), 1);
  }
}

// ---------------------------------------------------------------------------
// Golden-trace equivalence: kinetic scheduler vs its naive scan twin.

Unit MakeUnit(int id, double phi, SimTime ideal_time) {
  Unit unit;
  unit.id = id;
  unit.kind = UnitKind::kQueryChain;
  unit.query = id;
  unit.input_stream = 0;
  unit.stats.phi = phi;
  unit.stats.output_rate = phi * 2.0;
  unit.stats.normalized_rate = phi * 1.5;
  unit.stats.ideal_time = ideal_time;
  return unit;
}

UnitTable MakeUnits(int n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> phi_dist(0.05, 20.0);
  std::uniform_int_distribution<int> ideal_dist(1, 5);
  UnitTable units;
  for (int i = 0; i < n; ++i) {
    // Few distinct ideal_times (LSF coefficient classes) and continuous phi,
    // mirroring the testbed's shape; both produce frequent priority ties.
    units.push_back(
        MakeUnit(i, phi_dist(rng), 0.001 * ideal_dist(rng)));
  }
  return units;
}

/// Runs the same random enqueue/pick trace through both schedulers and
/// asserts identical picks and identical SchedulingCost charges. The two
/// unit tables evolve in lockstep because picks match.
void RunGoldenTrace(Scheduler& kinetic, Scheduler& scan, int n, int steps,
                    uint64_t seed) {
  UnitTable units_a = MakeUnits(n, seed);
  UnitTable units_b = MakeUnits(n, seed);
  kinetic.Attach(&units_a);
  scan.Attach(&units_b);
  std::mt19937_64 rng(seed ^ 0x5EED);
  std::uniform_int_distribution<int> unit_dist(0, n - 1);
  std::uniform_int_distribution<int> op_dist(0, 3);
  double now = 0.0;
  int64_t arrival = 0;
  for (int step = 0; step < steps; ++step) {
    now += 0.001;
    if (op_dist(rng) != 0) {  // enqueue (weighted 3:1 over pick)
      const int u = unit_dist(rng);
      units_a[static_cast<size_t>(u)].queue.push_back(QueueEntry{arrival, now});
      units_b[static_cast<size_t>(u)].queue.push_back(QueueEntry{arrival, now});
      ++arrival;
      kinetic.OnEnqueue(u);
      scan.OnEnqueue(u);
      continue;
    }
    SchedulingCost cost_a;
    SchedulingCost cost_b;
    std::vector<int> out_a;
    std::vector<int> out_b;
    const bool ok_a = kinetic.PickNext(now, &cost_a, &out_a);
    const bool ok_b = scan.PickNext(now, &cost_b, &out_b);
    ASSERT_EQ(ok_a, ok_b) << "step " << step;
    ASSERT_EQ(out_a, out_b) << "step " << step;
    // The simulated overhead charges must be identical: the kinetic index is
    // a wall-clock optimization, not a change to the costs the §9.2
    // experiments charge to the virtual clock.
    ASSERT_EQ(cost_a.computations, cost_b.computations) << "step " << step;
    ASSERT_EQ(cost_a.comparisons, cost_b.comparisons) << "step " << step;
    ASSERT_EQ(cost_a.candidates, cost_b.candidates) << "step " << step;
    ASSERT_EQ(cost_a.chosen_priority, cost_b.chosen_priority)
        << "step " << step;
    if (!ok_a) continue;
    for (const int u : out_a) {
      units_a[static_cast<size_t>(u)].queue.pop_front();
      units_b[static_cast<size_t>(u)].queue.pop_front();
      kinetic.OnDequeue(u);
      scan.OnDequeue(u);
    }
  }
}

TEST(KineticEquivalenceTest, LsfGoldenTrace) {
  for (const int n : {7, 60, 200}) {
    LsfScheduler kinetic(/*use_kinetic_index=*/true);
    LsfScheduler scan(/*use_kinetic_index=*/false);
    RunGoldenTrace(kinetic, scan, n, 6000, 0x11F + static_cast<uint64_t>(n));
  }
}

TEST(KineticEquivalenceTest, BsdGoldenTraceBothCountModes) {
  for (const bool count_all : {false, true}) {
    for (const int n : {7, 60, 200}) {
      BsdScheduler kinetic(count_all, /*use_kinetic_index=*/true);
      BsdScheduler scan(count_all, /*use_kinetic_index=*/false);
      RunGoldenTrace(kinetic, scan, n, 6000,
                     0xB5D + static_cast<uint64_t>(n) + (count_all ? 1 : 0));
    }
  }
}

TEST(KineticEquivalenceTest, ClusteredBsdGoldenTrace) {
  for (const bool clustered_processing : {false, true}) {
    for (const int n : {20, 60}) {
      ClusteredBsdOptions on;
      on.num_clusters = 6;
      on.clustered_processing = clustered_processing;
      on.use_kinetic_index = true;
      ClusteredBsdOptions off = on;
      off.use_kinetic_index = false;
      ClusteredBsdScheduler kinetic(on);
      ClusteredBsdScheduler scan(off);
      RunGoldenTrace(kinetic, scan, n, 6000,
                     0xC1 + static_cast<uint64_t>(n) +
                         (clustered_processing ? 7 : 0));
    }
  }
}

// ---------------------------------------------------------------------------
// Full-simulation equality.

query::WorkloadConfig TestbedConfig(int queries, int64_t arrivals) {
  query::WorkloadConfig workload_config;
  workload_config.num_queries = queries;
  workload_config.num_arrivals = arrivals;
  workload_config.seed = 42;
  workload_config.utilization = 0.9;
  return workload_config;
}

core::RunResult RunSim(sched::PolicyConfig config, bool kinetic,
                       bool charge_overhead,
                       const query::WorkloadConfig& workload_config =
                           TestbedConfig(24, 3000)) {
  const query::Workload workload = query::GenerateWorkload(workload_config);
  config.use_kinetic_index = kinetic;
  config.clustered.use_kinetic_index = kinetic;
  core::SimulationOptions options;
  options.charge_scheduling_overhead = charge_overhead;
  return core::Simulate(workload, config, options);
}

void ExpectSameRun(const core::RunResult& a, const core::RunResult& b) {
  EXPECT_EQ(a.qos.tuples_emitted, b.qos.tuples_emitted);
  EXPECT_EQ(a.qos.avg_response, b.qos.avg_response);
  EXPECT_EQ(a.qos.avg_slowdown, b.qos.avg_slowdown);
  EXPECT_EQ(a.qos.max_slowdown, b.qos.max_slowdown);
  EXPECT_EQ(a.qos.l2_slowdown, b.qos.l2_slowdown);
  EXPECT_EQ(a.counters.scheduling_points, b.counters.scheduling_points);
  EXPECT_EQ(a.counters.priority_computations, b.counters.priority_computations);
  EXPECT_EQ(a.counters.decision_candidates, b.counters.decision_candidates);
  EXPECT_EQ(a.counters.overhead_operations, b.counters.overhead_operations);
  EXPECT_EQ(a.counters.overhead_time, b.counters.overhead_time);
  EXPECT_EQ(a.counters.end_time, b.counters.end_time);
}

TEST(KineticEquivalenceTest, SimulationBitIdenticalKineticOnOff) {
  // Both with and without §9.2 overhead charging: the kinetic index must
  // leave the virtual clock — including the charged scheduling costs —
  // untouched.
  for (const bool charge : {false, true}) {
    for (const PolicyKind kind :
         {PolicyKind::kLsf, PolicyKind::kBsd, PolicyKind::kBsdClustered}) {
      const auto config = PolicyConfig::Of(kind);
      ExpectSameRun(RunSim(config, /*kinetic=*/true, charge),
                    RunSim(config, /*kinetic=*/false, charge));
    }
  }
  // §8 testbed cells at 320 queries, where every arrival fans out to
  // hundreds of units. The plain cell holds a few dozen shared-anchor
  // buckets of ~10-20 units each. With §7 sharing groups of 10 the distinct
  // head arrivals of BSD's ready set peak at about 109 live buckets, so that
  // run grows the anchor table past its initial 256 slots. The whole
  // serialized result must match the scan's.
  query::WorkloadConfig plain = TestbedConfig(320, 1000);
  query::WorkloadConfig shared = TestbedConfig(320, 3000);
  shared.sharing_group_size = 10;
  for (const query::WorkloadConfig& workload_config : {plain, shared}) {
    for (const PolicyKind kind :
         {PolicyKind::kLsf, PolicyKind::kBsd, PolicyKind::kBsdClustered}) {
      const auto config = PolicyConfig::Of(kind);
      EXPECT_EQ(
          core::RunResultToJson(RunSim(config, true, false, workload_config)),
          core::RunResultToJson(RunSim(config, false, false, workload_config)))
          << PolicyKindName(kind) << " sharing_group_size="
          << workload_config.sharing_group_size;
    }
  }
}

}  // namespace
}  // namespace aqsios::sched
