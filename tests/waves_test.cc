// Tests for the wave driver (common/waves.h): on random schedules of
// skips, an admission error and a commit error, RunWaves must commit the
// same items, return the same Status and leave the same position as a
// serial admit-work-commit loop, for any thread count.

#include "common/waves.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"

namespace mdc {
namespace {

constexpr size_t kNoError = static_cast<size_t>(-1);

struct Schedule {
  size_t begin = 0;
  size_t end = 0;
  std::vector<bool> skip;          // Indexed by item.
  size_t admit_error = kNoError;   // Admission of this item fails.
  size_t commit_error = kNoError;  // Commit of this item fails.
};

struct Outcome {
  std::vector<size_t> commits;  // Items whose commit ran, in call order.
  Status status;
  size_t position = 0;
};

Schedule RandomSchedule(Rng& rng) {
  Schedule schedule;
  schedule.end = rng.NextBelow(60);
  schedule.begin = rng.NextBelow(schedule.end + 1);
  for (size_t i = 0; i < schedule.end; ++i) {
    schedule.skip.push_back(rng.NextBool(0.3));
  }
  if (schedule.end > 0 && rng.NextBool(0.5)) {
    schedule.admit_error = rng.NextBelow(schedule.end);
  }
  if (schedule.end > 0 && rng.NextBool(0.5)) {
    schedule.commit_error = rng.NextBelow(schedule.end);
  }
  return schedule;
}

// The serial loop the driver must be indistinguishable from.
Outcome SerialReference(const Schedule& schedule) {
  Outcome out;
  for (size_t i = schedule.begin; i < schedule.end; ++i) {
    if (i == schedule.admit_error) {
      out.status = Status::ResourceExhausted("admit " + std::to_string(i));
      out.position = i;
      return out;
    }
    if (schedule.skip[i]) continue;
    out.commits.push_back(i);
    if (i == schedule.commit_error) {
      out.status = Status::Internal("commit " + std::to_string(i));
      out.position = i;
      return out;
    }
  }
  out.position = schedule.end;
  return out;
}

// Runs `schedule` through RunWaves on `pool`, checking the driver's rules
// on the way, and returns what it committed.
Outcome RunDriver(const Schedule& schedule, ThreadPool& pool) {
  const size_t threads = static_cast<size_t>(pool.thread_count());
  const size_t wave = threads <= 1 ? 1 : threads * 4;
  std::vector<size_t> admissions;
  std::vector<bool> admitted_to_run(schedule.end, false);
  std::vector<std::atomic<int>> work_runs(schedule.end);
  size_t awaiting_commit = 0;
  bool admission_failed = false;
  bool commit_failed = false;

  Outcome out;
  out.position = schedule.begin;
  out.status = RunWaves(
      pool, out.position, schedule.end,
      [&](size_t i) -> StatusOr<WaveAdmit> {
        EXPECT_FALSE(admission_failed || commit_failed)
            << "admission after an error";
        admissions.push_back(i);
        if (i == schedule.admit_error) {
          admission_failed = true;
          return Status::ResourceExhausted("admit " + std::to_string(i));
        }
        if (schedule.skip[i]) return WaveAdmit::kSkip;
        // A wave holds one item at one thread and four per thread
        // otherwise; skipped items take no slot.
        EXPECT_LT(awaiting_commit, wave) << "wave overfilled at " << i;
        ++awaiting_commit;
        admitted_to_run[i] = true;
        return WaveAdmit::kRun;
      },
      [&](size_t i) {
        work_runs[i].fetch_add(1, std::memory_order_relaxed);
        return std::make_unique<size_t>(i * 7 + 1);
      },
      [&](size_t i, std::unique_ptr<size_t>& slot) -> Status {
        EXPECT_FALSE(commit_failed) << "commit after a commit error";
        EXPECT_TRUE(admitted_to_run[i]);
        EXPECT_EQ(*slot, i * 7 + 1) << "slot of another item";
        std::unique_ptr<size_t> owned = std::move(slot);  // Move-only slots.
        --awaiting_commit;
        out.commits.push_back(i);
        if (i == schedule.commit_error) {
          commit_failed = true;
          return Status::Internal("commit " + std::to_string(i));
        }
        return Status::Ok();
      });

  // Admission walks a contiguous prefix of the range in index order.
  for (size_t j = 0; j < admissions.size(); ++j) {
    EXPECT_EQ(admissions[j], schedule.begin + j);
  }
  // `work` runs exactly once per admitted item, never for another one.
  for (size_t i = 0; i < schedule.end; ++i) {
    EXPECT_EQ(work_runs[i].load(), admitted_to_run[i] ? 1 : 0)
        << "item " << i;
  }
  // Every item admitted before an admission error is committed.
  if (out.status.code() == StatusCode::kResourceExhausted) {
    size_t run_items = 0;
    for (size_t i = schedule.begin; i < schedule.admit_error; ++i) {
      if (admitted_to_run[i]) ++run_items;
    }
    EXPECT_EQ(out.commits.size(), run_items);
  }
  return out;
}

TEST(WavesTest, MatchesSerialLoopOnRandomSchedules) {
  for (int threads : {1, 2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    Rng rng(0x5eed + static_cast<uint64_t>(threads));
    for (int trial = 0; trial < 400; ++trial) {
      const Schedule schedule = RandomSchedule(rng);
      SCOPED_TRACE("trial=" + std::to_string(trial) +
                   " begin=" + std::to_string(schedule.begin) +
                   " end=" + std::to_string(schedule.end) +
                   " admit_error=" + std::to_string(schedule.admit_error) +
                   " commit_error=" + std::to_string(schedule.commit_error));
      const Outcome want = SerialReference(schedule);
      const Outcome got = RunDriver(schedule, pool);
      EXPECT_EQ(got.commits, want.commits);
      EXPECT_EQ(got.status.ToString(), want.status.ToString());
      EXPECT_EQ(got.position, want.position);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(WavesTest, OneThreadInterleavesItemByItem) {
  // At one thread a wave holds one item, so each admission sees every
  // earlier item committed.
  ThreadPool pool(1);
  std::vector<std::string> trace;
  size_t position = 0;
  Status status = RunWaves(
      pool, position, 4,
      [&](size_t i) -> StatusOr<WaveAdmit> {
        trace.push_back(std::string("a").append(std::to_string(i)));
        return i == 1 ? WaveAdmit::kSkip : WaveAdmit::kRun;
      },
      [&](size_t i) { return i; },
      [&](size_t i, size_t) -> Status {
        trace.push_back(std::string("c").append(std::to_string(i)));
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(position, 4u);
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "c0", "a1", "a2", "c2",
                                             "a3", "c3"}));
}

TEST(WavesTest, EmptyRangeIsOk) {
  ThreadPool pool(4);
  int calls = 0;
  size_t position = 5;
  Status status = RunWaves(
      pool, position, 5,
      [&](size_t) -> StatusOr<WaveAdmit> {
        ++calls;
        return WaveAdmit::kRun;
      },
      [&](size_t) {
        ++calls;
        return 0;
      },
      [&](size_t, int) -> Status {
        ++calls;
        return Status::Ok();
      });
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(position, 5u);
  EXPECT_EQ(calls, 0);
}

}  // namespace
}  // namespace mdc
