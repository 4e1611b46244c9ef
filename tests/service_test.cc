// Supervised runs through the streaming driver: checkpoint cadence +
// rotation, recovery from the newest valid checkpoint set (corrupt sets
// skipped to the next-oldest), stop-and-checkpoint, and the
// kill-and-resume integration test (SIGKILL mid-run via fork, recover,
// bit-identical totals).  Sets are `ckpt-<r>.shard<k>` sidecars plus a
// `ckpt-<r>.manifest` for every shard count, the serial K = 1 included.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "workload/flash_crowd.h"
#include "workload/poisson.h"

#ifdef __unix__
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#endif

namespace rrs {
namespace {

std::unique_ptr<ArrivalSource> make_source(std::uint64_t seed,
                                           Round horizon = 512) {
  PoissonParams params;
  params.horizon = horizon;
  params.seed = seed;
  return std::make_unique<PoissonSource>(params);
}

std::filesystem::path test_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("svc_" + name);
  std::filesystem::remove_all(dir);
  return dir;
}

void expect_identical(const StreamRunRecord& a, const StreamRunRecord& b) {
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.executed, b.executed);
  EXPECT_EQ(a.work_units, b.work_units);
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.peak_pending, b.peak_pending);
  EXPECT_EQ(a.admission_rejected, b.admission_rejected);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.stats, b.stats);
}

/// Supervised dlru-edf run on 8 resources split into `shards` engines.
ShardedRunRecord supervised(ArrivalSource& source, int shards,
                            const ShardedRunOptions& options) {
  return run_streaming_sharded(source, "dlru-edf", 8, shards,
                               kInfiniteHorizon, options);
}

ShardedRunOptions with_dir(const std::filesystem::path& dir) {
  ShardedRunOptions options;
  options.checkpoint_dir = dir.string();
  return options;
}

/// A cadence run is bit-identical to an unsupervised one and keeps only
/// the newest `checkpoint_keep` sets: manifest plus one sidecar per shard.
void check_rotation(int shards) {
  const auto dir = test_dir("rotate_k" + std::to_string(shards));
  const auto plain = make_source(1);
  const ShardedRunRecord reference = supervised(*plain, shards, {});

  const auto source = make_source(1);
  ShardedRunOptions options = with_dir(dir);
  options.checkpoint_every = 64;
  options.checkpoint_keep = 2;
  const ShardedRunRecord result = supervised(*source, shards, options);

  EXPECT_TRUE(result.finished);
  EXPECT_EQ(result.recovered_from, -1);
  EXPECT_EQ(result.stopped_at, result.merged.rounds);
  expect_identical(reference.merged, result.merged);
  // Interior boundaries at 64, 128, ..., 448, each written; only the last
  // two sets survive rotation.
  EXPECT_EQ(result.checkpoints_written, 7);
  const auto manifests = list_checkpoints(dir, ".manifest");
  ASSERT_EQ(manifests.size(), 2u);
  EXPECT_EQ(manifests[0].round, 448);
  EXPECT_EQ(manifests[1].round, 384);
  EXPECT_EQ(manifests.front().path.string(), result.final_checkpoint);
  for (int s = 0; s < shards; ++s) {
    const auto sidecars =
        list_checkpoints(dir, ".shard" + std::to_string(s));
    ASSERT_EQ(sidecars.size(), 2u) << "shard " << s;
    EXPECT_EQ(sidecars[0].round, 448);
    EXPECT_EQ(sidecars[1].round, 384);
  }
  EXPECT_TRUE(list_checkpoints(dir, ".shard" + std::to_string(shards)).empty());
  std::filesystem::remove_all(dir);
}

/// Flipping a byte in the newest set's last sidecar makes recovery fall
/// back to the next-oldest set, which still finishes bit-identical.
void check_corrupt_skip(int shards) {
  const auto dir = test_dir("corrupt_k" + std::to_string(shards));
  const auto first = make_source(3);
  ShardedRunOptions options = with_dir(dir);
  options.checkpoint_every = 128;
  options.checkpoint_keep = 3;
  const ShardedRunRecord full = supervised(*first, shards, options);
  const auto sets = list_checkpoints(dir, ".manifest");
  ASSERT_GE(sets.size(), 2u);

  const std::filesystem::path damaged =
      dir / ("ckpt-" + std::to_string(sets.front().round) + ".shard" +
             std::to_string(shards - 1));
  {
    std::fstream f(damaged, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::int64_t>(f.tellg());
    ASSERT_GT(size, 64);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }

  const auto again = make_source(3);
  ShardedRunOptions resume = options;
  resume.resume = true;
  const ShardedRunRecord resumed = supervised(*again, shards, resume);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, sets[1].round);
  expect_identical(full.merged, resumed.merged);
  std::filesystem::remove_all(dir);
}

/// A pre-set stop flag stops the run before its first round, commits a
/// set of that exact point, and a resume completes it bit-identically.
void check_stop_flag(int shards) {
  const auto dir = test_dir("stopflag_k" + std::to_string(shards));
  const auto plain = make_source(5);
  const ShardedRunRecord reference = supervised(*plain, shards, {});

  volatile std::sig_atomic_t flag = 1;
  const auto source = make_source(5);
  ShardedRunOptions options = with_dir(dir);
  options.stop_flag = &flag;
  const ShardedRunRecord stopped = supervised(*source, shards, options);
  EXPECT_FALSE(stopped.finished);
  EXPECT_EQ(stopped.stopped_at, 0);
  EXPECT_EQ(stopped.checkpoints_written, 1);
  EXPECT_EQ(stopped.merged.arrived, 0);
  EXPECT_EQ(list_checkpoints(dir, ".manifest").size(), 1u);

  const auto again = make_source(5);
  ShardedRunOptions resume = options;
  resume.stop_flag = nullptr;
  resume.resume = true;
  const ShardedRunRecord resumed = supervised(*again, shards, resume);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, 0);
  expect_identical(reference.merged, resumed.merged);
  ASSERT_EQ(reference.shards.size(), resumed.shards.size());
  for (std::size_t s = 0; s < reference.shards.size(); ++s) {
    expect_identical(reference.shards[s], resumed.shards[s]);
  }
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, BitIdenticalToStreamingAndRotatesCheckpoints) {
  check_rotation(1);
  // K = 1 is the serial run itself.
  const auto plain = make_source(1);
  const auto source = make_source(1);
  expect_identical(run_streaming(*plain, "dlru-edf", 8),
                   supervised(*source, 1, {}).merged);
}

TEST(ServiceRun, ShardedRotatesCheckpoints) { check_rotation(2); }

TEST(ServiceRun, ResumesFromNewestCheckpoint) {
  const auto dir = test_dir("resume");
  const auto first = make_source(2);
  ShardedRunOptions options = with_dir(dir);
  options.checkpoint_every = 128;
  const ShardedRunRecord full = supervised(*first, 1, options);
  ASSERT_TRUE(full.finished);
  const auto sets = list_checkpoints(dir, ".manifest");
  ASSERT_FALSE(sets.empty());

  // A fresh process restores the newest retained set and finishes with
  // the identical record.
  const auto again = make_source(2);
  ShardedRunOptions resume = options;
  resume.resume = true;
  const ShardedRunRecord resumed = supervised(*again, 1, resume);
  EXPECT_TRUE(resumed.finished);
  EXPECT_EQ(resumed.recovered_from, sets.front().round);
  expect_identical(full.merged, resumed.merged);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, CorruptNewestCheckpointSkipsToOlder) { check_corrupt_skip(1); }

TEST(ServiceRun, ShardedCorruptNewestCheckpointSkipsToOlder) {
  check_corrupt_skip(2);
}

TEST(ServiceRun, AllCheckpointsCorruptThrows) {
  const auto dir = test_dir("allcorrupt");
  const auto first = make_source(4);
  ShardedRunOptions options = with_dir(dir);
  options.checkpoint_every = 128;
  (void)supervised(*first, 1, options);
  const auto sidecars = list_checkpoints(dir, ".shard0");
  ASSERT_FALSE(sidecars.empty());
  for (const CheckpointFile& c : sidecars) {
    std::ofstream f(c.path, std::ios::binary | std::ios::trunc);
    f << "garbage";
  }
  const auto again = make_source(4);
  ShardedRunOptions resume = options;
  resume.resume = true;
  EXPECT_THROW((void)supervised(*again, 1, resume), InputError);
  std::filesystem::remove_all(dir);
}

TEST(ServiceRun, StopFlagCheckpointsAndResumeCompletes) { check_stop_flag(1); }

TEST(ServiceRun, ShardedStopFlagCheckpointsAndResumeCompletes) {
  check_stop_flag(2);
}

TEST(ServiceRun, InstallSignalStopSetsFlag) {
  static volatile std::sig_atomic_t flag = 0;
  ASSERT_TRUE(install_signal_stop(&flag));
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_EQ(flag, 1);
  // Restore defaults so a later real SIGTERM still kills the test binary.
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGINT, SIG_DFL);
}

TEST(ServiceRun, ListCheckpointsIgnoresJunkAndSortsNewestFirst) {
  const auto dir = test_dir("listing");
  std::filesystem::create_directories(dir);
  for (const char* name :
       {"ckpt-5.rrsckpt", "ckpt-40.rrsckpt", "ckpt-7.rrsckpt",
        "ckpt-9.rrsckpt.tmp", "ckpt-.rrsckpt", "ckpt-abc.rrsckpt",
        "other-3.rrsckpt", "ckpt-11.manifest"}) {
    std::ofstream(dir / name) << "x";
  }
  const auto files = list_checkpoints(dir, ".rrsckpt");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].round, 40);
  EXPECT_EQ(files[1].round, 7);
  EXPECT_EQ(files[2].round, 5);
  const auto manifests = list_checkpoints(dir, ".manifest");
  ASSERT_EQ(manifests.size(), 1u);
  EXPECT_EQ(manifests[0].round, 11);
  EXPECT_TRUE(list_checkpoints(dir / "missing", ".rrsckpt").empty());
  std::filesystem::remove_all(dir);
}

#ifdef __unix__
// The CI kill-and-resume integration test: a forked child runs a
// supervised run and is SIGKILLed once at least one checkpoint is on disk; the
// parent recovers from the survivors and must reproduce the uninterrupted
// run's totals exactly.  Works whatever the kill lands on — mid-round,
// mid-write (the temp-file rename keeps half-written files invisible), or
// after natural completion.
TEST(ServiceKillAndResume, SigkillRecoversBitIdentical) {
  const auto dir = test_dir("sigkill");
  const Round horizon = 4096;
  const auto plain = make_source(6, horizon);
  const StreamRunRecord reference = run_streaming(*plain, "dlru-edf", 8);

  ShardedRunOptions options = with_dir(dir);
  options.checkpoint_every = 64;
  options.checkpoint_keep = 4;

  const pid_t child = fork();
  ASSERT_GE(child, 0) << "fork failed";
  if (child == 0) {
    // Child: run the service to completion (or until killed).  _exit so
    // no gtest/atexit machinery runs in the forked copy.
    try {
      const auto source = make_source(6, horizon);
      (void)supervised(*source, 1, options);
      _exit(0);
    } catch (...) {
      _exit(1);
    }
  }

  // Parent: wait until the child has committed at least one checkpoint
  // (or exited), then SIGKILL it mid-run.
  for (int spin = 0; spin < 10'000; ++spin) {
    if (!list_checkpoints(dir, ".manifest").empty()) break;
    if (waitpid(child, nullptr, WNOHANG) != 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  ASSERT_FALSE(list_checkpoints(dir, ".manifest").empty())
      << "child died before its first checkpoint";

  const auto source = make_source(6, horizon);
  ShardedRunOptions resume = options;
  resume.resume = true;
  const ShardedRunRecord recovered = supervised(*source, 1, resume);
  EXPECT_TRUE(recovered.finished);
  EXPECT_GE(recovered.recovered_from, 0);
  expect_identical(reference, recovered.merged);
  std::filesystem::remove_all(dir);
}
#endif  // __unix__

}  // namespace
}  // namespace rrs
