// Nightly high-intensity chaos regimes (ctest preset `nightly`, label
// chaos-nightly). These push the chaos proxy well past the PR-gate
// intensities — connection resets on >=10% of chunks and bit corruption on
// >=20% — against the multi-session server with several concurrent
// learners, and take long enough that they are excluded from the PR gate:
// without PROCHECK_NIGHTLY=1 in the environment every test skips itself.
//
// The invariant at storm intensity is honesty, not losslessness: a run
// either matches the clean in-process reference byte-for-byte or degrades
// to the structured unavailable symbol — it never hangs, crashes, or
// silently returns mangled observations — and the server itself must ride
// out the whole storm (a clean post-storm learner reproduces the
// reference, with zero session_errors).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/journal.h"
#include "common/rng.h"
#include "learner/learn_supervisor.h"
#include "learner/lstar.h"
#include "learner/sul.h"
#include "net/chaos_proxy.h"
#include "net/remote_sul.h"
#include "net/sul_server.h"
#include "ue/profile.h"

namespace procheck::net {
namespace {

bool nightly_enabled() {
  const char* v = std::getenv("PROCHECK_NIGHTLY");
  return v != nullptr && std::string(v) == "1";
}

#define REQUIRE_NIGHTLY() \
  if (!nightly_enabled()) GTEST_SKIP() << "set PROCHECK_NIGHTLY=1 (the nightly preset)"

RemoteSulOptions client_options(std::uint16_t port) {
  RemoteSulOptions o;
  o.port = port;
  o.call_deadline_seconds = 2.0;
  o.connect_timeout_seconds = 0.25;
  o.backoff_base_seconds = 0.002;
  o.backoff_max_seconds = 0.02;
  o.attempts_per_query = 6;  // storms need deeper retry budgets
  o.breaker_failure_threshold = 5;
  o.breaker_open_seconds = 0.05;
  return o;
}

learner::LearnOptions quick_learn_options() {
  learner::LearnOptions o;
  o.eq_test_words = 40;
  o.eq_test_max_length = 5;
  o.seed = 0xBEEF;
  return o;
}

std::string fsm_text(const learner::LearnResult& result) {
  return result.machine.to_fsm().to_dot("learned");
}

TEST(ChaosNightly, ResetStormIsHonestAndServerSurvives) {
  REQUIRE_NIGHTLY();
  std::string reference;
  {
    learner::UeSul sul(ue::StackProfile::cls());
    reference = fsm_text(learner::learn_mealy(sul, quick_learn_options()));
  }

  SulServerOptions sopts;
  sopts.max_sessions = 32;    // reconnect storms overlap sessions heavily
  sopts.poll_seconds = 0.01;  // reap dead sessions fast so the cap breathes
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());
  ChaosProxyOptions popts;
  popts.upstream_port = server.port();
  popts.faults.reset = 0.1;  // the nightly regime floor
  popts.faults.delay = 0.05;
  popts.faults.fragment = 0.05;
  ChaosProxy proxy(popts);
  ASSERT_TRUE(proxy.start());

  // At this kill rate a long word's replay dies with high probability on
  // every attempt, so a run may legitimately degrade; the contract is that
  // each learner either reproduces the reference exactly or says it could
  // not — and that the server itself rides out the whole storm.
  constexpr int kClients = 2;
  std::vector<learner::LearnResult> results(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      RemoteUeSul remote(client_options(proxy.port()));
      results[static_cast<std::size_t>(i)] =
          learner::learn_mealy(remote, quick_learn_options());
    });
  }
  for (std::thread& t : threads) t.join();
  proxy.stop();
  EXPECT_GT(proxy.stats().resets, 0) << "reset regime never fired";
  for (int i = 0; i < kClients; ++i) {
    const learner::LearnResult& r = results[static_cast<std::size_t>(i)];
    if (!r.inconclusive) {
      EXPECT_EQ(fsm_text(r), reference) << "learner " << i << " silently diverged";
    }
  }

  // Liveness after the storm: a clean learner straight at the server (no
  // proxy) must reproduce the reference — the session pile-up from hundreds
  // of killed connections left no wedged state behind.
  {
    RemoteUeSul remote(client_options(server.port()));
    learner::LearnResult clean = learner::learn_mealy(remote, quick_learn_options());
    ASSERT_FALSE(clean.inconclusive) << clean.note;
    EXPECT_EQ(fsm_text(clean), reference);
  }
  server.stop();
  EXPECT_EQ(server.stats().session_errors, 0);
}

TEST(ChaosNightly, CorruptionStormDegradesStructurallyOrMatches) {
  REQUIRE_NIGHTLY();
  std::string reference;
  {
    learner::UeSul sul(ue::StackProfile::cls());
    reference = fsm_text(learner::learn_mealy(sul, quick_learn_options()));
  }

  SulServerOptions sopts;
  sopts.max_sessions = 8;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());
  ChaosProxyOptions popts;
  popts.upstream_port = server.port();
  popts.faults.corrupt = 0.2;  // the nightly regime floor: lossy
  popts.faults.reset = 0.05;
  ChaosProxy proxy(popts);
  ASSERT_TRUE(proxy.start());

  constexpr int kClients = 2;
  std::vector<learner::LearnResult> results(kClients);
  std::vector<long> framing_errors(kClients, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      RemoteUeSul remote(client_options(proxy.port()));
      results[static_cast<std::size_t>(i)] =
          learner::learn_mealy(remote, quick_learn_options());
      framing_errors[static_cast<std::size_t>(i)] = remote.stats().framing_errors;
    });
  }
  for (std::thread& t : threads) t.join();
  proxy.stop();
  server.stop();

  EXPECT_GT(proxy.stats().corrupted, 0) << "corruption regime never fired";
  for (int i = 0; i < kClients; ++i) {
    const learner::LearnResult& r = results[static_cast<std::size_t>(i)];
    if (r.inconclusive) {
      // Structured degradation: the result says so, it doesn't lie.
      EXPECT_FALSE(r.converged) << "learner " << i;
    } else {
      // Every corrupted frame was caught by the CRC and recovered by
      // replay, so the result must be the clean one — honest either way.
      EXPECT_EQ(fsm_text(r), reference) << "learner " << i;
    }
  }
  // At this corruption intensity the CRC must actually have been exercised.
  long total_framing = 0;
  for (long f : framing_errors) total_framing += f;
  EXPECT_GT(total_framing, 0) << "corruption never reached a client";
}

// Satellite (f): the batched word protocol under the full nightly storm —
// connection resets at the 0.1 floor *and* corruption at the 0.2 floor at
// once, with the batch window pipelining frames into the blender. A killed
// connection mid-pipeline drops a whole in-flight window; the contract is
// the usual honesty one, plus that batching itself keeps engaging across
// reconnects.
TEST(ChaosNightly, BatchedStormIsHonestAndKeepsBatching) {
  REQUIRE_NIGHTLY();
  std::string reference;
  {
    learner::UeSul sul(ue::StackProfile::cls());
    reference = fsm_text(learner::learn_mealy(sul, quick_learn_options()));
  }

  SulServerOptions sopts;
  sopts.max_sessions = 32;
  sopts.poll_seconds = 0.01;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());
  ChaosProxyOptions popts;
  popts.upstream_port = server.port();
  popts.faults.reset = 0.1;     // nightly floor: kill whole pipeline windows
  popts.faults.corrupt = 0.2;   // nightly floor: poison batch acks in flight
  popts.faults.fragment = 0.05;
  ChaosProxy proxy(popts);
  ASSERT_TRUE(proxy.start());

  constexpr int kClients = 2;
  std::vector<learner::LearnResult> results(kClients);
  std::vector<RemoteSulStats> stats(kClients);
  std::vector<std::thread> threads;
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      RemoteSulOptions copts = client_options(proxy.port());
      copts.max_batch_words = kDefaultBatchWords;  // the batched regime, explicitly
      RemoteUeSul remote(copts);
      results[static_cast<std::size_t>(i)] =
          learner::learn_mealy(remote, quick_learn_options());
      stats[static_cast<std::size_t>(i)] = remote.stats();
    });
  }
  for (std::thread& t : threads) t.join();
  proxy.stop();

  EXPECT_GT(proxy.stats().resets, 0) << "reset regime never fired";
  EXPECT_GT(proxy.stats().corrupted, 0) << "corruption regime never fired";
  long total_batches = 0;
  for (int i = 0; i < kClients; ++i) {
    const learner::LearnResult& r = results[static_cast<std::size_t>(i)];
    if (r.inconclusive) {
      EXPECT_FALSE(r.converged) << "learner " << i;
    } else {
      EXPECT_EQ(fsm_text(r), reference) << "learner " << i << " silently diverged";
    }
    total_batches += stats[static_cast<std::size_t>(i)].batch_queries;
  }
  EXPECT_GT(total_batches, 0) << "the storm starved the batch path entirely";

  // Liveness after the storm, over the batched protocol as well.
  {
    RemoteUeSul remote(client_options(server.port()));
    learner::LearnResult clean = learner::learn_mealy(remote, quick_learn_options());
    ASSERT_FALSE(clean.inconclusive) << clean.note;
    EXPECT_EQ(fsm_text(clean), reference);
    EXPECT_GT(remote.stats().batch_queries, 0);
  }
  server.stop();
  EXPECT_EQ(server.stats().session_errors, 0);
}

// --- SIGKILL learner storm ---------------------------------------------------

// Re-exec'd worker for the SIGKILL storm: one remote supervised learner
// resuming the shared journal. The parent kills most instances mid-learn;
// the last one must run to convergence and exit 0.
TEST(LearnStormChild, DISABLED_Run) {
  const char* port_env = std::getenv("PROCHECK_STORM_PORT");
  const char* journal_env = std::getenv("PROCHECK_STORM_JOURNAL");
  ASSERT_NE(port_env, nullptr);
  ASSERT_NE(journal_env, nullptr);
  learner::LearnSupervisorOptions o;
  o.learn = quick_learn_options();
  o.journal_path = journal_env;
  o.resume = true;
  o.run_tag = "cls";
  o.retries = 2;
  o.backoff_seconds = 0.005;
  RemoteUeSul remote(client_options(static_cast<std::uint16_t>(std::atoi(port_env))));
  const learner::SupervisedLearn run = learner::learn_supervised(remote, o);
  ASSERT_FALSE(run.aborted) << run.abort_reason;
  ASSERT_TRUE(run.result.converged) << run.result.note;
}

// SIGKILL at a seeded random point inside every learner, a dozen times in a
// row, against the live multi-session server. Each successor takes the
// journal lock the kernel dropped with its dead holder, adopts the committed
// prefix, and continues;
// the final un-killed worker converges, and an in-process resume of the same
// journal reproduces the clean reference machine. The server rides out every
// kill with zero session errors.
TEST(ChaosNightly, SigkillLearnerStormResumesToCompletion) {
  REQUIRE_NIGHTLY();
  std::string reference;
  {
    learner::UeSul sul(ue::StackProfile::cls());
    reference = fsm_text(learner::learn_mealy(sul, quick_learn_options()));
  }

  SulServerOptions sopts;
  sopts.max_sessions = 4;
  SulServer server(ue::StackProfile::cls(), sopts);
  ASSERT_TRUE(server.start());

  const std::string journal = ::testing::TempDir() + "storm_learn.journal";
  std::remove(journal.c_str());
  std::remove((journal + ".lock").c_str());
  std::remove((journal + ".tmp").c_str());
  const std::string port = std::to_string(server.port());
  ASSERT_EQ(setenv("PROCHECK_STORM_PORT", port.c_str(), 1), 0);
  ASSERT_EQ(setenv("PROCHECK_STORM_JOURNAL", journal.c_str(), 1), 0);

  const auto spawn_child = [] {
    pid_t pid = fork();
    if (pid == 0) {
      execl("/proc/self/exe", "chaos_nightly_test",
            "--gtest_filter=LearnStormChild.DISABLED_Run", "--gtest_also_run_disabled_tests",
            static_cast<char*>(nullptr));
      _exit(127);  // exec failed
    }
    return pid;
  };

  Rng rng(0x516C111ULL);
  for (int i = 0; i < 12; ++i) {
    const pid_t pid = spawn_child();
    ASSERT_GT(pid, 0);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(5 + static_cast<int>(rng.next_below(76))));
    kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFSIGNALED(status) || WIFEXITED(status));
  }

  // The final, unmolested worker must finish the job.
  {
    const pid_t pid = spawn_child();
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0) << "final storm worker failed";
  }

  // In-process resume of the storm journal reproduces the clean reference.
  {
    learner::LearnSupervisorOptions o;
    o.learn = quick_learn_options();
    o.journal_path = journal;
    o.resume = true;
    o.run_tag = "cls";
    learner::UeSul sul(ue::StackProfile::cls());
    const learner::SupervisedLearn run = learner::learn_supervised(sul, o);
    ASSERT_FALSE(run.aborted) << run.abort_reason;
    ASSERT_TRUE(run.result.converged) << run.result.note;
    EXPECT_EQ(fsm_text(run.result), reference) << "storm journal led to a different machine";
    EXPECT_GT(run.adopted, 0u) << "twelve kills left no committed progress at all";
    EXPECT_EQ(run.replayed, run.adopted);
  }

  server.stop();
  EXPECT_EQ(server.stats().session_errors, 0);
  unsetenv("PROCHECK_STORM_PORT");
  unsetenv("PROCHECK_STORM_JOURNAL");
}

// --- Journal lock race -------------------------------------------------------

// Sixteen processes race to take a journal lock whose file names a dead
// holder, a thousand rounds in a row. Each winner holds the lock briefly
// and counts the holders in shared memory: a winner that finds another
// holder there is a double grant.
TEST(ChaosNightly, DeadHoldersLockRaceGrantsOneHolderAtATime) {
  REQUIRE_NIGHTLY();
  constexpr int kRacers = 16;
  constexpr int kRounds = 1000;
  struct Shared {
    std::atomic<int> go{0};
    std::atomic<int> holders{0};
    std::atomic<int> double_grants{0};
  };
  void* mem = mmap(nullptr, sizeof(Shared), PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                   -1, 0);
  ASSERT_NE(mem, MAP_FAILED);
  Shared* shared = new (mem) Shared;

  pid_t dead = fork();
  ASSERT_GE(dead, 0);
  if (dead == 0) _exit(0);
  ASSERT_EQ(waitpid(dead, nullptr, 0), dead);

  const std::string journal = ::testing::TempDir() + "lock_race.journal";
  const std::string lock_path = journal + ".lock";
  int granted = 0;
  for (int round = 0; round < kRounds; ++round) {
    {
      std::ofstream stale(lock_path, std::ios::trunc);
      stale << dead << "\n";
    }
    shared->go = 0;
    std::vector<pid_t> racers;
    for (int r = 0; r < kRacers; ++r) {
      const pid_t pid = fork();
      if (pid < 0) break;  // the racers already forked are released and reaped below
      if (pid == 0) {
        while (shared->go.load() == 0) sched_yield();
        JournalLock lock;
        if (!lock.acquire(journal)) _exit(1);
        if (shared->holders.fetch_add(1) != 0) shared->double_grants.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        shared->holders.fetch_sub(1);
        lock.release();
        _exit(0);
      }
      racers.push_back(pid);
    }
    shared->go = 1;
    for (const pid_t pid : racers) {
      int status = 0;
      ASSERT_EQ(waitpid(pid, &status, 0), pid);
      if (WIFEXITED(status) && WEXITSTATUS(status) == 0) ++granted;
    }
    ASSERT_EQ(racers.size(), static_cast<std::size_t>(kRacers)) << "fork failed";
  }
  EXPECT_EQ(shared->double_grants.load(), 0);
  EXPECT_GE(granted, kRounds);  // every round has at least one winner
  shared->~Shared();
  munmap(mem, sizeof(Shared));
  std::remove(lock_path.c_str());
}

}  // namespace
}  // namespace procheck::net
