//===- CompileServiceTest.cpp - hextiled end-to-end semantics -------------===//
//
// The compile service under fire: a 16-thread randomized stress over the
// full gallery x ladder-rung key population asserting exactly one compile
// per unique key and bit-exact served artifacts; deterministic
// single-flight dedup via an injected blocking source function; the
// pinned failure policy (every deduped waiter sees the failure, nothing
// is negatively cached, the scratch directory survives for repro); the
// scratch-dir hygiene contract on success; disk warm starts after a
// simulated restart; quarantine + recompile of corrupted stored units and
// of stored units that reject the shim runtime's ABI; and a two-process
// same-store race. Host-target tests skip cleanly when
// the machine has no system compiler.
//
//===----------------------------------------------------------------------===//

#include "service/CompileService.h"

#include "codegen/HostEmitter.h"
#include "exec/FieldStorage.h"
#include "harness/HostKernelRunner.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace hextile;
using namespace hextile::service;

namespace fs = std::filesystem;

namespace {

#if defined(__SANITIZE_THREAD__)
#define HEXTILE_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HEXTILE_UNDER_TSAN 1
#endif
#endif
#ifndef HEXTILE_UNDER_TSAN
#define HEXTILE_UNDER_TSAN 0
#endif

/// The EmittedOracleTest gallery at its sweep-friendly sizes: the exact
/// key population the loadtest replays.
struct GalleryCase {
  const char *Name;
  int64_t N;
  int64_t Steps;
  int64_t H;
  int64_t W0;
  std::vector<int64_t> Inner;
};

const std::vector<GalleryCase> &gallery() {
  static const std::vector<GalleryCase> Cases = {
      {"jacobi1d", 48, 12, 3, 4, {}},    {"skewed1d", 48, 10, 2, 3, {}},
      {"jacobi2d", 20, 8, 1, 2, {6}},    {"laplacian2d", 20, 8, 2, 2, {6}},
      {"heat2d", 18, 6, 1, 3, {5}},      {"gradient2d", 18, 6, 2, 4, {6}},
      {"fdtd2d", 16, 5, 2, 3, {5}},      {"wave2d", 16, 6, 2, 3, {5}},
      {"varheat2d", 16, 6, 1, 3, {5}},   {"laplacian3d", 12, 4, 1, 2, {4, 4}},
      {"heat3d", 12, 4, 2, 2, {4, 4}},   {"gradient3d", 12, 4, 1, 3, {3, 4}},
  };
  return Cases;
}

CompileRequest makeRequest(const GalleryCase &C, char Rung,
                           TargetKind Target = TargetKind::Host) {
  CompileRequest R;
  R.Program = ir::makeByName(C.Name);
  R.Program.setSpaceSizes(
      std::vector<int64_t>(R.Program.spaceRank(), C.N));
  R.Program.setTimeSteps(C.Steps);
  R.Tiling.H = C.H;
  R.Tiling.W0 = C.W0;
  R.Tiling.InnerWidths = C.Inner;
  R.Config = codegen::OptimizationConfig::level(Rung);
  R.Target = Target;
  return R;
}

/// All 12 programs x rungs a..d: the 48-key population.
std::vector<CompileRequest> galleryRequests() {
  std::vector<CompileRequest> Requests;
  for (const GalleryCase &C : gallery())
    for (char Rung : {'a', 'b', 'c', 'd'})
      Requests.push_back(makeRequest(C, Rung));
  return Requests;
}

std::string freshDir(const char *Tag) {
  std::string Templ =
      (fs::temp_directory_path() /
       (std::string("hextile-svc-") + Tag + "-XXXXXX"))
          .string();
  EXPECT_NE(mkdtemp(Templ.data()), nullptr);
  return Templ;
}

/// A one-shot barrier the tests use to hold a compile inside the injected
/// source function until every racing request has been admitted.
struct Gate {
  std::mutex M;
  std::condition_variable Cv;
  bool Open = false;
  void open() {
    {
      std::lock_guard<std::mutex> L(M);
      Open = true;
    }
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> L(M);
    Cv.wait(L, [&] { return Open; });
  }
};

/// Polls \p Pred (counter convergence) with a generous deadline.
bool eventually(const std::function<bool()> &Pred) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < Deadline) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return Pred();
}

} // namespace

//===----------------------------------------------------------------------===//
// Satellite 1: the concurrency stress.
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, StressExactlyOneCompilePerKeyAndBitExact) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  const std::vector<CompileRequest> Requests = galleryRequests();
  const unsigned NumThreads = 16;
  const unsigned RequestsPerThread = 200;

  CompileServiceOptions Opts;
  Opts.StoreDir = freshDir("stress");
  CompileService Svc(Opts);

  std::vector<std::thread> Clients;
  std::vector<std::string> Errors(NumThreads);
  std::atomic<uint64_t> OkCount{0};
  for (unsigned T = 0; T < NumThreads; ++T)
    Clients.emplace_back([&, T] {
      std::mt19937 Rng(7919 * T + 1);
      std::uniform_int_distribution<size_t> Pick(0, Requests.size() - 1);
      for (unsigned I = 0; I < RequestsPerThread; ++I) {
        const CompileRequest &R = Requests[Pick(Rng)];
        CompileResult Res = Svc.compile(R);
        if (!Res.ok()) {
          Errors[T] = Res.Error;
          return;
        }
        if (Res.Artifact->key() != makeCompileKey(R) ||
            Res.Artifact->entry() == nullptr) {
          Errors[T] = "served artifact does not match its request";
          return;
        }
        ++OkCount;
      }
    });
  for (std::thread &C : Clients)
    C.join();
  for (unsigned T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Errors[T], "") << "client " << T;
  EXPECT_EQ(OkCount.load(), NumThreads * RequestsPerThread);

  ServiceCounters C = Svc.counters();
  EXPECT_EQ(C.Requests, NumThreads * RequestsPerThread);
  // The single-flight invariant: 48 unique keys, exactly 48 compiles --
  // never a duplicate compile for a key already resident or in flight.
  EXPECT_EQ(C.Compiles, Requests.size());
  EXPECT_EQ(C.CompileFailures, 0u);
  EXPECT_EQ(C.MemoryHits + C.DiskHits + C.InflightJoins + C.Compiles,
            C.Requests);
  EXPECT_GE(C.hitRate(), 0.9);
  EXPECT_GT(C.dedupRatio(), 1.0);

  // Bit-exactness of every served artifact: each of the 48 keys replays
  // against the naive reference executor through the shared oracle
  // comparator.
  for (const CompileRequest &R : Requests) {
    CompileResult Res = Svc.compile(R);
    ASSERT_TRUE(Res.ok()) << Res.Error;
    EXPECT_EQ(Res.Stats.How, RequestOutcome::MemoryHit);
    EXPECT_EQ(harness::runEntryDifferential(R.Program,
                                            Res.Artifact->entry(),
                                            exec::defaultInit,
                                            R.Program.name()),
              "");
  }

  fs::remove_all(Opts.StoreDir);
}

//===----------------------------------------------------------------------===//
// Deterministic single-flight.
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, SingleFlightJoinsAllWaitersOnOneCompile) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  auto Hold = std::make_shared<Gate>();
  CompileServiceOptions Opts;
  Opts.HostSourceFn = [Hold](const codegen::CompiledHybrid &C,
                             codegen::EmitSchedule S) {
    Hold->wait();
    return codegen::emitHost(C, S);
  };
  CompileService Svc(Opts);

  const unsigned N = 8;
  CompileRequest R = makeRequest(gallery()[0], 'a');
  std::vector<std::future<CompileResult>> Futures;
  for (unsigned I = 0; I < N; ++I)
    Futures.push_back(Svc.compileAsync(R));

  // Every request is admitted (one leader, N-1 joins) while the single
  // compile is still parked inside the source function.
  ASSERT_TRUE(eventually([&] {
    ServiceCounters C = Svc.counters();
    return C.Requests == N && C.InflightJoins == N - 1;
  }));
  EXPECT_EQ(Svc.counters().Compiles + Svc.counters().MemoryHits, 0u);

  Hold->open();
  unsigned Compiled = 0, Joined = 0;
  for (std::future<CompileResult> &F : Futures) {
    CompileResult Res = F.get();
    ASSERT_TRUE(Res.ok()) << Res.Error;
    Compiled += Res.Stats.How == RequestOutcome::Compiled;
    Joined += Res.Stats.How == RequestOutcome::JoinedInflight;
    EXPECT_GT(Res.Stats.CompileMs, 0.0);
  }
  EXPECT_EQ(Compiled, 1u);
  EXPECT_EQ(Joined, N - 1);
  EXPECT_EQ(Svc.counters().Compiles, 1u);
}

//===----------------------------------------------------------------------===//
// Batch admission (the autotuner's fleet path).
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, BatchAdmitsEverythingBeforeOneWakeup) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  CompileService Svc;

  // Pre-warm one key so the batch mixes hits and misses.
  CompileRequest Warm = makeRequest(gallery()[0], 'a');
  ASSERT_TRUE(Svc.compile(Warm).ok());
  uint64_t CompilesBefore = Svc.counters().Compiles;

  // [cached, distinct A, distinct B, duplicate of A]: futures align
  // positionally, hits complete immediately, the duplicate key never
  // costs a second compile.
  CompileRequest A = makeRequest(gallery()[0], 'b');
  CompileRequest B = makeRequest(gallery()[1], 'c');
  std::vector<CompileRequest> Batch = {Warm, A, B, A};
  std::vector<std::future<CompileResult>> Futures = Svc.compileBatch(Batch);
  ASSERT_EQ(Futures.size(), Batch.size());

  std::vector<CompileResult> Results;
  for (std::future<CompileResult> &F : Futures) {
    Results.push_back(F.get());
    ASSERT_TRUE(Results.back().ok()) << Results.back().Error;
  }
  for (size_t I = 0; I < Batch.size(); ++I)
    EXPECT_EQ(Results[I].Artifact->key(), makeCompileKey(Batch[I]))
        << "future " << I << " does not align with its request";

  EXPECT_EQ(Results[0].Stats.How, RequestOutcome::MemoryHit);
  // The duplicate either joined A's in-flight compile or hit the cache A
  // populated -- either way no duplicate compile happened.
  EXPECT_NE(Results[3].Stats.How, RequestOutcome::Compiled);
  EXPECT_EQ(Svc.counters().Compiles, CompilesBefore + 2);

  // Replaying the whole batch is pure memory hits: the autotuner's
  // "second tune performs zero new compiles" claim at the service level.
  for (std::future<CompileResult> &F : Svc.compileBatch(Batch)) {
    CompileResult Res = F.get();
    ASSERT_TRUE(Res.ok()) << Res.Error;
    EXPECT_EQ(Res.Stats.How, RequestOutcome::MemoryHit);
  }
  EXPECT_EQ(Svc.counters().Compiles, CompilesBefore + 2);
}

TEST(CompileServiceTest, BatchDuplicatesSingleFlightUnderAHeldCompile) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  // Deterministic variant: the compile is parked inside the source
  // function, so every duplicate in the batch MUST be an in-flight join
  // (no racing fast-finish can turn it into a memory hit).
  auto Hold = std::make_shared<Gate>();
  CompileServiceOptions Opts;
  Opts.HostSourceFn = [Hold](const codegen::CompiledHybrid &C,
                             codegen::EmitSchedule S) {
    Hold->wait();
    return codegen::emitHost(C, S);
  };
  CompileService Svc(Opts);

  CompileRequest A = makeRequest(gallery()[2], 'd');
  std::vector<std::future<CompileResult>> Futures =
      Svc.compileBatch({A, A, A});
  ASSERT_TRUE(eventually([&] {
    return Svc.counters().InflightJoins == 2;
  }));
  EXPECT_EQ(Svc.counters().Compiles, 0u);
  Hold->open();

  unsigned Compiled = 0, Joined = 0;
  for (std::future<CompileResult> &F : Futures) {
    CompileResult Res = F.get();
    ASSERT_TRUE(Res.ok()) << Res.Error;
    Compiled += Res.Stats.How == RequestOutcome::Compiled;
    Joined += Res.Stats.How == RequestOutcome::JoinedInflight;
  }
  EXPECT_EQ(Compiled, 1u);
  EXPECT_EQ(Joined, 2u);
  EXPECT_EQ(Svc.counters().Compiles, 1u);
}

//===----------------------------------------------------------------------===//
// Satellite 3: the failure path.
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, FailureReachesEveryWaiterAndIsNeverCached) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  auto Hold = std::make_shared<Gate>();
  auto FailOnce = std::make_shared<std::atomic<bool>>(true);
  CompileServiceOptions Opts;
  Opts.HostSourceFn = [Hold, FailOnce](const codegen::CompiledHybrid &C,
                                       codegen::EmitSchedule S) {
    Hold->wait();
    if (FailOnce->exchange(false))
      return std::string("#error injected service-test failure\n");
    return codegen::emitHost(C, S);
  };
  CompileService Svc(Opts);

  const unsigned N = 4;
  CompileRequest R = makeRequest(gallery()[2], 'b');
  std::vector<std::future<CompileResult>> Futures;
  for (unsigned I = 0; I < N; ++I)
    Futures.push_back(Svc.compileAsync(R));
  ASSERT_TRUE(eventually([&] {
    return Svc.counters().InflightJoins == N - 1;
  }));
  Hold->open();

  // Every deduped waiter gets the same failure, with the kept scratch
  // directory named for offline repro.
  std::string FirstError, FirstScratch;
  for (std::future<CompileResult> &F : Futures) {
    CompileResult Res = F.get();
    EXPECT_FALSE(Res.ok());
    EXPECT_EQ(Res.Stats.How, RequestOutcome::Failed);
    EXPECT_NE(Res.Error.find("injected service-test failure"),
              std::string::npos)
        << Res.Error;
    ASSERT_FALSE(Res.Stats.ScratchDir.empty());
    EXPECT_TRUE(fs::exists(Res.Stats.ScratchDir));
    EXPECT_TRUE(
        fs::exists(fs::path(Res.Stats.ScratchDir) / "compile.log"));
    if (FirstError.empty()) {
      FirstError = Res.Error;
      FirstScratch = Res.Stats.ScratchDir;
    } else {
      EXPECT_EQ(Res.Error, FirstError);
    }
  }
  ServiceCounters Mid = Svc.counters();
  EXPECT_EQ(Mid.Compiles, 1u);
  EXPECT_EQ(Mid.CompileFailures, 1u);

  // Pinned policy: failures are NOT cached. The immediate retry starts a
  // fresh compile (now fed the real source) and succeeds.
  CompileResult Retry = Svc.compile(R);
  ASSERT_TRUE(Retry.ok()) << Retry.Error;
  EXPECT_EQ(Retry.Stats.How, RequestOutcome::Compiled);
  ServiceCounters After = Svc.counters();
  EXPECT_EQ(After.Compiles, 2u);
  EXPECT_EQ(After.CompileFailures, 1u);

  fs::remove_all(FirstScratch); // The test is the offline consumer here.
}

//===----------------------------------------------------------------------===//
// Satellite 3 (continued): scratch-dir hygiene.
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, ScratchCleanedOnSuccessKeptOnFailure) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  // Route the JIT scratch dirs (mkdtemp under temp_directory_path) into a
  // private directory so "nothing left behind" is assertable. Paths are
  // resolved before TMPDIR changes.
  std::string StoreDir = freshDir("hygiene-store");
  std::string JitTmp = freshDir("hygiene-tmp");
  const char *OldTmp = getenv("TMPDIR");
  std::string OldTmpCopy = OldTmp ? OldTmp : "";
  setenv("TMPDIR", JitTmp.c_str(), 1);

  auto countScratch = [&] {
    size_t N = 0;
    for (const fs::directory_entry &E : fs::directory_iterator(JitTmp))
      N += E.path().filename().string().rfind("hextile-jit-", 0) == 0;
    return N;
  };

  {
    CompileServiceOptions Opts;
    Opts.StoreDir = StoreDir;
    CompileService Svc(Opts);
    CompileResult Res = Svc.compile(makeRequest(gallery()[0], 'c'));
    ASSERT_TRUE(Res.ok()) << Res.Error;
    // Success: the artifact was republished from the durable store and
    // the mkdtemp scratch removed immediately -- not parked until some
    // later eviction.
    EXPECT_EQ(Res.Stats.ScratchDir, "");
    EXPECT_EQ(countScratch(), 0u);
  }

  {
    CompileServiceOptions Opts;
    Opts.HostSourceFn = [](const codegen::CompiledHybrid &,
                           codegen::EmitSchedule) {
      return std::string("#error hygiene failure\n");
    };
    CompileService Svc(Opts);
    CompileResult Res = Svc.compile(makeRequest(gallery()[1], 'a'));
    ASSERT_FALSE(Res.ok());
    // Failure: the scratch survives (inside our private TMPDIR) with the
    // repro triple.
    ASSERT_FALSE(Res.Stats.ScratchDir.empty());
    EXPECT_EQ(fs::path(Res.Stats.ScratchDir).parent_path().string(),
              JitTmp);
    EXPECT_TRUE(
        fs::exists(fs::path(Res.Stats.ScratchDir) / "kernel.cpp"));
    EXPECT_EQ(countScratch(), 1u);
  }

  if (OldTmp)
    setenv("TMPDIR", OldTmpCopy.c_str(), 1);
  else
    unsetenv("TMPDIR");
  fs::remove_all(JitTmp);
  fs::remove_all(StoreDir);
}

//===----------------------------------------------------------------------===//
// Satellite 2: disk warm start and corrupted-artifact recovery.
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, WarmStartServesFromDiskAfterRestart) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  std::string StoreDir = freshDir("warm");
  CompileRequest R = makeRequest(gallery()[4], 'd');
  {
    CompileServiceOptions Opts;
    Opts.StoreDir = StoreDir;
    CompileService First(Opts);
    CompileResult Res = First.compile(R);
    ASSERT_TRUE(Res.ok()) << Res.Error;
    EXPECT_EQ(Res.Stats.How, RequestOutcome::Compiled);
  } // Simulated restart: the process's in-memory state is gone.

  CompileServiceOptions Opts;
  Opts.StoreDir = StoreDir;
  CompileService Second(Opts);
  EXPECT_GE(Second.counters().WarmUnitsAtStart, 1u);
  CompileResult Res = Second.compile(R);
  ASSERT_TRUE(Res.ok()) << Res.Error;
  EXPECT_EQ(Res.Stats.How, RequestOutcome::DiskHit);
  EXPECT_EQ(Second.counters().Compiles, 0u);
  // The reloaded unit is the same kernel: still bit-exact.
  EXPECT_EQ(harness::runEntryDifferential(R.Program, Res.Artifact->entry(),
                                          exec::defaultInit, "warm"),
            "");
  fs::remove_all(StoreDir);
}

TEST(CompileServiceTest, SerialAndParallelShimUnitsCoexistAndWarmStart) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  // The same program/tiling/rung as a serial unit and as a parallel-shim
  // unit: distinct keys, two real compiles, both served bit-exact from
  // one service -- and a warm start restores each under its own key with
  // zero recompiles. A key collision would hand the serial rendering to
  // the parallel caller (or vice versa) and this test would catch it as
  // a wrong ShimThreads key or a shared artifact.
  std::string StoreDir = freshDir("shim");
  CompileRequest Serial = makeRequest(gallery()[2], 'd');
  ASSERT_EQ(Serial.Config.ShimThreads, 0);
  CompileRequest Parallel = Serial;
  Parallel.Config.ShimThreads = 2;
  ASSERT_FALSE(makeCompileKey(Serial) == makeCompileKey(Parallel));

  {
    CompileServiceOptions Opts;
    Opts.StoreDir = StoreDir;
    CompileService First(Opts);
    for (const CompileRequest *R : {&Serial, &Parallel}) {
      CompileResult Res = First.compile(*R);
      ASSERT_TRUE(Res.ok()) << Res.Error;
      EXPECT_EQ(Res.Stats.How, RequestOutcome::Compiled);
      EXPECT_EQ(Res.Artifact->key(), makeCompileKey(*R));
      EXPECT_EQ(harness::runEntryDifferential(
                    R->Program, Res.Artifact->entry(), exec::defaultInit,
                    R->Config.str()),
                "");
    }
    EXPECT_EQ(First.counters().Compiles, 2u);
  } // Simulated restart.

  CompileServiceOptions Opts;
  Opts.StoreDir = StoreDir;
  CompileService Second(Opts);
  EXPECT_GE(Second.counters().WarmUnitsAtStart, 2u);
  for (const CompileRequest *R : {&Serial, &Parallel}) {
    CompileResult Res = Second.compile(*R);
    ASSERT_TRUE(Res.ok()) << Res.Error;
    EXPECT_EQ(Res.Stats.How, RequestOutcome::DiskHit);
    EXPECT_EQ(Res.Artifact->key(), makeCompileKey(*R));
    EXPECT_EQ(harness::runEntryDifferential(
                  R->Program, Res.Artifact->entry(), exec::defaultInit,
                  R->Config.str()),
              "");
  }
  EXPECT_EQ(Second.counters().Compiles, 0u);
  fs::remove_all(StoreDir);
}

TEST(CompileServiceTest, CorruptedStoredUnitIsQuarantinedAndRecompiled) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  std::string StoreDir = freshDir("corrupt");
  CompileRequest R = makeRequest(gallery()[0], 'b');
  CompileKey Key = makeCompileKey(R);
  {
    CompileServiceOptions Opts;
    Opts.StoreDir = StoreDir;
    CompileService First(Opts);
    ASSERT_TRUE(First.compile(R).ok());
  }
  // Bit rot between restarts: the stored shared object is garbage now.
  {
    ArtifactStore Store(StoreDir);
    std::optional<StoredUnit> U = Store.lookup(Key, TargetKind::Host);
    ASSERT_TRUE(U.has_value());
    std::ofstream(U->SoPath, std::ios::trunc) << "not an ELF";
  }

  CompileServiceOptions Opts;
  Opts.StoreDir = StoreDir;
  CompileService Svc(Opts);
  CompileResult Res = Svc.compile(R);
  ASSERT_TRUE(Res.ok()) << Res.Error;
  // The corrupt unit could not poison the request: it was moved into
  // quarantine/ and a fresh compile served the key.
  EXPECT_EQ(Res.Stats.How, RequestOutcome::Compiled);
  ServiceCounters C = Svc.counters();
  EXPECT_EQ(C.Quarantined, 1u);
  EXPECT_EQ(C.Compiles, 1u);
  EXPECT_FALSE(fs::is_empty(fs::path(StoreDir) / "quarantine"));
  EXPECT_EQ(harness::runEntryDifferential(R.Program, Res.Artifact->entry(),
                                          exec::defaultInit, "requar"),
            "");
  fs::remove_all(StoreDir);
}

TEST(CompileServiceTest, StoredUnitRejectingTheShimRuntimeIsQuarantined) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  std::string StoreDir = freshDir("abi");
  CompileRequest R = makeRequest(gallery()[2], 'd');
  R.Config.ShimThreads = 2;
  CompileKey Key = makeCompileKey(R);
  {
    CompileServiceOptions Opts;
    Opts.StoreDir = StoreDir;
    CompileService First(Opts);
    ASSERT_TRUE(First.compile(R).ok());
  }
  // Between restarts the stored parallel unit is replaced by one built for
  // another runtime ABI: it loads, but its ht_shim_bind refuses this
  // build's runtime. The failed build keeps its kernel.so.
  JitUnit Rejecting;
  std::string BuildErr =
      Rejecting.build("extern \"C\" int ht_shim_bind(const void *) "
                      "{ return 1; }\n");
  ASSERT_NE(BuildErr.find("ht_shim_bind"), std::string::npos) << BuildErr;
  {
    ArtifactStore Store(StoreDir);
    std::optional<StoredUnit> U = Store.lookup(Key, TargetKind::Host);
    ASSERT_TRUE(U.has_value());
    fs::remove(U->SoPath);
    fs::copy_file(fs::path(Rejecting.workDir()) / "kernel.so", U->SoPath);
  }
  fs::remove_all(Rejecting.workDir());

  CompileServiceOptions Opts;
  Opts.StoreDir = StoreDir;
  CompileService Svc(Opts);
  CompileResult Res = Svc.compile(R);
  ASSERT_TRUE(Res.ok()) << Res.Error;
  // A rejected bind is a load failure: the unit went to quarantine/ and a
  // fresh compile served the key.
  EXPECT_EQ(Res.Stats.How, RequestOutcome::Compiled);
  ServiceCounters C = Svc.counters();
  EXPECT_EQ(C.Quarantined, 1u);
  EXPECT_EQ(C.Compiles, 1u);
  EXPECT_FALSE(fs::is_empty(fs::path(StoreDir) / "quarantine"));
  EXPECT_EQ(harness::runEntryDifferential(R.Program, Res.Artifact->entry(),
                                          exec::defaultInit, "rebind"),
            "");
  fs::remove_all(StoreDir);
}

TEST(CompileServiceTest, TightCacheBudgetFallsBackToDiskHits) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";

  CompileServiceOptions Opts;
  Opts.StoreDir = freshDir("tight");
  Opts.CacheBytes = 1; // Every artifact is oversized: nothing stays resident.
  CompileService Svc(Opts);
  CompileRequest R = makeRequest(gallery()[1], 'a');
  CompileResult First = Svc.compile(R);
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_EQ(First.Stats.How, RequestOutcome::Compiled);
  CompileResult Again = Svc.compile(R);
  ASSERT_TRUE(Again.ok()) << Again.Error;
  EXPECT_EQ(Again.Stats.How, RequestOutcome::DiskHit);
  EXPECT_EQ(Svc.counters().Compiles, 1u);
  EXPECT_EQ(Svc.counters().EntriesResident, 0u);
  fs::remove_all(Opts.StoreDir);
}

//===----------------------------------------------------------------------===//
// Cuda target: source-only service (no nvcc in the loop).
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, CudaTargetServesSourceUnitsWithoutACompiler) {
  CompileServiceOptions Opts;
  Opts.StoreDir = freshDir("cuda");
  CompileService Svc(Opts);
  CompileRequest R = makeRequest(gallery()[2], 'd', TargetKind::Cuda);
  CompileResult Res = Svc.compile(R);
  ASSERT_TRUE(Res.ok()) << Res.Error;
  EXPECT_EQ(Res.Stats.How, RequestOutcome::Compiled);
  EXPECT_EQ(Res.Artifact->entry(), nullptr);
  EXPECT_NE(Res.Artifact->source().find("__global__"), std::string::npos);
  EXPECT_EQ(Svc.compile(R).Stats.How, RequestOutcome::MemoryHit);
  fs::remove_all(Opts.StoreDir);
}

TEST(CompileServiceTest, UnbuildableRequestsFailWithoutKillingTheService) {
  // Each request would reach an assert (in the schedule constructors, the
  // tile-size selection or the program check) that aborts the whole
  // process: each must fail alone, with the bad value named, and the
  // service must keep compiling.
  CompileService Svc;
  auto Bad = [&](auto Edit, const std::string &Named) {
    CompileRequest R = makeRequest(gallery()[2], 'd', TargetKind::Cuda);
    Edit(R.Tiling);
    CompileResult Res = Svc.compile(R);
    EXPECT_FALSE(Res.ok());
    EXPECT_EQ(Res.Stats.How, RequestOutcome::Failed);
    EXPECT_NE(Res.Error.find(Named), std::string::npos) << Res.Error;
  };
  Bad([](codegen::TileSizeRequest &T) {
        T = {};
        T.Constraints.SharedMemBytes = 16;
      },
      "16 bytes");
  Bad([](codegen::TileSizeRequest &T) { T.W0 = 0; }, "w0=0");
  Bad([](codegen::TileSizeRequest &T) { T.InnerWidths = {0}; },
      "inner tile width 0");
  Bad([](codegen::TileSizeRequest &T) { T.InnerWidths = {6, 6}; },
      "2 inner tile widths");
  CompileRequest NoProgram;
  NoProgram.Target = TargetKind::Cuda;
  CompileResult Res = Svc.compile(NoProgram);
  EXPECT_FALSE(Res.ok());
  EXPECT_NE(Res.Error.find("no spatial dimensions"), std::string::npos)
      << Res.Error;
  EXPECT_EQ(Svc.counters().CompileFailures, 5u);

  CompileResult Good =
      Svc.compile(makeRequest(gallery()[2], 'd', TargetKind::Cuda));
  ASSERT_TRUE(Good.ok()) << Good.Error;
  EXPECT_EQ(Good.Stats.How, RequestOutcome::Compiled);
}

TEST(CompileServiceTest, InvalidRungFailsAloneAndTheServiceKeepsServing) {
  // The ladder rung is a plain request field: a letter outside 'a'..'f'
  // fails that request, naming the rung, and the next one is served.
  CompileService Svc;
  CompileResult Bad =
      Svc.compile(makeRequest(gallery()[2], 'g', TargetKind::Cuda));
  EXPECT_FALSE(Bad.ok());
  EXPECT_EQ(Bad.Stats.How, RequestOutcome::Failed);
  EXPECT_NE(Bad.Error.find("rung 'g'"), std::string::npos) << Bad.Error;
  EXPECT_EQ(Svc.counters().CompileFailures, 1u);

  CompileResult Good =
      Svc.compile(makeRequest(gallery()[2], 'd', TargetKind::Cuda));
  ASSERT_TRUE(Good.ok()) << Good.Error;
  EXPECT_EQ(Good.Stats.How, RequestOutcome::Compiled);
}

//===----------------------------------------------------------------------===//
// Satellite 4 (service level): two processes sharing one store directory.
//===----------------------------------------------------------------------===//

TEST(CompileServiceTest, TwoProcessesShareOneStoreOnTheSameKey) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; service compiles skip";
  if (HEXTILE_UNDER_TSAN)
    GTEST_SKIP() << "fork-based test; TSan runtime does not support "
                    "fork-and-continue";

  std::string StoreDir = freshDir("twoproc");
  CompileRequest R = makeRequest(gallery()[0], 'a');

  pid_t Pid = fork();
  ASSERT_NE(Pid, -1);
  if (Pid == 0) {
    int Rc = 1;
    {
      CompileServiceOptions Opts;
      Opts.StoreDir = StoreDir;
      Opts.NumThreads = 2;
      CompileService Child(Opts);
      CompileResult Res = Child.compile(R);
      Rc = Res.ok() && harness::runEntryDifferential(
                           R.Program, Res.Artifact->entry(),
                           exec::defaultInit, "") == ""
               ? 0
               : 1;
    }
    _exit(Rc);
  }

  // Parent races the child on the same key against the same directory.
  // Both must come back with a complete, correct artifact -- served from
  // a fresh compile or from whichever process published first; never a
  // torn unit (the atomic-store fix under real cross-process pressure).
  CompileServiceOptions Opts;
  Opts.StoreDir = StoreDir;
  Opts.NumThreads = 2;
  CompileService Parent(Opts);
  CompileResult Res = Parent.compile(R);
  ASSERT_TRUE(Res.ok()) << Res.Error;
  EXPECT_EQ(harness::runEntryDifferential(R.Program, Res.Artifact->entry(),
                                          exec::defaultInit, "parent"),
            "");

  int Status = 0;
  ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
      << "child process failed its compile";
  fs::remove_all(StoreDir);
}
