//===- JitUnit.cpp - JIT compilation of emitted host units ----------------===//

#include "service/JitUnit.h"

#include "codegen/HostEmitter.h"
#include "service/ShimRuntime.h"

#include <cassert>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <sys/wait.h>
#include <vector>

using namespace hextile;
using namespace hextile::service;

// When this binary runs under AddressSanitizer, build the JIT units with
// ASan too: the emitted kernels (staging windows included) are then
// memory-checked with shadow tracking, not just by the shim's HT_AT range
// trap, and the instrumented .so loads cleanly into the instrumented
// process.
#if defined(__SANITIZE_ADDRESS__)
#define HEXTILE_JIT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HEXTILE_JIT_ASAN 1
#endif
#endif
#ifndef HEXTILE_JIT_ASAN
#define HEXTILE_JIT_ASAN 0
#endif

// Same plumbing for ThreadSanitizer: under a TSan harness the JIT units
// compile with -fsanitize=thread, so the *parallel* shim's blocks, run on
// the worker teams of service/ShimRuntime (instrumented with the rest of
// the library) between __syncthreads barriers, are raced under the same
// tool that checks ThreadPoolBackend -- the emitted kernels'
// block-independence claims become TSan-checkable instead of trusted.
#if defined(__SANITIZE_THREAD__)
#define HEXTILE_JIT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HEXTILE_JIT_TSAN 1
#endif
#endif
#ifndef HEXTILE_JIT_TSAN
#define HEXTILE_JIT_TSAN 0
#endif

namespace {

/// Runs a shell command, returning its exit code (-1 on spawn failure).
int runCommand(const std::string &Cmd) {
  int Status = std::system(Cmd.c_str());
  if (Status == -1)
    return -1;
  if (WIFEXITED(Status))
    return WEXITSTATUS(Status);
  return -1;
}

/// Single-quotes \p S for the shell, so paths (and $CXX values) with
/// spaces or metacharacters pass through std::system verbatim.
std::string shellQuote(const std::string &S) {
  std::string Q = "'";
  for (char C : S) {
    if (C == '\'')
      Q += "'\\''";
    else
      Q += C;
  }
  Q += "'";
  return Q;
}

std::string discoverCompiler() {
  std::vector<std::string> Candidates;
  if (const char *Env = std::getenv("CXX"); Env && *Env)
    Candidates.push_back(Env);
  Candidates.insert(Candidates.end(), {"c++", "g++", "clang++"});
  for (const std::string &C : Candidates)
    if (runCommand(shellQuote(C) + " --version > /dev/null 2>&1") == 0)
      return C;
  return "";
}

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

const std::string &JitUnit::systemCompiler() {
  static const std::string Compiler = discoverCompiler();
  return Compiler;
}

JitUnit::~JitUnit() { reset(); }

void JitUnit::reset() {
  if (Handle) {
    dlclose(Handle);
    Handle = nullptr;
  }
  if (!Dir.empty() && !Keep) {
    std::error_code EC;
    std::filesystem::remove_all(Dir, EC); // Best effort.
  }
  Dir.clear();
  SoPath.clear();
}

std::string JitUnit::build(const std::string &Source) {
  assert(available() && "no system compiler; check available() first");
  assert(Dir.empty() && "JitUnit::build is single-shot");

  std::filesystem::path Base = std::filesystem::temp_directory_path();
  std::string Templ = (Base / "hextile-jit-XXXXXX").string();
  if (!mkdtemp(Templ.data()))
    return "cannot create scratch directory under " + Base.string();
  Dir = Templ;

  std::filesystem::path Shim = std::filesystem::path(Dir) / "cuda_shim.h";
  std::filesystem::path Src = std::filesystem::path(Dir) / "kernel.cpp";
  std::filesystem::path Lib = std::filesystem::path(Dir) / "kernel.so";
  std::filesystem::path Log = std::filesystem::path(Dir) / "compile.log";
  {
    std::ofstream(Shim) << codegen::hostShimSource();
    std::ofstream(Src) << Source;
  }

  // -pthread is unconditional and kept for a stable command line. No
  // unit starts a thread: a parallel-shim unit (HT_SHIM_THREADS > 0)
  // runs its blocks on service/ShimRuntime's teams, bound below.
  std::string Cmd = shellQuote(systemCompiler()) +
                    " -std=c++17 -O1 -fPIC -shared -pthread" +
                    (HEXTILE_JIT_ASAN ? " -fsanitize=address" : "") +
                    (HEXTILE_JIT_TSAN ? " -fsanitize=thread" : "") +
                    " -o " + shellQuote(Lib.string()) + " " +
                    shellQuote(Src.string()) + " > " +
                    shellQuote(Log.string()) + " 2>&1";
  if (runCommand(Cmd) != 0) {
    Keep = true;
    return "emitted unit failed to compile (artifacts kept in " + Dir +
           "):\n" + readFile(Log);
  }

  Handle = dlopen(Lib.string().c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    Keep = true;
    const char *Err = dlerror();
    return "emitted unit failed to load (artifacts kept in " + Dir +
           "): " + (Err ? Err : "unknown dlopen error");
  }
  if (std::string Err = bindShimRuntime(Handle); !Err.empty()) {
    Keep = true;
    dlclose(Handle);
    Handle = nullptr;
    return "emitted unit failed to load (artifacts kept in " + Dir +
           "): " + Err;
  }
  SoPath = Lib.string();
  return "";
}

void *JitUnit::symbol(const std::string &Name) const {
  if (!Handle)
    return nullptr;
  return dlsym(Handle, Name.c_str());
}
