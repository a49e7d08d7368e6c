//===- JitUnit.h - JIT compilation of emitted host units -------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One compiled-and-loaded emitted host translation unit: writes the
/// source (with cuda_shim.h beside it) into a fresh mkdtemp scratch
/// directory, builds it with the system C++ compiler into a shared object
/// and dlopens the result. Originally the test-only core of
/// tests/harness/HostKernelRunner; promoted into the service layer
/// because it is also the compile backend of service::CompileService --
/// the harness keeps re-exporting it as harness::JitUnit.
///
/// Scratch-dir contract (the repro story the service inherits): the
/// directory is removed on destruction after a *successful* build, but
/// kept (and named in the diagnostic) after a failed compile or load so
/// the kernel.cpp / cuda_shim.h / compile.log triple reproduces offline:
///   c++ -std=c++17 -O1 -fPIC -shared -o kernel.so kernel.cpp
/// Machines without a usable compiler report available() == false and
/// callers skip cleanly. When this binary itself is an AddressSanitizer
/// build, JIT compiles add -fsanitize=address so the emitted kernels run
/// shadow-checked too.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_SERVICE_JITUNIT_H
#define HEXTILE_SERVICE_JITUNIT_H

#include <string>

namespace hextile {
namespace service {

/// One compiled-and-loaded emitted translation unit. Owns the scratch
/// directory and the dlopen handle; both are released on destruction
/// unless keepArtifacts() was called (a failed build keeps them
/// automatically).
class JitUnit {
public:
  JitUnit() = default;
  ~JitUnit();
  JitUnit(const JitUnit &) = delete;
  JitUnit &operator=(const JitUnit &) = delete;

  /// The discovered system C++ compiler ($CXX, c++, g++ or clang++;
  /// empty when none works). Cached across calls.
  static const std::string &systemCompiler();
  /// True when a system compiler is available, i.e. emitted kernels can
  /// actually be built and run on this machine.
  static bool available() { return !systemCompiler().empty(); }

  /// Writes \p Source as kernel.cpp (with cuda_shim.h beside it),
  /// compiles it into kernel.so, loads it and binds the shim runtime into
  /// a parallel-shim unit (service/ShimRuntime). Returns an empty string
  /// on success, else a diagnostic including the compiler output; a unit
  /// that rejects the runtime is a load failure, with its artifacts kept.
  /// Asserts that available() held and that no unit was built before.
  std::string build(const std::string &Source);

  /// Looks up \p Name in the loaded unit (null when absent or not built).
  void *symbol(const std::string &Name) const;

  /// Scratch directory holding kernel.cpp / cuda_shim.h / kernel.so.
  const std::string &workDir() const { return Dir; }
  /// Path of the built shared object (kernel.so inside workDir()); empty
  /// before a successful build. The artifact store copies this file.
  const std::string &sharedObjectPath() const { return SoPath; }
  /// Keeps the scratch directory on destruction (failure forensics).
  void keepArtifacts() { Keep = true; }

  /// Releases the dlopen handle and removes the scratch directory now
  /// (unless kept). Used by the service once an artifact has been
  /// republished from the store: success scratch dirs are cleaned as
  /// soon as the compile result is durable, not at some later eviction.
  void reset();

private:
  std::string Dir;
  std::string SoPath;
  void *Handle = nullptr;
  bool Keep = false;
};

} // namespace service
} // namespace hextile

#endif // HEXTILE_SERVICE_JITUNIT_H
