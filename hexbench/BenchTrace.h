//===- BenchTrace.h - Bench-side spans and Chrome trace export -*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tracer of hextile_bench. A Span is an RAII record of one call into a
/// hextile layer -- name, parent span, thread, start, end, and the request
/// id shared by one request's spans -- made from the benchmark's own code
/// around the public library calls. Spans go to per-thread in-memory
/// buffers and are only read after the recording threads have joined:
/// collect() merges them, writeChromeTrace() exports Chrome trace-event
/// JSON (chrome://tracing, Perfetto) and fold() sums total and self time
/// per span name, self time being a span's duration minus the part its
/// child spans cover.
///
/// Tracing off (the default) records nothing: a Span then costs one
/// relaxed atomic load.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_HEXBENCH_BENCHTRACE_H
#define HEXTILE_HEXBENCH_BENCHTRACE_H

#include "BenchSupport.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace hextile {
namespace bench {

/// One finished span. Name must be a string literal (spans keep the
/// pointer).
struct SpanRecord {
  const char *Name = "";
  uint64_t Id = 0;
  uint64_t Parent = 0;  ///< 0 for a root span.
  uint64_t Request = 0; ///< 0 outside any request.
  uint32_t Thread = 0;  ///< Dense per-process thread number, from 1.
  int64_t StartNs = 0;
  int64_t EndNs = 0;

  double durationMs() const { return (EndNs - StartNs) / 1e6; }
};

/// Total and self time of every span sharing one name.
struct SpanTotals {
  size_t Count = 0;
  double TotalMs = 0;
  double SelfMs = 0;
};

class BenchTrace {
  struct ThreadBuffer;

public:
  static void enable(bool On) { state().On.store(On); }
  static bool enabled() {
    return state().On.load(std::memory_order_relaxed);
  }

  /// A fresh id for one request's spans.
  static uint64_t newRequestId() { return state().NextRequest.fetch_add(1); }

  /// Records the enclosing scope as a span of \p Name.
  class Span {
  public:
    explicit Span(const char *Name) {
      if (!enabled())
        return;
      Buf = &localBuffer();
      Rec.Name = Name;
      Rec.Id = state().NextSpan.fetch_add(1);
      Rec.Parent = Buf->Open.empty() ? 0 : Buf->Open.back();
      Rec.Request = Buf->Request;
      Rec.Thread = Buf->Thread;
      Buf->Open.push_back(Rec.Id);
      Rec.StartNs = nowNs();
    }
    ~Span() {
      if (!Buf)
        return;
      Rec.EndNs = nowNs();
      Buf->Open.pop_back();
      Buf->Spans.push_back(Rec);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    ThreadBuffer *Buf = nullptr;
    SpanRecord Rec;
  };

  /// Tags every span the current thread opens inside the scope with
  /// request id \p Id.
  class RequestScope {
  public:
    explicit RequestScope(uint64_t Id) {
      if (!enabled())
        return;
      Buf = &localBuffer();
      Saved = Buf->Request;
      Buf->Request = Id;
    }
    ~RequestScope() {
      if (Buf)
        Buf->Request = Saved;
    }
    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

  private:
    ThreadBuffer *Buf = nullptr;
    uint64_t Saved = 0;
  };

  /// Every span recorded so far, ordered by start time. Call only when no
  /// other thread is recording (after the client threads joined).
  static std::vector<SpanRecord> collect() {
    std::vector<SpanRecord> All;
    std::lock_guard<std::mutex> Lock(state().RegistryM);
    for (const std::unique_ptr<ThreadBuffer> &B : state().Registry)
      All.insert(All.end(), B->Spans.begin(), B->Spans.end());
    std::sort(All.begin(), All.end(),
              [](const SpanRecord &A, const SpanRecord &B) {
                return A.StartNs != B.StartNs ? A.StartNs < B.StartNs
                                              : A.Id < B.Id;
              });
    return All;
  }

  /// Sums total and self time per span name.
  static std::map<std::string, SpanTotals>
  fold(const std::vector<SpanRecord> &Spans) {
    std::unordered_map<uint64_t, double> ChildMs;
    for (const SpanRecord &S : Spans)
      if (S.Parent)
        ChildMs[S.Parent] += S.durationMs();
    std::map<std::string, SpanTotals> Out;
    for (const SpanRecord &S : Spans) {
      SpanTotals &T = Out[S.Name];
      ++T.Count;
      T.TotalMs += S.durationMs();
      auto It = ChildMs.find(S.Id);
      T.SelfMs += S.durationMs() - (It == ChildMs.end() ? 0.0 : It->second);
    }
    return Out;
  }

  /// Writes \p Spans as Chrome trace-event JSON ("X" complete events,
  /// microsecond timestamps; "cat" is the layer, the text before the first
  /// '.'). Returns false after a diagnostic when the file cannot be
  /// written completely.
  static bool writeChromeTrace(const std::string &Path,
                               const std::vector<SpanRecord> &Spans) {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   Path.c_str());
      return false;
    }
    int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
    std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const SpanRecord &S = Spans[I];
      std::string Name = S.Name;
      JsonRow Row;
      Row.str("name", Name)
          .str("cat", Name.substr(0, Name.find('.')))
          .str("ph", "X")
          .num("ts", (S.StartNs - Origin) / 1e3)
          .num("dur", (S.EndNs - S.StartNs) / 1e3)
          .num("pid", int64_t(1))
          .num("tid", int64_t(S.Thread))
          .num("id", int64_t(S.Id))
          .num("parent", int64_t(S.Parent))
          .num("req", int64_t(S.Request));
      std::fprintf(F, "  {%s}%s\n", Row.rendered().c_str(),
                   I + 1 < Spans.size() ? "," : "");
    }
    std::fprintf(F, "]}\n");
    bool Ok = !std::ferror(F);
    Ok = std::fclose(F) == 0 && Ok;
    if (!Ok)
      std::fprintf(stderr, "error: trace %s was truncated\n", Path.c_str());
    return Ok;
  }

private:
  struct ThreadBuffer {
    uint32_t Thread = 0;
    uint64_t Request = 0;
    std::vector<uint64_t> Open; ///< Ids of the open spans, innermost last.
    std::vector<SpanRecord> Spans;
  };

  struct State {
    std::atomic<bool> On{false};
    std::atomic<uint64_t> NextSpan{1};
    std::atomic<uint64_t> NextRequest{1};
    std::mutex RegistryM; ///< Guards Registry.
    std::vector<std::unique_ptr<ThreadBuffer>> Registry;
  };

  static State &state() {
    static State S;
    return S;
  }

  /// The calling thread's buffer, registered on first use. Buffers outlive
  /// their threads so collect() still sees a joined client's spans.
  static ThreadBuffer &localBuffer() {
    thread_local ThreadBuffer *Local = nullptr;
    if (!Local) {
      std::lock_guard<std::mutex> Lock(state().RegistryM);
      state().Registry.push_back(std::make_unique<ThreadBuffer>());
      Local = state().Registry.back().get();
      Local->Thread = static_cast<uint32_t>(state().Registry.size());
    }
    return *Local;
  }

  static int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
};

} // namespace bench
} // namespace hextile

#endif // HEXTILE_HEXBENCH_BENCHTRACE_H
