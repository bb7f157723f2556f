/**
 * @file
 * In-memory span recorder for the benchmark's traced run.  Spans are
 * recorded from the benchmark's own code around each call into a
 * library layer (name, start, end, parent), kept in memory while the
 * run is timed, and written out as JSON once it ends.
 */

#pragma once

#include <string>
#include <vector>

namespace polcabench {

/** Host seconds on the steady clock since an arbitrary epoch. */
double nowSeconds();

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;  ///< host seconds since the recorder began
        double end = 0.0;
        int parent = -1;     ///< index into spans(), -1 = root
    };

    /** RAII span: opens on construction, closes on destruction.  A
     *  null recorder makes it a no-op. */
    class Scope
    {
      public:
        Scope(SpanRecorder *recorder, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Host seconds since this scope opened. */
        double elapsed() const { return nowSeconds() - start_; }

      private:
        SpanRecorder *recorder_;
        int index_ = -1;
        double start_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Write the spans as a JSON array; @return false on I/O error. */
    bool write(const std::string &path) const;

  private:
    double epoch_ = nowSeconds();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

} // namespace polcabench
