#pragma once
// Span recorder for the benchmark's traced runs.
//
// Spans are recorded by the benchmark's own code around each call into an
// ecnd layer (the libraries carry no benchmark instrumentation). Each span
// has a layer, a name, start and end times, its parent span and the id of
// the operation (one unit run or one sweep cell) it belongs to. Spans stay
// in memory and are written out once, when the run ends. When tracing is
// off, a Span scope costs one branch.
//
// Self time: a span's duration minus the time its children cover. Spans
// opened inside a parallel sweep task carry weight 1/workers, so a layer's
// self time is in wall seconds of the whole sweep, and the sweep span's own
// self time is the workers' idle share. Summed over layers, self times then
// add up to the root spans' durations exactly.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The repository's modules, plus the benchmark's own glue code.
enum class Layer : int {
  kBench,
  kSim,
  kProto,
  kWorkload,
  kExp,
  kFluid,
  kControl,
  kCore,
  kObs,
  kCount
};
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* layer_name(Layer layer);

struct SpanRecord {
  Layer layer = Layer::kBench;
  const char* name = "";
  double t0 = 0.0;  ///< seconds since the trace epoch
  double t1 = 0.0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t op = 0;
  double weight = 1.0;
};

/// Seconds on the steady clock since the process's trace epoch.
double now_s();

void set_tracing(bool on);
bool tracing();

/// RAII span. The first form nests under the calling thread's innermost open
/// span; the second starts a task span on a worker thread under an explicit
/// parent (the sweep span), with the given weight.
class Span {
 public:
  Span(Layer layer, const char* name);
  Span(Layer layer, const char* name, int parent, std::uint32_t op,
       double weight);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's index (-1 when tracing is off).
  int id() const { return id_; }

 private:
  int id_ = -1;
};

/// Copy of every span recorded so far (call only while no sweep runs).
std::vector<SpanRecord> spans();
std::size_t span_count();

/// Per-layer weighted self time over spans [begin, end) of `all`.
std::array<double, kLayers> layer_self_seconds(const std::vector<SpanRecord>& all,
                                               std::size_t begin,
                                               std::size_t end);

/// Chrome trace-event JSON ("X" events) of all spans, with layer, parent, op
/// and weight in each event's args.
void write_chrome_trace(const std::string& path, const std::string& run_record_json);

}  // namespace perfbench
