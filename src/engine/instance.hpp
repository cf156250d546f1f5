// Instance model of the unified solver engine.
//
// A workload is data, not a hand-written main(): every problem kind the
// library solves has a serializable instance struct, a tagged union
// `Instance` carries one of them together with its registry key, and a
// line-oriented text format round-trips instances through files so the
// CLI, the batch executor, tests, and benchmarks all speak one language.
//
// Cost functions cannot be serialized as arbitrary code, so instances
// reference a closed set of named cost families (`CostSpec`): affine and
// quadratic (convex Monge) and logarithmic (concave Monge) costs in the
// transition span, the same families the paper's evaluation uses.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "src/core/dp_dag.hpp"
#include "src/glws/glws.hpp"  // CostFn, Shape, SpanCost

namespace cordon::engine {

/// A named, serializable cost family w(j, i) on the span i - j (plus a
/// fixed opening charge).  `shape()` reports the Monge regime solvers
/// must be told about.
struct CostSpec {
  enum class Family { kAffine, kQuadratic, kLogarithmic };

  Family family = Family::kAffine;
  double open = 1.0;   // charged per transition
  double scale = 1.0;  // multiplies the span term

  [[nodiscard]] glws::Shape shape() const;
  /// The cost every solve runs.  Throws std::invalid_argument unless
  /// `open` is finite and `scale` finite and >= 0: a negative scale
  /// flips the Monge shape against the one shape() reports, and the
  /// solvers would return wrong optima.
  [[nodiscard]] glws::SpanCost make() const;

  [[nodiscard]] static const char* family_name(Family f);
  [[nodiscard]] static Family family_from_name(const std::string& name);

  friend bool operator==(const CostSpec&, const CostSpec&) = default;
};

// --- one struct per registered problem kind --------------------------------

struct LisInstance {
  std::vector<std::uint64_t> values;
};

struct LcsInstance {
  std::vector<std::uint32_t> a, b;
};

struct GlwsInstance {
  std::uint64_t n = 0;  // states 0..n, D[0] = d0
  double d0 = 0;
  CostSpec cost;
};

struct KglwsInstance {
  std::uint64_t n = 0;
  std::uint64_t k = 1;  // exactly k clusters
  CostSpec cost;        // must be convex (affine or quadratic)
};

struct GapInstance {
  std::vector<std::uint32_t> a, b;
  CostSpec w1, w2;  // gap costs in A / in B; shapes must match
};

struct OatInstance {
  std::vector<double> weights;
};

struct ObstInstance {
  std::vector<double> weights;
};

struct TreeGlwsInstance {
  std::vector<std::uint32_t> parent;  // parent[root] == 0xffffffff
  double d0 = 0;
  CostSpec cost;  // convex (the parallel algorithm's requirement)
};

/// An explicit DP DAG with affine transitions f(x) = x + weight — the
/// serializable subset of DpDag, solved by ExplicitCordon::run_affine.
struct DagInstance {
  struct Edge {
    std::uint32_t src = 0, dst = 0;
    double weight = 0;
    bool effective = true;
  };

  std::uint64_t n = 0;
  core::Objective objective = core::Objective::kMin;
  std::vector<std::pair<std::uint32_t, double>> boundary;
  std::vector<Edge> edges;

  [[nodiscard]] core::DpDag build() const;
};

using Payload =
    std::variant<LisInstance, LcsInstance, GlwsInstance, KglwsInstance,
                 GapInstance, OatInstance, ObstInstance, TreeGlwsInstance,
                 DagInstance>;

// --- declared-size hardening ------------------------------------------------
//
// Some payloads *declare* their size as a scalar (glws/kglws `n`, dag
// `states`) and solvers allocate proportionally, so a malformed or
// hostile input could request petabytes with a 20-byte payload.  Every
// declared size and element count is capped: the parser rejects
// oversized declarations up front, and solve-time validation
// (DagInstance::build, the glws/kglws adapters) rejects oversized
// in-memory instances, so a hostile submit() surfaces as a failed
// future instead of OOM-ing the process.
inline constexpr std::uint64_t kMaxDeclaredSize = 1ull << 27;  // 134M states

/// Throws std::invalid_argument when a declared size/element count
/// exceeds kMaxDeclaredSize.  `what` names the field for the message.
void check_declared_size(std::uint64_t value, const char* what);

/// A problem instance: the registry key of the solver that understands it
/// plus the kind-specific payload.
struct Instance {
  std::string kind;
  Payload payload;

  /// Typed access; throws if the payload does not match the expectation
  /// (e.g. a hand-edited file with a wrong header).
  template <typename T>
  [[nodiscard]] const T& as() const {
    const T* p = std::get_if<T>(&payload);
    if (p == nullptr)
      throw std::invalid_argument("instance payload does not match kind '" +
                                  kind + "'");
    return *p;
  }
};

// --- cache keys -------------------------------------------------------------
//
// The service's result cache keys on an instance's fields as raw bytes,
// not on its text.  The key is the payload's alternative index (one
// byte), the kind, then every field in declaration order: scalars as
// their object bytes, each vector as a u64 length and its elements, and
// DagInstance's boundary pairs and edges field by field, so padding never
// enters the key.  Native byte order: keys live in one process's cache.
//
// Equal keys mean equal canonical texts: equal bits print equally, and
// the length prefixes keep lcs `a=[1,2] b=[3]` apart from `a=[1] b=[2,3]`.
// Keys tell apart everything the text does (0.0 from -0.0 included), and
// split only NaNs that differ in payload bits, which the text merges; a
// split costs one cache miss.  The first byte is below 9, so a key never
// equals the service's "cordon-session ..." version keys.

struct InstanceKey {
  std::uint64_t hash = 0;  // key_hash(text)
  std::string text;        // the key's bytes (binary, not wire text)

  friend bool operator==(const InstanceKey&, const InstanceKey&) = default;
};

/// The byte key of `inst` and its hash.
[[nodiscard]] InstanceKey canonical_key(const Instance& inst);

/// canonical_key into `key`, reusing the capacity of `key.text`: a warm
/// buffer makes keying allocation-free.
void canonical_key_into(const Instance& inst, InstanceKey& key);

/// 64-bit hash of a byte key, eight bytes per step, finished with
/// murmur3's fmix64 so the high bits (the cache's shard pick) mix too.
[[nodiscard]] std::uint64_t key_hash(std::string_view bytes) noexcept;

/// FNV-1a 64 over raw bytes: the journal's frame checksums and the
/// session lineage hash, which both hash wire text.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes) noexcept;

// --- text round-trip --------------------------------------------------------
//
// Format (whitespace-separated, '#' starts a comment):
//   cordon-instance v1 <kind>
//   <key> <values...>          # scalars: "n 1000"; vectors: rest of line,
//   ...                        # repeated keys append (long vectors wrap)
//   end
// Cost specs serialize as "<key> <family> <open> <scale>".

void serialize_instance(const Instance& inst, std::ostream& out);
[[nodiscard]] Instance parse_instance(std::istream& in);

/// Parses one payload body for `kind` — the lines between the header and
/// `end`, which the delta format (src/engine/delta.hpp) shares with the
/// instance format.  Consumes up to and including the `end` line; applies
/// the same declared-size caps as parse_instance.
[[nodiscard]] Payload parse_payload_body(std::istream& in,
                                         const std::string& kind);

/// Serializes just the payload body (key/value lines, no header and no
/// `end`), in the canonical field order with round-trip-safe doubles.
void serialize_payload_body(const Payload& payload, std::ostream& out);

[[nodiscard]] std::string to_string(const Instance& inst);
[[nodiscard]] Instance from_string(const std::string& text);

/// Reads one instance from a file; throws std::runtime_error with the
/// path on open/parse failure.
[[nodiscard]] Instance load_instance(const std::string& path);
void save_instance(const Instance& inst, const std::string& path);

}  // namespace cordon::engine
