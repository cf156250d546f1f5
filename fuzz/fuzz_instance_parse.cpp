// Fuzz target: the instance text parser (docs/INSTANCE_FORMAT.md).
//
// Contract under hostile bytes:
//   * parse either succeeds or throws std::runtime_error /
//     std::invalid_argument — any other escape (crash, other exception
//     type, sanitizer finding) is a bug;
//   * a successful parse respects every declared-size cap;
//   * serialization is a canonical fixpoint: to_string(parse(text))
//     parses back to byte-identical canonical text;
//   * the cache key survives the text: the byte key of the parsed
//     instance equals the byte key of from_string(to_string(parsed));
//   * a small enough instance (SolveSizeCheck) solves: Solver::solve
//     returns a result or rejects it with std::invalid_argument.
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "fuzz/fuzz_common.hpp"
#include "src/engine/instance.hpp"
#include "src/engine/registry.hpp"

using namespace cordon;

namespace {

/// True when every declared size and element count is <= 4096, and for
/// the families whose work grows with a product of two sizes (gap,
/// kglws, and lcs, whose match pairs number up to |a|·|b|) that product
/// is <= 2^16: small enough that one solve per input stays quick.
struct SolveSizeCheck {
  using u64 = std::uint64_t;
  static constexpr u64 kSize = 4096, kProduct = u64{1} << 16;

  static bool pair(u64 x, u64 y) {
    return x <= kSize && y <= kSize && x * y <= kProduct;
  }
  bool operator()(const engine::LisInstance& p) const {
    return p.values.size() <= kSize;
  }
  bool operator()(const engine::LcsInstance& p) const {
    return pair(p.a.size(), p.b.size());
  }
  bool operator()(const engine::GlwsInstance& p) const { return p.n <= kSize; }
  bool operator()(const engine::KglwsInstance& p) const {
    return pair(p.n, p.k);
  }
  bool operator()(const engine::GapInstance& p) const {
    return pair(p.a.size(), p.b.size());
  }
  bool operator()(const engine::OatInstance& p) const {
    return p.weights.size() <= kSize;
  }
  bool operator()(const engine::ObstInstance& p) const {
    return p.weights.size() <= kSize;
  }
  bool operator()(const engine::TreeGlwsInstance& p) const {
    return p.parent.size() <= kSize;
  }
  bool operator()(const engine::DagInstance& p) const {
    return p.n <= kSize && p.boundary.size() <= kSize &&
           p.edges.size() <= kSize;
  }
};

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  engine::Instance inst;
  try {
    inst = engine::from_string(text);
  } catch (const std::runtime_error&) {
    return 0;  // malformed input, rejected cleanly
  } catch (const std::invalid_argument&) {
    return 0;  // cap violation, rejected cleanly
  }

  std::visit(fuzz::CapCheckVisitor{}, inst.payload);

  // Canonical round-trip: the serializer's output must re-parse, and
  // must be a fixpoint (two instances are equal iff their canonical
  // texts are byte-identical — the service cache keys on this).
  const std::string canon = engine::to_string(inst);
  engine::Instance reparsed;
  try {
    reparsed = engine::from_string(canon);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "canonical text failed to re-parse: %s\n", e.what());
    std::abort();
  }
  FUZZ_ASSERT(reparsed.kind == inst.kind, "round-trip changed the kind");
  FUZZ_ASSERT(engine::to_string(reparsed) == canon,
              "canonical serialization is not a fixpoint");

  // A request re-sent through its text must hit the cache entry the
  // original made.
  FUZZ_ASSERT(engine::canonical_key(reparsed) == engine::canonical_key(inst),
              "byte key changed across a text round-trip");

  // A parsed instance is a request the service would run: it must solve
  // or be rejected as invalid.  Any other exception escapes this
  // function and aborts the run.
  if (std::visit(SolveSizeCheck{}, inst.payload)) {
    try {
      (void)engine::builtin_registry().at(inst.kind).solve(inst);
    } catch (const std::invalid_argument&) {
      // typed rejection
    }
  }
  return 0;
}
