#include "src/engine/instance.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <string_view>
#include <type_traits>

namespace cordon::engine {

// --- CostSpec ---------------------------------------------------------------

glws::Shape CostSpec::shape() const {
  return family == Family::kLogarithmic ? glws::Shape::kConcave
                                        : glws::Shape::kConvex;
}

glws::SpanCost CostSpec::make() const {
  if (!std::isfinite(open) || !std::isfinite(scale) || scale < 0)
    throw std::invalid_argument(
        std::string("cost ") + family_name(family) + ": open must be finite "
        "and scale finite and >= 0 (got open " + std::to_string(open) +
        ", scale " + std::to_string(scale) + ")");
  switch (family) {
    case Family::kAffine:
      return {glws::SpanCost::Kind::kLinear, open, scale};
    case Family::kQuadratic:
      return {glws::SpanCost::Kind::kQuadratic, open, scale};
    case Family::kLogarithmic:
      return {glws::SpanCost::Kind::kLog1p, open, scale};
  }
  throw std::logic_error("CostSpec: unknown family");
}

const char* CostSpec::family_name(Family f) {
  switch (f) {
    case Family::kAffine:
      return "affine";
    case Family::kQuadratic:
      return "quadratic";
    case Family::kLogarithmic:
      return "logarithmic";
  }
  return "?";
}

CostSpec::Family CostSpec::family_from_name(const std::string& name) {
  if (name == "affine") return Family::kAffine;
  if (name == "quadratic") return Family::kQuadratic;
  if (name == "logarithmic") return Family::kLogarithmic;
  throw std::invalid_argument("unknown cost family '" + name + "'");
}

// --- declared-size hardening ------------------------------------------------

void check_declared_size(std::uint64_t value, const char* what) {
  if (value > kMaxDeclaredSize)
    throw std::invalid_argument(
        std::string("instance rejected: ") + what + " = " +
        std::to_string(value) + " exceeds the declared-size cap " +
        std::to_string(kMaxDeclaredSize));
}

// --- DagInstance ------------------------------------------------------------

core::DpDag DagInstance::build() const {
  // Validate before the first proportional allocation: build() runs at
  // solve time, so a hostile in-memory instance (which never went
  // through the parser's caps) fails the request instead of the process.
  check_declared_size(n, "dag states");
  for (auto& [state, value] : boundary) {
    (void)value;
    if (state >= n)
      throw std::invalid_argument("dag boundary state " +
                                  std::to_string(state) + " out of range [0, " +
                                  std::to_string(n) + ")");
  }
  core::DpDag dag(n, objective);
  for (auto& [state, value] : boundary) dag.set_boundary(state, value);
  // Affine edges as data: with every edge affine ExplicitCordon solves
  // this DAG through its O(n + E) frontier body, run_affine.
  for (const Edge& e : edges)
    dag.add_affine_edge(e.src, e.dst, e.weight, e.effective);
  return dag;
}

// --- serialization ----------------------------------------------------------

namespace {

constexpr const char* kMagic = "cordon-instance";
constexpr const char* kVersion = "v1";

void write_cost(std::ostream& out, const char* key, const CostSpec& c) {
  out << key << ' ' << CostSpec::family_name(c.family) << ' ' << c.open << ' '
      << c.scale << '\n';
}

template <typename T>
void write_vec(std::ostream& out, const char* key, const std::vector<T>& v) {
  // Wrap long vectors: repeated keys append on parse.
  constexpr std::size_t kPerLine = 64;
  for (std::size_t i = 0; i < v.size(); i += kPerLine) {
    out << key;
    for (std::size_t j = i; j < v.size() && j < i + kPerLine; ++j)
      out << ' ' << v[j];
    out << '\n';
  }
  if (v.empty()) out << key << '\n';
}

// One "<key> tokens..." line with '#' comments stripped.
struct Line {
  std::string key;
  std::istringstream rest;
};

bool next_line(std::istream& in, Line& out) {
  std::string raw;
  while (std::getline(in, raw)) {
    if (auto pos = raw.find('#'); pos != std::string::npos) raw.resize(pos);
    std::istringstream ss(raw);
    std::string key;
    if (!(ss >> key)) continue;  // blank / comment-only line
    out.key = std::move(key);
    std::string tail;
    std::getline(ss, tail);
    out.rest = std::istringstream(tail);
    return true;
  }
  return false;
}

template <typename T>
T parse_scalar(Line& line) {
  T v{};
  if (!(line.rest >> v))
    throw std::runtime_error("instance parse: bad value for key '" + line.key +
                             "'");
  return v;
}

// Scalar that declares an allocation size downstream: parse + cap.
std::uint64_t parse_size(Line& line, const char* what) {
  auto v = parse_scalar<std::uint64_t>(line);
  check_declared_size(v, what);
  return v;
}

template <typename T>
void parse_append(Line& line, std::vector<T>& out) {
  // Reserve for exactly the tokens on this line before appending: long
  // vectors arrive as many wrapped lines, and growing by push_back alone
  // re-copies the accumulated prefix on every reallocation.  One
  // whitespace scan over the remaining tail is far cheaper than that.
  {
    std::string_view tail = line.rest.view();
    tail.remove_prefix(std::min<std::size_t>(
        tail.size(),
        static_cast<std::size_t>(std::max<std::streamoff>(
            0, static_cast<std::streamoff>(line.rest.tellg())))));
    std::size_t tokens = 0;
    bool in_token = false;
    for (char c : tail) {
      bool ws = c == ' ' || c == '\t' || c == '\r' || c == '\n';
      tokens += !ws && !in_token;
      in_token = !ws;
    }
    // Geometric floor so a reserve per wrapped line cannot degrade the
    // amortized growth into one reallocation per line; clamped to the
    // declared-size cap so a hostile line with billions of tokens
    // cannot force an over-cap allocation before the per-element check
    // below rejects it.
    std::size_t need = std::min<std::size_t>(out.size() + tokens,
                                             kMaxDeclaredSize);
    if (need > out.capacity())
      out.reserve(std::max(need, out.capacity() * 2));
  }
  T v{};
  while (line.rest >> v) {
    // Same std::invalid_argument as every other cap violation, so
    // callers can classify hostile payloads by one exception type.
    if (out.size() >= kMaxDeclaredSize)
      check_declared_size(out.size() + 1,
                          (line.key + " element count").c_str());
    out.push_back(v);
  }
  if (!line.rest.eof())
    throw std::runtime_error("instance parse: bad element in '" + line.key +
                             "' list");
}

CostSpec parse_cost(Line& line) {
  std::string family;
  CostSpec c;
  if (!(line.rest >> family >> c.open >> c.scale))
    throw std::runtime_error(
        "instance parse: cost spec needs '<family> <open> <scale>' after '" +
        line.key + "'");
  c.family = CostSpec::family_from_name(family);
  return c;
}

[[noreturn]] void unknown_key(const std::string& kind, const std::string& key) {
  throw std::runtime_error("instance parse: unknown key '" + key +
                           "' for kind '" + kind + "'");
}

// Consumes lines until "end", feeding each to on_line.
template <typename Fn>
void read_body(std::istream& in, const std::string& kind, Fn&& on_line) {
  Line line;
  while (next_line(in, line)) {
    if (line.key == "end") return;
    on_line(line);
  }
  throw std::runtime_error("instance parse: missing 'end' for kind '" + kind +
                           "'");
}

Payload parse_payload(std::istream& in, const std::string& kind) {
  if (kind == "lis") {
    LisInstance p;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "values")
        parse_append(l, p.values);
      else
        unknown_key(kind, l.key);
    });
    return p;
  }
  if (kind == "lcs") {
    LcsInstance p;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "a")
        parse_append(l, p.a);
      else if (l.key == "b")
        parse_append(l, p.b);
      else
        unknown_key(kind, l.key);
    });
    return p;
  }
  if (kind == "glws") {
    GlwsInstance p;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "n")
        p.n = parse_size(l, "glws n");
      else if (l.key == "d0")
        p.d0 = parse_scalar<double>(l);
      else if (l.key == "cost")
        p.cost = parse_cost(l);
      else
        unknown_key(kind, l.key);
    });
    return p;
  }
  if (kind == "kglws") {
    KglwsInstance p;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "n")
        p.n = parse_size(l, "kglws n");
      else if (l.key == "k")
        p.k = parse_size(l, "kglws k");
      else if (l.key == "cost")
        p.cost = parse_cost(l);
      else
        unknown_key(kind, l.key);
    });
    return p;
  }
  if (kind == "gap") {
    GapInstance p;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "a")
        parse_append(l, p.a);
      else if (l.key == "b")
        parse_append(l, p.b);
      else if (l.key == "w1")
        p.w1 = parse_cost(l);
      else if (l.key == "w2")
        p.w2 = parse_cost(l);
      else
        unknown_key(kind, l.key);
    });
    return p;
  }
  if (kind == "oat" || kind == "obst") {
    std::vector<double> weights;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "weights")
        parse_append(l, weights);
      else
        unknown_key(kind, l.key);
    });
    if (kind == "oat") return OatInstance{std::move(weights)};
    return ObstInstance{std::move(weights)};
  }
  if (kind == "treeglws") {
    TreeGlwsInstance p;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "parent")
        parse_append(l, p.parent);
      else if (l.key == "d0")
        p.d0 = parse_scalar<double>(l);
      else if (l.key == "cost")
        p.cost = parse_cost(l);
      else
        unknown_key(kind, l.key);
    });
    return p;
  }
  if (kind == "dag") {
    DagInstance p;
    read_body(in, kind, [&](Line& l) {
      if (l.key == "states") {
        p.n = parse_size(l, "dag states");
      } else if (l.key == "objective") {
        auto word = parse_scalar<std::string>(l);
        if (word == "min")
          p.objective = core::Objective::kMin;
        else if (word == "max")
          p.objective = core::Objective::kMax;
        else
          throw std::runtime_error(
              "instance parse: objective must be 'min' or 'max', got '" + word +
              "'");
      } else if (l.key == "boundary") {
        std::uint32_t state;
        double value;
        if (!(l.rest >> state >> value))
          throw std::runtime_error(
              "instance parse: boundary needs '<state> <value>'");
        p.boundary.emplace_back(state, value);
      } else if (l.key == "edge") {
        DagInstance::Edge e;
        int effective = 1;
        if (!(l.rest >> e.src >> e.dst >> e.weight))
          throw std::runtime_error(
              "instance parse: edge needs '<src> <dst> <weight> [effective]'");
        if (l.rest >> effective)
          e.effective = effective != 0;
        else if (!l.rest.eof())
          throw std::runtime_error(
              "instance parse: edge effective flag must be 0 or 1");
        p.edges.push_back(e);
      } else {
        unknown_key(kind, l.key);
      }
    });
    return p;
  }
  throw std::runtime_error("instance parse: unknown kind '" + kind + "'");
}

struct SerializeVisitor {
  std::ostream& out;

  void operator()(const LisInstance& p) const {
    write_vec(out, "values", p.values);
  }
  void operator()(const LcsInstance& p) const {
    write_vec(out, "a", p.a);
    write_vec(out, "b", p.b);
  }
  void operator()(const GlwsInstance& p) const {
    out << "n " << p.n << '\n' << "d0 " << p.d0 << '\n';
    write_cost(out, "cost", p.cost);
  }
  void operator()(const KglwsInstance& p) const {
    out << "n " << p.n << '\n' << "k " << p.k << '\n';
    write_cost(out, "cost", p.cost);
  }
  void operator()(const GapInstance& p) const {
    write_vec(out, "a", p.a);
    write_vec(out, "b", p.b);
    write_cost(out, "w1", p.w1);
    write_cost(out, "w2", p.w2);
  }
  void operator()(const OatInstance& p) const {
    write_vec(out, "weights", p.weights);
  }
  void operator()(const ObstInstance& p) const {
    write_vec(out, "weights", p.weights);
  }
  void operator()(const TreeGlwsInstance& p) const {
    write_vec(out, "parent", p.parent);
    out << "d0 " << p.d0 << '\n';
    write_cost(out, "cost", p.cost);
  }
  void operator()(const DagInstance& p) const {
    out << "states " << p.n << '\n'
        << "objective " << (p.objective == core::Objective::kMin ? "min" : "max")
        << '\n';
    for (auto& [state, value] : p.boundary)
      out << "boundary " << state << ' ' << value << '\n';
    for (const DagInstance::Edge& e : p.edges)
      out << "edge " << e.src << ' ' << e.dst << ' ' << e.weight << ' '
          << (e.effective ? 1 : 0) << '\n';
  }
};

// Writes the byte key (instance.hpp, "cache keys").  Run once with a
// counting sink to size the buffer, then once to fill it, so encoding is
// one resize and a run of fixed-size copies.
template <typename Sink>
struct KeyEncoder {
  Sink& out;

  template <typename T>
  void scalar(T v) const {
    static_assert(std::is_arithmetic_v<T>);
    out.put(&v, sizeof v);
  }
  template <typename T>
  void vec(const std::vector<T>& v) const {
    static_assert(std::is_arithmetic_v<T>);
    scalar<std::uint64_t>(v.size());
    out.put(v.data(), v.size() * sizeof(T));
  }
  void cost(const CostSpec& c) const {
    scalar(static_cast<std::underlying_type_t<CostSpec::Family>>(c.family));
    scalar(c.open);
    scalar(c.scale);
  }

  void operator()(const LisInstance& p) const { vec(p.values); }
  void operator()(const LcsInstance& p) const {
    vec(p.a);
    vec(p.b);
  }
  void operator()(const GlwsInstance& p) const {
    scalar(p.n);
    scalar(p.d0);
    cost(p.cost);
  }
  void operator()(const KglwsInstance& p) const {
    scalar(p.n);
    scalar(p.k);
    cost(p.cost);
  }
  void operator()(const GapInstance& p) const {
    vec(p.a);
    vec(p.b);
    cost(p.w1);
    cost(p.w2);
  }
  void operator()(const OatInstance& p) const { vec(p.weights); }
  void operator()(const ObstInstance& p) const { vec(p.weights); }
  void operator()(const TreeGlwsInstance& p) const {
    vec(p.parent);
    scalar(p.d0);
    cost(p.cost);
  }
  void operator()(const DagInstance& p) const {
    scalar(p.n);
    scalar<std::uint8_t>(p.objective == core::Objective::kMin ? 0 : 1);
    scalar<std::uint64_t>(p.boundary.size());
    for (auto& [state, value] : p.boundary) {
      scalar(state);
      scalar(value);
    }
    scalar<std::uint64_t>(p.edges.size());
    for (const DagInstance::Edge& e : p.edges) {
      scalar(e.src);
      scalar(e.dst);
      scalar(e.weight);
      scalar<std::uint8_t>(e.effective ? 1 : 0);
    }
  }

  void instance(const Instance& inst) const {
    scalar(static_cast<std::uint8_t>(inst.payload.index()));
    scalar<std::uint64_t>(inst.kind.size());
    out.put(inst.kind.data(), inst.kind.size());
    std::visit(*this, inst.payload);
  }
};

struct CountSink {
  std::size_t bytes = 0;
  void put(const void*, std::size_t n) { bytes += n; }
};

struct CopySink {
  char* at;
  void put(const void* src, std::size_t n) {
    if (n != 0) std::memcpy(at, src, n);
    at += n;
  }
};

std::uint64_t load_word(const char* p) noexcept {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

}  // namespace

void canonical_key_into(const Instance& inst, InstanceKey& key) {
  CountSink count;
  KeyEncoder<CountSink>{count}.instance(inst);
  key.text.resize(count.bytes);
  CopySink copy{key.text.data()};
  KeyEncoder<CopySink>{copy}.instance(inst);
  key.hash = key_hash(key.text);
}

InstanceKey canonical_key(const Instance& inst) {
  InstanceKey key;
  canonical_key_into(inst, key);
  return key;
}

std::uint64_t key_hash(std::string_view bytes) noexcept {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  auto step = [](std::uint64_t h, std::uint64_t word) {
    return (std::rotl(h, 29) ^ word) * kMul;
  };
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  // Four lanes over 32-byte blocks keep four multiplies in flight; one
  // chain of multiplies would cost a key about four times as long.
  std::uint64_t lane[4] = {0, 1, 2, 3};
  for (; n >= 32; p += 32, n -= 32)
    for (int i = 0; i < 4; ++i) lane[i] = step(lane[i], load_word(p + 8 * i));
  std::uint64_t h = bytes.size() * kMul;
  for (std::uint64_t l : lane) h = step(h, l);
  for (; n >= 8; p += 8, n -= 8) h = step(h, load_word(p));
  if (n != 0) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p, n);
    h = step(h, tail);
  }
  // murmur3 fmix64
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

std::uint64_t fnv1a64(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  for (char c : bytes)
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
  return hash;
}

void serialize_instance(const Instance& inst, std::ostream& out) {
  out << kMagic << ' ' << kVersion << ' ' << inst.kind << '\n';
  out.precision(17);  // doubles must survive the round-trip
  std::visit(SerializeVisitor{out}, inst.payload);
  out << "end\n";
}

Payload parse_payload_body(std::istream& in, const std::string& kind) {
  return parse_payload(in, kind);
}

void serialize_payload_body(const Payload& payload, std::ostream& out) {
  out.precision(17);
  std::visit(SerializeVisitor{out}, payload);
}

Instance parse_instance(std::istream& in) {
  Line header;
  if (!next_line(in, header) || header.key != kMagic)
    throw std::runtime_error("instance parse: missing '" + std::string(kMagic) +
                             "' header");
  std::string version, kind;
  if (!(header.rest >> version >> kind) || version != kVersion)
    throw std::runtime_error(
        "instance parse: header must be 'cordon-instance v1 <kind>'");
  Instance inst;
  inst.kind = kind;
  inst.payload = parse_payload(in, kind);
  return inst;
}

std::string to_string(const Instance& inst) {
  std::ostringstream out;
  serialize_instance(inst, out);
  return out.str();
}

Instance from_string(const std::string& text) {
  std::istringstream in(text);
  return parse_instance(in);
}

Instance load_instance(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open instance file '" + path + "'");
  try {
    return parse_instance(in);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void save_instance(const Instance& inst, const std::string& path) {
  std::ofstream out(path);
  if (!out)
    throw std::runtime_error("cannot write instance file '" + path + "'");
  serialize_instance(inst, out);
}

}  // namespace cordon::engine
