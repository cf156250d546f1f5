// alphabet_coder: order-preserving prefix code from an Optimal
// Alphabetic Tree (Sec. 5.1).
//
// Unlike Huffman, an alphabetic code keeps codewords in symbol order, so
// encoded strings compare the same as their plaintexts — the classic
// application of OAT.  We build the code over byte frequencies of a
// sample text and compare the average code length against the entropy
// bound and a depth estimate.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "src/oat/oat.hpp"

namespace {

const char* kSample =
    "the cordon algorithm identifies the unready tentative states and puts "
    "sentinels on them then it uses all sentinels to outline a cordon to "
    "mark the boundary of the frontier every step can be processed in "
    "parallel and the number of rounds equals the effective depth of the "
    "dependency structure which for decision monotone recurrences is the "
    "length of the best decision chain";

void codeword(const cordon::oat::AlphabeticTree& t, std::int32_t id,
              std::string prefix, std::vector<std::string>& out) {
  if (id >= 0) {
    out[static_cast<std::size_t>(id)] = prefix.empty() ? "0" : prefix;
    return;
  }
  std::size_t k = static_cast<std::size_t>(~id);
  codeword(t, t.left[k], prefix + "0", out);
  codeword(t, t.right[k], prefix + "1", out);
}

}  // namespace

int main() {
  using namespace cordon::oat;
  std::string text = kSample;

  // Frequencies of the symbols that occur (kept in byte order so the
  // code is alphabetic over the used alphabet).
  std::vector<std::size_t> count(256, 0);
  for (unsigned char c : text) ++count[c];
  std::vector<double> freq;
  std::vector<unsigned char> symbol;
  for (std::size_t c = 0; c < 256; ++c)
    if (count[c] > 0) {
      freq.push_back(static_cast<double>(count[c]));
      symbol.push_back(static_cast<unsigned char>(c));
    }

  auto oat = oat_garsia_wachs(freq);
  auto par = oat_parallel(freq);
  AlphabeticTree tree = tree_from_levels(oat.levels);
  std::vector<std::string> codes(freq.size());
  if (freq.size() == 1) {
    codes[0].push_back('0');  // = "0" trips gcc 12's false -Wrestrict
  } else {
    codeword(tree, ~static_cast<std::int32_t>(tree.num_internal() - 1), "",
             codes);
  }

  double total = static_cast<double>(text.size());
  double bits = 0, entropy = 0;
  for (std::size_t s = 0; s < freq.size(); ++s) {
    double p = freq[s] / total;
    bits += freq[s] * static_cast<double>(codes[s].size());
    entropy -= p * std::log2(p);
  }
  std::printf("alphabet=%zu symbols, text=%zu bytes\n", freq.size(),
              text.size());
  std::printf("avg code length %.3f bits/symbol (entropy %.3f, 8.0 raw)\n",
              bits / total, entropy);
  std::printf("tree height %u; parallel rounds %llu (levels match: %s)\n\n",
              oat.height, static_cast<unsigned long long>(par.stats.rounds),
              oat.levels == par.levels ? "yes" : "NO");
  std::printf("code table (first 12 symbols):\n");
  for (std::size_t s = 0; s < freq.size() && s < 12; ++s)
    std::printf("  '%c' (freq %4.0f): %s\n",
                symbol[s] == ' ' ? '_' : symbol[s], freq[s],
                codes[s].c_str());
  // Alphabetic order check: codewords compare like symbols.
  bool ordered = true;
  for (std::size_t s = 1; s < codes.size(); ++s)
    if (codes[s - 1] >= codes[s]) ordered = false;
  std::printf("\ncodewords strictly increasing (order-preserving): %s\n",
              ordered ? "yes" : "NO");
  return 0;
}
