// Standalone driver for toolchains without libFuzzer (gcc): provides
// the main() that -fsanitize=fuzzer would otherwise link in.
//
//   fuzz_target [-runs=N] [-seed=S] [-max_len=L] <files-or-dirs>...
//
// Every file argument (directories recurse) is executed once through
// LLVMFuzzerTestOneInput — that is the ctest corpus-regression mode,
// flag-compatible with libFuzzer's `-runs=0 <corpusdir>`.  With
// -runs=N > 0 the driver additionally runs N inputs produced by a
// naive deterministic mutator (byte flips, splices, truncations over
// the loaded corpus), which is what the CI fuzz smoke uses when only
// gcc is available; real coverage-guided fuzzing still wants clang.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

namespace {

std::vector<std::string> gather_inputs(int argc, char** argv,
                                       std::uint64_t& runs,
                                       std::uint64_t& seed,
                                       std::size_t& max_len) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "-runs=", 6) == 0) {
      runs = std::strtoull(arg + 6, nullptr, 10);
    } else if (std::strncmp(arg, "-seed=", 6) == 0) {
      seed = std::strtoull(arg + 6, nullptr, 10);
    } else if (std::strncmp(arg, "-max_len=", 9) == 0) {
      max_len = std::strtoull(arg + 9, nullptr, 10);
    } else if (arg[0] == '-') {
      // Unknown libFuzzer flag: ignore, so CI recipes stay portable.
    } else if (fs::is_directory(arg)) {
      for (const auto& e : fs::recursive_directory_iterator(arg))
        if (e.is_regular_file()) paths.push_back(e.path().string());
    } else if (!fs::exists(arg)) {
      // A missing corpus must fail the replay, not replay nothing.
      std::fprintf(stderr, "standalone fuzz driver: no such input: %s\n",
                   arg);
      std::exit(2);
    } else {
      paths.push_back(arg);
    }
  }
  return paths;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void run_one(const std::string& bytes) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                         bytes.size());
}

/// One mutation step: corpus pick + a couple of byte-level edits.  Not
/// coverage-guided — just enough hostile variety for a smoke run.
std::string mutate(const std::vector<std::string>& corpus,
                   std::mt19937_64& rng, std::size_t max_len) {
  std::string s = corpus.empty()
                      ? std::string()
                      : corpus[rng() % corpus.size()];
  const int edits = 1 + static_cast<int>(rng() % 4);
  for (int e = 0; e < edits; ++e) {
    switch (rng() % 5) {
      case 0:  // flip a byte
        if (!s.empty()) s[rng() % s.size()] ^= static_cast<char>(rng());
        break;
      case 1:  // insert a byte
        s.insert(s.begin() + static_cast<std::ptrdiff_t>(
                                 s.empty() ? 0 : rng() % (s.size() + 1)),
                 static_cast<char>(rng()));
        break;
      case 2:  // delete a byte
        if (!s.empty()) s.erase(rng() % s.size(), 1);
        break;
      case 3:  // truncate
        if (!s.empty()) s.resize(rng() % s.size());
        break;
      case 4: {  // splice a random corpus tail on
        if (corpus.empty()) break;
        const std::string& other = corpus[rng() % corpus.size()];
        if (other.empty()) break;
        s += other.substr(rng() % other.size());
        break;
      }
    }
  }
  if (s.size() > max_len) s.resize(max_len);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t runs = 0, seed = 1;
  std::size_t max_len = 1 << 14;
  const std::vector<std::string> paths =
      gather_inputs(argc, argv, runs, seed, max_len);

  std::vector<std::string> corpus;
  corpus.reserve(paths.size());
  for (const std::string& p : paths) corpus.push_back(read_file(p));

  for (std::size_t i = 0; i < corpus.size(); ++i) run_one(corpus[i]);
  std::printf("standalone fuzz driver: replayed %zu corpus input(s)\n",
              corpus.size());

  if (runs > 0) {
    std::mt19937_64 rng(seed);
    for (std::uint64_t i = 0; i < runs; ++i)
      run_one(mutate(corpus, rng, max_len));
    std::printf("standalone fuzz driver: %llu mutated run(s), seed %llu\n",
                static_cast<unsigned long long>(runs),
                static_cast<unsigned long long>(seed));
  }
  return 0;
}
