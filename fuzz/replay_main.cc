// Runs a libFuzzer target's entry point over corpus files and
// directories without libFuzzer, so compilers without -fsanitize=fuzzer
// still exercise every seed:
//
//   <target>_replay <file-or-dir>...
//
// Exits nonzero when no file was found (a wrong path must not pass);
// a violated invariant traps inside the target.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size);

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (int i = 1; i < argc; ++i) {
    const fs::path arg(argv[i]);
    if (fs::is_directory(arg)) {
      for (const fs::directory_entry& entry : fs::directory_iterator(arg)) {
        if (entry.is_regular_file()) {
          files.push_back(entry.path());
        }
      }
    } else if (fs::is_regular_file(arg)) {
      files.push_back(arg);
    } else {
      std::cerr << "no such corpus file or directory: " << arg << "\n";
      return 1;
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    std::ifstream file(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(file)),
                            std::istreambuf_iterator<char>());
    LLVMFuzzerTestOneInput(reinterpret_cast<const std::uint8_t*>(bytes.data()),
                           bytes.size());
  }
  std::cout << "replayed " << files.size() << " inputs\n";
  return files.empty() ? 1 : 0;
}
