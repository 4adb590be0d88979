#include "host.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

// The SIMD-relevant subset of /proc/cpuinfo's first "flags" line.
std::string CpuSimdFlags() {
  static const std::vector<std::string> kInteresting = {
      "sse4_2", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512vl",
      "avx512_vnni", "amx_tile", "neon", "asimd", "sve"};
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0 && line.rfind("Features", 0) != 0) continue;
    std::istringstream words(line.substr(line.find(':') + 1));
    std::string word;
    std::string out;
    while (words >> word) {
      for (const std::string& want : kInteresting) {
        if (word == want) out += (out.empty() ? "" : " ") + word;
      }
    }
    return out;
  }
  return "unknown";
}

std::string CompiledIsa() {
  std::string isa;
#if defined(__x86_64__)
  isa = "x86-64";
#elif defined(__aarch64__)
  isa = "aarch64";
#else
  isa = "other";
#endif
#if defined(__AVX512F__)
  isa += "+avx512f";
#elif defined(__AVX2__)
  isa += "+avx2";
#elif defined(__AVX__)
  isa += "+avx";
#endif
#if defined(__FMA__)
  isa += "+fma";
#endif
  return isa;
}

}  // namespace

std::string HostFingerprintJson(std::uint64_t seed, const std::string& git_sha) {
  const char* threads = std::getenv("WFM_NUM_THREADS");
  std::ostringstream out;
  out << "{\"nproc\":" << sysconf(_SC_NPROCESSORS_ONLN)
      << ",\"cpu_simd_flags\":\"" << CpuSimdFlags() << "\""
      << ",\"compiler\":\"" << __VERSION__ << "\""
      << ",\"build_type\":\"" << PERFBENCH_BUILD_TYPE << "\""
      << ",\"compiled_isa\":\"" << CompiledIsa() << "\""
      << ",\"wfm_num_threads\":\"" << (threads != nullptr ? threads : "unset")
      << "\",\"seed\":" << seed << ",\"git_sha\":\"" << git_sha << "\"}";
  return out.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
