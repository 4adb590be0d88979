// Host fingerprint printed with every result, and process resource usage.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// One JSON object: nproc, the CPU's SIMD flags, the compiler, the build
/// type and the ISA the binary was compiled for, WFM_NUM_THREADS, the
/// workload seed and the source revision.
std::string HostFingerprintJson(std::uint64_t seed, const std::string& git_sha);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
