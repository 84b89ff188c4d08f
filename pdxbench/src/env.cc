#include "env.h"

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "kernels/kernel_dispatch.h"

namespace pdxbench {

void Die(const std::string& what, const pdx::Status& status) {
  std::fprintf(stderr, "pdxbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(3);
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  const auto done = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, done.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void RunResult::Stamp(const std::string& key, double value) {
  stamp.emplace_back(key, JsonNumber(value));
}

void RunResult::Stamp(const std::string& key, const std::string& value) {
  stamp.emplace_back(key, JsonString(value));
}

void RunResult::Fail(const std::string& reason) {
  if (correct) Stamp("failure", reason);
  correct = false;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t L3Bytes() {
#ifdef _SC_LEVEL3_CACHE_SIZE
  const long bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return bytes > 0 ? static_cast<size_t>(bytes) : 0;
#else
  return 0;
#endif
}

size_t HardwareThreads() {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online > 0) return static_cast<size_t>(online);
  return std::max<size_t>(1, std::thread::hardware_concurrency());
}

std::string FileSystemOf(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlay";
    case 0x9123683EUL: return "btrfs";
    case 0x2FC12FC1UL: return "zfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof(hex), "0x%lx",
                static_cast<unsigned long>(info.f_type));
  return hex;
}

void StampEnvironment(const RunOptions& options, RunResult& result) {
  result.Stamp("workload", options.workload);
  result.Stamp("seed", static_cast<double>(options.seed));
  result.Stamp("git_sha", options.git_sha);
  result.Stamp("trace", options.trace ? 1.0 : 0.0);
  result.Stamp("seconds", options.seconds);
  result.Stamp("isa", pdx::IsaName(pdx::DispatchedIsa()));
  result.Stamp("nproc", static_cast<double>(HardwareThreads()));
  result.Stamp("l3_bytes", static_cast<double>(L3Bytes()));
  result.Stamp("save_fs", FileSystemOf(options.out_dir));
  // Saves flush exactly as the code under test does (no extra fsync on
  // either side of a comparison).
  result.Stamp("save_flush", "as the library does");
}

}  // namespace pdxbench
