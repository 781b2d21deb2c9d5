// Build identity for the running process, surfaced two ways:
//  - perfiface_build_info / perfiface_process_start_time_seconds at the
//    top of every Prometheus scrape (a service's, or a tool's --metrics),
//    the standard idiom for joining metrics to a binary version in
//    dashboards;
//  - BuildInfoJson() embedded in GET /statusz.
//
// Values are baked in at compile/configure time (PERFIFACE_GIT_DESCRIBE and
// PERFIFACE_BUILD_TYPE come from CMake, the compiler string from
// __VERSION__), so two processes disagreeing on build_info labels really
// are different binaries.
#ifndef SRC_OBS_BUILD_INFO_H_
#define SRC_OBS_BUILD_INFO_H_

#include <string>

namespace perfiface::obs {

// Repo-level version, bumped with each PR series.
const char* BuildVersion();
// `git describe --always --dirty --tags` at configure time; "unknown"
// outside a git checkout.
const char* BuildGitDescribe();
// Compiler identification (from __VERSION__).
const char* BuildCompiler();
// CMAKE_BUILD_TYPE (e.g. "RelWithDebInfo"), or "unknown".
const char* BuildType();

// Unix seconds at process start (captured during static initialization).
double ProcessStartTimeSeconds();

// {"version":...,"git":...,"compiler":...,"build_type":...} for /statusz.
std::string BuildInfoJson();

// Appends the build-info gauge and process start time in Prometheus
// exposition format. Every scrape starts with them: each owner of a scrape
// (PredictionService::StatsPrometheus, psc_tool and pnet_tool --metrics)
// calls this first.
void AppendBuildInfoMetrics(std::string* out);

}  // namespace perfiface::obs

#endif  // SRC_OBS_BUILD_INFO_H_
